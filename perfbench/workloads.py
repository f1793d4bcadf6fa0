"""The four benchmark workloads: seeded inputs, the timed operation of each
case, and the output check that runs off the clock.

A case is one user-level operation, done the way the matching CLI command
does it (``hermdens alpha``/``self``, ``verify conjecture``/``derivative``,
``verify theorem``/``corollary``, ``crosscheck``).  Inputs come from the
workload seed; where a case's cost varies widely with its labels, the seed
draws a fixed number of cases from each cost stratum of a pinned universe
(``reference/<workload>.json``), so that two seeds give passes of nearly the
same total work while still exercising different labels.  The strata and
the reference digests are written by ``make_reference.py``.

Every output is checked against an independent path or a pinned reference:

* ``alpha``: the canonical-JSON digest pinned in the reference file, and for
  self-densities ``self_density_closed`` wherever the tables cover the shape;
* ``conjecture``: ``equal is True``, the pinned digest of the derived density
  and, for the derived-density families, their closed forms;
* ``sankaran``: the pinned digest; ``difference``: a zero residual;
* ``theorem``: a zero residual; ``control`` (lam_n = 0): a nonzero residual;
* ``corollary``: both sides of the rewrite rule agree;
* ``generic``: ``GenericAlphaReducer`` agrees with direct evaluation on a
  separate engine;
* ``crosscheck``: the oracle count equals the symbolic value at q = p, and
  so does the d+1 count where it is run.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import hermdens
from hermdens import (
    GenericAlphaReducer,
    HironakaEngine,
    NotTabulated,
    ReductionEngine,
    conjecture_check,
    difference_identity_check,
    sankaran_intersection,
    self_density_closed,
    theorem_terms,
    verify_relation,
)
from hermdens.oracle import DEFAULT_BUDGET, GaloisRingParams, density_oracle
from hermdens.partitions import lambda_ns_elements, partitions_fixed_length
from hermdens.qalgebra import ZERO, Q
from hermdens.relations import REWRITE_RULES

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("alpha-direct", "geometry-reduce", "relation-sweep", "oracle-crosscheck")

# The kind of work that dominates a workload's time, which picks the host-speed
# sample its times are scaled by: oracle counting is numpy, the rest pure Python.
HOST_WORK = {"oracle-crosscheck": "numpy"}

# Largest candidate-column array an oracle call may build.  The library's
# work budget does not bound memory (its column space is modulus^(2m) rows
# held at once), so the benchmark refuses anything larger before calling.
COLUMN_BYTES_CEILING = 256 * 2 ** 20

# cases drawn per cost stratum of a pinned universe
PER_STRATUM = 2

RULES = {rule.rule_id: rule for rules in REWRITE_RULES.values() for rule in rules}

# the four degenerate-B controls of the acceptance suite, always included
FIXED_CONTROLS = (
    (1, 1, (0,), (0,)),
    (2, 1, (1, 0), (1, 0)),
    (2, 2, (0, 0), (2, 0)),
    (3, 1, (2, 2, 0), (2, 2, 0)),
)


class MemoryGuardRefusal(RuntimeError):
    """An oracle call would build a column space above COLUMN_BYTES_CEILING."""


class Case:
    """One operation: a kind, its arguments and, if pinned, the value digest."""

    __slots__ = ("kind", "args", "expect", "memo")

    def __init__(self, kind, args, expect=None):
        self.kind = kind
        self.args = args
        self.expect = expect
        self.memo = None          # off-clock reference value, computed once

    @classmethod
    def from_json(cls, obj):
        return cls(obj["kind"], _tuples(obj["args"]), obj.get("expect"))

    def to_json(self):
        return {"kind": self.kind, "args": _lists(self.args), "expect": self.expect}

    def size(self):
        """A short description of the case's kind and size, for provenance."""
        a = self.args
        if self.kind in ("alpha", "generic"):
            return f"{self.kind} {_lab(a[0])} {_lab(a[1])}"
        if self.kind == "corollary":
            return f"corollary {a[0]} {_lab(a[1])} {_lab(a[2])}"
        if self.kind in ("theorem", "control"):
            return f"{self.kind} n={a[0]} s={a[1]} {_lab(a[2])} {_lab(a[3])}"
        if self.kind == "crosscheck":
            xi, lam, p, d, confirm = a
            return f"crosscheck {_lab(xi)} {_lab(lam)} p={p} d={d}{'+1' if confirm else ''}"
        return f"{self.kind} {_lab(a[0])}"


def _lab(parts):
    return ",".join(str(x) for x in parts) or "-"


def _tuples(x):
    return tuple(_tuples(y) for y in x) if isinstance(x, list) else x


def _lists(x):
    return [_lists(y) for y in x] if isinstance(x, tuple) else x


def digest(value):
    """Digest of a RatFunc's canonical JSON form."""
    blob = json.dumps(value.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def source_digest():
    """Digest of the hermdens sources measured, since a checkout may carry no git sha."""
    h = hashlib.sha256()
    for path in sorted(Path(hermdens.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# the oracle's memory guard
# ---------------------------------------------------------------------------

def column_bytes(modulus, m):
    """Bytes of the two int64 (K, m) column arrays, K = modulus^(2m)."""
    return modulus ** (2 * m) * 2 * m * 8


def oracle_admits(p, d, m, n):
    """Whether a count at this size is inside the library budget and the ceiling."""
    return (p ** d) ** (2 * m * n) <= DEFAULT_BUDGET and column_bytes(p ** d, m) <= COLUMN_BYTES_CEILING


def _guarded_density(xi, lam, p, d):
    m = len(xi)
    need = column_bytes(p ** d, m)
    if need > COLUMN_BYTES_CEILING:
        raise MemoryGuardRefusal(
            f"oracle p={p} d={d} m={m} needs {need} column bytes > {COLUMN_BYTES_CEILING}")
    return density_oracle(xi, lam, GaloisRingParams(p, d))


# ---------------------------------------------------------------------------
# case generation
# ---------------------------------------------------------------------------

def theorem_grid():
    """The `verify theorem` sweep for n = 3, 4: every s, xi parts <= 3, lam parts 1..4."""
    out = []
    for n in (3, 4):
        lams = list(partitions_fixed_length(n, 1, 4))
        for s in range(1, n + 1):
            for xi in lambda_ns_elements(n, s, 3):
                out.extend(Case("theorem", (n, s, xi, lam)) for lam in lams)
    return out


def corollary_universe():
    """`verify corollary` cases: each rule, placeholders from {3, 4}, B parts 1..3."""
    out = []
    for n, rules in sorted(REWRITE_RULES.items()):
        lams = list(partitions_fixed_length(n, 1, 3))
        for rule in rules:
            slots = sum(1 for t in rule.pattern if t == "*")
            fills = list(partitions_fixed_length(slots, 3, 4)) if slots else [()]
            out.extend(Case("corollary", (rule.rule_id, fill, lam))
                       for fill in fills for lam in lams)
    return out


def make_cases(workload, seed):
    """The seeded, shuffled case list of one pass."""
    rng = random.Random(f"{workload}:{seed}")
    ref = load_reference(workload)
    if workload == "relation-sweep":
        cases = theorem_grid()
        cases += rng.sample(corollary_universe(), 60)
        for _ in range(40):
            n = rng.randint(1, 5)
            xi = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
            lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
            cases.append(Case("generic", (xi, lam)))
        cases += [Case("control", c) for c in FIXED_CONTROLS]
        cases += [Case.from_json(c) for c in rng.sample(ref["controls"], 6)]
    else:
        cases = [Case.from_json(c) for stratum in ref["strata"]
                 for c in rng.sample(stratum, PER_STRATUM)]
        cases += [Case.from_json(c) for c in ref.get("always", ())]
        for kind, k in ref.get("extra", {}).items():
            cases += [Case.from_json(c) for c in rng.sample(ref[kind], k)]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# per-pass state and the timed operation
# ---------------------------------------------------------------------------

class PassState:
    """Engines a pass shares: one per `verify theorem` sweep, none otherwise."""

    __slots__ = ("hiro", "generic")

    def __init__(self, workload):
        self.hiro = self.generic = None
        if workload == "relation-sweep":
            self.hiro = HironakaEngine()
            self.generic = GenericAlphaReducer(self.hiro)


def run_case(case, state):
    """The operation under measurement; returns what the check needs."""
    kind, a = case.kind, case.args
    if kind == "alpha":
        return HironakaEngine().alpha(*a)
    if kind == "conjecture":
        return conjecture_check(a[0], engine=ReductionEngine())
    if kind == "sankaran":
        return sankaran_intersection(a[0], engine=ReductionEngine())
    if kind == "difference":
        return difference_identity_check(a[0], engine=ReductionEngine())
    if kind in ("theorem", "control"):
        n, s, xi, lam = a
        return verify_relation(theorem_terms(n, s, xi), lam, state.hiro)
    if kind == "corollary":
        rule_id, fill, lam = a
        rule = RULES[rule_id]
        it = iter(fill)
        xi = tuple(next(it) if t == "*" else t for t in rule.pattern)
        lhs = state.hiro.normalized(xi, lam)
        rhs = ZERO
        for coeff, part in rule.instantiate(fill):
            rhs = rhs + coeff * state.hiro.normalized(part, lam)
        return lhs, rhs
    if kind == "generic":
        return state.generic.alpha_value(*a)
    if kind == "crosscheck":
        xi, lam, p, d, confirm = a
        symbolic = HironakaEngine().alpha(xi, lam).evaluate_at(p)
        empirical = _guarded_density(xi, lam, p, d)
        confirmed = _guarded_density(xi, lam, p, d + 1) if confirm else None
        return symbolic, empirical, confirmed
    raise ValueError(f"unknown case kind {kind!r}")


# ---------------------------------------------------------------------------
# off-clock checks
# ---------------------------------------------------------------------------

def family_closed_form(b):
    """Closed forms of the rank-4 derived-density families, or None."""
    a, tail = b[0], b[1:]
    half, q = a // 2, Q
    if tail == (1, 0, 0):
        return (q + 1) * half + 1
    if tail == (1, 1, 1):
        return half * (q + 1) * (q ** 3 + 1) + 2 + q - q ** 2
    if tail == (3, 0, 0):
        return (q + 1) * (q ** 2 + 1) * half - q ** 3 + q + 2
    if tail == (3, 1, 1):
        return half * (q + 1) * (q ** 5 + q ** 4 + q ** 3 + 1) - (q + 1) * (q ** 5 - q ** 3 + q - 3)
    if tail == (2, 1, 0):
        return half * (q + 1) - q ** 3 - q ** 2 + q + 2
    if tail == (4, 2, 1):
        return (half * (q + 1) * (q ** 4 + q ** 3 + 1)
                - q ** 8 - 3 * q ** 7 - 3 * q ** 6 - q ** 5
                + 3 * q ** 4 + 2 * q ** 3 - q ** 2 + 3 * q + 4)
    return None


def _self_closed(xi):
    try:
        return self_density_closed(xi, HironakaEngine())
    except NotTabulated:
        return None


def check_case(case, out):
    """None if the output is right, else a one-line reason."""
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    kind, a = case.kind, case.args
    if kind == "alpha":
        if digest(out) != case.expect:
            return "digest differs from the pinned reference"
        if a[0] == a[1]:
            if case.memo is None:
                case.memo = (_self_closed(a[0]),)
            closed = case.memo[0]
            if closed is not None and closed != out:
                return "self-density differs from self_density_closed"
        return None
    if kind == "conjecture":
        if out.equal is not True:
            return "conjecture expansion not equal"
        if digest(out.lhs) != case.expect:
            return "derived density differs from the pinned reference"
        closed = family_closed_form(a[0])
        if closed is not None and closed != out.lhs:
            return "derived density differs from the family closed form"
        return None
    if kind == "sankaran":
        return None if digest(out) == case.expect else "digest differs from the pinned reference"
    if kind in ("difference", "theorem"):
        ok, residual = out
        return None if ok and residual.is_zero else f"nonzero residual {residual}"
    if kind == "control":
        ok, residual = out
        return None if not ok and not residual.is_zero else "negative control has zero residual"
    if kind == "corollary":
        lhs, rhs = out
        return None if lhs == rhs else f"rewrite mismatch {lhs - rhs}"
    if kind == "generic":
        if case.memo is None:
            case.memo = HironakaEngine().alpha(*a)
        return None if out == case.memo else "generic reduction differs from direct alpha"
    if kind == "crosscheck":
        symbolic, empirical, confirmed = out
        if symbolic != empirical:
            return f"oracle {empirical} != symbolic {symbolic}"
        if confirmed is not None and confirmed != empirical:
            return f"d+1 oracle {confirmed} != d oracle {empirical}"
        return None
    return f"unknown case kind {kind!r}"
