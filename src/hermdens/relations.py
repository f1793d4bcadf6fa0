"""Inter-density relations: generation, verification, and fast reduction.

Three cooperating pieces live here.

``theorem_terms`` builds the linear relation satisfied by the densities
alpha(A_., B) whenever pi^{-1}B is still integral: for a label xi ending in
s zeros it combines the promotions xi_plus(xi, a, b) with the coefficients
d_{n,s,i}, and the whole combination annihilates alpha(., B).
``verify_relation`` checks such a relation by direct evaluation.

``ReductionEngine.reduce_normalized`` evaluates normalized densities
A_xi(A_lam) by rewriting instead of direct summation, in Laurent form
internally (every rule coefficient lies in ZZ[q, q^-1]).  The rewrite loop:

  (a) 0 when the weights have different parity ("parity-zero"), and 0 when
      xi_i > lam_i for some i ("support-zero"): the i-th invariant factor of
      A divides the i-th invariant factor of conj(X)^T A X (Newman,
      *Integral Matrices*, Thm II.15), so A_xi represents A_lam only if lam
      dominates xi componentwise;
  (b) shift both labels down by one when both end in positive parts
      (rule id "P2.15");
  (c) drop a common trailing zero (rule id "P2.14");
  (d) otherwise xi ends in 0 and lam_n >= 1: apply the rewrite rule of xi's
      signature (parts >= 3 written "*").  Each rule is ``theorem_terms``
      for xi solved for its xi term (coefficient 1), with the terms of the
      other weight parity dropped, every coefficient scaled by the ratio of
      closed self-densities, and children still ending in 0 rewritten in
      turn.  Rules are derived on first use and kept for the process; ranks
      2-4 carry the ids "C2.17.*", "C2.19.*", "C2.20.*" of
      ``REWRITE_RULES``, larger ranks ids "derived:<signature>".

Every evaluation returns an auditable ``ReductionTrace`` whose replay
reproduces the value exactly.  Each rewrite strictly decreases the measure
(|lam|, trailing zeros of xi, n), which is checked per step; a violation
raises ``RuntimeError``.

``alpha_via_generic_reduction`` works at the unnormalized alpha level for
arbitrary n: the reduced normalized density times the closed self-density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import hironaka
from .partitions import (
    check_partition,
    d_coefficients,
    fill_pattern,
    match_pattern,
    trailing_zeros,
    weight,
    xi_plus,
)
from .qalgebra import ONE, RatFunc, ZERO, lau_iadd_scaled, lau_mul, neg_q_power


# ---------------------------------------------------------------------------
# relation generation and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """A finite combination sum_i coeff_i * alpha(A_{part_i}, B) that vanishes
    for every B = A_lam with all parts >= 1."""

    terms: tuple          # tuple of (RatFunc, partition)
    context: tuple        # (n, s, xi)

    def partitions(self):
        return tuple(p for _, p in self.terms)


def theorem_terms(n, s, xi):
    """The vanishing relation attached to xi with s trailing zeros.

    Terms are [(d_{n,s,i}, xi_plus(xi,0,i))] plus
    [(-(-1)^s (-q)^{-ns} d_{n,s,i}, xi_plus(xi,i,s-i))], with coefficients
    of duplicate partitions merged and exact zeros dropped.  The xi term
    itself always survives with coefficient exactly 1.
    """
    xi = check_partition(xi)
    if len(xi) != n:
        raise ValueError(f"xi has length {len(xi)}, expected {n}")
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}")
    if trailing_zeros(xi) != s:
        raise ValueError(f"{xi} does not end in exactly {s} zeros")
    ds = d_coefficients(n, s)
    pref = neg_q_power(-n * s)
    if s % 2:
        pref = -pref
    acc = {}
    for i in range(s + 1):
        p = xi_plus(xi, 0, i)
        acc[p] = acc.get(p, ZERO) + ds[i]
    for i in range(s + 1):
        p = xi_plus(xi, i, s - i)
        acc[p] = acc.get(p, ZERO) - pref * ds[i]
    terms = tuple((c, p) for p, c in sorted(acc.items(), reverse=True) if not c.is_zero)
    return Relation(terms=terms, context=(n, s, xi))


def verify_relation(rel, lam, engine=None):
    """Evaluate the relation against B = A_lam; returns (is_zero, residual).

    Valid instances require all parts of lam >= 1; calls with lam_n = 0 are
    deliberate negative controls and generally leave a nonzero residual.
    """
    lam = check_partition(lam)
    engine = engine or hironaka.default_engine()
    residual = ZERO
    for coeff, part in rel.terms:
        residual = residual + coeff * engine.alpha(part, lam)
    return residual.is_zero, residual


# ---------------------------------------------------------------------------
# normalized rewrite rules, derived from theorem_terms
# ---------------------------------------------------------------------------

def _signature(xi):
    """The rewrite-rule key of a label: every part >= 3 becomes "*"."""
    return tuple("*" if x >= 3 else x for x in xi)


@dataclass(frozen=True)
class RewriteRule:
    """A_xi(B) = sum_p c_p A_p(B) for every xi matching pattern and every B
    with all parts >= 1."""

    rule_id: str
    pattern: tuple       # a signature: ints match exactly, "*" matches any value >= 3

    @property
    def rhs(self):
        """Tuple of (RatFunc coefficient, target template), derived on first use."""
        return _derived_rhs(self.pattern)[0]

    def match(self, xi):
        """Positional placeholder bindings, or None; () means a literal match."""
        return match_pattern(self.pattern, xi)

    def instantiate(self, bind):
        return [(coeff, fill_pattern(tpl, bind)) for coeff, tpl in self.rhs]

    def instantiate_laurent(self, bind):
        """``instantiate`` with each coefficient as a shared Laurent dict (never mutate it)."""
        return [(coeff, fill_pattern(tpl, bind)) for coeff, tpl in _derived_rhs(self.pattern)[1]]


# The named rules of ranks 2-4 (ids from the source's corollaries 2.17, 2.19
# and 2.20), in table order; every zero-tailed signature of these ranks has one.
_NAMED_RULES = {
    2: (("C2.17.1", (0, 0)), ("C2.17.2", (1, 0)), ("C2.17.3", (2, 0)), ("C2.17.4", ("*", 0))),
    3: (("C2.19.1", (0, 0, 0)), ("C2.19.2", (1, 0, 0)), ("C2.19.3", (1, 1, 0)),
        ("C2.19.4", ("*", "*", 0)), ("C2.19.5", ("*", 2, 0)), ("C2.19.6", (2, 2, 0)),
        ("C2.19.7", ("*", 0, 0)), ("C2.19.8", (2, 0, 0)), ("C2.19.9", (2, 1, 0)),
        ("C2.19.10", ("*", 1, 0))),
    4: (("C2.20.1", ("*", "*", "*", 0)), ("C2.20.2", ("*", "*", 2, 0)),
        ("C2.20.3", ("*", "*", 1, 0)), ("C2.20.4", ("*", 2, 2, 0)),
        ("C2.20.5", ("*", 2, 1, 0)), ("C2.20.6", ("*", 1, 1, 0)),
        ("C2.20.7", (2, 2, 2, 0)), ("C2.20.8", (2, 2, 1, 0)), ("C2.20.9", (2, 1, 1, 0)),
        ("C2.20.10", (1, 1, 1, 0)), ("C2.20.11", ("*", "*", 0, 0)),
        ("C2.20.12", ("*", 2, 0, 0)), ("C2.20.13", ("*", 1, 0, 0)),
        ("C2.20.14", (2, 2, 0, 0)), ("C2.20.15", (2, 1, 0, 0)), ("C2.20.16", (1, 1, 0, 0)),
        ("C2.20.17", ("*", 0, 0, 0)), ("C2.20.18", (2, 0, 0, 0)),
        ("C2.20.19", (1, 0, 0, 0)), ("C2.20.20", (0, 0, 0, 0))),
}

REWRITE_RULES = {n: tuple(RewriteRule(rid, pat) for rid, pat in rows)
                 for n, rows in _NAMED_RULES.items()}

# Process-wide, because callers build a fresh ReductionEngine per computation:
# rules by signature (named ones first, derived ids added on demand) and
# right-hand sides by signature, each derived once.
_RULES = {rule.pattern: rule for rules in REWRITE_RULES.values() for rule in rules}
_RHS = {}


def _derived_rhs(sig):
    """(rhs, laurent rhs) of a signature: the same right-hand side with RatFunc
    and with Laurent-dict coefficients; ``NotLaurentError`` if one is not Laurent."""
    entry = _RHS.get(sig)
    if entry is None:
        rhs = _derive_rhs(sig)
        entry = _RHS[sig] = (rhs, tuple((c.as_laurent(), tpl) for c, tpl in rhs))
    return entry


def _derive_rhs(sig):
    """Solve theorem_terms for the xi term, normalized, with zero-tailed children
    rewritten in turn; children in ascending label order."""
    # The "*" parts lead, no promotion changes them, and they cancel in every
    # self-density ratio below, so 3 stands for all of them.
    stars = (3,) * sig.count("*")
    xi = fill_pattern(sig, stars)
    own = hironaka.self_density_closed(xi)
    acc = {}
    for c, p in theorem_terms(len(xi), trailing_zeros(xi), xi).terms:
        # terms of the other weight parity vanish wherever A_xi(B) can be nonzero
        if p == xi or (weight(p) - weight(xi)) % 2:
            continue
        c = -c * hironaka.self_density_closed(p) / own
        # p has fewer trailing zeros than xi, so this recursion ends
        subs = _derived_rhs(_signature(p))[0] if p[-1] == 0 else ((ONE, _signature(p)),)
        for c2, tpl in subs:
            child = fill_pattern(tpl, stars)
            acc[child] = acc.get(child, ZERO) + c * c2
    return tuple((c, _signature(p)) for p, c in sorted(acc.items()) if not c.is_zero)


def match_rewrite(xi):
    """The rewrite rule for a label ending in 0 and its "*" bindings, or None."""
    if not xi or xi[-1] != 0:
        return None
    sig = _signature(xi)
    rule = _RULES.get(sig)
    if rule is None:
        rule = _RULES.setdefault(sig, RewriteRule("derived:" + ",".join(map(str, sig)), sig))
    return rule, rule.match(xi)


# ---------------------------------------------------------------------------
# reduction traces
# ---------------------------------------------------------------------------

@dataclass
class TraceChild:
    factor: RatFunc
    xi: tuple
    lam: tuple
    value: RatFunc = None      # inline value for leaves and warm-memo hits
    note: str = None           # "parity-zero", "support-zero", "base-n1", "memo"

    def to_json(self):
        d = {"factor": self.factor.to_json(), "xi": list(self.xi), "lambda": list(self.lam)}
        if self.value is not None:
            d["value"] = self.value.to_json()
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class TraceStep:
    rule_id: str
    xi_before: tuple
    lam_before: tuple
    children: list = field(default_factory=list)
    value: RatFunc = None      # value of this node (terminal steps carry it alone)

    def to_json(self):
        d = {
            "rule_id": self.rule_id,
            "xi_before": list(self.xi_before),
            "lambda_before": list(self.lam_before),
            "xi_after": None,
            "lambda_after": None,
            "factor": None,
            "additive_siblings": [c.to_json() for c in self.children[1:]],
        }
        if self.children:
            first = self.children[0]
            d["xi_after"] = list(first.xi)
            d["lambda_after"] = list(first.lam)
            d["factor"] = first.factor.to_json()
            if first.value is not None:
                d["value"] = first.value.to_json()
        elif self.value is not None:
            d["value"] = self.value.to_json()
        return d


@dataclass
class ReductionTrace:
    root: tuple
    steps: list = field(default_factory=list)
    _expanded: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._expanded.update((s.xi_before, s.lam_before) for s in self.steps)

    def add(self, step):
        self.steps.append(step)
        self._expanded.add((step.xi_before, step.lam_before))
        return step

    def has_expanded(self, key):
        return key in self._expanded

    def __len__(self):
        return len(self.steps)

    def rule_ids(self):
        return [s.rule_id for s in self.steps]

    def replay(self):
        """Recompute the root value from the recorded steps alone."""
        by_key = {(s.xi_before, s.lam_before): s for s in self.steps}
        memo = {}

        def value_of(key):
            if key in memo:
                return memo[key]
            step = by_key[key]
            if not step.children:
                val = step.value
            else:
                val = ZERO
                for child in step.children:
                    sub = child.value if child.value is not None \
                        else value_of((child.xi, child.lam))
                    val = val + child.factor * sub
            memo[key] = val
            return val

        return value_of(self.root)

    def to_json(self):
        return [s.to_json() for s in self.steps]

    def dumps(self, **kw):
        return json.dumps(self.to_json(), **kw)


# ---------------------------------------------------------------------------
# the normalized reduction engine
# ---------------------------------------------------------------------------

def _measure(xi, lam):
    return (weight(lam), trailing_zeros(xi), len(xi))


# Laurent constants shared by many memo entries; like every stored value they
# are never mutated.
_LAU_ZERO = {}
_LAU_ONE = {0: 1}


class ReductionEngine:
    """Rewrites normalized densities with memoization and auditable traces.

    Internally every value is a Laurent dict {exponent: coefficient} in
    ZZ[q, q^-1]: the memo holds them, children are combined with ``lau_mul``
    and ``lau_iadd_scaled``, and each rule's coefficients are converted once,
    next to the rule itself.  A ``RatFunc`` is built only at the boundary, by
    ``normalized_value``, ``reduce_normalized`` and the recorded trace.  A
    coefficient or leaf outside ZZ[q, q^-1] raises ``NotLaurentError``.
    Stored values are never mutated, so one engine may be shared by threads.
    """

    def __init__(self, hironaka_engine=None):
        self.hironaka = hironaka_engine or hironaka.HironakaEngine()
        self._memo = {}

    # leaf evaluation shared by the tracing and non-tracing paths
    def _leaf(self, xi, lam):
        if (weight(xi) - weight(lam)) % 2:
            return _LAU_ZERO, "parity-zero"
        for x, l in zip(xi, lam):
            if x > l:
                return _LAU_ZERO, "support-zero"
        if len(xi) == 1:
            return self.hironaka.normalized(xi, lam).as_laurent(), "base-n1"
        return None

    def _expansion(self, xi, lam):
        """One rewrite: (rule_id, [(Laurent factor, child_xi, child_lam)])."""
        if xi[-1] >= 1 and lam[-1] >= 1:
            return "P2.15", [(_LAU_ONE, tuple(x - 1 for x in xi), tuple(x - 1 for x in lam))]
        if lam[-1] == 0:
            return "P2.14", [(_LAU_ONE, xi[:-1], lam[:-1])]
        # past the leaves (xi <= lam componentwise): xi_n = 0 < lam_n
        rule, bind = match_rewrite(xi)
        return rule.rule_id, [(c, p, lam) for c, p in rule.instantiate_laurent(bind)]

    def _eval(self, xi, lam, trace):
        key = (xi, lam)
        # read once: another thread may fill the key between two reads
        cached = self._memo.get(key)
        if cached is not None and trace is None:
            return cached
        leaf = self._leaf(xi, lam)
        if leaf is not None:
            val, rule = leaf
            if trace is not None:
                trace.add(TraceStep(rule, xi, lam, value=RatFunc.from_laurent(val)))
            self._memo[key] = val
            return val
        if cached is not None:
            # warm cache at the trace root: record a terminal step with the value
            trace.add(TraceStep("memo", xi, lam, value=RatFunc.from_laurent(cached)))
            return cached
        rule_id, children = self._expansion(xi, lam)
        step = trace.add(TraceStep(rule_id, xi, lam)) if trace is not None else None
        here = _measure(xi, lam)
        val = {}
        for factor, cxi, clam in children:
            if not _measure(cxi, clam) < here:
                raise RuntimeError(
                    f"non-decreasing step {rule_id}: {(xi, lam)} -> {(cxi, clam)}")
            ckey = (cxi, clam)
            note = None
            cleaf = self._leaf(cxi, clam)
            if cleaf is not None:
                sub, note = cleaf
                self._memo.setdefault(ckey, sub)
            else:
                sub = self._memo.get(ckey)
                if sub is None:
                    sub = self._eval(cxi, clam, trace)
                elif trace is None or not trace.has_expanded(ckey):
                    # value computed before this trace began: inline it
                    note = "memo"
            if len(children) == 1 and factor is _LAU_ONE:
                val = sub           # shared with the child, as both are never mutated
            else:
                lau_iadd_scaled(val, lau_mul(factor, sub))
            if step is not None:
                step.children.append(TraceChild(
                    RatFunc.from_laurent(factor), cxi, clam,
                    value=None if note is None else RatFunc.from_laurent(sub), note=note))
        if step is not None:
            step.value = RatFunc.from_laurent(val)
        self._memo[key] = val
        return val

    def normalized_value(self, xi, lam):
        """The value alone, with memoization but no trace."""
        xi = check_partition(xi)
        lam = check_partition(lam)
        if len(xi) != len(lam):
            raise ValueError("normalized density needs labels of equal length")
        return RatFunc.from_laurent(self._eval(xi, lam, None))

    def reduce_normalized(self, xi, lam):
        """Evaluate A_xi(A_lam) by rewriting; returns (value, ReductionTrace)."""
        xi = check_partition(xi)
        lam = check_partition(lam)
        if len(xi) != len(lam):
            raise ValueError("normalized density needs labels of equal length")
        trace = ReductionTrace(root=(xi, lam))
        val = self._eval(xi, lam, trace)
        return RatFunc.from_laurent(val), trace


def reduce_normalized(xi, lam, engine=None):
    engine = engine or ReductionEngine()
    return engine.reduce_normalized(xi, lam)


# ---------------------------------------------------------------------------
# generic unnormalized reduction
# ---------------------------------------------------------------------------

class GenericAlphaReducer:
    """Evaluates alpha(A_xi, A_lam) for equal lengths through the relations:
    the normalized density from the reduction engine times the closed
    self-density."""

    def __init__(self, hironaka_engine=None, reduction_engine=None):
        self.hironaka = hironaka_engine or hironaka.HironakaEngine()
        self.reducer = reduction_engine or ReductionEngine(self.hironaka)

    def alpha_value(self, xi, lam):
        return self.reducer.normalized_value(xi, lam) * hironaka.self_density_closed(xi)


def alpha_via_generic_reduction(xi, lam, reducer=None):
    reducer = reducer or GenericAlphaReducer()
    return reducer.alpha_value(xi, lam)
