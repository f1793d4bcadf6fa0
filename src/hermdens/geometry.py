"""Derived densities and special-cycle intersection numbers.

The quantities here are finite weighted sums of normalized densities over
families of partitions.  The sums are written with unbounded index ranges
but only finitely many terms are nonzero; since no a-priori vanishing bound
is assumed, every sum is evaluated level by level (grouping partitions by
first part) under an explicit ``SumTruncationPolicy``: iteration stops once
``zero_tail_window`` consecutive levels contribute exactly zero term by
term, and fails loudly with ``TruncationUnsoundError`` if that never
happens up to ``hard_cap``.  After a successful stop, one probe term beyond
the cap is evaluated and must be zero.  Each sum passes the support box of
its term: a label with a part above B's part at the same index is 0 (the
"support-zero" rule), so only the partitions inside the box are evaluated,
and the labels outside it are counted in the level's report, not evaluated.

Operations:

* ``derivative_0000``       -- the derived density of the rank-4 unimodular
  class, via the weighted-lattice (Cho-Yamauchi style) sum with weights
  1, (1+q), (1+q)(1-q^2), (1+q)(1-q^2)(1+q^3) over tails of 0..3 zeros;
* ``sankaran_intersection`` -- the rank-2 special-cycle intersection number
  as a weighted lattice count;
* ``difference_identity_check`` -- the two evaluations of the intersection
  difference under scaling one vector by 1/pi must agree;
* ``conjecture_check``      -- the proposed expansion of the rank-4 derived
  density into horizontal terms and vertex-lattice counts of type (1,1,1,0).

Inner normalized densities come from the reduction engine by default, or
from direct evaluation for cross-checking; either way through the engine's
``laurent_value``, which returns a Laurent dict {exponent: coefficient}
(every density here lies in ZZ[q, q^-1]).  A call without ``engine`` builds
a fresh ``ReductionEngine``; pass one engine to several calls to share its
memo.  Before an engine is asked, a screen answers 0 for labels that
``relations.provable_zero`` rules out (weight parity and componentwise
support), as most labels in these sums are; a screened term still counts
in its level's report.  The sums, their weights and the term functions stay
in Laurent form, and each public function builds one exact ``RatFunc`` per
value it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hironaka
from .partitions import check_partition, count_first_part, partitions_first_part, weight
from .qalgebra import RatFunc, lau_iadd_scaled, lau_mul
from .relations import ReductionEngine, provable_zero


class TruncationUnsoundError(RuntimeError):
    """A partition sum failed to reach its zero tail within the hard cap."""


@dataclass(frozen=True)
class SumTruncationPolicy:
    """hard_cap bounds the first part scanned; zero_tail_window is the number
    of consecutive all-zero levels required to stop (at least 2)."""

    hard_cap: int
    zero_tail_window: int = 2

    def __post_init__(self):
        if self.zero_tail_window < 2:
            raise ValueError("zero_tail_window must be >= 2")
        if self.hard_cap < 1:
            raise ValueError("hard_cap must be >= 1")

    @classmethod
    def for_target(cls, parts, zero_tail_window=2, min_cap=4):
        """Default policy for a target class: cap at max part + 2, floored so
        that the caller's highest starting level can still see a zero tail."""
        cap = max(max(parts) + 2, min_cap)
        return cls(hard_cap=cap, zero_tail_window=zero_tail_window)


@dataclass
class LevelRecord:
    level: int
    terms: int
    all_zero: bool


@dataclass
class SumReport:
    name: str
    stopped_at: int = None
    probe_level: int = None
    levels: list = field(default_factory=list)

    def to_json(self):
        return {
            "name": self.name,
            "stopped_at": self.stopped_at,
            "probe_level": self.probe_level,
            "levels": [{"level": r.level, "terms": r.terms, "all_zero": r.all_zero}
                       for r in self.levels],
        }


def truncated_partition_sum(name, length, start, term_fn, policy, min_part=1, bound=None):
    """Sum term_fn over partitions of the given length with parts >= min_part,
    grouped by first part from ``start`` upward, under the truncation policy.

    Terms and the sum are Laurent dicts; returns (value, SumReport).  A level
    counts as zero only when every term at that level is exactly zero
    (cancellation does not stop the scan).  ``bound`` is the caller's support
    box: term_fn must be exactly zero on every partition with some
    part[i] > bound[i], so it runs only inside the box, while each level's
    report still counts every partition of the level.  The probe term is
    evaluated whatever the box.
    """
    total = {}
    report = SumReport(name=name)
    zero_run = 0
    stopped = None
    for level in range(start, policy.hard_cap + 1):
        all_zero = True
        for part in partitions_first_part(level, length, min_part, bound):
            val = term_fn(part)
            if val:
                all_zero = False
                lau_iadd_scaled(total, val)
        n_terms = count_first_part(level, length, min_part)
        report.levels.append(LevelRecord(level, n_terms, all_zero))
        zero_run = zero_run + 1 if all_zero else 0
        if zero_run >= policy.zero_tail_window:
            stopped = level
            break
    if stopped is None:
        raise TruncationUnsoundError(
            f"{name}: no zero tail of length {policy.zero_tail_window} "
            f"within hard cap {policy.hard_cap}")
    report.stopped_at = stopped
    probe_level = policy.hard_cap + 1
    probe_part = next(partitions_first_part(probe_level, length, min_part))
    if term_fn(probe_part):
        raise TruncationUnsoundError(f"{name}: nonzero probe term at level {probe_level}")
    report.probe_level = probe_level
    return total, report


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def make_engine(kind="reduce"):
    if kind == "reduce":
        return ReductionEngine()
    if kind == "direct":
        return hironaka.HironakaEngine()
    raise ValueError(f"unknown engine kind {kind!r}")


def _screened(engine):
    """A_xi(A_lam) as a Laurent dict for labels built here: {} where
    ``provable_zero`` applies, else the engine's ``laurent_value``.  The
    returned dicts may be shared and are never mutated."""
    value = engine.laurent_value

    def screened(xi, lam):
        return {} if provable_zero(xi, lam) else value(xi, lam)
    return screened


def _combine(pairs):
    """sum of coeff * value over (Laurent coeff, Laurent value) pairs, as a new
    dict; an empty value, a screened-out zero, costs no product."""
    acc = {}
    for coeff, val in pairs:
        if val:
            lau_iadd_scaled(acc, lau_mul(coeff, val))
    return acc


# Laurent constants of the sums below
_LAU_ONE = {0: 1}
_ONE_MINUS_Q = {0: 1, 1: -1}
_ONE_MINUS_Q2 = {0: 1, 2: -1}
_MINUS_Q = {1: -1}
_MINUS_Q2 = {2: -1}
_Q_MINUS_Q2 = {1: 1, 2: -1}


# ---------------------------------------------------------------------------
# the rank-4 derived density
# ---------------------------------------------------------------------------

_W1 = _LAU_ONE
_W2 = {0: 1, 1: 1}
_W3 = lau_mul(_W2, _ONE_MINUS_Q2)                   # (1+q)(1-q^2)
_W4 = lau_mul(_W3, {0: 1, 3: 1})                    # (1+q)(1-q^2)(1+q^3)


def _validate_rank4(b):
    b = check_partition(b)
    if len(b) != 4:
        raise ValueError(f"need a length-4 class, got {b}")
    if not b[0] > b[1]:
        raise ValueError(f"need a strictly dominant first part, got {b}")
    return b


def _derivative_laurent(b, policy, engine):
    """``derivative_0000_report`` of a validated class, as a Laurent dict."""
    nv = _screened(engine)
    sums = []
    total = {}
    for k, coeff in ((1, _W1), (2, _W2), (3, _W3), (4, _W4)):
        def term(part, _k=k):
            return nv(part + (0,) * (4 - _k), b)
        val, rep = truncated_partition_sum(
            f"tail{4 - k}-zeros", k, 1, term, policy, bound=b[:k])
        sums.append(rep)
        lau_iadd_scaled(total, lau_mul(coeff, val))
    return total, sums


def derivative_0000_report(b, policy=None, engine=None):
    """Derived density of the rank-4 unimodular class against B, with reports."""
    b = _validate_rank4(b)
    policy = policy or SumTruncationPolicy.for_target(b)
    total, sums = _derivative_laurent(b, policy, engine or ReductionEngine())
    return RatFunc.from_laurent(total), sums


def derivative_0000(b, policy=None, engine=None):
    return derivative_0000_report(b, policy, engine)[0]


# ---------------------------------------------------------------------------
# rank-2 intersection numbers
# ---------------------------------------------------------------------------

def sankaran_intersection_report(b, policy=None, engine=None):
    """<Z(x), Z(y)> for a rank-2 class B, as a weighted lattice count:

        -(q-1) A_11(B) - (q^2-1) sum_{l>=k>=2} A_lk(B)
        + sum_{l>=2} A_l1(B) + sum_{l>=2} A_l0(B).
    """
    b = check_partition(b)
    if len(b) != 2:
        raise ValueError(f"need a length-2 class, got {b}")
    policy = policy or SumTruncationPolicy.for_target(b)
    nv = _screened(engine or ReductionEngine())

    total = lau_mul(_ONE_MINUS_Q, nv((1, 1), b))
    reports = []
    val, rep = truncated_partition_sum(
        "pairs-ge-2", 2, 2, lambda part: nv(part, b), policy, min_part=2, bound=b)
    reports.append(rep)
    lau_iadd_scaled(total, lau_mul(_ONE_MINUS_Q2, val))
    for tail in (1, 0):
        val, rep = truncated_partition_sum(
            f"column-{tail}", 1, 2, lambda part, _t=tail: nv(part + (_t,), b), policy,
            bound=b[:1])
        reports.append(rep)
        lau_iadd_scaled(total, val)
    return RatFunc.from_laurent(total), reports


def sankaran_intersection(b, policy=None, engine=None):
    return sankaran_intersection_report(b, policy, engine)[0]


def difference_identity_check(b, policy=None, engine=None):
    """Check the two expressions for <Z(x),Z(y)> - <Z(x/pi),Z(y/pi)> agree.

    For B = A_(l,k) with l, k >= 2 the scaled classes are B - (0,2) for the
    pair (x, y/pi) and B - (2,2) for (x/pi, y/pi).  Returns (equal, residual).
    """
    b = check_partition(b)
    if len(b) != 2 or b[1] < 2:
        raise ValueError(f"need a length-2 class with both parts >= 2, got {b}")
    policy = policy or SumTruncationPolicy.for_target(b, min_cap=6)
    nv = _screened(engine or ReductionEngine())
    b_mixed = (b[0], b[1] - 2)

    lhs = _combine(((_MINUS_Q, nv((1, 1), b)), (_LAU_ONE, nv((0, 0), b_mixed)),
                    (_MINUS_Q, nv((1, 1), b_mixed)), (_LAU_ONE, nv((2, 2), b))))

    rhs = _combine(((_ONE_MINUS_Q, nv((1, 1), b)), (_ONE_MINUS_Q2, nv((2, 2), b)),
                    (_Q_MINUS_Q2, nv((3, 3), b)), (_LAU_ONE, nv((2, 0), b)),
                    (_LAU_ONE, nv((3, 1), b))))
    for tail, scaled_tail in ((0, 2), (1, 3)):
        def term(part, _t=tail, _s=scaled_tail):
            lead = part[0]
            return _combine(((_LAU_ONE, nv((lead, _t), b)), (_MINUS_Q2, nv((lead, _s), b))))
        val, _ = truncated_partition_sum(
            f"tail-{tail}-minus-{scaled_tail}", 1, 4, term, policy, bound=b[:1])
        lau_iadd_scaled(rhs, val)
    residual = lau_iadd_scaled(lhs, rhs, scale=-1)
    return not residual, RatFunc.from_laurent(residual)


# ---------------------------------------------------------------------------
# the rank-4 conjecture
# ---------------------------------------------------------------------------

@dataclass
class ConjectureReport:
    b: tuple
    lhs: RatFunc
    rhs: RatFunc
    equal: bool
    truncation: list
    terms: list

    def to_json(self):
        return {
            "b": list(self.b),
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
            "equal": self.equal,
            "truncation": [r.to_json() for r in self.truncation],
            "terms": self.terms,
        }


def conjecture_check(b, policy=None, engine=None):
    """Test the expansion of the rank-4 derived density into horizontal and
    vertex-lattice contributions:

        D(B) = A_100(B3) D(a,1,0,0)
             + sum_{l>=3} A_l00(B3) [D(a,l,0,0) - D(a,l-2,0,0)]
             + (1-q^2)      sum_{l>=k>=1}      A_lk0(B3) A_1110(a,l,k,0)
             + (1+q)(1-q^2) sum_{l>=k>=m>=1}   A_lkm(B3) A_1110(a,l,k,m)

    where B = (a, b1, b2, b3) with a even and strictly dominant and the
    weight |B| odd, B3 is the rank-3 tail, and D is ``derivative_0000``.
    D is the central derivative of a density that vanishes at the centre,
    which A_0000(B) does when |B| is odd (the weight-parity rule);
    even-weight classes raise ValueError.  Second factors are only
    evaluated when the matching coefficient is nonzero, which also keeps
    every constructed 4-part label properly sorted.
    """
    b = _validate_rank4(b)
    alpha_part = b[0]
    if alpha_part % 2:
        raise ValueError(f"need an even dominant part, got {b}")
    if weight(b) % 2 == 0:
        raise ValueError(f"need an odd weight, got {b} of weight {weight(b)}")
    tail3 = b[1:]
    policy = policy or SumTruncationPolicy.for_target(b)
    engine = engine or ReductionEngine()
    nv = _screened(engine)

    reports = []
    terms = []

    lhs, lhs_reports = _derivative_laurent(b, policy, engine)
    reports.extend(lhs_reports)

    deriv_cache = {}

    def deriv(cls4):
        if cls4 not in deriv_cache:
            val, reps = _derivative_laurent(cls4, policy, engine)
            reports.extend(reps)
            deriv_cache[cls4] = val
        return deriv_cache[cls4]

    def term_record(name, val):
        terms.append({"term": name, "value": str(RatFunc.from_laurent(val))})

    rhs = lau_mul(nv((1, 0, 0), tail3), deriv((alpha_part, 1, 0, 0)))
    term_record("horizontal-base", rhs)

    def horizontal_step(part):
        lead = part[0]
        coeff = nv((lead, 0, 0), tail3)
        if not coeff:
            return {}
        if lead >= alpha_part:
            raise TruncationUnsoundError(
                f"nonzero horizontal coefficient at {lead} >= dominant part {alpha_part}")
        step = lau_iadd_scaled(dict(deriv((alpha_part, lead, 0, 0))),
                               deriv(_sorted4(alpha_part, lead - 2, 0, 0)), scale=-1)
        return lau_mul(coeff, step)

    val, rep = truncated_partition_sum(
        "horizontal-steps", 1, 3, horizontal_step, policy, bound=tail3[:1])
    reports.append(rep)
    lau_iadd_scaled(rhs, val)
    term_record("horizontal-steps", val)

    def vertex_term(part, tail_zero):
        coeff = nv(part + ((0,) if tail_zero else ()), tail3)
        if not coeff:
            return {}
        if part[0] > alpha_part:
            raise TruncationUnsoundError(
                f"nonzero vertex coefficient at {part} above dominant part {alpha_part}")
        cls4 = (alpha_part,) + part + ((0,) if tail_zero else ())
        return lau_mul(coeff, nv((1, 1, 1, 0), cls4))

    val, rep = truncated_partition_sum(
        "vertex-pairs", 2, 1, lambda p: vertex_term(p, True), policy, bound=tail3[:2])
    reports.append(rep)
    lau_iadd_scaled(rhs, lau_mul(_ONE_MINUS_Q2, val))
    term_record("vertex-pairs", val)

    val, rep = truncated_partition_sum(
        "vertex-triples", 3, 1, lambda p: vertex_term(p, False), policy, bound=tail3)
    reports.append(rep)
    lau_iadd_scaled(rhs, lau_mul(_W3, val))
    term_record("vertex-triples", val)

    return ConjectureReport(b=b, lhs=RatFunc.from_laurent(lhs), rhs=RatFunc.from_laurent(rhs),
                            equal=lhs == rhs, truncation=reports, terms=terms)


def _sorted4(*parts):
    return tuple(sorted(parts, reverse=True))
