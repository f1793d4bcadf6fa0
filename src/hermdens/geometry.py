"""Derived densities and special-cycle intersection numbers.

The quantities here are finite weighted sums of normalized densities over
families of partitions.  The sums are written with unbounded index ranges
but only finitely many terms are nonzero; since no a-priori vanishing bound
is assumed, every sum is evaluated level by level (grouping partitions by
first part) under an explicit ``SumTruncationPolicy``: iteration stops once
``zero_tail_window`` consecutive levels contribute exactly zero term by
term, and fails loudly with ``TruncationUnsoundError`` if that never
happens up to ``hard_cap``.  After a successful stop, one probe term beyond
the cap is evaluated and must be zero.

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

All values are exact ``RatFunc``; inner normalized densities come from the
reduction engine by default, or from direct evaluation for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hironaka
from .partitions import check_partition, partitions_first_part, weight
from .qalgebra import ONE, Q, RatFunc, ZERO
from .relations import ReductionEngine


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


def truncated_partition_sum(name, length, start, term_fn, policy, min_part=1):
    """Sum term_fn over partitions of the given length with parts >= min_part,
    grouped by first part from ``start`` upward, under the truncation policy.

    Returns (value, SumReport).  A level counts as zero only when every term
    at that level is exactly zero (cancellation does not stop the scan).
    """
    total = ZERO
    report = SumReport(name=name)
    zero_run = 0
    stopped = None
    for level in range(start, policy.hard_cap + 1):
        n_terms = 0
        all_zero = True
        for part in partitions_first_part(level, length, min_part):
            val = term_fn(part)
            n_terms += 1
            if not val.is_zero:
                all_zero = False
                total = total + val
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
    if not term_fn(probe_part).is_zero:
        raise TruncationUnsoundError(f"{name}: nonzero probe term at level {probe_level}")
    report.probe_level = probe_level
    return total, report


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

_SHARED = None


def _default_engine():
    global _SHARED
    if _SHARED is None:
        _SHARED = ReductionEngine()
    return _SHARED


def make_engine(kind="reduce"):
    if kind == "reduce":
        return ReductionEngine()
    if kind == "direct":
        return hironaka.HironakaEngine()
    raise ValueError(f"unknown engine kind {kind!r}")


# ---------------------------------------------------------------------------
# the rank-4 derived density
# ---------------------------------------------------------------------------

_W1 = ONE
_W2 = ONE + Q
_W3 = (ONE + Q) * (ONE - Q ** 2)
_W4 = (ONE + Q) * (ONE - Q ** 2) * (ONE + Q ** 3)


def _validate_rank4(b):
    b = check_partition(b)
    if len(b) != 4:
        raise ValueError(f"need a length-4 class, got {b}")
    if not b[0] > b[1]:
        raise ValueError(f"need a strictly dominant first part, got {b}")
    return b


def derivative_0000_report(b, policy=None, engine=None):
    """Derived density of the rank-4 unimodular class against B, with reports."""
    b = _validate_rank4(b)
    policy = policy or SumTruncationPolicy.for_target(b)
    engine = engine or _default_engine()
    nv = engine.normalized_value

    sums = []
    total = ZERO
    for k, coeff in ((1, _W1), (2, _W2), (3, _W3), (4, _W4)):
        def term(part, _k=k):
            return nv(part + (0,) * (4 - _k), b)
        val, rep = truncated_partition_sum(
            f"tail{4 - k}-zeros", k, 1, term, policy)
        sums.append(rep)
        total = total + coeff * val
    return total, sums


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
    engine = engine or _default_engine()
    nv = engine.normalized_value

    total = -(Q - 1) * nv((1, 1), b)
    reports = []
    val, rep = truncated_partition_sum(
        "pairs-ge-2", 2, 2, lambda part: nv(part, b), policy, min_part=2)
    reports.append(rep)
    total = total - (Q ** 2 - 1) * val
    for tail in (1, 0):
        val, rep = truncated_partition_sum(
            f"column-{tail}", 1, 2, lambda part, _t=tail: nv(part + (_t,), b), policy)
        reports.append(rep)
        total = total + val
    return total, reports


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
    engine = engine or _default_engine()
    nv = engine.normalized_value
    b_mixed = (b[0], b[1] - 2)

    lhs = (-Q * nv((1, 1), b) + nv((0, 0), b_mixed)
           - Q * nv((1, 1), b_mixed) + nv((2, 2), b))

    rhs = (-(Q - 1) * nv((1, 1), b) - (Q ** 2 - 1) * nv((2, 2), b)
           - (Q ** 2 - Q) * nv((3, 3), b) + nv((2, 0), b) + nv((3, 1), b))
    q2 = Q ** 2
    for tail, scaled_tail in ((0, 2), (1, 3)):
        def term(part, _t=tail, _s=scaled_tail):
            lead = part[0]
            return nv((lead, _t), b) - q2 * nv((lead, _s), b)
        val, _ = truncated_partition_sum(
            f"tail-{tail}-minus-{scaled_tail}", 1, 4, term, policy)
        rhs = rhs + val
    residual = lhs - rhs
    return residual.is_zero, residual


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
    engine = engine or _default_engine()
    nv = engine.normalized_value

    reports = []
    terms = []

    lhs, lhs_reports = derivative_0000_report(b, policy, engine)
    reports.extend(lhs_reports)

    deriv_cache = {}

    def deriv(cls4):
        if cls4 not in deriv_cache:
            val, reps = derivative_0000_report(cls4, policy, engine)
            reports.extend(reps)
            deriv_cache[cls4] = val
        return deriv_cache[cls4]

    rhs = nv((1, 0, 0), tail3) * deriv((alpha_part, 1, 0, 0))
    terms.append({"term": "horizontal-base", "value": str(rhs)})

    def horizontal_step(part):
        lead = part[0]
        coeff = nv((lead, 0, 0), tail3)
        if coeff.is_zero:
            return ZERO
        if lead >= alpha_part:
            raise TruncationUnsoundError(
                f"nonzero horizontal coefficient at {lead} >= dominant part {alpha_part}")
        return coeff * (deriv((alpha_part, lead, 0, 0))
                        - deriv(_sorted4(alpha_part, lead - 2, 0, 0)))

    val, rep = truncated_partition_sum("horizontal-steps", 1, 3, horizontal_step, policy)
    reports.append(rep)
    rhs = rhs + val
    terms.append({"term": "horizontal-steps", "value": str(val)})

    def vertex_term(part, tail_zero):
        coeff = nv(part + ((0,) if tail_zero else ()), tail3)
        if coeff.is_zero:
            return ZERO
        if part[0] > alpha_part:
            raise TruncationUnsoundError(
                f"nonzero vertex coefficient at {part} above dominant part {alpha_part}")
        cls4 = (alpha_part,) + part + ((0,) if tail_zero else ())
        return coeff * nv((1, 1, 1, 0), cls4)

    val, rep = truncated_partition_sum(
        "vertex-pairs", 2, 1, lambda p: vertex_term(p, True), policy)
    reports.append(rep)
    rhs = rhs + (ONE - Q ** 2) * val
    terms.append({"term": "vertex-pairs", "value": str(val)})

    val, rep = truncated_partition_sum(
        "vertex-triples", 3, 1, lambda p: vertex_term(p, False), policy)
    reports.append(rep)
    rhs = rhs + (ONE + Q) * (ONE - Q ** 2) * val
    terms.append({"term": "vertex-triples", "value": str(val)})

    return ConjectureReport(b=b, lhs=lhs, rhs=rhs, equal=lhs == rhs,
                            truncation=reports, terms=terms)


def _sorted4(*parts):
    return tuple(sorted(parts, reverse=True))
