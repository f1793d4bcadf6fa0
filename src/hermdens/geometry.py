"""Derived densities and special-cycle intersection numbers.

Operations:

* ``derivative_0000``       -- the derived density of the rank-4 unimodular
  class against a strictly dominant class of odd weight, taken from
  ``hironaka.derived_density`` (no lattice sum, no engine, no report);
* ``sankaran_intersection`` -- the rank-2 special-cycle intersection number
  as a weighted lattice count;
* ``difference_identity_check`` -- the two evaluations of the intersection
  difference under scaling one vector by 1/pi must agree;
* ``conjecture_check``      -- the proposed expansion of the rank-4 derived
  density into horizontal terms and vertex-lattice counts of type (1,1,1,0).

All but the derived density are finite weighted sums of normalized densities
over families of partitions.  Each is an exact sum over its support box: a
label with a part above B's part at the same index is 0 (the "support-zero"
rule, Newman, Thm II.15), so a sum runs over the partitions inside the box
and no others.  The partitions are grouped by first part, and each level
from the sum's start to the box's first part is reported with its term
count.

Inner normalized densities come from the reduction engine by default, or
from direct evaluation for cross-checking; either way through the engine's
``laurent_value``, which returns a Laurent dict {exponent: coefficient}
(every density here lies in ZZ[q, q^-1]).  No sum mutates a dict that
``laurent_value`` returns: the reducer's is its memo's own, and one rule
holds for both engines.  A call without ``engine`` builds a fresh
``ReductionEngine``; pass one engine to several calls to share its memo.
Both engines answer {} at once for the labels that
``partitions.provable_zero`` rules out (weight parity and componentwise
support), as many labels in these sums are.  The sums, their weights and
the term functions stay in Laurent form, and each public function builds
one exact ``RatFunc`` per value it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hironaka
from .partitions import check_partition, partitions_first_part
from .qalgebra import RatFunc, lau_dot, lau_iadd_scaled, lau_mul
from .relations import ReductionEngine


@dataclass
class LevelRecord:
    level: int
    terms: int
    all_zero: bool


@dataclass
class SumReport:
    """One sum over the partitions in its support box ``box``, one record per
    level (first part) from the sum's start to ``box[0]``."""

    name: str
    box: tuple
    levels: list = field(default_factory=list)

    def to_json(self):
        return {
            "name": self.name,
            "box": list(self.box),
            "levels": [{"level": r.level, "terms": r.terms, "all_zero": r.all_zero}
                       for r in self.levels],
        }


def truncated_partition_sum(name, length, start, term_fn, bound, min_part=1):
    """Sum term_fn over the partitions of the given length with parts >= min_part
    and first part >= start inside the support box ``bound`` (part[i] <= bound[i]).

    term_fn must be exactly zero on every partition outside the box, so the
    sum is exact.  Terms and the sum are Laurent dicts; returns
    (value, SumReport).  A level is all-zero when every term in it is exactly
    zero (a cancelling level is not).  The name is the one the benchmark's
    tracer (``perfbench/tracer.py``, target ``geometry.sum``) looks up.
    """
    total = {}
    report = SumReport(name, tuple(bound))
    for level in range(start, bound[0] + 1):
        terms, all_zero = 0, True
        for part in partitions_first_part(level, length, min_part, bound):
            terms += 1
            val = term_fn(part)
            if val:
                all_zero = False
                lau_iadd_scaled(total, val)
        report.levels.append(LevelRecord(level, terms, all_zero))
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


# Laurent constants of the sums below
_LAU_ONE = {0: 1}
_ONE_MINUS_Q = {0: 1, 1: -1}
_ONE_MINUS_Q2 = {0: 1, 2: -1}
_MINUS_Q = {1: -1}
_MINUS_Q2 = {2: -1}
_Q_MINUS_Q2 = {1: 1, 2: -1}
_ONE_PLUS_Q_ONE_MINUS_Q2 = lau_mul({0: 1, 1: 1}, _ONE_MINUS_Q2)


# ---------------------------------------------------------------------------
# the rank-4 derived density
# ---------------------------------------------------------------------------

def _validate_rank4(b):
    b = check_partition(b)
    if len(b) != 4:
        raise ValueError(f"need a length-4 class, got {b}")
    if not b[0] > b[1]:
        raise ValueError(f"need a strictly dominant first part, got {b}")
    return b


def derivative_0000(b):
    """Derived density of the rank-4 unimodular class against B = A_b, for b
    strictly dominant of odd weight (``hironaka.derived_density``)."""
    return hironaka.derived_density(_validate_rank4(b))


# ---------------------------------------------------------------------------
# rank-2 intersection numbers
# ---------------------------------------------------------------------------

def sankaran_intersection_report(b, engine=None):
    """<Z(x), Z(y)> for a rank-2 class B, as a weighted lattice count:

        -(q-1) A_11(B) - (q^2-1) sum_{l>=k>=2} A_lk(B)
        + sum_{l>=2} A_l1(B) + sum_{l>=2} A_l0(B).
    """
    b = check_partition(b)
    if len(b) != 2:
        raise ValueError(f"need a length-2 class, got {b}")
    nv = (engine or ReductionEngine()).laurent_value

    total = lau_mul(_ONE_MINUS_Q, nv((1, 1), b))
    reports = []
    val, rep = truncated_partition_sum(
        "pairs-ge-2", 2, 2, lambda part: nv(part, b), b, min_part=2)
    reports.append(rep)
    lau_iadd_scaled(total, lau_mul(_ONE_MINUS_Q2, val))
    for tail in (1, 0):
        val, rep = truncated_partition_sum(
            f"column-{tail}", 1, 2, lambda part, _t=tail: nv(part + (_t,), b), b[:1])
        reports.append(rep)
        lau_iadd_scaled(total, val)
    return RatFunc.from_laurent(total), reports


def sankaran_intersection(b, engine=None):
    return sankaran_intersection_report(b, engine)[0]


def difference_identity_check(b, engine=None):
    """Check the two expressions for <Z(x),Z(y)> - <Z(x/pi),Z(y/pi)> agree.

    For B = A_(l,k) with l, k >= 2 the scaled classes are B - (0,2) for the
    pair (x, y/pi) and B - (2,2) for (x/pi, y/pi).  Returns (equal, residual).
    """
    b = check_partition(b)
    if len(b) != 2 or b[1] < 2:
        raise ValueError(f"need a length-2 class with both parts >= 2, got {b}")
    nv = (engine or ReductionEngine()).laurent_value
    b_mixed = (b[0], b[1] - 2)

    lhs = lau_dot(((_MINUS_Q, nv((1, 1), b)), (_LAU_ONE, nv((0, 0), b_mixed)),
                   (_MINUS_Q, nv((1, 1), b_mixed)), (_LAU_ONE, nv((2, 2), b))))

    rhs = lau_dot(((_ONE_MINUS_Q, nv((1, 1), b)), (_ONE_MINUS_Q2, nv((2, 2), b)),
                   (_Q_MINUS_Q2, nv((3, 3), b)), (_LAU_ONE, nv((2, 0), b)),
                   (_LAU_ONE, nv((3, 1), b))))
    for tail, scaled_tail in ((0, 2), (1, 3)):
        def term(part, _t=tail, _s=scaled_tail):
            lead = part[0]
            return lau_dot(((_LAU_ONE, nv((lead, _t), b)), (_MINUS_Q2, nv((lead, _s), b))))
        val, _ = truncated_partition_sum(f"tail-{tail}-minus-{scaled_tail}", 1, 4, term, b[:1])
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


def conjecture_check(b, engine=None):
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

    A vertex count A_1110(a, l, k, m) is asked at the lowest first part of
    a's parity that is above l (``hironaka._lead_period_label``): removing
    two columns of the chain's lead run, whose matrix is an involution,
    leaves the density as it is.  So the vertex terms of classes whose a
    differ by 2 share one reduction, and none costs more as a grows.  Each
    derived density chains the same lowered label and the one two above it,
    and is affine in the pairs removed (the twin lemma there), so none costs
    more as a grows either; ``hironaka`` caches those chains per label.
    """
    b = _validate_rank4(b)
    alpha_part = b[0]
    if alpha_part % 2:
        raise ValueError(f"need an even dominant part, got {b}")
    tail3 = b[1:]
    nv = (engine or ReductionEngine()).laurent_value
    deriv = hironaka._derived_laurent

    reports = []
    terms = []
    lhs = deriv(b)                      # ValueError on even weight

    def term_record(name, val):
        terms.append({"term": name, "value": str(RatFunc.from_laurent(val))})

    rhs = lau_mul(nv((1, 0, 0), tail3), deriv((alpha_part, 1, 0, 0)))
    term_record("horizontal-base", rhs)

    # every label in the boxes below has part[0] <= b[1] < alpha_part, so the
    # constructed rank-4 classes are strictly dominant and sorted
    def horizontal_step(part):
        lead = part[0]
        coeff = nv((lead, 0, 0), tail3)
        if not coeff:
            return {}
        step = lau_iadd_scaled(deriv((alpha_part, lead, 0, 0)),
                               deriv((alpha_part, lead - 2, 0, 0)), scale=-1)
        return lau_mul(coeff, step)

    val, rep = truncated_partition_sum("horizontal-steps", 1, 3, horizontal_step, tail3[:1])
    reports.append(rep)
    lau_iadd_scaled(rhs, val)
    term_record("horizontal-steps", val)

    def vertex_term(part, tail_zero):
        coeff = nv(part + ((0,) if tail_zero else ()), tail3)
        if not coeff:
            return {}
        cls4 = (alpha_part,) + part + ((0,) if tail_zero else ())
        vertex = (1, 1, 1, 0)
        return lau_mul(coeff, nv(vertex, hironaka._lead_period_label(vertex, cls4)))

    val, rep = truncated_partition_sum(
        "vertex-pairs", 2, 1, lambda p: vertex_term(p, True), tail3[:2])
    reports.append(rep)
    lau_iadd_scaled(rhs, lau_mul(_ONE_MINUS_Q2, val))
    term_record("vertex-pairs", val)

    val, rep = truncated_partition_sum(
        "vertex-triples", 3, 1, lambda p: vertex_term(p, False), tail3)
    reports.append(rep)
    lau_iadd_scaled(rhs, lau_mul(_ONE_PLUS_Q_ONE_MINUS_Q2, val))
    term_record("vertex-triples", val)

    return ConjectureReport(b=b, lhs=RatFunc.from_laurent(lhs), rhs=RatFunc.from_laurent(rhs),
                            equal=lhs == rhs, truncation=reports, terms=terms)
