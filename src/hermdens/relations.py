"""Inter-density relations: generation, verification, and fast reduction.

Three cooperating pieces live here.

``theorem_terms`` builds the linear relation satisfied by the densities
alpha(A_., B) whenever pi^{-1}B is still integral: for a label xi ending in
s zeros it combines the promotions xi_plus(xi, a, b) with the coefficients
d_{n,s,i} of prod_{j<s} (1 - (-q)^{-n+j} X), and the whole combination
annihilates alpha(., B).  Its arguments are checked on every call, but each
relation is built once per process, summed as Laurent dicts.  By the
q-binomial theorem each d_{n,s,i} is a signed monomial times the Gaussian
binomial [s; i], so the coefficients are read off ``gauss_laurent`` in
closed form, with no ``RatFunc`` arithmetic; ``d_coefficients`` returns
them as ``RatFunc``s.  A ``Relation`` checks its parts once and keeps every
coefficient as a ``RatFunc`` and as a Laurent dict, so one outside
ZZ[q, q^-1] raises ``NotLaurentError``.  ``verify_relation`` checks a
relation by direct evaluation: one ``lau_dot`` of the coefficients with the
engine's memoized Laurent alphas, and a single ``RatFunc`` residual.

``ReductionEngine.reduce_normalized`` evaluates normalized densities
A_xi(A_lam) by rewriting instead of direct summation, in Laurent form
internally (every rule coefficient lies in ZZ[q, q^-1]), and never calls
the direct formula.  The rewrite loop:

  (a) 0 when the weights have different parity ("parity-zero"), and 0 when
      xi_i > lam_i for some i ("support-zero"): the i-th invariant factor of
      A divides the i-th invariant factor of conj(X)^T A X (Newman,
      *Integral Matrices*, Thm II.15), so A_xi represents A_lam only if lam
      dominates xi componentwise; past these, 1 at rank 1 ("base-n1"):
      alpha(A_x, A_l) = (q+1) q^(x-1) whenever l >= x and l = x mod 2,
      because the norm map is onto the units of an unramified extension
      (Serre, *Local Fields*, V section 2), so A_x(A_l) = 1;
  (b) shift both labels down by one when both end in positive parts
      (rule id "P2.15"); the evaluator takes all xi_n of these steps at
      once, lowering every part by xi_n;
  (c) drop a common trailing zero (rule id "P2.14"); the evaluator repeats
      (b) and (c) in one pass down to the label's unit closure: rank 1, or
      xi_n = 0 < lam_n;
  (d) otherwise xi ends in 0 and lam_n >= 1: apply the rewrite rule of xi's
      signature, xi with every part >= 3 written "*".  Each rule is
      ``theorem_terms`` for xi solved for its xi term (coefficient 1), with
      the terms of the other weight parity dropped, every coefficient scaled
      by the ratio of closed self-densities, and children still ending in 0
      rewritten in turn, all in Laurent form with one exact division per
      coefficient and no gcd.  Promotions fill only the zero tail with 1s and
      2s, so every child of xi is xi's leading "*" parts followed by a tail
      that the signature fixes: a rule is derived once per process, as
      (Laurent coefficient, tail) pairs by signature, and that store is the
      rule's one table.  Ranks 2-4 carry the ids "C2.17.*", "C2.19.*",
      "C2.20.*" of ``REWRITE_RULES``, larger ranks ids "derived:<signature>",
      whose ``RewriteRule`` is built when ``match_rewrite`` is asked for it.

``reduce_normalized`` also returns an auditable ``ReductionTrace`` whose
replay reproduces the value exactly; ``normalized_value`` returns the value
alone; both value through ``laurent_value``, and the trace, which records
the unit steps one at a time, reads each step's value through it.  Each
rewrite strictly decreases the measure (|lam|, trailing zeros of xi, n), so
the replay values the steps in ascending measure.  Rule (d) keeps lam, and
its derivation checks once that each relation term it keeps has fewer
trailing zeros than xi; its children then end in a nonzero part.  A unit step lowers the measure by construction
(P2.15 lowers |lam|, P2.14 shortens the labels), which the trace still
checks per step and the evaluator does not.  A violation raises
``RuntimeError``.

``GenericAlphaReducer`` works at the unnormalized alpha level for arbitrary
n: the reduced normalized density times the closed self-density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from . import hironaka
from .partitions import (
    check_pair,
    check_partition,
    provable_zero,
    trailing_zeros,
    weight,
    xi_plus,
)
from .qalgebra import (
    RatFunc, ZERO, gauss_laurent, lau_dot, lau_iadd_product, lau_iadd_scaled, lau_mul)


# ---------------------------------------------------------------------------
# relation generation and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """A finite combination sum_i coeff_i * alpha(A_{part_i}, B) that vanishes
    for every B = A_lam with len(lam) = m, the parts' common length, and all
    parts of lam >= 1; a shorter lam is outside that domain, and there the
    combination generally does not vanish.

    The parts are partitions of one length and every coefficient lies in
    ZZ[q, q^-1]; ``laurent_terms`` holds the terms with each part checked and
    each coefficient as a shared Laurent dict (never mutate it).  A bad part
    raises ``ValueError``, a coefficient that is not a ``RatFunc`` (an
    ``int``, say) ``TypeError`` naming its term, and one outside that ring
    ``NotLaurentError``."""

    terms: tuple          # tuple of (RatFunc, partition)
    context: tuple        # (n, s, xi)
    laurent_terms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for c, p in self.terms:
            if not isinstance(c, RatFunc):
                raise TypeError(f"the coefficient of term {p} must be a RatFunc, "
                                f"got {type(c).__name__} {c!r}")
        laurent_terms = tuple((c.as_laurent(), check_partition(p)) for c, p in self.terms)
        if len({len(p) for _, p in laurent_terms}) > 1:
            raise ValueError(f"the parts {tuple(p for _, p in laurent_terms)} differ in length")
        object.__setattr__(self, "laurent_terms", laurent_terms)


# Relations by (n, s, xi), each built once per process; never mutate one.
_RELATIONS = {}


def theorem_terms(n, s, xi):
    """The vanishing relation attached to xi with s trailing zeros.

    Terms are [(d_{n,s,i}, xi_plus(xi,0,i))] plus
    [(-(-1)^s (-q)^{-ns} d_{n,s,i}, xi_plus(xi,i,s-i))], with coefficients
    of duplicate partitions merged and exact zeros dropped.  The xi term
    itself always survives with coefficient exactly 1.  The arguments are
    checked on every call; the relation is built on the first and shared.
    """
    xi = check_partition(xi)
    if len(xi) != n:
        raise ValueError(f"xi has length {len(xi)}, expected {n}")
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}")
    if trailing_zeros(xi) != s:
        raise ValueError(f"{xi} does not end in exactly {s} zeros")
    key = (n, s, xi)
    rel = _RELATIONS.get(key)
    if rel is None:
        # threads that build one key at once keep the first stored, an equal value
        rel = _RELATIONS.setdefault(key, _build_relation(n, s, xi))
    return rel


def _build_relation(n, s, xi):
    """``theorem_terms``'s relation, summed in Laurent form."""
    # the prefactor -(-1)^s (-q)^{-ns} is the monomial -(-1)^{s+ns} q^{-ns}
    sign = -1 if (s + n * s) % 2 == 0 else 1
    acc = {}
    for i, d in enumerate(_d_laurent(n, s)):
        lau_iadd_scaled(acc.setdefault(xi_plus(xi, 0, i), {}), d)
        lau_iadd_scaled(acc.setdefault(xi_plus(xi, i, s - i), {}), d, shift=-n * s, scale=sign)
    terms = tuple((RatFunc.from_laurent(c), p) for p, c in sorted(acc.items(), reverse=True) if c)
    return Relation(terms=terms, context=(n, s, xi))


@lru_cache(maxsize=None)
def d_coefficients(n, s):
    """Coefficients d_{n,s,0..s} of prod_{j=0..s-1} (1 - (-q)^{-n+j} X) in X.

    In particular d_{n,s,0} = 1 for every s, d_{n,1,1} = -(-q)^{-n} and
    d_{n,2,2} = (-q)^{-(2n-1)}.
    """
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return tuple(RatFunc.from_laurent(d) for d in _d_laurent(n, s))


def _d_laurent(n, s):
    """d_{n,s,0..s} in turn, as new Laurent dicts, in closed form.

    In r = -q the product is prod_{j<s} (1 + r^j z) with z = -r^{-n} X, whose
    z^i coefficient is r^{C(i,2)} times the Gaussian binomial in r, that is
    r^{C(i,2) + i(s-i)} [s; i] with [s; i] the polynomial in r^-1 of
    ``gauss_laurent``.  So d_{n,s,i} = (-1)^i r^e [s; i] with
    e = C(i,2) + i(s-i) - n i, and r^e is the monomial (-1)^e q^e.
    """
    for i in range(s + 1):
        e = i * (i - 1) // 2 + i * (s - i) - n * i
        yield lau_iadd_scaled({}, gauss_laurent(s, i), shift=e, scale=-1 if (i + e) % 2 else 1)


def verify_relation(rel, lam, engine=None):
    """Evaluate the relation against B = A_lam; returns (is_zero, residual).

    The residual is one dot product of the Laurent coefficients with the
    engine's memoized Laurent alphas, made a ``RatFunc`` once; lam is checked
    here, the parts when the relation was built.  A lam longer than the parts
    raises ``ValueError``.  The relation vanishes only where it holds: lam as
    long as the parts, with all parts >= 1.  A shorter lam, or one with a
    last part 0 (the tests' negative controls), generally leaves a nonzero
    residual.
    """
    lam = check_partition(lam)
    terms = rel.laurent_terms
    if terms and len(lam) > len(terms[0][1]):
        raise ValueError(f"lambda {lam} is longer than the relation's parts")
    value = (engine or hironaka.HironakaEngine()).laurent_alpha
    residual = RatFunc.from_laurent(lau_dot((coeff, value(part, lam)) for coeff, part in terms))
    return residual.is_zero, residual


# ---------------------------------------------------------------------------
# normalized rewrite rules, derived from theorem_terms
# ---------------------------------------------------------------------------

def _signature(xi):
    """The rewrite-rule key of a label: every part >= 3 becomes "*".  A label
    does not increase, so its "*" slots lead."""
    k = 0
    for x in xi:
        if x < 3:
            break
        k += 1
    return ("*",) * k + xi[k:]


def fill_pattern(pattern, bind):
    """The label of a signature whose leading "*" slots take bind, in order:
    one part >= 3 per slot, else ``ValueError``."""
    k = pattern.count("*")
    if len(bind) != k:
        raise ValueError(f"the pattern {pattern} has {k} '*' slot(s), got {len(bind)} "
                         f"part(s) {tuple(bind)}")
    if any(v < 3 for v in bind):
        raise ValueError(f"a '*' slot takes a part >= 3, got {tuple(bind)}")
    return tuple(bind) + pattern[k:]


@dataclass(frozen=True)
class RewriteRule:
    """A_xi(B) = sum_p c_p A_p(B) for every xi matching pattern and every B
    with all parts >= 1."""

    rule_id: str
    pattern: tuple       # a signature: ints match exactly, "*" matches any value >= 3

    @property
    def rhs(self):
        """Tuple of (RatFunc coefficient, target template), derived on first use."""
        stars = self.pattern[:self.pattern.count("*")]
        return tuple((RatFunc.from_laurent(c), stars + tail)
                     for c, tail in _derived_rhs(self.pattern))

    def instantiate(self, bind):
        return [(RatFunc.from_laurent(c), p) for c, p in self.instantiate_laurent(bind)]

    def instantiate_laurent(self, bind):
        """``instantiate`` with each coefficient as a shared Laurent dict (never
        mutate it); bind is one part >= 3 per "*" slot, non-increasing, else
        ``ValueError``."""
        head = fill_pattern(self.pattern, bind)[:len(bind)]
        if any(x < y for x, y in zip(head, head[1:])):
            raise ValueError(f"a '*' binding must be non-increasing, got {head}")
        return [(coeff, head + tail) for coeff, tail in _derived_rhs(self.pattern)]


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
# the named rules, and the right-hand sides (each derived once), by signature.
_RULES = {rule.pattern: rule for rules in REWRITE_RULES.values() for rule in rules}
_RHS = {}


def _derived_rhs(sig):
    """A signature's (shared Laurent coefficient, tail) pairs, children in
    ascending label order, derived on first use: a label xi of the signature
    rewrites to xi[:k] + tail, k its number of "*" slots.  A kept term
    (c, p) adds -c alpha(A_p, A_p) c2 to each child's numerator, which is then
    divided once by alpha(A_xi, A_xi).  A kept term with as many trailing
    zeros as xi raises ``RuntimeError``, and a remainder ``ArithmeticError``,
    each naming the rule."""
    rhs = _RHS.get(sig)
    if rhs is not None:
        return rhs
    # The "*" parts lead, no promotion changes them, and they cancel in every
    # self-density ratio, so 3 stands for all of them.
    k = sig.count("*")
    xi = fill_pattern(sig, (3,) * k)
    s = trailing_zeros(xi)
    acc = {}
    for c, p in theorem_terms(len(xi), s, xi).laurent_terms:
        # terms of the other weight parity vanish wherever A_xi(B) can be nonzero
        if p == xi or (weight(p) - weight(xi)) % 2:
            continue
        # the one check of rule (d): it ends this recursion, and the children,
        # which end in a nonzero part, lower the engine's measure
        if trailing_zeros(p) >= s:
            raise RuntimeError(
                f"non-decreasing step {match_rewrite(xi)[0].rule_id}: {xi} -> {p}")
        c = lau_mul(c, hironaka._self_density_laurent(p))
        # p keeps xi's "*" parts, so its children do too, and a tail names a child
        subs = _derived_rhs(_signature(p)) if p[-1] == 0 else (({0: 1}, p[k:]),)
        for c2, tail in subs:
            lau_iadd_scaled(acc.setdefault(tail, {}), lau_mul(c, c2), scale=-1)
    try:
        rhs = tuple((hironaka._over_self_density(num, xi), tail)
                    for tail, num in sorted(acc.items()) if num)
    except ArithmeticError as exc:
        raise ArithmeticError(f"the rewrite rule {match_rewrite(xi)[0].rule_id} of signature "
                              f"{sig} leaves a remainder: {exc}") from exc
    # threads that derive one signature at once keep the first stored, an equal value
    return _RHS.setdefault(sig, rhs)


def match_rewrite(xi):
    """The rewrite rule for a label ending in 0 and its "*" bindings, or None."""
    if not xi or xi[-1] != 0:
        return None
    sig = _signature(xi)
    rule = _RULES.get(sig) or RewriteRule("derived:" + ",".join(map(str, sig)), sig)
    return rule, xi[:sig.count("*")]


# ---------------------------------------------------------------------------
# reduction traces
# ---------------------------------------------------------------------------

def _measure(xi, lam):
    """(|lam|, trailing zeros of xi, n), which every rewrite strictly lowers."""
    return weight(lam), trailing_zeros(xi), len(xi)


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
        first = self.children[0] if self.children else None
        d = {
            "rule_id": self.rule_id,
            "xi_before": list(self.xi_before),
            "lambda_before": list(self.lam_before),
            "xi_after": first and list(first.xi),
            "lambda_after": first and list(first.lam),
            "factor": first and first.factor.to_json(),
            "additive_siblings": [c.to_json() for c in self.children[1:]],
        }
        value = first.value if first else self.value     # a terminal step carries its own
        if value is not None:
            d["value"] = value.to_json()
        return d


@dataclass
class ReductionTrace:
    root: tuple
    steps: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)

    def rule_ids(self):
        return [s.rule_id for s in self.steps]

    def replay(self):
        """Recompute the root value from the recorded steps alone.  Every step
        lowers the measure, so in ascending measure each child is valued first."""
        values = {}
        for step in sorted(self.steps, key=lambda s: _measure(s.xi_before, s.lam_before)):
            val = step.value if not step.children else ZERO
            for child in step.children:
                sub = child.value if child.value is not None else values[child.xi, child.lam]
                val = val + child.factor * sub
            values[step.xi_before, step.lam_before] = val
        return values[self.root]

    def to_json(self):
        return [s.to_json() for s in self.steps]

    def dumps(self, **kw):
        return json.dumps(self.to_json(), **kw)


# ---------------------------------------------------------------------------
# the normalized reduction engine
# ---------------------------------------------------------------------------

# Laurent constants shared by many memo entries; like every stored value they
# are never mutated.
_LAU_ZERO = {}
_LAU_ONE = {0: 1}


class ReductionEngine:
    """Rewrites normalized densities with memoization and auditable traces.

    ``laurent_value``, with ``_reduce`` on a miss, is the one evaluator and
    the one memo writer, with one step of work per label it values: the
    memo, then the zero leaves, then the label's unit closure, then one
    rule-(d) rewrite there.  Every value
    is a Laurent dict {exponent: coefficient} in ZZ[q, q^-1], and so is every
    rule coefficient, derived once in that form.  The geometry sums, which
    build their own labels, call it directly: it skips label validation and
    returns the memo's dict itself, which no caller mutates (the ownership
    rule of both engines' ``laurent_value``).  ``normalized_value`` and
    ``reduce_normalized`` return a ``RatFunc``; the latter's trace pass
    records each label's rewrite once, one unit step at a time, with no
    arithmetic, and reads each step's value through ``laurent_value``.  The
    leaves are constants ("parity-zero" and "support-zero" are 0, "base-n1"
    is 1) and cost O(n) to recompute, so they are not memoized.  A rule
    coefficient outside ZZ[q, q^-1] raises ``ArithmeticError`` when its rule
    is derived.  Stored values are never mutated, so one engine may be shared
    by threads.

    The engine holds only that memo: the labels asked of it and their unit
    closures, one shared dict for both, and no label in between.  The unit
    closure takes P2.15 and P2.14 in one pass from the last part: it lowers
    every part by xi_n (P2.15, xi_n times), drops a trailing (0, 0) (P2.14),
    and repeats until rank 1 (value 1) or xi_n = 0 < lam_n.  The zero leaves
    are tested once, before the closure: P2.15 lowers both weights by n and
    keeps xi_i <= lam_i, and P2.14 drops a trailing (0, 0), so no label on
    the way is a zero leaf.  Nor is the measure checked on unit steps, which
    lower it by construction: P2.15 lowers |lam| by n >= 1, and P2.14 meets
    only lam_n = 0, so xi_n = 0 past the support test; where it is not,
    P2.14 raises ``RuntimeError``, as ``_unit_step`` does.  Rule (d) at the
    closed label reads the process-wide rule of xi's signature, (Laurent
    factor, tail) pairs, and puts xi's leading "*" parts before each tail; its
    measure was checked when the rule was derived.  Each child is looked up
    in the memo, and only on a miss screened for the zero leaves and reduced;
    its value times its factor is added into the label's one new dict by
    ``lau_iadd_product``, with no product dict.  The trace pass tests the
    leaves at every label and measures every unit step in ``_expansion``.
    Rule-(d) rewrites nested past the recursion limit raise
    ``RecursionError``: the evaluator takes a frame for each.
    """

    def __init__(self):
        self._memo = {}

    @staticmethod
    def _leaf(xi, lam):
        zero = provable_zero(xi, lam)
        if zero is not None:
            return _LAU_ZERO, zero
        return (_LAU_ONE, "base-n1") if len(xi) == 1 else None

    @staticmethod
    def _unit_step(xi, lam):
        """The unit step of a label pair past the zero leaves, as (rule_id,
        child_xi, child_lam), or None where rule (d) applies.  P2.15 lowers
        |lam| by n >= 1; P2.14 drops a trailing (0, 0), which keeps |lam| and
        shortens the labels, so both lower the measure.  P2.14 with xi_n != 0
        is support-zero and never reached; it raises ``RuntimeError``."""
        if lam[-1] == 0:
            if xi[-1]:
                raise RuntimeError(
                    f"non-decreasing step P2.14: {(xi, lam)} -> {(xi[:-1], lam[:-1])}")
            return "P2.14", xi[:-1], lam[:-1]
        if xi[-1]:
            return "P2.15", tuple(x - 1 for x in xi), tuple(x - 1 for x in lam)
        return None

    def _expansion(self, xi, lam):
        """One rewrite: (rule_id, [(Laurent factor, child_xi, child_lam)]); a
        unit step that does not lower the measure raises ``RuntimeError``."""
        step = self._unit_step(xi, lam)
        if step is None:
            # past the leaves (xi <= lam componentwise): xi_n = 0 < lam_n
            rule, head = match_rewrite(xi)
            return rule.rule_id, [(c, head + tail, lam) for c, tail in _derived_rhs(rule.pattern)]
        rule_id, cxi, clam = step
        if not _measure(cxi, clam) < _measure(xi, lam):
            raise RuntimeError(f"non-decreasing step {rule_id}: {(xi, lam)} -> {(cxi, clam)}")
        return rule_id, [(_LAU_ONE, cxi, clam)]

    def laurent_value(self, xi, lam):
        """The value alone as the memo's Laurent dict, which callers must never
        mutate; the labels are not validated (callers build them)."""
        val = self._memo.get((xi, lam))
        if val is not None:
            return val
        if provable_zero(xi, lam) is not None:
            return _LAU_ZERO
        return self._reduce(xi, lam)

    def _reduce(self, xi, lam):
        """The value of a label pair that missed the memo and passed the zero
        screen: its unit closure, then one rule-(d) rewrite there, stored
        under the pair and under the closed label."""
        memo, key = self._memo, (xi, lam)
        # the unit closure in one pass from the last part: s P2.15 steps lower
        # every part by s, and P2.14 drops the parts past n
        n, s = len(xi), 0
        while n > 1:
            x, l = xi[n - 1] - s, lam[n - 1] - s
            if not l:
                if x:
                    node = tuple([v - s for v in xi[:n]]), tuple([v - s for v in lam[:n]])
                    raise RuntimeError(f"non-decreasing step P2.14: {node} -> "
                                       f"{(node[0][:-1], node[1][:-1])}")
                n -= 1                      # P2.14
            elif x:
                # P2.15 x times; l < x only where the zero screen was
                # bypassed, and P2.14 then raises at lam_n = 0
                s += x if x <= l else l
            else:
                break
        if n == 1:
            if len(xi) > 1:
                memo[key] = _LAU_ONE
            return _LAU_ONE
        if s or n < len(xi):
            xi, lam = tuple([v - s for v in xi[:n]]), tuple([v - s for v in lam[:n]])
            val = memo.get((xi, lam))
            if val is not None:
                memo[key] = val
                return val
        # rule (d): each child from the memo, else screened and reduced, its
        # product added in place; one frame per rewrite, by recursion
        sig = _signature(xi)
        head = xi[:sig.count("*")]
        val = {}
        for factor, tail in _derived_rhs(sig):
            child = head + tail
            sub = memo.get((child, lam))
            if sub is None:
                if provable_zero(child, lam) is not None:
                    continue
                sub = self._reduce(child, lam)
            lau_iadd_product(val, factor, sub)
        memo[xi, lam] = memo[key] = val     # shared: no stored dict is ever mutated
        return val

    def normalized_value(self, xi, lam):
        """The value alone, with memoization but no trace."""
        return RatFunc.from_laurent(self.laurent_value(*check_pair(xi, lam)))

    def reduce_normalized(self, xi, lam):
        """Evaluate A_xi(A_lam) by rewriting; returns (value, ReductionTrace).
        The trace pass ends a branch at a leaf, a label valued before the call
        ("memo") or one already recorded; each recorded step's value is read
        through ``laurent_value``, which stores the step's label too."""
        xi, lam = check_pair(xi, lam)
        memo, expanded = self._memo, {}     # (xi, lam) -> its step
        trace = ReductionTrace(root=(xi, lam))
        stack = [(None, None, xi, lam)]     # (parent step, Laurent factor, label pair)
        while stack:
            parent, factor, cxi, clam = stack.pop()
            key = (cxi, clam)
            leaf = self._leaf(cxi, clam)
            if leaf is None and key not in expanded:
                if key in memo:             # entries are never removed
                    leaf = memo[key], "memo"
                else:
                    rule_id, children = self._expansion(cxi, clam)
                    step = expanded[key] = TraceStep(rule_id, cxi, clam)
                    trace.steps.append(step)
                    stack.extend((step, *child) for child in reversed(children))
            value = leaf and RatFunc.from_laurent(leaf[0])
            if parent is not None:
                parent.children.append(TraceChild(
                    RatFunc.from_laurent(factor), cxi, clam, value=value, note=leaf and leaf[1]))
            elif leaf is not None:
                # a leaf or a warm memo at the root: one terminal step with the value
                trace.steps.append(TraceStep(leaf[1], cxi, clam, value=value))
        for key, step in expanded.items():     # the root first, which values the rest
            step.value = RatFunc.from_laurent(self.laurent_value(*key))
        return trace.steps[0].value, trace      # the root's step comes first


# ---------------------------------------------------------------------------
# generic unnormalized reduction
# ---------------------------------------------------------------------------

class GenericAlphaReducer:
    """Evaluates alpha(A_xi, A_lam) for equal lengths through the relations:
    the normalized density from the reduction engine times the closed
    self-density.  ``hironaka_engine`` is accepted for compatibility and not
    used: no value comes from the direct formula."""

    def __init__(self, hironaka_engine=None):
        self.reducer = ReductionEngine()

    def alpha_value(self, xi, lam):
        xi, lam = check_pair(xi, lam)
        return RatFunc.from_laurent(
            lau_mul(self.reducer.laurent_value(xi, lam), hironaka._self_density_laurent(xi)))
