"""Inter-density relations: generation, verification, and fast reduction.

Three cooperating pieces live here.

``theorem_terms`` builds the linear relation satisfied by the densities
alpha(A_., B) whenever pi^{-1}B is still integral: for a label xi ending in
s zeros it combines the promotions xi_plus(xi, a, b) with the coefficients
d_{n,s,i}, and the whole combination annihilates alpha(., B).  Its
arguments are checked on every call, but each relation is built once per
process, summed as Laurent dicts.  A ``Relation`` checks its parts once and
keeps every coefficient as a ``RatFunc`` and as a Laurent dict, so one
outside ZZ[q, q^-1] raises ``NotLaurentError``.  ``verify_relation`` checks a
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

``reduce_normalized`` also returns an auditable ``ReductionTrace`` whose
replay reproduces the value exactly; ``normalized_value`` returns the value
alone.  Each rewrite strictly decreases the measure (|lam|, trailing zeros
of xi, n).  Rule (d), whose children keep lam, is checked once per label and
engine; a unit step lowers it by construction (P2.15 lowers |lam|, P2.14
shortens the labels), which the trace walk still checks per step and the
evaluator does not.  A violation raises ``RuntimeError``.

``alpha_via_generic_reduction`` works at the unnormalized alpha level for
arbitrary n: the reduced normalized density times the closed self-density.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import hironaka
from .partitions import (
    check_pair,
    check_partition,
    d_coefficients,
    fill_pattern,
    match_pattern,
    provable_zero,
    trailing_zeros,
    weight,
    xi_plus,
)
from .qalgebra import ONE, RatFunc, ZERO, lau_dot, lau_iadd_scaled


# ---------------------------------------------------------------------------
# relation generation and verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relation:
    """A finite combination sum_i coeff_i * alpha(A_{part_i}, B) that vanishes
    for every B = A_lam with all parts >= 1.

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
            raise ValueError(f"the parts {self.partitions()} differ in length")
        object.__setattr__(self, "laurent_terms", laurent_terms)

    def partitions(self):
        return tuple(p for _, p in self.terms)


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
    ds = [d.as_laurent() for d in d_coefficients(n, s)]
    # the prefactor -(-1)^s (-q)^{-ns} is the monomial -(-1)^{s+ns} q^{-ns}
    sign = -1 if (s + n * s) % 2 == 0 else 1
    acc = {}
    for i, d in enumerate(ds):
        lau_iadd_scaled(acc.setdefault(xi_plus(xi, 0, i), {}), d)
    for i, d in enumerate(ds):
        lau_iadd_scaled(acc.setdefault(xi_plus(xi, i, s - i), {}), d, shift=-n * s, scale=sign)
    terms = tuple((RatFunc.from_laurent(c), p) for p, c in sorted(acc.items(), reverse=True) if c)
    return Relation(terms=terms, context=(n, s, xi))


def verify_relation(rel, lam, engine=None):
    """Evaluate the relation against B = A_lam; returns (is_zero, residual).

    The residual is one dot product of the Laurent coefficients with the
    engine's memoized Laurent alphas, made a ``RatFunc`` once; lam is checked
    here, the parts when the relation was built.  A lam longer than the parts
    raises ``ValueError``.  Valid
    instances require all parts of lam >= 1; calls with lam_n = 0 are
    deliberate negative controls and generally leave a nonzero residual.
    """
    lam = check_partition(lam)
    terms = rel.laurent_terms
    if terms and len(lam) > len(terms[0][1]):
        raise ValueError(f"lambda {lam} is longer than the relation's parts")
    value = (engine or hironaka.default_engine()).laurent_alpha
    residual = RatFunc.from_laurent(lau_dot((coeff, value(part, lam)) for coeff, part in terms))
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

# Laurent constants shared by many memo entries; like every stored value they
# are never mutated.
_LAU_ZERO = {}
_LAU_ONE = {0: 1}


class ReductionEngine:
    """Rewrites normalized densities with memoization and auditable traces.

    ``laurent_value`` is the one evaluator: the memo, then a leaf, then a
    chain of unit steps to one rule-(d) rewrite whose children it values and
    sums (``_combine``).  Every value is a Laurent dict {exponent: coefficient} in ZZ[q, q^-1];
    each rule's coefficients are converted once, next to the rule.  The
    geometry sums, which build their own labels, call it directly: it skips
    label validation and returns the memo's dict itself.  ``normalized_value``
    and ``reduce_normalized`` return a ``RatFunc``; the latter records its
    trace by a separate depth-first walk that expands each node once and sums
    it with the same ``_combine``.  The leaves are constants ("parity-zero"
    and "support-zero" are 0, "base-n1" is 1) and cost O(n) to recompute, so
    only rewritten values are memoized.  A rule coefficient outside
    ZZ[q, q^-1] raises ``NotLaurentError``.  Stored values are never mutated,
    so one engine may be shared by threads.

    Each engine expands a label's rule (d) once: ``_rewrite`` matches it,
    fills it, checks the measure and caches (rule id, [(factor, child_xi)])
    under xi.  Its children keep lam, so the check depends on xi alone.
    Threads that fill one entry at once write equal entries.  The cache is
    per engine, not per process, so a fresh engine sees the rules as they are
    now.  ``laurent_value`` follows the unit steps P2.15 and P2.14 (one child,
    factor 1, both taken from ``_unit_step``) in a loop, not by recursion, and
    memoizes each node with the value at the chain's end, the same dict
    ``_combine`` would share.  It tests the zero leaves (``provable_zero``)
    once, after the memo misses at the chain's start: P2.15 lowers both
    weights by n and keeps xi_i <= lam_i, and P2.14 drops a trailing (0, 0),
    so no later node of the chain is a zero leaf.  Along the chain it checks
    only the rank-1 leaf and the memo.  Nor does it check the measure on unit
    steps, which lower it by construction: P2.15 lowers |lam| by n >= 1, and
    P2.14 meets only lam_n = 0, so xi_n = 0 past the support test
    (``_unit_step`` raises ``RuntimeError`` in O(1) otherwise).  The trace
    walk ``_record`` tests the leaves at every node and measures every step
    in ``_expansion``.
    """

    def __init__(self):
        self._memo = {}
        self._rules = {}        # xi -> (rule_id, [(Laurent factor, child_xi)]) of rule (d)

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
        child that does not lower the measure raises ``RuntimeError``."""
        step = self._unit_step(xi, lam)
        if step is None:
            # past the leaves (xi <= lam componentwise): xi_n = 0 < lam_n
            rule_id, rewrites = self._rules.get(xi) or self._rewrite(xi, lam)
            return rule_id, [(c, p, lam) for c, p in rewrites]
        rule_id, cxi, clam = step
        if not (weight(clam), trailing_zeros(cxi), len(cxi)) < \
                (weight(lam), trailing_zeros(xi), len(xi)):     # the measure
            raise RuntimeError(f"non-decreasing step {rule_id}: {(xi, lam)} -> {(cxi, clam)}")
        return rule_id, [(_LAU_ONE, cxi, clam)]

    def _rewrite(self, xi, lam):
        """Rule (d) for xi, checked and cached: its children keep lam, so the
        measure falls exactly when each child_xi has fewer trailing zeros, or
        as many and fewer parts."""
        rule, bind = match_rewrite(xi)
        rewrites = rule.instantiate_laurent(bind)
        here = (trailing_zeros(xi), len(xi))
        for _, cxi in rewrites:
            if not (trailing_zeros(cxi), len(cxi)) < here:
                raise RuntimeError(
                    f"non-decreasing step {rule.rule_id}: {(xi, lam)} -> {(cxi, lam)}")
        entry = self._rules[xi] = (rule.rule_id, rewrites)
        return entry

    def laurent_value(self, xi, lam):
        """The value alone as the memo's Laurent dict, which callers must never
        mutate; the labels are not validated (callers build them)."""
        memo = self._memo
        val = memo.get((xi, lam))
        if val is not None:
            return val
        if provable_zero(xi, lam) is not None:
            return _LAU_ZERO
        # the unit steps keep the labels past the zero leaves, so along their
        # chain only the rank-1 leaf and the memo can end it
        chain = []
        while len(xi) > 1:
            step = self._unit_step(xi, lam)
            if step is None:
                rewrites = (self._rules.get(xi) or self._rewrite(xi, lam))[1]
                terms = []      # a loop, not a comprehension: one frame per rule-(d) rewrite
                for factor, cxi in rewrites:
                    terms.append((factor, self.laurent_value(cxi, lam)))
                val = self._combine(xi, lam, terms)
                break
            chain.append((xi, lam))
            _, xi, lam = step
            val = memo.get((xi, lam))
            if val is not None:
                break
        else:
            val = _LAU_ONE
        for key in reversed(chain):
            memo[key] = val     # shared along the chain, as _combine shares it
        return val

    def _combine(self, xi, lam, terms):
        """Sums one rewrite's (Laurent factor, child value) terms; memoizes it."""
        if len(terms) == 1 and terms[0][0] is _LAU_ONE:
            val = terms[0][1]   # shared with the child, as both are never mutated
        else:
            val = lau_dot(terms)
        self._memo[xi, lam] = val
        return val

    def _record(self, xi, lam, trace):
        """(note, Laurent value) of (xi, lam).  A parent step inlines the value
        under its leaf rule, or "memo" if valued before the trace began; else
        the note is None, once its subtree is in the trace, depth first."""
        leaf = self._leaf(xi, lam)
        if leaf is not None:
            return leaf[1], leaf[0]
        if (xi, lam) in self._memo:     # entries are never removed
            note = None if trace.has_expanded((xi, lam)) else "memo"
            return note, self._memo[xi, lam]
        rule_id, children = self._expansion(xi, lam)
        step, terms = trace.add(TraceStep(rule_id, xi, lam)), []
        for factor, cxi, clam in children:
            note, sub = self._record(cxi, clam, trace)
            terms.append((factor, sub))
            step.children.append(TraceChild(
                RatFunc.from_laurent(factor), cxi, clam, note=note,
                value=None if note is None else RatFunc.from_laurent(sub)))
        val = self._combine(xi, lam, terms)
        step.value = RatFunc.from_laurent(val)
        return None, val

    def normalized_value(self, xi, lam):
        """The value alone, with memoization but no trace."""
        return RatFunc.from_laurent(self.laurent_value(*check_pair(xi, lam)))

    def reduce_normalized(self, xi, lam):
        """Evaluate A_xi(A_lam) by rewriting; returns (value, ReductionTrace)."""
        xi, lam = check_pair(xi, lam)
        trace = ReductionTrace(root=(xi, lam))
        note, val = self._record(xi, lam, trace)
        if note is not None:
            # a leaf or a warm memo at the root: one terminal step with the value
            trace.add(TraceStep(note, xi, lam, value=RatFunc.from_laurent(val)))
        return trace.steps[0].value, trace      # the root's step comes first


def reduce_normalized(xi, lam, engine=None):
    engine = engine or ReductionEngine()
    return engine.reduce_normalized(xi, lam)


# ---------------------------------------------------------------------------
# generic unnormalized reduction
# ---------------------------------------------------------------------------

class GenericAlphaReducer:
    """Evaluates alpha(A_xi, A_lam) for equal lengths through the relations:
    the normalized density from the reduction engine times the closed
    self-density.  ``hironaka_engine`` is accepted for compatibility and not
    used: no value comes from the direct formula."""

    def __init__(self, hironaka_engine=None, reduction_engine=None):
        self.reducer = reduction_engine or ReductionEngine()

    def alpha_value(self, xi, lam):
        return self.reducer.normalized_value(xi, lam) * hironaka.self_density_closed(xi)


def alpha_via_generic_reduction(xi, lam, reducer=None):
    reducer = reducer or GenericAlphaReducer()
    return reducer.alpha_value(xi, lam)
