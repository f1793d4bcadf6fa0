"""Vanishing relations, the normalized reduction engine, and the generic reducer."""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from hermdens.hironaka import HironakaEngine, _column_chain, self_density_closed
from hermdens.partitions import (
    lambda_ns_elements,
    partitions_fixed_length,
    trailing_zeros,
    weight,
    xi_plus,
)
from hermdens.qalgebra import NotLaurentError, ONE, Q, RatFunc, ZERO, lau_dot, neg_q_power
from hermdens.relations import (
    GenericAlphaReducer,
    REWRITE_RULES,
    ReductionEngine,
    ReductionTrace,
    Relation,
    TraceChild,
    TraceStep,
    fill_pattern,
    match_rewrite,
    theorem_terms,
    verify_relation,
    _LAU_ONE,
    _signature,
)

from conftest import d_coefficients_reference, match_pattern


def test_theorem_terms_merges_rank2_s1():
    rel = theorem_terms(2, 1, (1, 0))
    terms = dict((p, c) for c, p in rel.terms)
    assert terms == {(1, 0): ONE, (2, 1): -neg_q_power(-4)}
    assert rel.context == (2, 1, (1, 0))


def test_theorem_terms_generic_s1_collapses_middle():
    # for any head, the two promoted-by-one terms cancel
    for head in ((3,), (2, 1), (4, 4, 2)):
        n = len(head) + 1
        rel = theorem_terms(n, 1, head + (0,))
        terms = dict((p, c) for c, p in rel.terms)
        assert terms == {
            head + (0,): ONE,
            tuple(sorted(head + (2,), reverse=True)): -neg_q_power(-2 * n),
        }


def test_theorem_terms_rank2_s2_five_terms():
    rel = theorem_terms(2, 2, (0, 0))
    terms = {p: c for c, p in rel.terms}
    q = Q
    assert terms[(0, 0)] == ONE
    assert terms[(1, 0)] == ONE / q - ONE / q ** 2
    assert terms[(1, 1)] == -(ONE / q ** 3) - ONE / q ** 4
    assert terms[(2, 1)] == -(ONE / q ** 5) + ONE / q ** 6
    assert terms[(2, 2)] == ONE / q ** 7
    assert len(terms) == 5


def test_theorem_terms_leading_coefficient_is_one():
    for n, s, xi in ((3, 2, (2, 0, 0)), (4, 4, (0, 0, 0, 0)), (4, 1, (3, 2, 1, 0))):
        rel = theorem_terms(n, s, xi)
        terms = {p: c for c, p in rel.terms}
        assert terms[xi] == ONE


def test_theorem_terms_validation():
    with pytest.raises(ValueError):
        theorem_terms(2, 2, (1, 0))
    with pytest.raises(ValueError):
        theorem_terms(2, 0, (1, 1))


def test_verify_relation_examples():
    eng = HironakaEngine()
    ok, res = verify_relation(theorem_terms(2, 2, (0, 0)), (1, 1), eng)
    assert ok and res == ZERO
    ok, res = verify_relation(theorem_terms(3, 1, (2, 2, 0)), (2, 1, 1), eng)
    assert ok and res == ZERO
    # residual computed independently, term by term
    rel = theorem_terms(2, 1, (1, 0))
    manual = ZERO
    for coeff, part in rel.terms:
        manual = manual + coeff * eng.alpha(part, (2, 2))
    ok, res = verify_relation(rel, (2, 2), eng)
    assert ok and manual == res == ZERO


def test_negative_controls_have_nonzero_residual():
    # degenerate B (last part 0) genuinely breaks the relation
    eng = HironakaEngine()
    controls = [
        (1, 1, (0,), (0,)),
        (2, 1, (1, 0), (1, 0)),
        (2, 2, (0, 0), (2, 0)),
        (3, 1, (2, 2, 0), (2, 2, 0)),
    ]
    for n, s, xi, lam in controls:
        ok, res = verify_relation(theorem_terms(n, s, xi), lam, eng)
        assert not ok and not res.is_zero, (n, s, xi, lam)


def test_relations_hold_only_at_full_length():
    # a relation of length m vanishes at every lam of length m with positive
    # parts, and a shorter lam with positive parts is outside that domain
    rel = theorem_terms(2, 1, (1, 0))
    eng = HironakaEngine()
    for lam in itertools.combinations_with_replacement(range(4, 0, -1), 2):
        ok, res = verify_relation(rel, lam, eng)
        assert ok and res == ZERO, lam
    ok, res = verify_relation(rel, (1,), eng)
    assert not ok and not res.is_zero


def test_theorem_sweep_small():
    eng = HironakaEngine()
    for n in (1, 2, 3):
        lams = list(partitions_fixed_length(n, 1, 3))
        for s in range(1, n + 1):
            for xi in lambda_ns_elements(n, s, 2):
                rel = theorem_terms(n, s, xi)
                for lam in lams:
                    ok, res = verify_relation(rel, lam, eng)
                    assert ok, (n, s, xi, lam, str(res))


def _theorem_terms_reference(n, s, xi):
    """theorem_terms summed one RatFunc at a time and built on every call, from
    the coefficients' product expansion."""
    ds = d_coefficients_reference(n, s)
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


def _verify_relation_reference(rel, lam, engine):
    """verify_relation summed one RatFunc at a time."""
    residual = ZERO
    for coeff, part in rel.terms:
        residual = residual + coeff * engine.alpha(part, lam)
    return residual.is_zero, residual


def _all_relations(max_n=5, max_part=4):
    return [(n, s, xi) for n in range(1, max_n + 1) for s in range(1, n + 1)
            for xi in lambda_ns_elements(n, s, max_part)]


def test_theorem_terms_match_reference():
    keys = _all_relations()
    assert len(keys) == 126
    for n, s, xi in keys:
        rel, ref = theorem_terms(n, s, xi), _theorem_terms_reference(n, s, xi)
        assert rel == ref and rel.terms == ref.terms, (n, s, xi)
        assert [(c.to_json(), p) for c, p in rel.terms] == \
            [(c.to_json(), p) for c, p in ref.terms], (n, s, xi)
        for (c, p), (lau, lp) in zip(rel.terms, rel.laurent_terms):
            assert lp == p and RatFunc.from_laurent(lau) == c, (n, s, xi)


def test_verify_relation_matches_reference_seeded():
    # lam parts 0..4: 223 of the 378 draws are lam_n = 0 controls, 72 of which
    # leave a nonzero residual
    rng = random.Random(2020)
    eng = HironakaEngine()
    controls = residuals = 0
    for n, s, xi in _all_relations():
        rel = theorem_terms(n, s, xi)
        for _ in range(3):
            lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
            got, want = verify_relation(rel, lam, eng), _verify_relation_reference(rel, lam, eng)
            assert got == want and str(got[1]) == str(want[1]), (n, s, xi, lam)
            assert got[0] or lam[-1] == 0, (n, s, xi, lam)
            controls += lam[-1] == 0
            residuals += not got[0]
    assert (controls, residuals) == (223, 72)


def test_theorem_terms_are_built_once_per_key():
    rel = theorem_terms(3, 1, (2, 1, 0))
    assert theorem_terms(3, 1, [2, 1, 0]) is rel
    # a memoized xi does not let other arguments through unchecked
    theorem_terms(2, 2, (0, 0))
    for n, s in ((2, 1), (3, 2), (2, 3), (2, 0)):
        with pytest.raises(ValueError):
            theorem_terms(n, s, (0, 0))


def test_theorem_terms_across_threads(monkeypatch):
    import hermdens.relations as relations
    keys = _all_relations(max_n=4, max_part=3)
    expected = {k: _theorem_terms_reference(*k) for k in keys}
    monkeypatch.setattr(relations, "_RELATIONS", {})    # the threads build every relation
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that cache writes interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda k: (k, theorem_terms(*k)), keys * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * len(keys)
    for key, rel in results:
        assert rel == expected[key] and rel is theorem_terms(*key), key


def test_relation_with_non_laurent_coefficient_raises():
    with pytest.raises(NotLaurentError):
        Relation(terms=((ONE, (1, 0)), (ONE / (ONE + Q), (2, 1))), context=(2, 1, (1, 0)))


def test_relation_with_int_coefficient_raises():
    with pytest.raises(TypeError, match=r"term \(2, 1\).*int 2"):
        Relation(terms=((ONE, (1, 0)), (2, (2, 1))), context=(2, 1, (1, 0)))


def test_relation_checks_its_parts_once():
    for part in ((1, 2), (2, -1), (2.5, 1), ()):
        with pytest.raises(ValueError):
            Relation(terms=((ONE, (1, 0)), (ONE, part)), context=(2, 1, (1, 0)))
    with pytest.raises(ValueError, match="differ in length"):
        Relation(terms=((ONE, (1, 0)), (ONE, (2, 1, 0))), context=(2, 1, (1, 0)))
    rel = Relation(terms=((ONE, [1, 0]),), context=(2, 1, (1, 0)))
    assert rel.laurent_terms == (({0: 1}, (1, 0)),)
    # a lam longer than the parts raises; alpha(A_xi, A_lam) needs m >= n
    with pytest.raises(ValueError, match="longer"):
        verify_relation(theorem_terms(2, 1, (1, 0)), (2, 2, 1), HironakaEngine())


def test_verify_relation_reads_the_laurent_memo(monkeypatch):
    # no RatFunc round trip and no label check per term: verify_relation
    # calls neither RatFunc.as_laurent nor HironakaEngine.alpha
    calls = {"as_laurent": 0, "alpha": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    rels = [theorem_terms(*key) for key in _all_relations(max_n=3, max_part=3)]
    monkeypatch.setattr(RatFunc, "as_laurent", counting("as_laurent", RatFunc.as_laurent))
    monkeypatch.setattr(HironakaEngine, "alpha", counting("alpha", HironakaEngine.alpha))
    eng = HironakaEngine()
    for rel in rels:
        for lam in partitions_fixed_length(len(rel.context[2]), 1, 3):
            assert verify_relation(rel, lam, eng)[0], (rel.context, lam)
    assert calls == {"as_laurent": 0, "alpha": 0}


def test_hironaka_memo_holds_fresh_values_after_threads():
    # one shared engine under a seeded 4-thread sweep of every entry point
    # that reads its memo: each stored dict still equals a fresh
    # _column_chain value, so no caller mutated a shared dict
    rng = random.Random(2207)
    keys = _all_relations(max_n=3, max_part=3)
    jobs = []
    for _ in range(160):
        n, s, xi = rng.choice(keys)
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        jobs.append((rng.randrange(4), theorem_terms(n, s, xi), lam))
    shared = HironakaEngine()

    def run(job):
        kind, rel, lam = job
        xi = rel.context[2]
        if kind == 0:
            return verify_relation(rel, lam, shared)
        return (shared.alpha, shared.normalized, shared.laurent_value)[kind - 1](xi, lam)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that cache writes interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(jobs) and len(shared._alpha) > 100
    for (xi, lam), val in shared._alpha.items():
        assert val == _column_chain(xi, lam, False), (xi, lam)


def test_relation_with_int_coefficient_raises_without_asserts():
    # the same check in an interpreter that strips assert statements
    script = "\n".join((
        "import sys",
        "from hermdens.qalgebra import ONE",
        "from hermdens.relations import Relation",
        "assert False, 'assert statements are on'",
        "try:",
        "    Relation(terms=((ONE, (1, 0)), (2, (2, 1))), context=(2, 1, (1, 0)))",
        "except TypeError as exc:",
        "    sys.exit(0 if '(2, 1)' in str(exc) else 1)",
        "sys.exit(1)",
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# rewrite rules
# ---------------------------------------------------------------------------

def _hand_rules():
    """The rank 2-4 rewrite rules as tabulated by hand: the reference for the derived ones."""
    q = Q
    table = {
        2: [
            ("C2.17.1", (0, 0), [(q + 1, (1, 1)), (-q, (2, 2))]),
            ("C2.17.2", (1, 0), [(ONE, (2, 1))]),
            ("C2.17.3", (2, 0), [(q * (q - 1), (2, 2))]),
            ("C2.17.4", ("*", 0), [(q ** 2, ("*", 2))]),
        ],
        3: [
            ("C2.19.1", (0, 0, 0), [(q + 1, (2, 1, 1)), (-q ** 3, (2, 2, 2))]),
            ("C2.19.2", (1, 0, 0), [(q ** 3 + 1, (1, 1, 1)), (-q, (2, 2, 1))]),
            ("C2.19.3", (1, 1, 0), [(ONE, (2, 1, 1))]),
            ("C2.19.4", ("*", "*", 0), [(q ** 4, ("*", "*", 2))]),
            ("C2.19.5", ("*", 2, 0), [(q ** 3 * (q - 1), ("*", 2, 2))]),
            ("C2.19.6", (2, 2, 0), [(q ** 2 * (q ** 2 - q + 1), (2, 2, 2))]),
            ("C2.19.7", ("*", 0, 0), [(q ** 2 * (q + 1), ("*", 1, 1)), (-q ** 5, ("*", 2, 2))]),
            ("C2.19.8", (2, 0, 0), [(q ** 2 * (q + 1), (2, 1, 1)),
                                    (-q ** 3 * (q ** 2 - q + 1), (2, 2, 2))]),
            ("C2.19.9", (2, 1, 0), [(q * (q - 1), (2, 2, 1))]),
            ("C2.19.10", ("*", 1, 0), [(q ** 2, ("*", 2, 1))]),
        ],
        4: [
            ("C2.20.1", ("*", "*", "*", 0), [(q ** 6, ("*", "*", "*", 2))]),
            ("C2.20.2", ("*", "*", 2, 0), [(q ** 5 * (q - 1), ("*", "*", 2, 2))]),
            ("C2.20.3", ("*", "*", 1, 0), [(q ** 4, ("*", "*", 2, 1))]),
            ("C2.20.4", ("*", 2, 2, 0), [(q ** 4 * (q ** 2 - q + 1), ("*", 2, 2, 2))]),
            ("C2.20.5", ("*", 2, 1, 0), [(q ** 3 * (q - 1), ("*", 2, 2, 1))]),
            ("C2.20.6", ("*", 1, 1, 0), [(q ** 2, ("*", 2, 1, 1))]),
            ("C2.20.7", (2, 2, 2, 0), [(q ** 3 * (q ** 3 - q ** 2 + q - 1), (2, 2, 2, 2))]),
            ("C2.20.8", (2, 2, 1, 0), [(q ** 2 * (q ** 2 - q + 1), (2, 2, 2, 1))]),
            ("C2.20.9", (2, 1, 1, 0), [(q * (q - 1), (2, 2, 1, 1))]),
            ("C2.20.10", (1, 1, 1, 0), [(ONE, (2, 1, 1, 1))]),
            ("C2.20.11", ("*", "*", 0, 0), [(q ** 4 * (q + 1), ("*", "*", 1, 1)),
                                            (-q ** 9, ("*", "*", 2, 2))]),
            ("C2.20.12", ("*", 2, 0, 0), [(q ** 4 * (q + 1), ("*", 2, 1, 1)),
                                          (-q ** 7 * (q ** 2 - q + 1), ("*", 2, 2, 2))]),
            ("C2.20.13", ("*", 1, 0, 0), [(q ** 2 * (q ** 3 + 1), ("*", 1, 1, 1)),
                                          (-q ** 5, ("*", 2, 2, 1))]),
            ("C2.20.14", (2, 2, 0, 0), [(q ** 4 * (q + 1), (2, 2, 1, 1)),
                                        (-q ** 5 * (q ** 2 - q + 1) * (q ** 2 + 1), (2, 2, 2, 2))]),
            ("C2.20.15", (2, 1, 0, 0), [(q ** 2 * (q ** 3 + 1), (2, 1, 1, 1)),
                                        (-q ** 3 * (q ** 2 - q + 1), (2, 2, 2, 1))]),
            ("C2.20.16", (1, 1, 0, 0), [((q ** 3 + 1) * (q ** 2 + 1), (1, 1, 1, 1)),
                                        (-q, (2, 2, 1, 1))]),
            ("C2.20.17", ("*", 0, 0, 0), [(q ** 4 * (q + 1), ("*", 2, 1, 1)),
                                          (-q ** 9, ("*", 2, 2, 2))]),
            ("C2.20.18", (2, 0, 0, 0), [(q ** 3 * (q ** 2 - 1), (2, 2, 1, 1)),
                                        (-q ** 6 * (q ** 3 - q ** 2 + q - 1), (2, 2, 2, 2))]),
            ("C2.20.19", (1, 0, 0, 0), [(q ** 3 + 1, (2, 1, 1, 1)), (-q ** 3, (2, 2, 2, 1))]),
            ("C2.20.20", (0, 0, 0, 0), [((q + 1) * (q ** 3 + 1), (1, 1, 1, 1)),
                                        (-q * (q + 1), (2, 2, 1, 1)),
                                        (q ** 6, (2, 2, 2, 2))]),
        ],
    }
    return {n: [(rid, pat, tuple(rhs)) for rid, pat, rhs in rows] for n, rows in table.items()}


HAND_RULES = _hand_rules()


def _hand_match(xi):
    """The hand rule whose pattern matches xi, by a linear scan; exactly one must."""
    hits = [(rid, pat, rhs) for rid, pat, rhs in HAND_RULES[len(xi)]
            if all((t == "*" and x >= 3) or t == x for t, x in zip(pat, xi))]
    assert len(hits) == 1, (xi, hits)
    return hits[0]


def test_derived_rules_match_hand_tables():
    for n in (2, 3, 4):
        assert [(r.rule_id, r.pattern) for r in REWRITE_RULES[n]] == \
            [(rid, pat) for rid, pat, _ in HAND_RULES[n]]
        for rule, (_, _, rhs) in zip(REWRITE_RULES[n], HAND_RULES[n]):
            assert [t for _, t in rule.rhs] == [t for _, t in rhs], rule.rule_id
            assert [c for c, _ in rule.rhs] == [c for c, _ in rhs], rule.rule_id
    assert sum(len(rules) for rules in REWRITE_RULES.values()) == 34


def test_rewrite_rules_cover_all_zero_tailed_shapes():
    # all 119 zero-tailed labels of ranks 2-4 with parts <= 6: the derived
    # rule is the hand rule, in value and in child order
    labels = 0
    for n in (2, 3, 4):
        for head in partitions_fixed_length(n - 1, 0, 6):
            xi = head + (0,)
            hit = match_rewrite(xi)
            assert hit is not None, xi
            rule, bind = hit
            assert fill_pattern(rule.pattern, bind) == xi
            rid, pat, rhs = _hand_match(xi)
            assert (rule.rule_id, rule.pattern) == (rid, pat)
            assert rule.instantiate(bind) == [(c, fill_pattern(t, bind)) for c, t in rhs], xi
            labels += 1
    assert labels == 119


def test_rewrite_rules_are_disjoint():
    # each zero-tailed label of ranks 2-4 matches exactly one rule pattern
    for n in (2, 3, 4):
        for head in partitions_fixed_length(n - 1, 0, 5):
            xi = head + (0,)
            hits = [r for r in REWRITE_RULES[n] if match_pattern(r.pattern, xi) is not None]
            assert [r.rule_id for r in hits] == [match_rewrite(xi)[0].rule_id], xi


def test_derived_rules_beyond_rank4_match_direct_evaluation():
    rng = random.Random(5150)
    eng = HironakaEngine()
    for _ in range(24):
        n = rng.randint(5, 6)
        s = rng.randint(1, n)
        xi = tuple(sorted((rng.randint(1, 4) for _ in range(n - s)), reverse=True)) + (0,) * s
        lam = tuple(sorted((rng.randint(1, 3) for _ in range(n)), reverse=True))
        rule, bind = match_rewrite(xi)
        assert rule.rule_id == "derived:" + ",".join("*" if x >= 3 else str(x) for x in xi)
        children = rule.instantiate(bind)
        assert [p for _, p in children] == sorted(p for _, p in children)
        rhs = ZERO
        for coeff, part in children:
            rhs = rhs + coeff * eng.normalized(part, lam)
        assert eng.normalized(xi, lam) == rhs, (xi, lam)


def test_rewrite_rule_instantiation_two_placeholders():
    rule, bind = match_rewrite((5, 4, 0))
    assert rule.rule_id == "C2.19.4"
    assert bind == (5, 4)
    [(coeff, target)] = rule.instantiate(bind)
    assert target == (5, 4, 2) and coeff == Q ** 4


def test_instantiate_takes_one_part_per_slot():
    # a binding is one part >= 3 per "*" slot; any other is refused, naming
    # both lengths, where a longer one used to lose its extra parts silently
    rule = match_rewrite((3, 0))[0]
    assert rule.instantiate((5,)) == [(Q ** 2, (5, 2))]
    for bad in ((5, 6), ()):
        for instantiate in (rule.instantiate, rule.instantiate_laurent):
            with pytest.raises(ValueError, match=rf"has 1 '\*' slot\(s\), got {len(bad)} part"):
                instantiate(bad)
    with pytest.raises(ValueError, match=r"has 0 '\*' slot\(s\), got 1 part"):
        REWRITE_RULES[2][0].instantiate((7,))
    with pytest.raises(ValueError, match="part >= 3"):
        rule.instantiate_laurent((2,))


def test_instantiate_refuses_a_binding_out_of_order():
    # the bound label is a partition: (3, 5) used to give the child (3, 5, 2)
    rule, bind = match_rewrite((5, 4, 0))
    for fill in (bind, (4, 4)):
        for _, child in rule.instantiate(fill):
            assert list(child) == sorted(child, reverse=True), (fill, child)
    for instantiate in (rule.instantiate, rule.instantiate_laurent):
        with pytest.raises(ValueError, match=r"non-increasing, got \(3, 5\)"):
            instantiate((3, 5))


def test_corollary_identities_hold_through_direct_evaluation():
    eng = HironakaEngine()
    rng = random.Random(31)
    lams = {n: list(partitions_fixed_length(n, 1, 2)) for n in (2, 3, 4)}
    for n in (2, 3, 4):
        for rule in REWRITE_RULES[n]:
            slots = sum(1 for t in rule.pattern if t == "*")
            fill = tuple(sorted((rng.choice((3, 4)) for _ in range(slots)), reverse=True))
            it = iter(fill)
            xi = tuple(next(it) if t == "*" else t for t in rule.pattern)
            for lam in lams[n]:
                lhs = eng.normalized(xi, lam)
                rhs = ZERO
                for coeff, part in rule.instantiate(fill):
                    rhs = rhs + coeff * eng.normalized(part, lam)
                assert lhs == rhs, (rule.rule_id, xi, lam)


# ---------------------------------------------------------------------------
# the reduction engine
# ---------------------------------------------------------------------------

def test_reduce_worked_chain():
    eng = ReductionEngine()
    t0 = time.perf_counter()
    val, trace = eng.reduce_normalized((3, 0, 0), (8, 3, 2))
    elapsed = time.perf_counter() - t0
    assert val == Q ** 6 + Q ** 5 + Q ** 4
    assert len(trace) <= 10
    assert elapsed < 0.05
    used = set(trace.rule_ids())
    assert used == {"C2.19.7", "C2.19.8", "C2.17.2", "P2.15", "P2.14"}
    assert trace.rule_ids()[0] == "C2.19.7"
    assert trace.replay() == val


def test_reduce_worked_values():
    eng = ReductionEngine()
    assert eng.reduce_normalized((6, 0), (8, 6))[0] == Q ** 5 * (Q - 1)
    assert eng.reduce_normalized((5, 4, 3, 2), (5, 4, 3, 2))[0] == ONE
    assert eng.reduce_normalized((2, 0, 0), (3, 3, 2))[0] == \
        (Q + 1) * (Q ** 6 + Q ** 4 - Q ** 3 + Q ** 2)


def test_reduce_matches_direct_randomized():
    rng = random.Random(20260809)
    heng = HironakaEngine()
    red = ReductionEngine()
    for _ in range(60):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        assert red.normalized_value(xi, lam) == heng.normalized(xi, lam), (xi, lam)


def test_shared_reduction_engine_across_threads():
    rng = random.Random(4)
    cases = []
    for _ in range(24):
        n = rng.randint(2, 4)
        cases.append((tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True)),
                      tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))))
    expected = {c: ReductionEngine().normalized_value(*c) for c in cases}
    shared = ReductionEngine()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that cache writes interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda c: (c, shared.normalized_value(*c)), cases * 4,
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * len(cases)
    for case, val in results:
        assert val == expected[case], case


def test_trace_replay_randomized():
    rng = random.Random(88)
    eng = ReductionEngine()
    for _ in range(30):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        val, trace = eng.reduce_normalized(xi, lam)
        assert trace.replay() == val, (xi, lam)


def test_trace_measure_decreases_along_steps():
    # rewrite children strictly decrease (|lam|, trailing zeros of xi, n)
    eng = ReductionEngine()
    _, trace = eng.reduce_normalized((4, 2, 0, 0), (5, 3, 2, 1))
    for step in trace.steps:
        parent = (weight(step.lam_before), trailing_zeros(step.xi_before), len(step.xi_before))
        for child in step.children:
            assert (weight(child.lam), trailing_zeros(child.xi), len(child.xi)) < parent


def test_trace_json_serialization():
    eng = ReductionEngine()
    val, trace = eng.reduce_normalized((3, 0, 0), (8, 3, 2))
    blob = json.loads(trace.dumps())
    assert blob[0]["rule_id"] == "C2.19.7"
    assert blob[0]["xi_before"] == [3, 0, 0]
    assert blob[0]["lambda_before"] == [8, 3, 2]
    assert RatFunc.from_json(blob[0]["factor"]) == Q ** 2 * (Q + 1)
    sib = blob[0]["additive_siblings"]
    assert len(sib) == 1 and sib[0]["xi"] == [3, 2, 2]


def test_trace_on_warm_cache_stays_valid():
    eng = ReductionEngine()
    eng.reduce_normalized((3, 0, 0), (8, 3, 2))
    val, trace = eng.reduce_normalized((3, 0, 0), (8, 3, 2))
    assert trace.rule_ids() == ["memo"]
    assert trace.replay() == val


def test_reduce_handles_fallback_for_rank5():
    # rank 5 has no named rules: the derived rule of the signature applies
    eng = ReductionEngine()
    xi, lam = (1, 1, 0, 0, 0), (2, 1, 1, 1, 1)
    val, trace = eng.reduce_normalized(xi, lam)
    assert trace.rule_ids()[0] == "derived:1,1,0,0,0"
    assert trace.replay() == val
    assert val == HironakaEngine().normalized(xi, lam)


def test_reduce_zero_shortcuts():
    eng = ReductionEngine()
    val, trace = eng.reduce_normalized((1, 0), (1, 1))
    assert val == ZERO and trace.rule_ids() == ["parity-zero"]
    val, trace = eng.reduce_normalized((2, 2), (3, 1))
    assert val == ZERO and trace.rule_ids() == ["support-zero"]


def test_support_leaf_is_sound():
    # the i-th invariant factor of A divides the i-th one of conj(X)^T A X
    # (Newman, Integral Matrices, Thm II.15), so alpha(A_xi, A_lam) = 0 when
    # some xi_i > lam_i: every equal-parity pair with n <= 4 and parts <= 4
    heng = HironakaEngine()
    eng = ReductionEngine()
    pairs = beyond_last_part = 0
    for n in range(1, 5):
        labels = list(partitions_fixed_length(n, 0, 4))
        for xi, lam in itertools.product(labels, labels):
            if (weight(xi) - weight(lam)) % 2 or all(x <= l for x, l in zip(xi, lam)):
                continue
            assert heng.alpha(xi, lam) == ZERO, (xi, lam)
            val, trace = eng.reduce_normalized(xi, lam)
            assert val == ZERO and trace.rule_ids() == ["support-zero"], (xi, lam)
            pairs += 1
            beyond_last_part += xi[-1] <= lam[-1]
    assert (pairs, beyond_last_part) == (1995, 941)


# ---------------------------------------------------------------------------
# Laurent values inside the engine
# ---------------------------------------------------------------------------

def test_derived_rule_coefficients_are_laurent():
    # every zero-tailed signature of ranks 2-6; "*" slots filled with 3
    for n in range(2, 7):
        for head in itertools.combinations_with_replacement(("*", 2, 1, 0), n - 1):
            xi = fill_pattern(head + (0,), (3,) * head.count("*"))
            rule, bind = match_rewrite(xi)
            rhs = rule.instantiate(bind)
            laurent = rule.instantiate_laurent(bind)
            assert [p for _, p in laurent] == [p for _, p in rhs], xi
            for (coeff, _), (lau, _) in zip(rhs, laurent):
                assert coeff.as_laurent() == lau and RatFunc.from_laurent(lau) == coeff, xi


def _rhs_reference(sig, cache):
    """The right-hand side of a signature derived in RatFunc arithmetic: each
    kept term's coefficient times the ratio of closed self-densities, through
    the polynomial gcd of ``RatFunc`` division, and zero-tailed children
    rewritten by this reference itself, memoized in ``cache``."""
    if sig not in cache:
        stars = (3,) * sig.count("*")
        xi = fill_pattern(sig, stars)
        own = self_density_closed(xi)
        acc = {}
        for c, p in theorem_terms(len(xi), trailing_zeros(xi), xi).terms:
            if p == xi or (weight(p) - weight(xi)) % 2:
                continue
            c = -c * self_density_closed(p) / own
            subs = _rhs_reference(_signature(p), cache) if p[-1] == 0 else ((ONE, _signature(p)),)
            for c2, tpl in subs:
                child = fill_pattern(tpl, stars)
                acc[child] = acc.get(child, ZERO) + c * c2
        cache[sig] = tuple((c, _signature(p)) for p, c in sorted(acc.items()) if not c.is_zero)
    return cache[sig]


# every zero-tailed signature of ranks 2-7
_SIGNATURES = [head + (0,) for n in range(2, 8)
               for head in itertools.combinations_with_replacement(("*", 2, 1, 0), n - 1)]


def test_derived_rules_match_the_ratfunc_reference():
    named = {rule.pattern: rule.rule_id for rules in REWRITE_RULES.values() for rule in rules}
    cache = {}
    assert len(_SIGNATURES) == 209
    for sig in _SIGNATURES:
        rule, bind = match_rewrite(fill_pattern(sig, (3,) * sig.count("*")))
        want_id = named.get(sig, "derived:" + ",".join(map(str, sig)))
        assert (rule.rule_id, rule.pattern) == (want_id, sig)
        assert rule.rhs == _rhs_reference(sig, cache), sig


def test_rule_table_keeps_only_the_named_rules():
    # a derived signature's RewriteRule is built on demand, not stored
    import hermdens.relations as relations
    for sig in _SIGNATURES:
        match_rewrite(fill_pattern(sig, (3,) * sig.count("*")))
    named = [rule for rules in REWRITE_RULES.values() for rule in rules]
    assert len(named) == 34
    assert relations._RULES == {rule.pattern: rule for rule in named}


def test_rule_derivation_takes_no_polynomial_gcd(monkeypatch):
    import hermdens.qalgebra as qalgebra
    import hermdens.relations as relations
    calls = []
    real = qalgebra.poly_gcd
    monkeypatch.setattr(qalgebra, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    monkeypatch.setattr(relations, "_RHS", {})          # derive the rules afresh
    monkeypatch.setattr(relations, "_RELATIONS", {})    # and build their relations
    for sig in _SIGNATURES:
        relations._derived_rhs(sig)
    assert len(relations._RHS) == 209 and calls == []
    # the counter does see the gcd of the RatFunc reference's divisions
    _rhs_reference((2, 0), {})
    assert calls


_POISON_SELF_DENSITY_2_2 = """
import hermdens.hironaka as hironaka
import hermdens.relations as relations

def _poisoned(closed):
    # the closed self-density of (2, 2) loses its factor 1 - (-q)^-2, so rule
    # C2.17.3, (2, 0), gets a coefficient outside ZZ[q, q^-1]
    def inner(xi):
        val = closed(xi)
        return hironaka._divide_one_minus_t(val, 2) if xi == (2, 2) else val
    return inner
"""


def test_non_laurent_coefficient_raises(monkeypatch):
    import hermdens.hironaka as hironaka
    import hermdens.relations as relations
    scope = {}
    exec(_POISON_SELF_DENSITY_2_2, scope)
    monkeypatch.setattr(relations, "_RHS", {})
    monkeypatch.setattr(hironaka, "_self_density_laurent",
                        scope["_poisoned"](hironaka._self_density_laurent))
    with pytest.raises(ArithmeticError, match=r"C2\.17\.3 of signature \(2, 0\)") as err:
        ReductionEngine().normalized_value((2, 0), (3, 1))
    # chained from the divider's error, whose text it keeps
    assert "does not divide" in str(err.value)
    assert "does not divide" in str(err.value.__cause__)
    assert (2, 0) not in relations._RHS


def test_non_laurent_coefficient_raises_without_asserts():
    # the same check in an interpreter that strips assert statements
    script = _POISON_SELF_DENSITY_2_2 + "\n".join((
        "import sys",
        "assert False, 'assert statements are on'",
        "hironaka._self_density_laurent = _poisoned(hironaka._self_density_laurent)",
        "try:",
        "    relations.ReductionEngine().normalized_value((2, 0), (3, 1))",
        "except ArithmeticError as exc:",
        "    sys.exit(0 if 'signature (2, 0)' in str(exc) and 'does not divide' in str(exc)",
        "             and exc.__cause__ is not None else 2)",
        "sys.exit(1)",
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


_POISON_RELATION_2_0 = """
import hermdens.relations as relations
from hermdens.qalgebra import ONE

def _poisoned():
    # the relation of (2, 0) gains a term (4, 0), which keeps its trailing
    # zero: rule C2.17.3 would rewrite (2, 0) to a label no lower
    rel = relations.theorem_terms(2, 1, (2, 0))
    return relations.Relation(terms=rel.terms + ((ONE, (4, 0)),), context=rel.context)
"""


def test_non_decreasing_rewrite_raises(monkeypatch):
    # the derivation of rule C2.17.3 refuses the poisoned relation, so both
    # evaluation paths raise, naming the rule and the step
    import hermdens.relations as relations
    scope = {}
    exec(_POISON_RELATION_2_0, scope)
    monkeypatch.setattr(relations, "_RHS", {})
    monkeypatch.setitem(relations._RELATIONS, (2, 1, (2, 0)), scope["_poisoned"]())
    message = re.escape("non-decreasing step C2.17.3: (2, 0) -> (4, 0)")
    with pytest.raises(RuntimeError, match=message):
        ReductionEngine().normalized_value((2, 0), (3, 1))
    with pytest.raises(RuntimeError, match=message):
        ReductionEngine().reduce_normalized((3, 1), (4, 2))
    assert (2, 0) not in relations._RHS


def test_non_decreasing_rewrite_raises_without_asserts():
    # the same check in an interpreter that strips assert statements
    script = _POISON_RELATION_2_0 + "\n".join((
        "import sys",
        "assert False, 'assert statements are on'",
        "relations._RHS.clear()",
        "relations._RELATIONS[2, 1, (2, 0)] = _poisoned()",
        "try:",
        "    relations.ReductionEngine().normalized_value((2, 0), (3, 1))",
        "except RuntimeError as exc:",
        "    sys.exit(0 if 'non-decreasing step C2.17.3: (2, 0) -> (4, 0)' in str(exc) else 2)",
        "sys.exit(1)",
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_long_rewrite_chain_fits_the_recursion_limit():
    # A_(k,k)(A_(k,k)) is a chain of k P2.15 steps and one P2.14 step.  The
    # evaluator follows such unit steps in a loop, the trace pass keeps its
    # own stack and the replay values the steps in ascending measure, none
    # with a Python frame per step, so a chain longer than the recursion
    # limit evaluates, traces and replays
    k = sys.getrecursionlimit() * 3 // 5
    long = 2 * sys.getrecursionlimit()
    assert ReductionEngine().normalized_value((long, long), (long, long)) == ONE
    assert ReductionEngine().normalized_value((k, k), (k, k)) == ONE
    val, trace = ReductionEngine().reduce_normalized((k, k), (k, k))
    assert val == ONE and len(trace) == k + 1
    val, trace = ReductionEngine().reduce_normalized((long, long), (long, long))
    assert val == ONE == trace.replay() and len(trace) == long + 1


def test_unit_closure_shares_one_dict():
    # the unit steps of a chain are taken in one pass: the asked label and
    # its unit-closed label share one stored dict, and no node between them
    # is stored
    eng = ReductionEngine()
    val = eng.laurent_value((4, 2, 2), (6, 4, 2))
    # P2.15 twice, then P2.14, to (2,0) against (4,2), where rule C2.17.3 applies
    asked, closed = ((4, 2, 2), (6, 4, 2)), ((2, 0), (4, 2))
    assert val and eng._memo[asked] is val and eng._memo[closed] is val
    for node in (((3, 1, 1), (5, 3, 1)), ((2, 0, 0), (4, 2, 0))):
        assert node not in eng._memo, node
    assert RatFunc.from_laurent(val) == HironakaEngine().normalized((4, 2, 2), (6, 4, 2))


def _laurent_value_reference(eng, xi, lam):
    """``ReductionEngine.laurent_value`` node by node: the memo, then a leaf,
    then one ``_expansion`` per unit step down to the unit-closed label,
    where the memo is probed again and, on a miss, the rule-(d) children are
    valued in turn and summed with ``lau_dot``.  The value is stored under
    the asked label and the closed label, and under no node between them.
    The reference for the evaluator, which takes the unit steps in one pass
    without ``_expansion`` and adds each child's product in place."""
    memo, key = eng._memo, (xi, lam)
    val = memo.get(key)
    if val is not None:
        return val
    leaf = eng._leaf(xi, lam)
    if leaf is not None:
        return leaf[0]
    while len(xi) > 1:
        rule_id, children = eng._expansion(xi, lam)
        if rule_id not in ("P2.15", "P2.14"):
            break
        # a unit step: its value is its one child's, with factor 1
        _, xi, lam = children[0]
    else:
        memo[key] = {0: 1}
        return memo[key]
    closed = (xi, lam)
    val = memo.get(closed)
    if val is None:
        val = memo[closed] = lau_dot((factor, _laurent_value_reference(eng, cxi, clam))
                                     for factor, cxi, clam in children)
    memo[key] = val
    return val


def test_laurent_value_matches_reference_seeded():
    # one engine of each through the same seeded labels: the same values, and
    # memos with the same keys, in the same order, and the same values
    rng = random.Random(2121)
    eng, ref = ReductionEngine(), ReductionEngine()
    nonzero = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        if rng.random() < 0.7:
            xi = tuple(sorted((rng.randint(0, l) for l in lam), reverse=True))
        else:
            xi = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        val = eng.laurent_value(xi, lam)
        assert val == _laurent_value_reference(ref, xi, lam), (xi, lam)
        nonzero += bool(val)
    assert nonzero >= 150
    assert list(eng._memo) == list(ref._memo)
    assert all(eng._memo[key] == val for key, val in ref._memo.items())


def test_unit_chain_tests_the_zero_leaves_once(monkeypatch):
    # A_(50,50)(A_(50,50)): 50 P2.15 steps and one P2.14 step to a rank-1
    # leaf, one zero-leaf test at the chain's start, and one memo entry, the
    # asked label's
    import hermdens.relations as relations
    calls = []

    def counting(xi, lam):
        calls.append((xi, lam))
        return relations_provable_zero(xi, lam)

    relations_provable_zero = relations.provable_zero
    monkeypatch.setattr(relations, "provable_zero", counting)
    eng = ReductionEngine()
    assert eng.laurent_value((50, 50), (50, 50)) == {0: 1}
    assert calls == [((50, 50), (50, 50))]
    assert list(eng._memo) == [((50, 50), (50, 50))]


def test_unit_step_refuses_a_support_zero_drop():
    # P2.14 with xi_n != 0 would keep |lam| and the trailing zeros of xi;
    # the evaluators never reach it past the support test, and it raises
    with pytest.raises(RuntimeError, match="non-decreasing step P2.14"):
        ReductionEngine._unit_step((1, 1), (2, 0))
    assert ReductionEngine._unit_step((1, 0), (2, 0)) == ("P2.14", (1,), (2,))
    assert ReductionEngine._unit_step((2, 1), (3, 1)) == ("P2.15", (1, 0), (2, 0))
    assert ReductionEngine._unit_step((2, 0), (3, 1)) is None


def test_unit_closure_refuses_a_support_zero_drop(monkeypatch):
    # past a bypassed zero screen, the closure meets P2.14 with xi_n != 0 at
    # the node where a unit chain would, and raises the same error
    import hermdens.relations as relations
    monkeypatch.setattr(relations, "provable_zero", lambda xi, lam: None)
    for (xi, lam), node in ((((1, 1), (2, 0)), ((1, 1), (2, 0))),
                            (((3, 3), (5, 1)), ((2, 2), (4, 0))),
                            (((4, 2, 2), (6, 4, 1)), ((3, 1, 1), (5, 3, 0)))):
        drop = (node[0][:-1], node[1][:-1])
        with pytest.raises(RuntimeError) as info:
            ReductionEngine().laurent_value(xi, lam)
        assert str(info.value) == f"non-decreasing step P2.14: {node} -> {drop}", (xi, lam)


def test_the_reducer_builds_no_product_dict(monkeypatch):
    # a cold engine values each label by in-place multiply-adds alone: with
    # the rules derived, lau_mul and lau_dot are never called.  The labels
    # are 200 seeded ones and every label conjecture_check((10,9,9,7)) asks
    import hermdens.relations as relations
    from hermdens.geometry import conjecture_check

    class Recording(ReductionEngine):
        def laurent_value(self, xi, lam):
            labels.append((xi, lam))
            return super().laurent_value(xi, lam)

    labels = []
    conjecture_check((10, 9, 9, 7), engine=Recording())
    assert len(labels) > 300
    rng = random.Random(4141)
    for _ in range(200):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        labels.append((tuple(sorted((rng.randint(0, l) for l in lam), reverse=True)), lam))
    warm = ReductionEngine()        # derives the process-wide rules the labels reach
    want = [warm.laurent_value(xi, lam) for xi, lam in labels]

    def refuse(*args):
        raise AssertionError("the reducer built a product dict")

    monkeypatch.setattr(relations, "lau_mul", refuse)
    monkeypatch.setattr(relations, "lau_dot", refuse)
    cold = ReductionEngine()
    assert [cold.laurent_value(xi, lam) for xi, lam in labels] == want


def test_engine_holds_only_its_memo():
    # rule (d) reads the process-wide rules by signature, so an engine keeps
    # nothing per label besides its memo of values
    eng, heng = ReductionEngine(), HironakaEngine()
    for xi, lam in (((3, 1, 0), (4, 2, 2)), ((5, 2, 0, 0), (6, 3, 1, 1))):
        val, trace = eng.reduce_normalized(xi, lam)
        assert trace.rule_ids()[0].startswith("C2.")
        assert val == trace.replay() == heng.normalized(xi, lam), (xi, lam)
    assert list(vars(eng)) == ["_memo"]
    # and laurent_value writes a rewrite's value to that memo itself
    assert not hasattr(ReductionEngine, "_combine")


def test_engine_memo_is_never_mutated():
    rng = random.Random(909)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 4)
        cases.append((tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True)),
                      tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))))
    eng = ReductionEngine()
    first = [eng.normalized_value(*c) for c in cases[:30]]
    stored = {key: (val, dict(val)) for key, val in eng._memo.items()}
    for xi, lam in cases[30:] + cases[:30]:
        val, trace = eng.reduce_normalized(xi, lam)
        assert trace.replay() == val
    assert [eng.normalized_value(*c) for c in cases[:30]] == first
    for key, (val, copy) in stored.items():
        assert eng._memo[key] is val and val == copy, key


def test_reduce_matches_direct_seeded_up_to_rank5():
    rng = random.Random(20261018)
    heng = HironakaEngine()
    red = ReductionEngine()
    nonzero = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        # half the time xi is drawn below lam's parts, so that many values are not 0
        if rng.random() < 0.5:
            xi = tuple(sorted((rng.randint(0, l) for l in lam), reverse=True))
        else:
            xi = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        val = red.normalized_value(xi, lam)
        assert val == heng.normalized(xi, lam), (xi, lam)
        nonzero += not val.is_zero
    assert nonzero >= 40


# ---------------------------------------------------------------------------
# generic unnormalized reduction
# ---------------------------------------------------------------------------

def test_generic_reduction_examples():
    heng = HironakaEngine()
    red = GenericAlphaReducer(heng)
    assert red.alpha_value((4, 0), (4, 2)) == Q ** 6 * (ONE + ONE / Q) ** 2
    assert red.alpha_value((0, 0), (1, 1)) == heng.alpha((0, 0), (1, 1))
    xi, lam = (1, 1, 0, 0, 0), (2, 1, 1, 1, 1)
    assert red.alpha_value(xi, lam) == heng.alpha(xi, lam)


def test_generic_reduction_randomized():
    rng = random.Random(77)
    heng = HironakaEngine()
    red = GenericAlphaReducer(heng)
    for _ in range(40):
        n = rng.randint(1, 5)
        xi = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        assert red.alpha_value(xi, lam) == heng.alpha(xi, lam), (xi, lam)


def test_generic_reduction_is_the_ratfunc_product_seeded():
    # the Laurent product against the RatFunc product of the two values,
    # canonical form and all, zero values included
    rng = random.Random(3030)
    red = GenericAlphaReducer()
    zeros = 0
    for _ in range(120):
        n = rng.randint(1, 5)
        xi = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        want = ReductionEngine().normalized_value(xi, lam) * self_density_closed(xi)
        got = red.alpha_value(xi, lam)
        assert got.to_json() == want.to_json(), (xi, lam)
        zeros += want.is_zero
    assert 10 <= zeros <= 110


def test_generic_reduction_builds_each_relation_once(monkeypatch):
    import hermdens.relations as relations
    built = []
    original = relations.theorem_terms

    def counting(n, s, xi):
        built.append(xi)
        return original(n, s, xi)

    monkeypatch.setattr(relations, "theorem_terms", counting)
    monkeypatch.setattr(relations, "_RHS", {})      # derive the rules afresh
    heng = HironakaEngine()
    red = GenericAlphaReducer(heng)
    for xi in ((2, 1, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0)):
        for lam in partitions_fixed_length(4, 1, 4):
            assert red.alpha_value(xi, lam) == heng.alpha(xi, lam), (xi, lam)
    assert built and len(built) == len(set(built)), built


def test_shared_generic_reducer_across_threads(monkeypatch):
    import hermdens.relations as relations
    rng = random.Random(6)
    cases = []
    for _ in range(24):
        n = rng.randint(1, 5)
        cases.append((tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True)),
                      tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))))
    expected = {c: GenericAlphaReducer().alpha_value(*c) for c in cases}
    monkeypatch.setattr(relations, "_RHS", {})      # the threads also derive the rules
    shared = GenericAlphaReducer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads often, so that cache writes interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda c: (c, shared.alpha_value(*c)), cases * 4,
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 4 * len(cases)
    for case, val in results:
        assert val == expected[case], case


def test_reduce_normalized_function_wrapper():
    val, trace = ReductionEngine().reduce_normalized((3, 0, 0), (8, 3, 2))
    assert val == Q ** 6 + Q ** 5 + Q ** 4 and len(trace) >= 1


def _trace_reference(eng, xi, lam):
    """``ReductionEngine.reduce_normalized`` as a recursive walk that keeps
    its own set of expanded labels, then reads each expanded step's value
    through ``laurent_value``: the reference for the trace pass, which walks
    with an explicit stack.  A parent step inlines a child's value under its
    leaf rule, or "memo" if it was valued before the walk began; a child
    expanded in the walk has no note."""
    trace, expanded = ReductionTrace(root=(xi, lam)), {}     # (xi, lam) -> its step

    def record(xi, lam):
        leaf = eng._leaf(xi, lam)
        if leaf is not None:
            return leaf[1], leaf[0]
        if (xi, lam) in expanded:
            return None, None
        if (xi, lam) in eng._memo:
            return "memo", eng._memo[xi, lam]
        rule_id, children = eng._expansion(xi, lam)
        step = expanded[xi, lam] = TraceStep(rule_id, xi, lam)
        trace.steps.append(step)
        for factor, cxi, clam in children:
            note, sub = record(cxi, clam)
            step.children.append(TraceChild(
                RatFunc.from_laurent(factor), cxi, clam, note=note,
                value=None if note is None else RatFunc.from_laurent(sub)))
        return None, None

    note, val = record(xi, lam)
    if note is not None:
        trace.steps.append(TraceStep(note, xi, lam, value=RatFunc.from_laurent(val)))
    for key, step in expanded.items():
        step.value = RatFunc.from_laurent(eng.laurent_value(*key))
    return trace.steps[0].value, trace


def test_trace_matches_reference_seeded():
    # one engine of each through the same seeded labels, about 30% of them
    # valued first without a trace, so that traces meet "memo" leaves: the
    # same traces, and memos with the same keys and values
    rng = random.Random(2727)
    eng, ref = ReductionEngine(), ReductionEngine()
    traced = memo_notes = 0
    for _ in range(280):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 7) for _ in range(n)), reverse=True))
        xi = tuple(sorted((rng.randint(0, l) for l in lam), reverse=True))
        if rng.random() < 0.3:
            assert eng.normalized_value(xi, lam) == ref.normalized_value(xi, lam), (xi, lam)
            continue
        val, trace = eng.reduce_normalized(xi, lam)
        want, ref_trace = _trace_reference(ref, xi, lam)
        assert val == want == trace.replay(), (xi, lam)
        assert trace.to_json() == ref_trace.to_json(), (xi, lam)
        traced += 1
        memo_notes += sum(c.note == "memo" for s in trace.steps for c in s.children)
    assert (traced, memo_notes) == (208, 72)
    assert eng._memo == ref._memo


def test_trace_of_a_partly_warm_engine():
    # (3,2,2) against (8,3,2), valued first, is the root's second child: a
    # "memo" leaf, below which the trace records nothing.  Of its unit chain
    # only the closed label (1,0) against (6,1) is stored, so the first
    # child's branch takes two unit steps down to that "memo" leaf
    eng = ReductionEngine()
    eng.normalized_value((3, 2, 2), (8, 3, 2))
    val, trace = eng.reduce_normalized((3, 0, 0), (8, 3, 2))
    assert trace.rule_ids() == ["C2.19.7", "P2.15", "C2.19.8", "P2.15", "P2.14"]
    assert [c.note for c in trace.steps[0].children] == [None, "memo"]
    assert trace.replay() == val == Q ** 6 + Q ** 5 + Q ** 4


def test_warm_engine_traces_are_pinned():
    # a seeded mix of untraced and traced calls on one shared engine, so that
    # traces meet labels valued before they began ("memo" notes), leaves and
    # children already expanded in the same trace
    rng = random.Random(5)
    eng = ReductionEngine()
    blobs = []
    memo_roots = memo_notes = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        xi = tuple(sorted((rng.randint(0, l) for l in lam), reverse=True))
        if rng.random() < 0.5:
            eng.normalized_value(xi, lam)
            continue
        val, trace = eng.reduce_normalized(xi, lam)
        assert trace.replay() == val, (xi, lam)
        blobs.append(trace.to_json())
        memo_roots += trace.rule_ids().count("memo")
        memo_notes += sum(c.note == "memo" for s in trace.steps for c in s.children)
    digest = hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()
    assert (len(blobs), sum(map(len, blobs)), memo_roots, memo_notes) == (140, 315, 10, 41)
    assert digest == "ac741aec9123a393c5b29fde0d584c37853bb7fe63f631dd082e0d1f5d6bc711"
