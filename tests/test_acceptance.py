"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All symbolic comparisons are exact (the arithmetic is exact rational, so the
tolerance is zero everywhere).  Runtime bounds are asserted where stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import random
import time

import pytest

from hermdens.geometry import (
    conjecture_check,
    derivative_0000,
    difference_identity_check,
    make_engine,
    sankaran_intersection_report,
)
from hermdens.hironaka import HironakaEngine, self_density_closed
from hermdens.oracle import DEFAULT_BUDGET, GaloisRingParams, density_oracle
from hermdens.partitions import lambda_ns_elements, partitions_fixed_length
from hermdens.qalgebra import ONE, Q, ZERO, gauss_binomial, neg_q_power
from hermdens.relations import GenericAlphaReducer, ReductionEngine, theorem_terms, verify_relation
from test_geometry import _derivative_lattice_reference

SEED = 20260809


@pytest.fixture(scope="module")
def hiro():
    return HironakaEngine()


@pytest.fixture(scope="module")
def reducer():
    return ReductionEngine()


def _report(name, elapsed, budget):
    print(f"PASS {name} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget


def _unit(k):
    return ONE + (1 if k > 0 else -1) * ONE / Q ** abs(k)


def test_criterion_01_paper_fixture_values(hiro, self_table):
    """Direct evaluation reproduces the tabulated closed forms."""
    t0 = time.perf_counter()
    assert hiro.alpha((4, 0), (4, 2)) == Q ** 6 * _unit(1) ** 2
    fixtures = {
        (0,): _unit(1),
        (0, 0): _unit(1) * _unit(-2),
        (1, 0): Q * _unit(1) ** 2,
        (1, 1): Q ** 4 * _unit(1) * _unit(-2),
        (2, 1): Q ** 5 * _unit(1) ** 2,
        (2, 2): Q ** 8 * _unit(1) * _unit(-2),
    }
    for xi, want in fixtures.items():
        assert hiro.alpha(xi, xi) == want, xi
    counts = {3: 0, 4: 0}
    for n, values in ((3, (3, 4, 5)), (4, (3, 4))):
        for shape, _e, _units in self_table[n]:
            slots = sum(1 for s in shape if s == "*")
            fills = [()] if slots == 0 else [
                f for f in itertools.product(values, repeat=slots)
                if all(f[i] >= f[i + 1] for i in range(len(f) - 1))]
            matched = False
            for fill in fills:
                it = iter(fill)
                xi = tuple(next(it) if s == "*" else s for s in shape)
                if any(xi[i] < xi[i + 1] for i in range(len(xi) - 1)):
                    continue
                assert self_density_closed(xi, hiro) == hiro.alpha(xi, xi), xi
                matched = True
            assert matched, shape
            counts[n] += 1
    assert counts[3] == 19 and counts[4] == 34
    _report("criterion 1: closed-form fixtures (19 + 34 shapes)",
            time.perf_counter() - t0, 60)


def test_criterion_02_theorem_residuals_zero(hiro):
    """The vanishing relation holds across the full small grid."""
    t0 = time.perf_counter()
    total = 0
    for n in (1, 2, 3, 4):
        lams = list(partitions_fixed_length(n, 1, 4))
        for s in range(1, n + 1):
            for xi in lambda_ns_elements(n, s, 3):
                rel = theorem_terms(n, s, xi)
                for lam in lams:
                    ok, res = verify_relation(rel, lam, hiro)
                    assert ok, (n, s, xi, lam, str(res))
                    total += 1
    assert total > 300
    _report(f"criterion 2: {total} theorem residuals identically zero",
            time.perf_counter() - t0, 300)


def test_criterion_03_negative_controls(hiro):
    """Degenerate B (last part zero) breaks the relation."""
    t0 = time.perf_counter()
    controls = [
        (1, 1, (0,), (0,)),
        (2, 1, (1, 0), (1, 0)),
        (2, 2, (0, 0), (2, 0)),
        (3, 1, (2, 2, 0), (2, 2, 0)),
    ]
    for n, s, xi, lam in controls:
        ok, res = verify_relation(theorem_terms(n, s, xi), lam, hiro)
        assert not ok and not res.is_zero, (n, s, xi, lam)
    _report("criterion 3: 4 negative controls with nonzero residual",
            time.perf_counter() - t0, 60)


def test_criterion_04_corollary_identities(hiro):
    """Every tabulated normalized rewrite holds as a RatFunc identity."""
    from hermdens.relations import REWRITE_RULES
    t0 = time.perf_counter()
    total = 0
    for n in (2, 3, 4):
        lams = list(partitions_fixed_length(n, 1, 3))
        for rule in REWRITE_RULES[n]:
            slots = sum(1 for t in rule.pattern if t == "*")
            fills = [()] if slots == 0 else [
                f for f in itertools.product((3, 4), repeat=slots)
                if all(f[i] >= f[i + 1] for i in range(len(f) - 1))]
            for fill in fills:
                it = iter(fill)
                xi = tuple(next(it) if t == "*" else t for t in rule.pattern)
                for lam in lams:
                    lhs = hiro.normalized(xi, lam)
                    rhs = ZERO
                    for coeff, part in rule.instantiate(fill):
                        rhs = rhs + coeff * hiro.normalized(part, lam)
                    assert lhs == rhs, (rule.rule_id, xi, lam)
                    total += 1
    _report(f"criterion 4: {total} corollary identities hold exactly",
            time.perf_counter() - t0, 300)


def test_criterion_05_reduction_engine(hiro):
    """Engine equals direct on 200 random cases and the worked values."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    red = ReductionEngine()
    for _ in range(200):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        assert red.normalized_value(xi, lam) == hiro.normalized(xi, lam), (xi, lam)
    fresh = ReductionEngine()
    t1 = time.perf_counter()
    val, trace = fresh.reduce_normalized((3, 0, 0), (8, 3, 2))
    worked_elapsed = time.perf_counter() - t1
    assert val == Q ** 6 + Q ** 5 + Q ** 4
    assert len(trace) <= 10
    assert worked_elapsed < 0.05
    eng2 = ReductionEngine()
    assert eng2.reduce_normalized((6, 0), (8, 6))[0] == Q ** 5 * (Q - 1)
    assert eng2.reduce_normalized((2, 0, 0), (3, 3, 2))[0] == \
        (Q + 1) * (Q ** 6 + Q ** 4 - Q ** 3 + Q ** 2)
    _report(f"criterion 5: 200 engine/direct agreements; worked chain "
            f"{len(trace)} steps in {worked_elapsed * 1000:.1f}ms",
            time.perf_counter() - t0, 300)


def test_criterion_06_generic_reducer(hiro):
    """Alpha-level reduction equals direct evaluation on 100 random cases."""
    t0 = time.perf_counter()
    rng = random.Random(SEED + 1)
    red = GenericAlphaReducer(hiro)
    for _ in range(100):
        n = rng.randint(1, 5)
        xi = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        assert red.alpha_value(xi, lam) == hiro.alpha(xi, lam), (xi, lam)
    _report("criterion 6: 100 generic-reduction agreements",
            time.perf_counter() - t0, 300)


def test_criterion_07_oracle_agreement(hiro):
    """Counting densities equal symbolic values at q = p on the feasible grid."""
    t0 = time.perf_counter()
    checked = skipped = 0
    for p in (3, 5):
        parts1 = list(partitions_fixed_length(1, 0, 2))
        for la, lb in itertools.product(parts1, parts1):
            for d in range(max(lb) + 1, 4):
                params = GaloisRingParams(p, d)
                if params.modulus ** 2 > DEFAULT_BUDGET:
                    skipped += 1
                    continue
                got = density_oracle(la, lb, params)
                assert got == hiro.alpha(la, lb).evaluate_at(p), (p, d, la, lb)
                checked += 1
        parts2 = list(partitions_fixed_length(2, 0, 1))
        for la, lb in itertools.product(parts2, parts2):
            for d in range(max(lb) + 1, 3):
                params = GaloisRingParams(p, d)
                if params.modulus ** 8 > DEFAULT_BUDGET:
                    skipped += 1
                    continue
                got = density_oracle(la, lb, params)
                assert got == hiro.alpha(la, lb).evaluate_at(p), (p, d, la, lb)
                checked += 1
    assert checked >= 50
    _report(f"criterion 7: oracle = symbolic at q=p on {checked} cases "
            f"({skipped} excluded by budget)", time.perf_counter() - t0, 600)


def test_criterion_08_gauss_product_identity():
    """The q-binomial product identity for all 0 <= k <= l <= 8."""
    t0 = time.perf_counter()
    for l in range(0, 9):
        for k in range(0, l + 1):
            lhs = ZERO
            for j in range(0, k + 1):
                prod = (2 * l + 1 - j) * j
                assert prod % 2 == 0
                lhs = lhs + (neg_q_power(prod // 2)
                             * gauss_binomial(l, l - j)
                             * gauss_binomial(l - j, l - k))
            rhs = gauss_binomial(l, k)
            for j in range(k):
                rhs = rhs * (ONE + neg_q_power(l - j))
            assert lhs == rhs, (l, k)
    _report("criterion 8: q-binomial product identity (l <= 8)",
            time.perf_counter() - t0, 10)


def _family_closed_form(b):
    q = Q
    a = b[0]
    half = a // 2
    tail = b[1:]
    if tail == (1, 0, 0):
        return (q + 1) * half + 1
    if tail == (1, 1, 1):
        return half * (q + 1) * (q ** 3 + 1) + 2 + q - q ** 2
    if tail == (3, 0, 0):
        return (q + 1) * (q ** 2 + 1) * half - q ** 3 + q + 2
    if tail == (3, 1, 1):
        return (half * (q + 1) * (q ** 5 + q ** 4 + q ** 3 + 1)
                - (q + 1) * (q ** 5 - q ** 3 + q - 3))
    if tail == (2, 1, 0):
        return half * (q + 1) - q ** 3 - q ** 2 + q + 2
    raise KeyError(tail)


def test_criterion_09_derived_density_families():
    """Families (1)-(5) match the printed closed forms; family (6) matches
    the dominant-part slope (q+1)(q^4+q^3+1), not the (q^4+q+1) variant."""
    t0 = time.perf_counter()
    for a in (4, 6, 8):
        for tail in ((1, 0, 0), (1, 1, 1), (3, 0, 0), (3, 1, 1), (2, 1, 0)):
            b = (a,) + tail
            assert derivative_0000(b) == _family_closed_form(b), b
    q = Q
    tail6 = (-q ** 8 - 3 * q ** 7 - 3 * q ** 6 - q ** 5
             + 3 * q ** 4 + 2 * q ** 3 - q ** 2 + 3 * q + 4)
    for a in (6, 8):
        got = derivative_0000((a, 4, 2, 1))
        variant_a = (a // 2) * (q + 1) * (q ** 4 + q ** 3 + 1) + tail6
        variant_b = (a // 2) * (q + 1) * (q ** 4 + q + 1) + tail6
        assert got == variant_a, a
        assert got != variant_b, a
    _report("criterion 9: derived-density families (1)-(6); family 6 matches "
            "the (q^4+q^3+1) display", time.perf_counter() - t0, 600)


def test_criterion_10_conjecture(reducer):
    """The rank-4 expansion holds on all six families."""
    t0 = time.perf_counter()
    cases = []
    for a in (4, 6):
        cases += [(a, 1, 0, 0), (a, 1, 1, 1), (a, 3, 0, 0), (a, 3, 1, 1), (a, 2, 1, 0)]
    cases += [(6, 4, 2, 1), (8, 4, 2, 1)]
    for b in cases:
        rep = conjecture_check(b, engine=reducer)
        assert rep.equal, (b, str(rep.lhs - rep.rhs))
    _report(f"criterion 10: conjecture verified on {len(cases)} classes",
            time.perf_counter() - t0, 900)


def test_criterion_11_difference_identity(reducer):
    """The intersection-difference identity vanishes on the 2..5 grid."""
    t0 = time.perf_counter()
    total = 0
    for lead in range(2, 6):
        for second in range(2, lead + 1):
            ok, res = difference_identity_check((lead, second), engine=reducer)
            assert ok and res == ZERO, (lead, second)
            total += 1
    _report(f"criterion 11: difference identity zero on {total} classes",
            time.perf_counter() - t0, 120)


def test_criterion_12_property_suite(hiro, reducer):
    """Representative invariants re-run under the fixed seed (full coverage
    lives in the per-module test files, all part of this suite)."""
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    # gauss symmetry
    for u in range(13):
        for v in range(u + 1):
            assert gauss_binomial(u, v) == gauss_binomial(u, u - v)
    # densities are Laurent
    for _ in range(20):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        hiro.alpha(xi, lam).as_laurent()
    # trace replay
    for _ in range(10):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        val, trace = reducer.reduce_normalized(xi, lam)
        assert trace.replay() == val
    # each emitted sum covers its support box: levels 2..box[0], each
    # counting the box's partitions at that level
    _, reports = sankaran_intersection_report((3, 1), engine=reducer)
    assert [(rep.name, rep.box, [(r.level, r.terms) for r in rep.levels])
            for rep in reports] == [("pairs-ge-2", (3, 1), [(2, 0), (3, 0)]),
                                    ("column-1", (3,), [(2, 1), (3, 1)]),
                                    ("column-0", (3,), [(2, 1), (3, 1)])]
    # derived densities: the lattice reference under either engine equals
    # the chain (both classes have odd weight)
    direct = make_engine("direct")
    for b in ((4, 1, 0, 0), (4, 2, 1, 0)):
        assert _derivative_lattice_reference(b, reducer)[0] == \
            _derivative_lattice_reference(b, direct)[0] == derivative_0000(b), b
    _report("criterion 12: seeded property digest green",
            time.perf_counter() - t0, 300)
