"""Counting oracle: exact counts and symbolic agreement."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hermdens import oracle
from hermdens.hironaka import alpha
from hermdens.oracle import (
    DEFAULT_BUDGET,
    HISTOGRAM_BYTES_CEILING,
    BudgetExceededError,
    GaloisRingParams,
    count_representations,
    count_solutions_matrix,
    density_oracle,
    stabilization_check,
    _is_prime,
    _pushforward,
    _row_histogram,
)


def _diagonal_components(parts, params):
    """The component matrices (ga, gb) of diag(p^parts) mod p^d."""
    m, modulus = len(parts), params.modulus
    ga = [[pow(params.p, e, modulus) if j == i else 0 for j in range(m)]
          for i, e in enumerate(parts)]
    return ga, [[0] * m for _ in range(m)]


def brute_count(lam_a, lam_b, params):
    """Independent pure-python enumeration (no numpy, no column tricks)."""
    m, n = len(lam_a), len(lam_b)
    M, c = params.modulus, params.c
    a_diag = [pow(params.p, e, M) for e in lam_a]
    b_diag = [pow(params.p, e, M) for e in lam_b]
    ring = [(x, y) for x in range(M) for y in range(M)]
    total = 0
    for flat in itertools.product(ring, repeat=m * n):
        X = [[flat[i * n + j] for j in range(n)] for i in range(m)]
        ok = True
        for r in range(n):
            if not ok:
                break
            for s in range(r, n):
                va = vb = 0
                for i in range(m):
                    xa, xb = X[i][r]
                    ya, yb = X[i][s]
                    # conj(x) * y scaled by the diagonal entry
                    va += a_diag[i] * (xa * ya - c * xb * yb)
                    vb += a_diag[i] * (xa * yb - xb * ya)
                want = b_diag[r] if r == s else 0
                if va % M != want or vb % M != 0:
                    ok = False
                    break
        total += ok
    return total


def _row_histogram_reference(v, n, params, dtype):
    """H_v[g] = #{x in R^n : v conj(x)^T x has index g}, each row scaled by v
    before it is counted (the oracle pushes H_1 forward instead)."""
    modulus, c = params.modulus, params.c
    hist = np.zeros(modulus ** (n * n), dtype=dtype)
    for lo in range(0, modulus ** (2 * n), 2 ** 16):
        block = np.arange(lo, min(lo + 2 ** 16, modulus ** (2 * n)), dtype=np.int64)
        x = np.unravel_index(block, (modulus,) * (2 * n))
        xa, xb = x[:n], x[n:]
        coords = [xa[r] * xa[r] - c * xb[r] * xb[r] for r in range(n)]
        for r in range(n):
            for s in range(r + 1, n):
                coords += [xa[r] * xa[s] - c * xb[r] * xb[s], xa[r] * xb[s] - xb[r] * xa[s]]
        g = np.ravel_multi_index([v * (y % modulus) for y in coords], (modulus,) * (n * n),
                                 mode="wrap")
        hist += np.bincount(g, minlength=hist.size)
    return hist


def _column_count_reference(ga, gb, ba, bb, m, n, params):
    """Reference count by column enumeration, for any hermitian A.

    It enumerates all modulus^(2m) candidate columns and fixes X one column
    at a time, keeping the columns whose value and cross values with the
    columns already chosen match B, read from its diagonal and upper
    triangle.  Each partial solution costs a pass over every column.
    """
    M, c = params.modulus, params.c
    idx = np.arange(M ** (2 * m), dtype=np.int64)
    comps = []
    for _ in range(2 * m):
        idx, r = np.divmod(idx, M)
        comps.append(r)
    a, b = np.stack(comps[:m], axis=1), np.stack(comps[m:], axis=1)

    def value(ra, rb):
        # r . v over all candidate columns v, for a row r = conj(u)^T A
        wa = sum(ra[j] * a[:, j] + c * rb[j] * b[:, j] for j in range(m))
        wb = sum(ra[j] * b[:, j] + rb[j] * a[:, j] for j in range(m))
        return wa % M, wb % M

    # conj(v)^T A v for every candidate column v
    va = vb = 0
    for i in range(m):
        for j in range(m):
            pa = a[:, i] * a[:, j] - c * b[:, i] * b[:, j]
            pb = a[:, i] * b[:, j] - b[:, i] * a[:, j]
            va = va + pa * ga[i][j] + c * pb * gb[i][j]
            vb = vb + pa * gb[i][j] + pb * ga[i][j]
    va, vb = va % M, vb % M

    def rec(chosen, k):
        mask = (va == ba[k][k] % M) & (vb == bb[k][k] % M)
        for t, (ua, ub) in enumerate(chosen):
            # conj(u_i) = (ua_i, -ub_i) times A_ij = (ga_ij, gb_ij)
            ra = [sum(ua[i] * ga[i][j] - c * ub[i] * gb[i][j] for i in range(m)) for j in range(m)]
            rb = [sum(ua[i] * gb[i][j] - ub[i] * ga[i][j] for i in range(m)) for j in range(m)]
            wa, wb = value(ra, rb)
            mask &= (wa == ba[t][k] % M) & (wb == bb[t][k] % M)
        if k == n - 1:
            return int(mask.sum())
        return sum(rec(chosen + [(a[i].tolist(), b[i].tolist())], k + 1)
                   for i in np.flatnonzero(mask))

    return rec([], 0)


def test_params_validation():
    with pytest.raises(ValueError):
        GaloisRingParams(4, 1)
    with pytest.raises(ValueError):
        GaloisRingParams(2, 1)
    with pytest.raises(ValueError):
        GaloisRingParams(5, 1, 4)  # 4 is a square mod 5
    assert GaloisRingParams(3, 2).c == 2
    assert GaloisRingParams(5, 1).c in (2, 3)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_primality_is_exact_and_fast_on_large_p():
    # deterministic Miller-Rabin: equal to trial division on small n, and a
    # 61-bit prime builds at once (trial division would take ~2^30 steps)
    # (below 5000 are 2047, 3277, 4033 and 4681, strong pseudoprimes to base 2)
    assert [p for p in range(5000) if _is_prime(p)] == \
        [p for p in range(5000) if _trial_division_is_prime(p)]
    for p in (2 ** 61 - 1, 1000000000000000003):
        start = time.perf_counter()
        assert GaloisRingParams(p, 1).p == p
        assert time.perf_counter() - start < 1.0
    # Carmichael numbers, a product of two large primes, and 318665857834031151167461,
    # the least strong pseudoprime to the 12 prime bases 2..37 (caught by base 41)
    for n in (561, 41041, 825265, (2 ** 61 - 1) * (2 ** 31 - 1), 318665857834031151167461):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="odd prime"):
            GaloisRingParams(n, 1)
        assert time.perf_counter() - start < 1.0, n


def test_count_examples_against_independent_enumeration():
    p31 = GaloisRingParams(3, 1)
    assert count_representations((0,), (0,), p31) == 4 == brute_count((0,), (0,), p31)
    p32 = GaloisRingParams(3, 2)
    assert count_representations((0,), (1,), p32) == 0
    got = count_representations((0, 0), (0, 0), p31)
    assert got == 96 == brute_count((0, 0), (0, 0), p31)
    # 96 = 3^4 (1+1/3)(1-1/9)
    assert Fraction(got, 3 ** 4) == Fraction(4, 3) * Fraction(8, 9)
    # another rank-1 depth against the pure-python path
    assert count_representations((1,), (1,), p32) == brute_count((1,), (1,), p32)


def test_count_precondition_on_depth():
    with pytest.raises(ValueError):
        count_representations((0,), (1,), GaloisRingParams(3, 1))


def test_density_examples():
    p31 = GaloisRingParams(3, 1)
    assert density_oracle((0,), (0,), p31) == Fraction(4, 3)
    assert density_oracle((0,), (2,), GaloisRingParams(3, 3)) == Fraction(4, 3)
    assert density_oracle((0,), (2,), GaloisRingParams(3, 3)) == \
        alpha((0,), (2,)).evaluate_at(3)


def test_budget_gate():
    with pytest.raises(BudgetExceededError) as info:
        count_representations((4, 0), (4, 2), GaloisRingParams(3, 5))
    assert info.value.estimate == 3 ** 40


def test_budget_gate_rejects_a_negative_budget():
    # a negative budget is a domain error, not a refusal; 0 refuses every count
    params = GaloisRingParams(3, 2)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        count_representations((1, 0), (1, 0), params, budget=-1)
    with pytest.raises(BudgetExceededError) as info:
        count_representations((1, 0), (1, 0), params, budget=0)
    assert info.value.budget == 0


def test_stabilization_examples():
    p = GaloisRingParams(3, 1)
    assert stabilization_check((0,), (0,), p, [1, 2]) == [Fraction(4, 3), Fraction(4, 3)]
    vals = stabilization_check((1,), (1,), p, [2, 3])
    assert vals[0] == vals[1]
    assert stabilization_check((0,), (1,), p, [2, 3]) == [0, 0]


def test_oracle_matches_symbolic_on_sampled_grid():
    rng = random.Random(55)
    cases = []
    for p in (3, 5):
        for la in ((0,), (1,), (2,)):
            for lb in ((0,), (1,), (2,)):
                for d in range(max(lb) + 1, 4):
                    cases.append((p, d, la, lb))
    for p, d, la, lb in rng.sample(cases, 12):
        params = GaloisRingParams(p, d)
        assert density_oracle(la, lb, params) == alpha(la, lb).evaluate_at(p), (p, d, la, lb)


def test_nonresidue_independence():
    for la, lb, d in (((1,), (1,), 2), ((0, 0), (0, 0), 1)):
        a = density_oracle(la, lb, GaloisRingParams(5, d, 2))
        b = density_oracle(la, lb, GaloisRingParams(5, d, 3))
        assert a == b, (la, lb, d)


def test_nonresidue_is_read_mod_p_to_the_d():
    # c and c + 9k give the same ring mod 9, also where c times a row's
    # squares would pass 2^63: no wrap in int64 (765, not 648), no OverflowError
    want = count_representations((0, 0), (0,), GaloisRingParams(3, 2, 2))
    assert want == 648
    for c in (2 + 9 * 10 ** 17, 2 + 9 * 10 ** 20):
        assert count_representations((0, 0), (0,), GaloisRingParams(3, 2, c)) == want, c


# Test inputs are built on ring elements written as (a, b) pairs, a + b w,
# the coordinates the counter itself works in.

def _times(x, y, params):
    """(a + b w)(a' + b' w) mod p^d, with w^2 = c."""
    (a, b), (a2, b2), M = x, y, params.modulus
    return (a * a2 + params.c * b * b2) % M, (a * b2 + b * a2) % M


def _mat_times(x, y, params):
    """The product of two matrices of (a, b) pairs."""
    M = params.modulus
    return [[tuple(sum(t) % M for t in zip(*(_times(u, v, params) for u, v in zip(row, col))))
             for col in zip(*y)] for row in x]


def _gram_image(lam, g, params):
    """conj(g)^T diag(p^lam) g for a square matrix g of (a, b) pairs, as components (ba, bb)."""
    scale = [pow(params.p, e, params.modulus) for e in lam]
    left = list(zip(*[[(v * a, -v * b) for a, b in row] for v, row in zip(scale, g)]))
    image = _mat_times(left, g, params)
    return [[a for a, _ in row] for row in image], [[b for _, b in row] for row in image]


def _rand_unimodular(rng, params):
    """A random 2 x 2 matrix of (a, b) pairs whose determinant is a unit."""
    M, p = params.modulus, params.p
    while True:
        g = [[(rng.randrange(M), rng.randrange(M)) for _ in range(2)] for _ in range(2)]
        ad, bc = _times(g[0][0], g[1][1], params), _times(g[0][1], g[1][0], params)
        if ((ad[0] - bc[0]) % p, (ad[1] - bc[1]) % p) != (0, 0):
            return g


def test_unit_change_invariance():
    rng = random.Random(7)
    params = GaloisRingParams(3, 2)
    for lam in ((1, 0), (1, 1)):
        want = count_representations(lam, lam, params)
        for _ in range(2):
            ba, bb = _gram_image(lam, _rand_unimodular(rng, params), params)
            ga, gb = _diagonal_components(lam, params)
            assert count_solutions_matrix(ga, gb, ba, bb, params) == want


def test_count_rejects_non_diagonal_a():
    params = GaloisRingParams(3, 1)
    ba, bb = _diagonal_components((0,), params)
    with pytest.raises(ValueError):
        count_solutions_matrix([[1, 1], [1, 1]], [[0, 0], [0, 0]], ba, bb, params)
    with pytest.raises(ValueError):
        count_solutions_matrix([[1, 0], [0, 1]], [[1, 0], [0, 0]], ba, bb, params)


def test_count_reads_its_shapes_off_the_components():
    # A of (0, 0) is 2 x 2, so against B of (0,) it counts the x in R^2 with
    # N(x_1) + N(x_2) = 1 over F_9: q^3 - q = 24 at p = 3, d = 1
    params = GaloisRingParams(3, 1)
    ga, gb = _diagonal_components((0, 0), params)
    ba, bb = _diagonal_components((0,), params)
    assert count_solutions_matrix(ga, gb, ba, bb, params) == 24


def test_count_checks_its_shapes():
    # a gb with fewer rows than ga, a 3 x 3 gb beside a 2 x 2 ga (read only
    # in part before), and empty components each raise, naming the shapes
    params = GaloisRingParams(3, 1)
    ga, gb = _diagonal_components((0, 0), params)
    ba, bb = _diagonal_components((0,), params)
    gb3 = _diagonal_components((0, 0, 0), params)[1]
    for args in ((ga, gb[:1], ba, bb), (ga, gb3, ba, bb), ([], [], ba, bb), (ga, gb, [], []),
                 (ga, gb, ba, gb)):
        with pytest.raises(ValueError, match=r"need ga, gb of shape m x m .*got \(rows"):
            count_solutions_matrix(*args, params)
    with pytest.raises(ValueError, match=r"\[\(2, 2\), \(3, 3\), \(1, 1\), \(1, 1\)\]"):
        count_solutions_matrix(ga, gb3, ba, bb, params)
    assert count_solutions_matrix(ga, gb, ba, bb, params) == 24


def test_count_is_exact_past_int64():
    params = GaloisRingParams(3, 6)
    count = count_representations((0, 0, 0, 0), (0,), params, budget=3 ** 48)
    assert count == 108068137413839367120 > 2 ** 63
    assert density_oracle((0, 0, 0, 0), (0,), params, budget=3 ** 48) == \
        alpha((0, 0, 0, 0), (0,)).evaluate_at(3)
    # the object path through a pushforward (diagonal values 3 and 1); the
    # count is the density times p^(d n (2m - n)) = 3^42
    density = density_oracle((1, 0, 0, 0), (0,), params, budget=3 ** 48)
    assert density * 3 ** 42 > 2 ** 63
    assert density == alpha((1, 0, 0, 0), (0,)).evaluate_at(3)


def test_count_memory_is_bounded():
    # column enumeration of (0,0) -> (0,) at d = 5 would hold 243^4 columns, 112 GB
    for lam_a, lam_b, d in (((0, 0), (0,), 5), ((0,), (0,), 7)):
        tracemalloc.start()
        try:
            got = density_oracle(lam_a, lam_b, GaloisRingParams(3, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, (lam_a, lam_b, d, peak)
        assert got == alpha(lam_a, lam_b).evaluate_at(3)


def test_histogram_bytes_gate_refuses_before_allocating():
    # a raised budget admits (1,1,0,0) -> (1,0,0) at p = 3, d = 2, whose
    # histograms hold 9^9 entries, 3 GB each: refused at once, nothing allocated
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError) as info:
            count_representations((1, 1, 0, 0), (1, 0, 0), GaloisRingParams(3, 2),
                                  budget=3 ** 48)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2 ** 20, peak
    # distinct diagonal values 1 and p, the accumulator and the convolution's output
    assert info.value.estimate == 4 * 9 ** 9 * 8 > HISTOGRAM_BYTES_CEILING
    assert info.value.budget == HISTOGRAM_BYTES_CEILING
    assert "bytes" in str(info.value)


def test_histogram_bytes_gate_admits_default_budget_counts():
    # m >= n gives M^(n^2) <= M^(mn) = sqrt(M^(2mn)) <= 2^18 entries under the
    # default budget; with at most m distinct diagonal values, plus the
    # accumulator and the output, every admitted count stays far below the ceiling
    worst = 0
    for p in (3, 5, 7, 11, 13):
        for d in itertools.count(1):
            modulus = p ** d
            if modulus ** 2 > DEFAULT_BUDGET:
                break
            for n in range(1, 6):
                for m in range(n, 20):
                    if modulus ** (2 * m * n) <= DEFAULT_BUDGET:
                        worst = max(worst, (m + 2) * modulus ** (n * n) * 8)
    assert 0 < worst <= 2 ** 23 < HISTOGRAM_BYTES_CEILING
    # and a count of that kind runs
    assert density_oracle((0, 0), (0, 0), GaloisRingParams(3, 2)) == \
        alpha((0, 0), (0, 0)).evaluate_at(3)


# the reference's work, candidate columns visited: about 2^22, enough for the
# rank-3 unimodular count at p = 3 (4.6M columns)
_REFERENCE_COLUMNS = 5 * 2 ** 20

# (p, d, m, n) inside the default budget, whose column space fits _REFERENCE_COLUMNS
_SHAPES = {n: [(p, d, m) for p in (3, 5, 7) for d in (1, 2, 3) for m in range(n, 5)
               if (p ** d) ** (2 * m * n) <= DEFAULT_BUDGET
               and (p ** d) ** (2 * m) <= _REFERENCE_COLUMNS]
           for n in (1, 2, 3)}


@st.composite
def _oracle_cases(draw):
    n = draw(st.sampled_from((1, 1, 2, 2, 3)))
    p, d, m = draw(st.sampled_from(_SHAPES[n]))
    lam_a = sorted(draw(st.lists(st.integers(0, d), min_size=m, max_size=m)), reverse=True)
    lam_b = sorted(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)), reverse=True)
    unit = draw(st.lists(st.tuples(st.integers(0, p ** d - 1), st.integers(0, p ** d - 1)),
                         min_size=n * n, max_size=n * n))
    return GaloisRingParams(p, d), tuple(lam_a), tuple(lam_b), unit


def _unit_change(lam_b, unit, params):
    """conj(g)^T diag(p^lam_b) g for g = L U, L and U unitriangular with entries from unit."""
    n = len(lam_b)

    def triangle(keep):
        return [[unit[i * n + j] if keep(i, j) else (int(i == j), 0)
                 for j in range(n)] for i in range(n)]

    g = _mat_times(triangle(lambda i, j: i > j), triangle(lambda i, j: i < j), params)
    return _gram_image(lam_b, g, params)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_oracle_cases())
@example((GaloisRingParams(3, 1), (0, 0, 0), (0, 0, 0), [(1, 2), (2, 0), (0, 1)] * 3))
def test_row_convolution_matches_column_reference(case):
    params, lam_a, lam_b, unit = case
    m, n = len(lam_a), len(lam_b)
    ga, gb = _diagonal_components(lam_a, params)
    ba, bb = _unit_change(lam_b, unit, params)
    # the reference visits modulus^(2m) columns per solution of each leading block of B
    prefixes = 1 + sum(
        count_solutions_matrix(ga, gb, [r[:k] for r in ba[:k]], [r[:k] for r in bb[:k]], params)
        for k in range(1, n))
    assume(prefixes * params.modulus ** (2 * m) <= _REFERENCE_COLUMNS)
    got = count_solutions_matrix(ga, gb, ba, bb, params)
    assert got == _column_count_reference(ga, gb, ba, bb, m, n, params)
    assert got == count_representations(lam_a, lam_b, params)


def test_pushforward_matches_the_scaled_row_histogram():
    # every v mod p^d (units, units times powers of p, and 0), at n = 1 and 2;
    # the reference counts every row again with v applied to it
    for p, d, n in ((3, 3, 1), (5, 2, 1), (3, 2, 2), (5, 1, 2)):
        params = GaloisRingParams(p, d)
        dims = (params.modulus,) * (n * n)
        for dtype in (np.int64, object):
            unit = _row_histogram(n, params, dtype)
            assert (unit == _row_histogram_reference(1, n, params, dtype)).all()
            for v in range(params.modulus):
                got = _pushforward(unit, v, dims)
                assert got.dtype == unit.dtype and got.sum() == params.modulus ** (2 * n)
                assert (got == _row_histogram_reference(v, n, params, dtype)).all(), (p, d, n, v)
                # every unit u of Z/p^d is a norm N(w), and x -> w x carries the rows
                # of value h to those of value u h, so H_u = H_1
                assert bool(v % p) == (got == unit).all(), (p, d, n, v)


def test_row_histogram_spans_several_blocks():
    # 27^4 rows at n = 2 and 729^2 at n = 1 exceed one block of rows, so the
    # leading row components are stepped through
    for p, d, n in ((3, 3, 2), (3, 6, 1)):
        params = GaloisRingParams(p, d)
        assert params.modulus ** (2 * n) > oracle._BLOCK
        for dtype in (np.int64, object):
            got = _row_histogram(n, params, dtype)
            assert got.dtype == np.dtype(dtype) and got.sum() == params.modulus ** (2 * n)
            assert (got == _row_histogram_reference(1, n, params, dtype)).all(), (p, d, n)


def test_count_enumerates_rows_once(monkeypatch):
    # three distinct diagonal values (9, 3, 1): one row enumeration, two pushforwards
    calls = []

    def counted(*args):
        calls.append(args)
        return _row_histogram(*args)

    monkeypatch.setattr(oracle, "_row_histogram", counted)
    params = GaloisRingParams(3, 3)
    assert density_oracle((2, 1, 0), (0,), params) == alpha((2, 1, 0), (0,)).evaluate_at(3)
    assert len(calls) == 1


def test_units_other_than_one_on_the_diagonal():
    # diag(2, 3, 1) mod 9 and diag(2, 1) mod 3, whose unit 2 only the pushforward
    # reaches, against the column reference at diagonal and non-diagonal hermitian B
    for p, d, diag, targets in (
            (3, 2, (2, 3, 1), [([[0]], [[0]]), ([[1]], [[0]]), ([[2]], [[0]]), ([[3]], [[0]]),
                               ([[6]], [[0]])]),
            (3, 1, (2, 1), [([[1, 0], [0, 2]], [[0, 0], [0, 0]]),
                            ([[2, 1], [1, 0]], [[0, 2], [1, 0]])])):
        params = GaloisRingParams(p, d)
        m = len(diag)
        ga = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
        gb = [[0] * m for _ in range(m)]
        for ba, bb in targets:
            got = count_solutions_matrix(ga, gb, ba, bb, params)
            assert got == _column_count_reference(ga, gb, ba, bb, m, len(ba), params), \
                (diag, ba, bb)


def test_count_memory_stays_within_the_byte_estimate():
    # two diagonal values at n = 2, with 1 among them (9 and 1) and without it
    # (9 and 3, where H_1 is pushed forward and dropped): the live arrays stay
    # within the byte gate's estimate, (distinct + 2) M^(n^2) 8 bytes
    params = GaloisRingParams(3, 3)
    estimate = (2 + 2) * params.modulus ** 4 * 8
    for lam_a in ((2, 0), (2, 1)):
        tracemalloc.start()
        try:
            got = density_oracle(lam_a, (2, 2), params, budget=3 ** 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < estimate, (lam_a, peak, estimate)
        assert got == alpha(lam_a, (2, 2)).evaluate_at(3)


def test_equal_halves_are_convolved_once(monkeypatch):
    # 0^4 is two copies of (0, 0): H_1 * H_1 is convolved once and read against
    # itself; (1, 1, 0, 0) likewise.  An odd multiplicity (m = 3) convolves m - 2 times
    calls, convolve = [], oracle._convolve

    def counted(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(oracle, "_convolve", counted)
    params = GaloisRingParams(3, 2)
    for lam_a, lam_b, want in (((0, 0, 0, 0), (1, 1), 1), ((1, 1, 0, 0), (1, 0), 1),
                               ((0, 0, 0), (1, 1), 1), ((1, 0, 0), (1, 0), 1),
                               ((0, 0), (1, 1), 0)):
        calls.clear()
        assert density_oracle(lam_a, lam_b, params, budget=10 ** 20) == \
            alpha(lam_a, lam_b).evaluate_at(3), (lam_a, lam_b)
        assert len(calls) == want, (lam_a, lam_b, len(calls))


@pytest.mark.parametrize("lam_a", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0, 0), (1, 1, 0, 0),
                                   (2, 2, 0, 0)])
def test_rank_two_b_against_rank_three_and_four(lam_a):
    # outside the default budget (9^12 and 9^16 matrices X), so an explicit one
    params = GaloisRingParams(3, 2)
    for lam_b in ((0, 0), (1, 0), (1, 1)):
        assert density_oracle(lam_a, lam_b, params, budget=10 ** 20) == \
            alpha(lam_a, lam_b).evaluate_at(3), (lam_a, lam_b)
