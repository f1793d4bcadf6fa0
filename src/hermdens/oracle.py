"""Brute-force counting oracle over finite quotient rings.

The ground truth for every symbolic density is a count: over the ring
R = (Z/p^d)[w]/(w^2 - c) with p an odd prime and c a non-residue mod p
(the level-d quotient of the ring of integers of the unramified quadratic
extension, with residue field of size q = p), count the matrices X with

    conj(X)^T A X == B   (both components, all entries, mod p^d)

and divide by p^(d * n * (2m - n)).  For d beyond the largest part of B the
count stabilizes and the quotient equals the symbolic density specialized
at q = p.

Conjugation is w -> -w: since w^2 = c is a unit, the two square roots of c
are swapped by the unique nontrivial ring automorphism fixing Z/p^d.

The counter enumerates matrices column by column, vectorizing the last
column with numpy; work is split into prefix ranges of the first column's
candidate index space, so totals are deterministic sums of per-range counts
regardless of chunking or worker scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .partitions import check_partition

DEFAULT_BUDGET = 2 ** 36


class BudgetExceededError(RuntimeError):
    """The nominal enumeration size p^(2dmn) exceeds the configured budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated {estimate} matrix enumerations exceeds budget {budget}")


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def default_nonresidue(p):
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError(f"no quadratic non-residue found mod {p}")


@dataclass(frozen=True)
class GaloisRingParams:
    """Parameters of the quotient ring (Z/p^d)[w]/(w^2 - c)."""

    p: int
    d: int
    c: int = None

    def __post_init__(self):
        if self.p < 3 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.c is None:
            object.__setattr__(self, "c", default_nonresidue(self.p))
        if pow(self.c % self.p, (self.p - 1) // 2, self.p) != self.p - 1:
            raise ValueError(f"c={self.c} is not a quadratic non-residue mod {self.p}")

    @property
    def modulus(self):
        return self.p ** self.d

    def element(self, a, b=0):
        return GaloisRingElement(a % self.modulus, b % self.modulus, self)


class GaloisRingElement:
    """a + b*w with components reduced mod p^d and w^2 = c."""

    __slots__ = ("a", "b", "params")

    def __init__(self, a, b, params):
        m = params.modulus
        self.a = a % m
        self.b = b % m
        self.params = params

    def _check(self, other):
        if self.params != other.params:
            raise ValueError("mixed Galois ring parameters")

    def __add__(self, other):
        self._check(other)
        return GaloisRingElement(self.a + other.a, self.b + other.b, self.params)

    def __sub__(self, other):
        self._check(other)
        return GaloisRingElement(self.a - other.a, self.b - other.b, self.params)

    def __neg__(self):
        return GaloisRingElement(-self.a, -self.b, self.params)

    def __mul__(self, other):
        self._check(other)
        c = self.params.c
        return GaloisRingElement(
            self.a * other.a + c * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.params)

    def conj(self):
        return GaloisRingElement(self.a, -self.b, self.params)

    def norm(self):
        """conj(x) * x, which lands in the fixed subring (b-component 0)."""
        return GaloisRingElement(self.a * self.a - self.params.c * self.b * self.b, 0, self.params)

    def is_unit(self):
        return (self.a % self.params.p, self.b % self.params.p) != (0, 0)

    def __eq__(self, other):
        return (isinstance(other, GaloisRingElement) and self.params == other.params
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.a, self.b, self.params))

    def __repr__(self):
        return f"({self.a}+{self.b}w mod {self.params.p}^{self.params.d})"


def conj(x):
    """The nontrivial ring automorphism w -> -w."""
    return x.conj()


# ---------------------------------------------------------------------------
# element-level matrices (used for small exact checks and tests)
# ---------------------------------------------------------------------------

def diagonal_gram(parts, params):
    """diag(p^parts) as a matrix of ring elements."""
    parts = check_partition(parts)
    m = len(parts)
    zero = params.element(0)
    rows = [[zero] * m for _ in range(m)]
    for i, e in enumerate(parts):
        rows[i][i] = params.element(pow(params.p, e, params.modulus))
    return rows


def mat_mul(x, y):
    rows, inner, cols = len(x), len(y), len(y[0])
    if len(x[0]) != inner:
        raise ValueError(f"cannot multiply {rows}x{len(x[0])} by {inner}x{cols}")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            s = x[i][0] * y[0][j]
            for k in range(1, inner):
                s = s + x[i][k] * y[k][j]
            row.append(s)
        out.append(row)
    return out


def conj_transpose(x):
    return [[x[i][j].conj() for i in range(len(x))] for j in range(len(x[0]))]


def is_hermitian(x):
    n = len(x)
    return all(x[j][i] == x[i][j].conj() for i in range(n) for j in range(n))


def hermitian_apply(gram, x):
    """conj(X)^T A X for an m x m hermitian A and an m x n matrix X."""
    m = len(gram)
    if any(len(row) != m for row in gram) or len(x) != m:
        raise ValueError("dimension mismatch")
    out = mat_mul(conj_transpose(x), mat_mul(gram, x))
    if not is_hermitian(out):
        raise ArithmeticError("conj(X)^T A X is not hermitian; is A hermitian?")
    return out


# ---------------------------------------------------------------------------
# vectorized counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _column_space(modulus, m):
    """Component arrays (K, m) for all K = modulus^(2m) candidate columns."""
    count = modulus ** (2 * m)
    idx = np.arange(count, dtype=np.int64)
    comps = []
    for _ in range(2 * m):
        comps.append(idx % modulus)
        idx = idx // modulus
    a = np.stack(comps[:m], axis=1)
    b = np.stack(comps[m:], axis=1)
    return a, b


def _column_values(a, b, ga, gb, c, modulus):
    """v^bar^T A v for every candidate column (component arrays of shape (K,))."""
    m = a.shape[1]
    ra = np.zeros(a.shape[0], dtype=np.int64)
    rb = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if ga[i][j] == 0 and gb[i][j] == 0:
                continue
            pa = a[:, i] * a[:, j] - c * b[:, i] * b[:, j]
            pb = a[:, i] * b[:, j] - b[:, i] * a[:, j]
            ra += pa * ga[i][j] + c * pb * gb[i][j]
            rb += pa * gb[i][j] + pb * ga[i][j]
    return ra % modulus, rb % modulus


def _cross_row(ua, ub, ga, gb, c, modulus):
    """The row r = conj(u)^T A as component lists, for a fixed column u."""
    m = len(ua)
    ra, rb = [0] * m, [0] * m
    for j in range(m):
        acc_a = acc_b = 0
        for i in range(m):
            # conj(u_i) = (ua_i, -ub_i) times A_ij = (ga_ij, gb_ij)
            acc_a += ua[i] * ga[i][j] - c * ub[i] * gb[i][j]
            acc_b += ua[i] * gb[i][j] - ub[i] * ga[i][j]
        ra[j] = acc_a % modulus
        rb[j] = acc_b % modulus
    return ra, rb


def _cross_values(ra, rb, a, b, c, modulus):
    """r . v over all candidate columns v, components of shape (K,)."""
    m = a.shape[1]
    wa = np.zeros(a.shape[0], dtype=np.int64)
    wb = np.zeros(a.shape[0], dtype=np.int64)
    for j in range(m):
        if ra[j] == 0 and rb[j] == 0:
            continue
        wa += ra[j] * a[:, j] + c * rb[j] * b[:, j]
        wb += ra[j] * b[:, j] + rb[j] * a[:, j]
    return wa % modulus, wb % modulus


def _count_chunk(ga, gb, ba, bb, m, n, modulus, c, lo, hi):
    """Count solutions with the first column's candidate index in [lo, hi)."""
    a, b = _column_space(modulus, m)
    va, vb = _column_values(a, b, ga, gb, c, modulus)

    def column_mask(k, chosen):
        mask = (va == ba[k][k]) & (vb == bb[k][k])
        for t, (ua, ub) in enumerate(chosen):
            ra, rb = _cross_row(ua, ub, ga, gb, c, modulus)
            wa, wb = _cross_values(ra, rb, a, b, c, modulus)
            mask &= (wa == ba[t][k]) & (wb == bb[t][k])
        return mask

    def rec(chosen, k):
        mask = column_mask(k, chosen)
        if k == 0:
            mask[:lo] = False
            mask[hi:] = False
        if k == n - 1:
            return int(mask.sum())
        total = 0
        for ci in np.flatnonzero(mask):
            total += rec(chosen + [(a[ci].tolist(), b[ci].tolist())], k + 1)
        return total

    return rec([], 0)


def count_solutions_matrix(ga, gb, ba, bb, m, n, params,
                           budget=DEFAULT_BUDGET, workers=1, chunks=None):
    """Exact solution count for conj(X)^T A X == B with component matrices given.

    ``ga``/``gb`` are m x m integer component matrices of a hermitian A,
    ``ba``/``bb`` the n x n components of a hermitian B.  Chunking over
    first-column prefixes keeps the total independent of the split.
    """
    modulus = params.modulus
    estimate = modulus ** (2 * m * n)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    space = modulus ** (2 * m)
    if chunks is None:
        chunks = 1 if workers <= 1 else 4 * workers
    chunks = max(1, min(chunks, space))
    bounds = [space * i // chunks for i in range(chunks + 1)]
    ranges = [(bounds[i], bounds[i + 1]) for i in range(chunks)]
    args = [(ga, gb, ba, bb, m, n, modulus, params.c, lo, hi) for lo, hi in ranges]
    if workers <= 1 or chunks == 1:
        return sum(_count_chunk(*a) for a in args)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_count_chunk_star, args))


def _count_chunk_star(args):
    return _count_chunk(*args)


def _diagonal_components(parts, params):
    parts = check_partition(parts)
    m = len(parts)
    ga = [[0] * m for _ in range(m)]
    for i, e in enumerate(parts):
        ga[i][i] = pow(params.p, e, params.modulus)
    gb = [[0] * m for _ in range(m)]
    return ga, gb


def count_representations(lam_a, lam_b, params, budget=DEFAULT_BUDGET,
                          workers=1, chunks=None):
    """Count X in M_{m,n}(R) with conj(X)^T diag(p^lam_a) X == diag(p^lam_b).

    Requires m >= n and d greater than the largest part of lam_b (below that
    level the congruence has not stabilized and the count is meaningless as
    a density numerator).
    """
    lam_a = check_partition(lam_a)
    lam_b = check_partition(lam_b)
    if len(lam_a) < len(lam_b):
        raise ValueError("need len(lam_a) >= len(lam_b)")
    if params.d <= max(lam_b):
        raise ValueError(f"need d > max part of lam_b = {max(lam_b)}, got d = {params.d}")
    ga, gb = _diagonal_components(lam_a, params)
    ba, bb = _diagonal_components(lam_b, params)
    return count_solutions_matrix(ga, gb, ba, bb, len(lam_a), len(lam_b), params,
                                  budget=budget, workers=workers, chunks=chunks)


def denominator_exponent(m, n, d):
    return d * n * (2 * m - n)


def density_oracle(lam_a, lam_b, params, budget=DEFAULT_BUDGET, workers=1, chunks=None):
    """count / p^(d n (2m - n)) as an exact Fraction."""
    cnt = count_representations(lam_a, lam_b, params, budget=budget,
                                workers=workers, chunks=chunks)
    m, n = len(lam_a), len(lam_b)
    return Fraction(cnt, params.p ** denominator_exponent(m, n, params.d))


def stabilization_check(lam_a, lam_b, params, d_list, budget=DEFAULT_BUDGET,
                        workers=1):
    """Densities at each depth in d_list; callers assert the tail is constant."""
    out = []
    for d in d_list:
        pd = GaloisRingParams(params.p, d, params.c)
        out.append(density_oracle(lam_a, lam_b, pd, budget=budget, workers=workers))
    return out
