"""Counting oracle over finite quotient rings.

The ground truth for every symbolic density is a count: over the ring
R = (Z/p^d)[w]/(w^2 - c) with p an odd prime and c a non-residue mod p
(the level-d quotient of the ring of integers of the unramified quadratic
extension, with residue field of size q = p), count the m x n matrices X
with

    conj(X)^T A X == B   (both components, all entries, mod p^d)

and divide by p^(d * n * (2m - n)).  For d beyond the largest part of B the
count stabilizes and the quotient equals the symbolic density specialized
at q = p.

Conjugation is w -> -w: since w^2 = c is a unit, the two square roots of c
are swapped by the unique nontrivial ring automorphism fixing Z/p^d.

``GaloisRingParams`` is the ring's one object.  A ring element a + b w
appears only as its integer coordinate pair (a, b) mod p^d, and a matrix
over R as its two component matrices; there is no element class.

For a diagonal A = diag(v_1, ..., v_m) the left side is a sum over the rows
x_i of X, the classical row decomposition of representation numbers
(Siegel; Kitaoka, *Arithmetic of Quadratic Forms*):

    conj(X)^T A X = sum_i v_i conj(x_i)^T x_i   in Herm_n(Z/M), M = p^d,

the additive group of n x n hermitian matrices (n^2 coordinates in Z/M).
So the count is the value at B of the convolution of the m row histograms
H_v(g) = #{x in R^n : v conj(x)^T x = g}.  Only H_1 is counted over the
M^(2n) rows.  Since v conj(x)^T x is read coordinatewise mod M, every other
H_v is its pushforward, H_v(g) = sum of H_1(h) over the h with v h = g,
one pass over the support of H_1.  The accumulator starts at H_(v_1); the
next m - 2 are convolved into it over their supports, and the last is read
as sum_g acc(g) H_(v_m)(B - g), or, for m = 1, H_(v_1) is read at B.  That
is O(M^(2n) + m M^(n^2) s) steps, s <= min(M^(n^2), M^(2n)) a support size,
whatever the number of distinct v, where enumeration takes M^(2mn).
Temporaries are streamed in fixed-size blocks, so memory is the O(M^(n^2))
histograms, at most the square root of the nominal work M^(2mn), which the
budget gate bounds; a second gate refuses any count whose histograms would
exceed ``HISTOGRAM_BYTES_CEILING`` bytes, whatever the budget.  Counts are
exact: int64 below 2^63, Python ints beyond.  The count runs in the calling
process, in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import check_partition

DEFAULT_BUDGET = 2 ** 36

# Bytes the dense histograms of one count may take: one M^(n^2)-entry array per
# distinct diagonal value of A, the accumulator and the convolution's output,
# at 8 bytes an entry (an object array's entries also point to Python ints, so
# it takes more).  H_1 is an extra array only while it is pushed forward, when
# 1 is not on the diagonal; it is dropped before any convolution, so these
# arrays bound what is live.  Whatever the budget, a count above it is refused
# before anything is allocated; counts the default budget admits need at most
# a few MB.
HISTOGRAM_BYTES_CEILING = 2 ** 30


class BudgetExceededError(RuntimeError):
    """The nominal enumeration size p^(2dmn) exceeds the configured budget, or
    the histograms would exceed ``HISTOGRAM_BYTES_CEILING`` (``unit`` says which)."""

    def __init__(self, estimate, budget, unit="matrix enumerations"):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated {estimate} {unit} exceeds budget {budget}")


def _is_prime(n):
    """Deterministic Miller-Rabin over the 13 primes 2..41 as bases, in
    O(log n) multiplications per base.  It is exact for n below
    3,317,044,064,679,887,385,961,981 (about 3.3 * 10^24), the least strong
    pseudoprime to all 13 bases; above that bound a composite that is a
    strong pseudoprime to every base would be taken for a prime."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


# ---------------------------------------------------------------------------
# row-convolution counting
# ---------------------------------------------------------------------------

# Rows, support pairs or support points handled per numpy step, so that the
# temporaries of a step hold O(_BLOCK * n^2) integers whatever the modulus.
_BLOCK = 2 ** 16


def _blocks(total):
    """The indices 0 .. total-1 as consecutive int64 arrays of at most _BLOCK."""
    for lo in range(0, total, _BLOCK):
        yield np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64)


def _hermitian_coords(ba, bb, n, modulus):
    """B in the coordinates of _row_histogram, or None if B is not hermitian mod modulus."""
    if any((ba[s][r] - ba[r][s]) % modulus or (bb[s][r] + bb[r][s]) % modulus
           for r in range(n) for s in range(r, n)):
        return None
    upper = [x for r in range(n) for s in range(r + 1, n) for x in (ba[r][s], bb[r][s])]
    return [x % modulus for x in [ba[r][r] for r in range(n)] + upper]


def _diagonal_of(ga, gb, m, modulus):
    """The diagonal of A mod modulus; ValueError unless A is diagonal and hermitian."""
    if any(gb[i][j] % modulus or (i != j and ga[i][j] % modulus)
           for i in range(m) for j in range(m)):
        raise ValueError("the counting oracle needs a diagonal hermitian A")
    return [ga[i][i] % modulus for i in range(m)]


def _row_histogram(n, params, dtype):
    """H_1[g] = #{x in R^n : conj(x)^T x has index g}, over all modulus^(2n) rows x.

    The coordinates of Herm_n are the n real diagonal entries, then the two
    components of each entry above the diagonal, row by row.
    """
    modulus, c = params.modulus, params.c
    hist = np.zeros(modulus ** (n * n), dtype=dtype)
    for block in _blocks(modulus ** (2 * n)):
        x = np.unravel_index(block, (modulus,) * (2 * n))
        xa, xb = x[:n], x[n:]
        coords = [xa[r] * xa[r] - c * xb[r] * xb[r] for r in range(n)]
        for r in range(n):
            for s in range(r + 1, n):
                coords += [xa[r] * xa[s] - c * xb[r] * xb[s], xa[r] * xb[s] - xb[r] * xa[s]]
        g = np.ravel_multi_index(coords, (modulus,) * (n * n), mode="wrap")
        hist += np.bincount(g, minlength=hist.size)
    return hist


def _pushforward(unit, v, dims):
    """H_v from H_1 = ``unit``: H_v[g] = sum of H_1[h] over the h with v h = g
    coordinatewise mod each dimension, streamed over the support of H_1."""
    support = np.flatnonzero(unit)
    out = np.zeros_like(unit)
    for block in _blocks(support.size):
        h = support[block]
        g = np.ravel_multi_index([v * x for x in np.unravel_index(h, dims)], dims, mode="wrap")
        np.add.at(out, g, unit[h])
    return out


def _convolve(f, g, dims):
    """(f * g)[u + v] = sum f[u] g[v] over the supports, adding mod each dimension."""
    fs, gs = np.flatnonzero(f), np.flatnonzero(g)
    fd, gd = np.unravel_index(fs, dims), np.unravel_index(gs, dims)
    out = np.zeros_like(f)
    for pair in _blocks(fs.size * gs.size):
        i, j = np.divmod(pair, gs.size)
        idx = np.ravel_multi_index([a[i] + b[j] for a, b in zip(fd, gd)], dims, mode="wrap")
        np.add.at(out, idx, f[fs[i]] * g[gs[j]])
    return out


def _read(f, g, target, dims):
    """(f * g)[target]: the sum over the support of f of f[u] g[target - u]."""
    support = np.flatnonzero(f)
    total = 0
    for block in _blocks(support.size):
        u = support[block]
        rest = [t - x for t, x in zip(target, np.unravel_index(u, dims))]
        total += int((f[u] * g[np.ravel_multi_index(rest, dims, mode="wrap")]).sum())
    return total


def count_solutions_matrix(ga, gb, ba, bb, params, budget=DEFAULT_BUDGET):
    """Exact solution count for conj(X)^T A X == B with component matrices given.

    ``ga``/``gb`` are the m x m integer component matrices of A, which must
    be diagonal and hermitian (ValueError otherwise); ``ba``/``bb`` are the
    n x n components of B, and a B that is not hermitian mod p^d has no
    solutions.  m and n are the sizes of ``ga`` and ``ba``, both >= 1; other
    shapes, and a negative ``budget``, raise ``ValueError``.
    """
    m, n = len(ga), len(ba)
    shapes = [(len(x), *sorted({len(row) for row in x})) for x in (ga, gb, ba, bb)]
    if not m or not n or shapes != [(m, m), (m, m), (n, n), (n, n)]:
        raise ValueError(f"need ga, gb of shape m x m and ba, bb of n x n with m, n >= 1; "
                         f"got (rows, row lengths) {shapes}")
    diag = _diagonal_of(ga, gb, m, params.modulus)
    return _count(diag, _hermitian_coords(ba, bb, n, params.modulus), n, params, budget)


def _count(diag, target, n, params, budget):
    """The count for A = diag(diag) and B at the coordinates ``target`` of
    ``_row_histogram`` (None if B is not hermitian), behind both gates."""
    if budget < 0:
        raise ValueError(f"the oracle budget must be >= 0, got {budget}")
    modulus = params.modulus
    estimate = modulus ** (2 * len(diag) * n)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    histogram_bytes = (len(set(diag)) + 2) * modulus ** (n * n) * 8
    if histogram_bytes > HISTOGRAM_BYTES_CEILING:
        raise BudgetExceededError(histogram_bytes, HISTOGRAM_BYTES_CEILING,
                                  unit="bytes of row histograms")
    if target is None:
        return 0
    # every partial count is at most the nominal work, so int64 is exact below 2^63
    dtype = np.int64 if estimate < 2 ** 63 else object
    dims = (modulus,) * (n * n)
    unit = _row_histogram(n, params, dtype)
    hists = {v: unit if v == 1 else _pushforward(unit, v, dims) for v in set(diag)}
    del unit
    acc = hists[diag[0]]
    if len(diag) == 1:
        return int(acc[np.ravel_multi_index(target, dims, mode="wrap")])
    for v in diag[1:-1]:
        acc = _convolve(acc, hists[v], dims)
    return _read(acc, hists[diag[-1]], target, dims)


def count_representations(lam_a, lam_b, params, budget=DEFAULT_BUDGET):
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
    diag, n = [pow(params.p, e, params.modulus) for e in lam_a], len(lam_b)
    # B's diagonal, then the two zero components of each entry above it
    target = [pow(params.p, e, params.modulus) for e in lam_b] + [0] * (n * (n - 1))
    return _count(diag, target, n, params, budget)


def denominator_exponent(m, n, d):
    return d * n * (2 * m - n)


def density_oracle(lam_a, lam_b, params, budget=DEFAULT_BUDGET):
    """count / p^(d n (2m - n)) as an exact Fraction."""
    cnt = count_representations(lam_a, lam_b, params, budget=budget)
    m, n = len(lam_a), len(lam_b)
    return Fraction(cnt, params.p ** denominator_exponent(m, n, params.d))


def stabilization_check(lam_a, lam_b, params, d_list, budget=DEFAULT_BUDGET):
    """Densities at each depth in d_list (callers assert the tail is constant)."""
    out = []
    for d in d_list:
        pd = GaloisRingParams(params.p, d, params.c)
        out.append(density_oracle(lam_a, lam_b, pd, budget=budget))
    return out
