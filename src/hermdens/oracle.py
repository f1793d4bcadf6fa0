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
M^(2n) rows: a row is 2n component axes of length M, each coordinate of
conj(x)^T x is one broadcast expression over them, and each block of rows
goes into H_1 with one bincount.  Since v conj(x)^T x is read coordinatewise
mod M, every other H_v is the pushforward of H_1, H_v(g) = sum of H_1(h) over
the h with v h = g, and it takes no scan of H_1's support.  Write v = u p^e
with u a unit.  Every unit is a norm, so H_u = H_1; and times p^e a coordinate
h goes to p^e (h mod p^(d-e)), so each axis of H_1 is reshaped to
(p^e, p^(d-e)), summed over its first part and written at stride p^e.  The
accumulator starts at H_(v_1); the next m - 2 are convolved into it over
their supports, and the last is read at B as one dot product,
sum_g acc(g) H_(v_m)(B - g), with H_(v_m) gathered at B - g; for m = 1,
H_(v_1) is read at B.  When every value occurs an even number of times, A is
two equal halves: one half is convolved (m/2 - 1 convolutions) and read
against itself.  That is O(M^(2n) + m M^(n^2) s) steps, s <= min(M^(n^2),
M^(2n)) a support size, whatever the number of distinct v, where enumeration
takes M^(2mn).  Rows and support pairs are taken in fixed-size blocks, so a
step's temporaries hold O(n^2) integers per row or pair of its block, and
the read gathers one M^(n^2) array.  So memory is the O(M^(n^2))
histograms, at most the square root of the nominal work M^(2mn), which the
budget gate bounds; a second gate refuses any count whose histograms would
exceed ``HISTOGRAM_BYTES_CEILING`` bytes, whatever the budget.  Counts are
exact: int64 below 2^63, Python ints beyond.  The count runs in the calling
process, in a single pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import check_partition

DEFAULT_BUDGET = 2 ** 36

# Bytes the dense histograms of one count may take: one M^(n^2)-entry array per
# distinct diagonal value of A, and two more, at 8 bytes an entry (an object
# array's entries also point to Python ints, so it takes more).  The unit values
# share H_1.  While H_1 is pushed forward to the other values, it, the partial
# sums (at most M^(n^2)/p entries) and the output are live beside the
# histograms made so far; H_1 is dropped afterwards when no unit is on the
# diagonal.  Then a convolution holds the accumulator and its output, and the
# read the accumulator and the gathered copy of the last histogram.  So these
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

# Rows or support pairs handled per numpy step, so that the temporaries of a
# step hold O(_BLOCK * n^2) integers whatever the modulus (a block of rows is
# at least the M values of one component, should M exceed _BLOCK).
_BLOCK = 2 ** 16


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
    components of each entry above the diagonal, row by row; the index of g is
    read off them by Horner's rule, the first coordinate the most significant.
    A row is its 2n components a_1..a_n, b_1..b_n, one array axis each.  The
    trailing axes whose sizes multiply to at most _BLOCK (at least the last
    one) are broadcast in one block, and the leading ones are stepped through.
    """
    # the ring depends on c mod modulus only, and the reduced c keeps the
    # products below in int64
    modulus = params.modulus
    c = params.c % modulus
    # an entry is at most the modulus^(2n) rows, below 2^63 at any size the
    # byte gate admits, so the rows are counted in int64 and cast at the end
    hist = np.zeros(modulus ** (n * n), dtype=np.int64)
    lead, width = 2 * n - 1, modulus
    while lead and width * modulus <= _BLOCK:
        lead, width = lead - 1, width * modulus
    axes = [np.arange(modulus, dtype=np.int64).reshape((modulus,) + (1,) * (2 * n - 1 - k))
            for k in range(lead, 2 * n)]
    for head in itertools.product(range(modulus), repeat=lead):
        x = [*head, *axes]
        xa, xb = x[:n], x[n:]
        coords = [xa[r] * xa[r] - c * xb[r] * xb[r] for r in range(n)]
        for r in range(n):
            for s in range(r + 1, n):
                coords += [xa[r] * xa[s] - c * xb[r] * xb[s], xa[r] * xb[s] - xb[r] * xa[s]]
        g = 0
        for y in coords:
            g = g * modulus + y % modulus
        hist += np.bincount(g.ravel(), minlength=hist.size)
    return hist.astype(dtype, copy=False)


def _pushforward(unit, v, dims):
    """H_v from H_1 = ``unit``: H_v[g] = sum of H_1[h] over the h with v h = g
    coordinatewise mod M = dims[0], which is ``unit`` itself when v is a unit.

    Write v = u p^e with u a unit (e = d when v = 0 mod M), so that p^e =
    gcd(v, M).  H_u = H_1, since u is a norm N(w) and x -> w x carries the
    rows of value h to those of value u h.  Times p^e, a coordinate h =
    h_hi p^(d-e) + h_lo goes to p^e h_lo, so each axis splits into
    (p^e, p^(d-e)), the p^e parts are summed, and the sums land at stride p^e.
    """
    modulus, k = dims[0], len(dims)
    step = math.gcd(v, modulus)
    if step == 1:
        return unit
    rest = modulus // step
    summed = unit
    for j in range(k):
        # the axes before j are already cut to their p^(d-e) low parts
        summed = summed.reshape(rest ** j, step, -1).sum(axis=1)
    out = np.zeros_like(unit)
    out.reshape((rest, step) * k)[(slice(None), 0) * k] = summed.reshape((rest,) * k)
    return out


def _convolve(f, g, dims):
    """(f * g)[u + v] = sum f[u] g[v] over the supports, adding mod each dimension."""
    fs, gs = np.flatnonzero(f), np.flatnonzero(g)
    fd, gd = np.unravel_index(fs, dims), np.unravel_index(gs, dims)
    out, pairs = np.zeros_like(f), fs.size * gs.size
    for lo in range(0, pairs, _BLOCK):
        i, j = np.divmod(np.arange(lo, min(lo + _BLOCK, pairs), dtype=np.int64), gs.size)
        idx = np.ravel_multi_index([a[i] + b[j] for a, b in zip(fd, gd)], dims, mode="wrap")
        np.add.at(out, idx, f[fs[i]] * g[gs[j]])
    return out


def _read(f, g, target, dims):
    """(f * g)[target]: the sum over all u of f[u] g[target - u], as one dot
    product of f with g gathered at target - u (one index vector per axis)."""
    shifted = g.reshape(dims)[np.ix_(*[(t - np.arange(size)) % size
                                       for t, size in zip(target, dims)])]
    return int(np.dot(f, shifted.ravel()))


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
    hists = {v: _pushforward(unit, v, dims) for v in set(diag)}
    del unit
    if len(diag) == 1:
        return int(hists[diag[0]][np.ravel_multi_index(target, dims, mode="wrap")])
    # when every value occurs an even number of times, A is two equal halves:
    # convolve one half and read it against itself
    even = all(diag.count(v) % 2 == 0 for v in hists)
    lead = sorted(diag)[::2] if even else diag[:-1]
    acc = hists[lead[0]]
    for v in lead[1:]:
        acc = _convolve(acc, hists[v], dims)
    return _read(acc, acc if even else hists[diag[-1]], target, dims)


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
