"""Direct evaluation of local representation densities of hermitian forms.

For class labels xi (length m) and lam (length n) with m >= n, the density
alpha(A_xi, A_lam) is evaluated by Hironaka's explicit formula: a finite sum
over partitions mu of length n with mu <= lam + (1,...,1) componentwise,

    alpha = sum_mu (-1)^|mu| (-q)^(-n(mu) + (n-m-1)|mu| + <xi', mu'>)
                    prod_{j >= 1} I_j(mu, lam),

where each inner factor I_j is a short sum of powers of (-q) times two
Gaussian binomials, and depends only on the conjugate values of mu and of
lam+1 at j and j+1.  The product over j is finite: every factor with
j > max(mu_1, lam_1 + 1) equals 1.

The sum is not taken partition by partition.  Written in the column heights
c_j = mu'_j (n >= c_1 >= c_2 >= ... >= 0, c_j <= (lam+1)'_j), every factor
of the summand depends on one column or on two adjacent ones: n(mu), |mu|
and <xi', mu'> are sums over j of terms in c_j, and I_j depends on
(c_j, c_{j+1}).  ``HironakaEngine.alpha`` therefore sums column by column
from j = lam_1 + 1 down to 1, keeping one partial sum per height, which
takes O(lam_1 * n^2) Laurent products where the box of mu has up to
prod_i (lam_i + 2) members.

The engine memoizes alpha on (xi, lam) keys and the inner factors on their
four conjugate values, and works in Laurent form internally (densities lie
in ZZ[q, q^-1]); results are returned as reduced ``RatFunc`` values.

Normalized densities divide by the self-density, alpha(A,B)/alpha(A,A), and
vanish whenever |xi| and |lam| have different parities (the determinant
valuations differ mod 2).  ``self_density_closed`` gives the self-density
alpha(A_xi, A_xi) in closed form for every label; ``normalized`` still
divides by the direct alpha(A_xi, A_xi), so the two stay independent.

Concurrency: all values are immutable and computations are pure; the memo
caches may be shared across threads (concurrent calls return identical
values) or confined to one engine instance per thread.
"""

from __future__ import annotations

from .partitions import check_partition, conjugate_part, tilde, weight
from .qalgebra import RatFunc, ZERO, gauss_laurent, lau_iadd_scaled, lau_mul


class NotTabulated(LookupError):
    """Kept for compatibility: ``self_density_closed`` covers every label and
    no longer raises it."""


class HironakaEngine:
    """Memoizing evaluator for alpha(A_xi, A_lam) and its normalization."""

    def __init__(self):
        self._alpha = {}
        self._inner = {}

    # -- inner factor -------------------------------------------------------

    def _inner_items(self, l1, l2, m1, m2):
        """I_j as a Laurent dict, keyed on ((lam~)'_j, (lam~)'_{j+1}, mu'_j, mu'_{j+1})."""
        key = (l1, l2, m1, m2)
        cached = self._inner.get(key)
        if cached is not None:
            return cached
        acc = {}
        for i in range(m2, min(l2, m1) + 1):
            # i and 2*l2 + 1 - i have opposite parity, so the product is even
            e = i * (2 * l2 + 1 - i) // 2
            term = lau_mul(gauss_laurent(l2 - m2, l2 - i), gauss_laurent(l1 - i, l1 - m1))
            lau_iadd_scaled(acc, term, shift=e, scale=1 if e % 2 == 0 else -1)
        self._inner[key] = acc
        return acc

    def I_j(self, mu, lam, j):
        """The j-th inner factor of the density formula (j >= 1)."""
        mu = check_partition(mu)
        lam = check_partition(lam)
        if j < 1:
            raise ValueError("j must be >= 1")
        lt = tilde(lam)
        items = self._inner_items(
            conjugate_part(lt, j), conjugate_part(lt, j + 1),
            conjugate_part(mu, j), conjugate_part(mu, j + 1))
        return RatFunc.from_laurent(items)

    # -- the density itself -------------------------------------------------

    def alpha(self, xi, lam):
        """alpha(A_xi, A_lam) for len(xi) = m >= n = len(lam), exact."""
        xi = check_partition(xi)
        lam = check_partition(lam)
        key = (xi, lam)
        cached = self._alpha.get(key)
        if cached is not None:
            return cached
        m, n = len(xi), len(lam)
        if m < n:
            raise ValueError(f"need len(xi) >= len(lam), got {m} < {n}")
        lt = tilde(lam)
        # mu <= lt exactly when c_j = mu'_j <= lt'_j for j = 1..lam_1 + 1, and
        # c_{lam_1+2} = 0.  The summand is a product over j of
        # (-1)^(c_j + e_j) q^e_j, e_j = (n-m-1+xi'_j) c_j - C(c_j, 2), and
        # I_j(c_j, c_{j+1}), so it is summed from the last column down: after
        # column j, chain[c] sums the factors of columns >= j over all
        # c_j = c >= c_{j+1} >= ...
        chain = {0: {0: 1}}
        for j in range(lam[0] + 1, 0, -1):
            l1, l2 = conjugate_part(lt, j), conjugate_part(lt, j + 1)
            x = n - m - 1 + conjugate_part(xi, j)
            step = {}
            for c in range(l1 + 1):
                e = x * c - c * (c - 1) // 2
                sign = -1 if (c + e) % 2 else 1
                acc = {}
                for c2, tail in chain.items():
                    if c2 <= c:
                        lau_iadd_scaled(acc, lau_mul(self._inner_items(l1, l2, c, c2), tail),
                                        shift=e, scale=sign)
                if acc:
                    step[c] = acc
            chain = step
        acc = {}
        for tail in chain.values():
            lau_iadd_scaled(acc, tail)
        val = RatFunc.from_laurent(acc)
        self._alpha[key] = val
        return val

    def normalized(self, xi, lam):
        """alpha(A_xi, A_lam) / alpha(A_xi, A_xi); zero on weight-parity mismatch."""
        xi = check_partition(xi)
        lam = check_partition(lam)
        if len(xi) != len(lam):
            raise ValueError("normalized density needs labels of equal length")
        if (weight(xi) - weight(lam)) % 2:
            return ZERO
        return self.alpha(xi, lam) / self.alpha(xi, xi)

    def laurent_value(self, xi, lam):
        """``normalized`` as a Laurent dict, the form the geometry sums add."""
        return self.normalized(xi, lam).as_laurent()


_DEFAULT = HironakaEngine()


def default_engine():
    return _DEFAULT


def alpha(xi, lam):
    return _DEFAULT.alpha(xi, lam)


def normalized(xi, lam):
    return _DEFAULT.normalized(xi, lam)


def I_j(mu, lam, j):
    return _DEFAULT.I_j(mu, lam, j)


def self_density_closed(xi, engine=None):
    """alpha(A_xi, A_xi) in closed form, for every label.

        q^(sum_{i,j} min(xi_i, xi_j)) * prod_v prod_{k=1..mult_v(xi)} (1 - (-q)^-k),

    v running over the distinct parts of xi: each block of equal parts
    contributes |U_m(F_q)| / q^(m^2) for its multiplicity m.  ``engine`` is
    accepted for compatibility and not used.
    """
    xi = check_partition(xi)
    # for non-increasing xi, min(xi_i, xi_j) = xi_max(i,j)
    val = {sum(x * (2 * i + 1) for i, x in enumerate(xi)): 1}
    for v in set(xi):
        for k in range(1, xi.count(v) + 1):
            val = lau_mul(val, {0: 1, -k: 1 if k % 2 else -1})
    return RatFunc.from_laurent(val)
