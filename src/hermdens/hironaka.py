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
(c_j, c_{j+1}).  One kernel, ``_column_chain``, therefore sums column by
column from j = lam_1 + 1 down to 1, keeping one partial sum per height.  A
column maps the partial sums through I_j, which splits as
sum_i (-q)^(e_i) [l2 - c_{j+1}; l2 - i] [l1 - i; l1 - c_j], with
l1 = (lam+1)'_j, l2 = (lam+1)'_{j+1} and e_i = i (2 l2 + 1 - i) / 2: two
q-binomial transforms S_v = sum_{u >= v} [u; v] a_u with the twist
(-q)^(e_i) between them, each evaluated by Horner's scheme on the q-binomial
theorem.  A column then costs O(n^2) shifted Laurent additions and no
products, where the box of mu has up to prod_i (lam_i + 2) members.

``HironakaEngine.alpha`` memoizes its value on (xi, lam) keys;
``derived_density`` also takes its |mu|-weighted twin.  The kernel works in
Laurent form (densities lie in ZZ[q, q^-1]); results are reduced
``RatFunc`` values.  The inner factors, memoized on their four conjugate
values, serve only ``I_j``.

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


def _qbinomial_transform(terms):
    """S_v = sum_{u >= v} [u; v] a_u for v = 0..N, by additions only.

    ``terms[u]`` (u = 0..N) is None for a_u = 0, or a lazy triple
    (d, shift, sign) standing for sign * q^shift * d; the result is a list of
    the same form, S_v for v = 0..N, each d a new dict.  With t = (-q)^-1
    the q-binomial theorem reads prod_{k<u} (1 + t^k x) =
    sum_v t^(v(v-1)/2) [u; v] x^v, so sum_u a_u prod_{k<u} (1 + t^k x) has
    x^v-coefficient t^(v(v-1)/2) S_v.  Horner's scheme builds it as
    P <- a_u + (1 + t^u x) P for u = N..0, O(N^2) shifted additions, and the
    twist (-q)^(v(v-1)/2) goes into each triple instead of onto a copy.
    """
    poly = []                           # poly[v]: x^v-coefficient of P
    for u in range(len(terms) - 1, -1, -1):
        if poly:
            sign = -1 if u % 2 else 1
            poly.append({})
            for v in range(len(poly) - 1, 0, -1):
                lau_iadd_scaled(poly[v], poly[v - 1], shift=-u, scale=sign)
        term = terms[u]
        if term is not None:
            if not poly:
                poly.append({})
            lau_iadd_scaled(poly[0], *term)
    out = [None] * len(terms)
    for v, d in enumerate(poly):
        if d:
            k = v * (v - 1) // 2
            out[v] = (d, k, -1 if k % 2 else 1)
    return out


def _column_chain(xi, lam, twin):
    """Hironaka's sum for alpha(A_xi, A_lam), and with ``twin`` the same sum
    with each summand weighted by |mu| (else None), as Laurent dicts.

    mu <= lam + 1 exactly when c_j = mu'_j <= (lam+1)'_j for j = 1..lam_1 + 1,
    and c_{lam_1+2} = 0.  The summand is a product over j of
    (-1)^(c_j + e_j) q^e_j, e_j = (n-m-1+xi'_j) c_j - C(c_j, 2), and
    I_j(c_j, c_{j+1}), so it is summed from the last column down: after
    column j, chains[0][c] sums the factors of columns >= j over all
    c_j = c >= c_{j+1} >= ..., and the twin chains[1][c] weights that sum by
    c_j + c_{j+1} + ...  Entries are lazy triples as in _qbinomial_transform.
    """
    m, n = len(xi), len(lam)
    lt = tilde(lam)
    chains = [[({0: 1}, 0, 1)], [None]] if twin else [[({0: 1}, 0, 1)]]
    for j in range(lam[0] + 1, 0, -1):
        l1, l2 = conjugate_part(lt, j), conjugate_part(lt, j + 1)
        x = n - m - 1 + conjugate_part(xi, j)
        # a chain holds c2 = 0..l2, the heights of column j + 1, and
        # I_j(l1, l2, c, c2) = sum_i (-q)^(e_i) [l2-c2; l2-i] [l1-i; l1-c]
        # with e_i = i (2 l2 + 1 - i) / 2: a transform c2 -> i (u = l2-c2,
        # v = l2-i), the twist (-q)^(e_i), a transform i -> c (u = l1-i,
        # v = l1-c), and then the column's own (-1)^(c+e) q^e.  Every map is
        # linear, so the twin takes the same path as the value.
        for k, chain in enumerate(chains):
            inner = [None] * (l1 + 1)
            for v, term in enumerate(_qbinomial_transform(chain[::-1])):
                if term is not None:
                    i = l2 - v
                    e = i * (2 * l2 + 1 - i) // 2
                    inner[l1 - i] = (term[0], term[1] + e, -term[2] if e % 2 else term[2])
            chain = chains[k] = [None] * (l1 + 1)
            for v, term in enumerate(_qbinomial_transform(inner)):
                if term is not None:
                    c = l1 - v
                    e = x * c - c * (c - 1) // 2
                    chain[c] = (term[0], term[1] + e, -term[2] if (c + e) % 2 else term[2])
        if twin:
            # column j adds c_j = c to the weight of each summand at height c;
            # the value and the twin at height c carry the same shift and
            # sign, and each transform returns new dicts
            value, weighted = chains
            for c in range(1, l1 + 1):
                if value[c] is not None:
                    if weighted[c] is None:
                        weighted[c] = ({},) + value[c][1:]
                    lau_iadd_scaled(weighted[c][0], value[c][0], scale=c)
    sums = [{} for _ in chains]
    for acc, chain in zip(sums, chains):
        for term in filter(None, chain):
            lau_iadd_scaled(acc, *term)
    return sums[0], sums[1] if twin else None


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
        if len(xi) < len(lam):
            raise ValueError(f"need len(xi) >= len(lam), got {len(xi)} < {len(lam)}")
        val = RatFunc.from_laurent(_column_chain(xi, lam, False)[0])
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


def derived_density(lam):
    """dDen(B) = -d/dX Den(X, B) at X = 1 for B = A_lam of odd weight, any rank n:
    -sum_mu |mu| (-1)^|mu| (-q)^(-n(mu)-|mu|) prod_j I_j(mu, lam) / alpha(1_n, 1_n).
    Den((-q)^-k, B) = alpha(1_{n+k}, B) / alpha(1_{n+k}, 1_n) has the summands of
    alpha(1_n, B) times X^|mu|, and alpha(1_n, B) = 0 for odd |B| (Li-Zhang, in
    the form of Cho-Yamauchi).  Even weight raises ValueError.
    """
    lam = check_partition(lam)
    if weight(lam) % 2 == 0:
        raise ValueError(f"need an odd weight, got {lam} of weight {weight(lam)}")
    unit = (0,) * len(lam)
    twin = _column_chain(unit, lam, True)[1]
    return -RatFunc.from_laurent(twin) / self_density_closed(unit)
