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
theorem.  An alpha then costs O(lam_1 n^2) shifted additions and no
products, where the box of mu has up to prod_i (lam_i + 2) members.

Each partial sum is a Laurent polynomial in t = (-q)^-1 held as one integer
(Kronecker substitution): t^(-s) P(t) is the pair (P(2^B), s), so a shifted
addition is one big-integer shift and add, and the twists only add to s.
The width B is proven from lam alone (``_coefficient_bound``) to hold every
coefficient of the result: it is the exact l1 sum sum_mu prod_j ||I_j||_1
of the summands, run as the same column recursion over nonnegative
integers, and cached per label with the conjugate columns (``_frame``).
Only the result must fit, since evaluation at 2^B is a ring map and every
right shift divides exactly.  The height sum is unpacked once, at the end,
into a Laurent dict.  The packed form never leaves the kernel.

``derived_density`` also takes the |mu|-weighted twin of the sum, in the
same kernel: each entry then holds the value and the twin as two packed
integers in one frame, and one Horner loop (``_paired_transform``) steps
both, so a column costs two transforms, not four, and the twin update is one
multiply-add.  ``alpha`` keeps the single-lane transform: run through the
paired one with a zero twin, a seed-1 ``alpha-direct`` benchmark pass took
10-24% longer (min of 15 passes, Python 3.11, a noisy 2-CPU host).

``HironakaEngine`` memoizes alpha on (xi, lam) keys as ``_column_chain``'s
Laurent dict (densities lie in ZZ[q, q^-1]), which ``laurent_alpha`` returns
itself; ``alpha`` checks its labels and builds a ``RatFunc`` from it.  The
module function ``I_j`` builds one inner factor from a cache of its own,
keyed on the four conjugate values, for readers and as the tests' reference.
Column j reads xi only through m = len(xi) and xi'_j, so the engine also
keeps the packed chain states in one prefix tree per (lam, m), keyed on
xi'_{lam_1+1}, xi'_{lam_1}, ... from the root: an alpha runs only the
columns below the deepest state it shares with an earlier one.  On a seed-1
``relation-sweep`` benchmark pass the 1,558 alphas run 2,527 columns instead
of 6,740.  ``derived_density`` asks one chain per label and keeps no tree.

Normalized densities divide by the self-density, alpha(A,B)/alpha(A,A), and
are 0 where ``partitions.provable_zero`` applies (weight parity or support:
A_xi cannot represent A_lam).  ``self_density_closed`` gives alpha(A_xi, A_xi)
in closed form, q^e prod_k (1 - (-q)^-k), for every label; ``laurent_value``
divides both direct alphas by those factors with additions only and no gcd
(``_over_self_density``), and the direct self-density must give exactly 1,
so the two stay independent; an engine checks this once per xi.

Concurrency: computations are pure and no stored value (no memo dict, no
tree state) is ever mutated, the tree's nodes only grow by ``setdefault``
and the checked self-densities by ``add``;
the caches may be shared across threads (concurrent calls return identical
values) or confined to one engine instance per thread.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .partitions import (
    check_pair, check_partition, conjugate, conjugate_part, provable_zero, tilde, weight)
from .qalgebra import RatFunc, gauss_laurent, lau_iadd_scaled, lau_mul


class NotTabulated(LookupError):
    """Kept for compatibility: ``self_density_closed`` covers every label and
    no longer raises it."""


def _qbinomial_transform(terms, width):
    """S_v = sum_{u >= v} [u; v] a_u for v = 0..N, by shifts and additions only.

    ``terms[u]`` (u = 0..N) is None for a_u = 0, or a packed pair (p, s)
    standing for t^(-s) P(t), t = (-q)^-1, where P is an integer polynomial
    in t and p = P(2^width); the result is a list of the same form, S_v for
    v = 0..N.  The q-binomial theorem reads prod_{k<u} (1 + t^k x) =
    sum_v t^(v(v-1)/2) [u; v] x^v, so sum_u a_u prod_{k<u} (1 + t^k x) has
    x^v-coefficient t^(v(v-1)/2) S_v.  Horner's scheme builds it as
    P <- a_u + (1 + t^u x) P for u = N..0: O(N^2) shifted additions, each one
    big-integer shift and add, once the inputs are brought to their largest
    s.  The x^v-coefficient is t^(v(v-1)/2) times a polynomial, so S_v is
    that coefficient shifted right, exactly.
    """
    top = max([term[1] for term in terms if term is not None], default=0)
    poly = []                           # poly[v]: x^v-coefficient of P, at t^-top
    for u in range(len(terms) - 1, -1, -1):
        if poly:
            poly.append(0)
            shift = u * width
            for v in range(len(poly) - 1, 0, -1):
                poly[v] += poly[v - 1] << shift
        term = terms[u]
        if term is not None:
            if not poly:
                poly.append(0)
            poly[0] += term[0] << (top - term[1]) * width
    out = [None] * len(terms)
    for v, p in enumerate(poly):
        if p:
            # p = P(2^width) for P divisible by t^(v(v-1)/2), so the shift is exact
            out[v] = (p >> v * (v - 1) // 2 * width, top)
    return out


def _paired_transform(terms, width):
    """``_qbinomial_transform`` on two lanes at once: ``terms[u]`` is None or a
    triple (p, pt, s), two packed values in the one frame s, and so is each
    S_v.  The lanes take the same Horner loop, shift for shift, so a pair
    costs one loop and keeps one frame; S_v is None when both lanes are 0.
    """
    top = max([term[2] for term in terms if term is not None], default=0)
    poly, twin = [], []                 # x^v-coefficients of the two lanes, at t^-top
    for u in range(len(terms) - 1, -1, -1):
        if poly:
            poly.append(0)
            twin.append(0)
            shift = u * width
            for v in range(len(poly) - 1, 0, -1):
                poly[v] += poly[v - 1] << shift
                twin[v] += twin[v - 1] << shift
        term = terms[u]
        if term is not None:
            if not poly:
                poly.append(0)
                twin.append(0)
            shift = (top - term[2]) * width
            poly[0] += term[0] << shift
            twin[0] += term[1] << shift
    out = [None] * len(terms)
    for v, (p, pt) in enumerate(zip(poly, twin)):
        if p or pt:
            shift = v * (v - 1) // 2 * width
            out[v] = (p >> shift, pt >> shift, top)
    return out


@lru_cache(maxsize=None)
def _column_norm(l1, l2):
    """The matrix N[c][c2] = ||I(l1, l2, c, c2)||_1 of one column, c = 0..l1
    and c2 = 0..l2, as nested tuples.

    In t = (-q)^-1 every coefficient of I = sum_i t^(-e_i) [l2-c2; l2-i]
    [l1-i; l1-c] is nonnegative, and [u; v] at t = 1 is C(u, v), so
    ||I||_1 = sum_i C(l2-c2, l2-i) C(l1-i, l1-c), i = c2..min(l2, c); it is 0
    for c2 > c, as I is.
    """
    return tuple(tuple(sum(comb(l2 - c2, l2 - i) * comb(l1 - i, l1 - c)
                           for i in range(c2, min(l2, c) + 1))
                       for c2 in range(l2 + 1))
                 for c in range(l1 + 1))


def _coefficient_bound(lam, twin):
    """A bound on every coefficient of ``_column_chain(xi, lam, twin)``, for any
    xi: the l1 norm sum_mu prod_j ||I_j||_1 of the summands, and with ``twin``
    the same sum weighted by |mu|.

    In t every factor of a summand is a monomial of l1 norm 1 or some
    I_j(c_j, c_{j+1}), and the l1 norm is submultiplicative, so the l1 norm of
    the sum, and so each of its coefficients, is at most sum_mu
    prod_j ||I_j||_1.  The column recursion sums this exactly:
    w_j[c] = sum_c2 N_j[c][c2] w_{j+1}[c2] (``_column_norm``) sums the norms of
    the factors of columns >= j over c_j = c >= c_{j+1} >= ..., from w = [1]
    at height 0 above the last column, and the sum is sum_c w_1[c].  The twin
    lane runs the same recursion and adds c w_j[c] at height c, as the chain's
    twin adds c p, so it sums the norms weighted by |mu| = c_1 + c_2 + ...
    Only the result's coefficients need the bound: evaluation at 2^B is a ring
    map and every right shift of the chain divides exactly, so the packed
    intermediate sums are exact at any width B.
    """
    cols = conjugate(tilde(lam)) + (0,)
    w, wt = [1], [0]
    for j in range(len(cols) - 2, -1, -1):
        norm = _column_norm(cols[j], cols[j + 1])
        w = [sum(map(mul, row, w)) for row in norm]
        if twin:
            wt = [sum(map(mul, row, wt)) + c * w[c] for c, row in enumerate(norm)]
    return sum(wt) if twin else sum(w)


def _unpack(p, s, width):
    """The Laurent dict of t^(-s) P(t), t = (-q)^-1, from p = P(2^width).

    Every coefficient of P must lie in [-2^(width-1), 2^(width-1)): P is read
    off p as balanced base-2^width digits, made nonnegative by adding
    2^(width-1) to each, so that one binary string holds them all.
    """
    if not p:
        return {}
    half = 1 << (width - 1)
    size = p.bit_length() // width + 2
    bits = format(p + half * (((1 << size * width) - 1) // ((1 << width) - 1)), "b")
    bits = bits.zfill(size * width)
    out = {}
    for k in range(size):
        c = int(bits[(size - 1 - k) * width:(size - k) * width], 2) - half
        if c:
            # the digit of t^(k - s) = (-q)^(s - k)
            out[s - k] = -c if (s - k) % 2 else c
    return out


@lru_cache(maxsize=4096)
def _frame(lam, twin):
    """What the chain reads of lam alone: (lam+1)'_j indexed from j = 1 and
    padded with zeros, and the packing width ``_coefficient_bound`` proves.

    Cached per label: engines are often built per call, and on a small alpha
    the bound costs more than its narrower width saves.  The cache keeps the
    most recent labels, so a long sweep does not grow it without limit.  The
    width leaves a spare bit, so the twin's width also holds the value lane:
    only mu = 0 has |mu| = 0, and its summand is 1, so the value's l1 sum is
    at most the twin's plus 1.
    """
    return (0,) + conjugate(tilde(lam)) + (0,), _coefficient_bound(lam, twin).bit_length() + 2


def _column_chain(xi, lam, twin, root=None):
    """Hironaka's sum for alpha(A_xi, A_lam), and with ``twin`` the same sum
    with each summand weighted by |mu| (else None), as Laurent dicts.

    mu <= lam + 1 exactly when c_j = mu'_j <= (lam+1)'_j for j = 1..lam_1 + 1,
    and c_{lam_1+2} = 0.  The summand is a product over j of
    (-1)^c_j (-q)^e_j, e_j = (n-m-1+xi'_j) c_j - C(c_j, 2), and
    I_j(c_j, c_{j+1}), so it is summed from the last column down: after
    column j, chain[c] sums the factors of columns >= j over all
    c_j = c >= c_{j+1} >= ...  Entries are packed as in _qbinomial_transform,
    at the one width that ``_coefficient_bound`` proves wide enough for the
    result; the packed form is exact throughout, and only the final height
    sum is unpacked.

    With ``twin`` each entry is a triple (p, pt, s): the sum and its twin, the
    same sum weighted by c_j + c_{j+1} + ..., in one frame s.  Every map of a
    column is linear, so the twin takes the value's path: ``_paired_transform``
    steps both lanes in one Horner loop, a twist moves the shared frame once,
    and column j adds c_j = c to the weight at height c as
    pt + c p, exactly, with no alignment.  Without ``twin`` entries stay pairs
    (p, s) through the single-lane transform, which alpha runs faster than the
    paired one (see the module docstring).

    ``root`` is None, or the root (cols, width, node) of a ``HironakaEngine``
    prefix tree for (lam, m), holding ``_frame(lam, False)``.  Column j reads
    xi only through xi'_j, so the state after column j is fixed by
    (lam, m, xi'_{lam_1+1}, ..., xi'_j): a node maps xi'_j to that state and
    the node of column j - 1.  The loop takes every state it finds and fills
    the rest in with ``setdefault``, down to column 2.  The state after
    column 1 is never stored: it is fixed by all of xi' that the chain reads,
    so an alpha that reaches it again is a memo hit unless its xi differs
    only in parts above lam_1 + 1.  Stored states are never mutated.
    """
    m, n = len(xi), len(lam)
    cols, width, node = _frame(lam, twin) + (None,) if root is None else root
    xi_cols = (0,) + conjugate(xi) + (0,) * (lam[0] + 1)      # xi'_j from j = 1
    transform = _paired_transform if twin else _qbinomial_transform
    chain = [(1, 0, 0)] if twin else [(1, 0)]
    for j in range(lam[0] + 1, 0, -1):
        if node is not None:
            hit = node.get(xi_cols[j])
            if hit is not None:
                chain, node = hit
                continue
        l1, l2 = cols[j], cols[j + 1]
        x = n - m - 1 + xi_cols[j]
        # the chain holds c2 = 0..l2, the heights of column j + 1, and
        # I_j(l1, l2, c, c2) = sum_i t^(-e_i) [l2-c2; l2-i] [l1-i; l1-c]
        # with e_i = i (2 l2 + 1 - i) / 2: a transform c2 -> i (u = l2-c2,
        # v = l2-i), the twist t^(-e_i), a transform i -> c (u = l1-i,
        # v = l1-c), and then the column's own (-1)^c t^(-e)
        inner = [None] * (l1 + 1)
        for v, term in enumerate(transform(chain[::-1], width)):
            if term is not None:
                i = l2 - v
                e = i * (2 * l2 + 1 - i) // 2
                inner[l1 - i] = (term[0], term[1], term[2] + e) if twin else (term[0], term[1] + e)
        chain = [None] * (l1 + 1)
        for v, term in enumerate(transform(inner, width)):
            if term is not None:
                c = l1 - v
                p = -term[0] if c % 2 else term[0]
                e = x * c - c * (c - 1) // 2
                if twin:
                    pt = -term[1] if c % 2 else term[1]
                    chain[c] = (p, pt + c * p, term[2] + e)
                else:
                    chain[c] = (p, term[1] + e)
        if node is not None and j > 1:
            node = node.setdefault(xi_cols[j], (chain, {}))[1]
    terms = [term for term in chain if term is not None]
    top = max((term[-1] for term in terms), default=0)
    sums = [_unpack(sum(term[k] << (top - term[-1]) * width for term in terms), top, width)
            for k in range(2 if twin else 1)]
    return sums[0], sums[1] if twin else None


class HironakaEngine:
    """Memoizing evaluator for alpha(A_xi, A_lam) and its normalization.

    The engine holds the alpha memo on (xi, lam), one prefix tree of
    ``_column_chain`` states per (lam, len(xi)) (see there), and the set of
    labels xi whose direct self-density ``laurent_value`` has checked.
    Alphas whose xi' agree on the columns j..lam_1+1 share the state after
    column j, so a sweep of many xi against one lam runs each distinct column
    once.  The tree holds at most lam_1 states per memoized alpha.  Nodes and
    the checked set only grow, by ``setdefault`` and ``add``, and a stored
    state is never mutated, so an engine may be shared across threads: two
    threads that race on one state compute equal values, and both go on with
    the one that was stored first.
    """

    def __init__(self):
        self._alpha = {}
        self._prefix = {}
        self._checked = set()

    def laurent_alpha(self, xi, lam):
        """alpha(A_xi, A_lam) as the memo's Laurent dict, which callers must
        never mutate; the labels are not validated (callers check them)."""
        val = self._alpha.get((xi, lam))
        if val is None:
            root = self._prefix.get((lam, len(xi)))
            if root is None:
                root = self._prefix.setdefault((lam, len(xi)), _frame(lam, False) + ({},))
            val = self._alpha[xi, lam] = _column_chain(xi, lam, False, root)[0]
        return val

    def alpha(self, xi, lam):
        """alpha(A_xi, A_lam) for len(xi) = m >= n = len(lam), exact."""
        xi = check_partition(xi)
        lam = check_partition(lam)
        if len(xi) < len(lam):
            raise ValueError(f"need len(xi) >= len(lam), got {len(xi)} < {len(lam)}")
        return RatFunc.from_laurent(self.laurent_alpha(xi, lam))

    def normalized(self, xi, lam):
        """alpha(A_xi, A_lam) / alpha(A_xi, A_xi); zero where ``provable_zero`` applies."""
        return RatFunc.from_laurent(self.laurent_value(*check_pair(xi, lam)))

    def laurent_value(self, xi, lam):
        """``normalized`` as a new Laurent dict, for checked labels; a closed
        self-density that the direct one disputes raises ArithmeticError.  The
        check runs once per xi and engine: xi joins the checked set only after
        it passes."""
        if provable_zero(xi, lam) is not None:
            return {}
        if xi not in self._checked:
            if _over_self_density(self.laurent_alpha(xi, xi), xi) != {0: 1}:
                raise ArithmeticError(f"the direct self-density of {xi} is not its closed form")
            self._checked.add(xi)
        return _over_self_density(self.laurent_alpha(xi, lam), xi)


# The module functions build a fresh engine, so a call keeps no memo alive.
def alpha(xi, lam):
    return HironakaEngine().alpha(xi, lam)


def normalized(xi, lam):
    return HironakaEngine().normalized(xi, lam)


@lru_cache(maxsize=None)
def _inner_laurent(l1, l2, m1, m2):
    """I_j as a shared Laurent dict (never mutate it), on its four conjugate
    values l1 = (lam+1)'_j, l2 = (lam+1)'_{j+1}, m1 = mu'_j and m2 = mu'_{j+1}."""
    acc = {}
    for i in range(m2, min(l2, m1) + 1):
        # i and 2*l2 + 1 - i have opposite parity, so the product is even
        e = i * (2 * l2 + 1 - i) // 2
        term = lau_mul(gauss_laurent(l2 - m2, l2 - i), gauss_laurent(l1 - i, l1 - m1))
        lau_iadd_scaled(acc, term, shift=e, scale=1 if e % 2 == 0 else -1)
    return acc


def I_j(mu, lam, j):
    """The j-th inner factor of the density formula, on its domain: mu <= lam + 1
    componentwise, at one length, and a conjugate index j (``conjugate_part``);
    else ``ValueError``.  The chain never calls it: it is the paper's factor,
    and the slow reference that the chain's transforms are checked against."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if len(mu) != len(lam) or any(m > l + 1 for m, l in zip(mu, lam)):
        raise ValueError(f"I_j needs mu <= lam + 1 componentwise, at one length; "
                         f"got mu={mu}, lam={lam}")
    lt = tilde(lam)
    return RatFunc.from_laurent(_inner_laurent(
        conjugate_part(lt, j), conjugate_part(lt, j + 1),
        conjugate_part(mu, j), conjugate_part(mu, j + 1)))


def _self_density_factors(xi):
    """(e, [k, ...]) with alpha(A_xi, A_xi) = q^e prod_k (1 - (-q)^-k)."""
    # for non-increasing xi, min(xi_i, xi_j) = xi_max(i,j)
    return (sum(x * (2 * i + 1) for i, x in enumerate(xi)),
            [k for v in set(xi) for k in range(1, xi.count(v) + 1)])


def _self_density_laurent(xi):
    """The closed alpha(A_xi, A_xi) of a checked label, as a new Laurent dict."""
    e, factors = _self_density_factors(xi)
    val = {e: 1}
    for k in factors:
        val = lau_mul(val, {0: 1, -k: 1 if k % 2 else -1})
    return val


def self_density_closed(xi, engine=None):
    """alpha(A_xi, A_xi) in closed form, for every label.

        q^(sum_{i,j} min(xi_i, xi_j)) * prod_v prod_{k=1..mult_v(xi)} (1 - (-q)^-k),

    v running over the distinct parts of xi: each block of equal parts
    contributes |U_m(F_q)| / q^(m^2) for its multiplicity m.  ``engine`` is
    accepted for compatibility and not used.
    """
    return RatFunc.from_laurent(_self_density_laurent(check_partition(xi)))


def _divide_one_minus_t(d, k):
    """The Laurent dict d / (1 - (-q)^-k), k >= 1, by additions only.

    The quotient Q solves Q = d + (-1)^k q^-k Q, so it is filled in from the
    top exponent of d down to its lowest plus k; the k exponents below are
    the remainder, and a nonzero one raises ArithmeticError.
    """
    sign = -1 if k % 2 else 1
    low = min(d, default=0)
    quo = {}
    for e in range(max(d, default=-1), low - 1, -1):
        c = d.get(e, 0) + sign * quo.get(e + k, 0)
        if c:
            if e < low + k:
                raise ArithmeticError(f"1 - (-q)^-{k} does not divide {d}")
            quo[e] = c
    return quo


def _over_self_density(d, xi):
    """The new Laurent dict d / alpha(A_xi, A_xi), by a shift and one
    ``_divide_one_minus_t`` per closed-form factor; a remainder raises
    ArithmeticError."""
    e, factors = _self_density_factors(xi)
    d = {k - e: c for k, c in d.items()}
    for k in factors:
        d = _divide_one_minus_t(d, k)
    return d


def derived_density(lam):
    """dDen(B) = -d/dX Den(X, B) at X = 1 for B = A_lam of odd weight, any rank n:
    -sum_mu |mu| (-1)^|mu| (-q)^(-n(mu)-|mu|) prod_j I_j(mu, lam) / alpha(1_n, 1_n).
    Den((-q)^-k, B) = alpha(1_{n+k}, B) / alpha(1_{n+k}, 1_n) has the summands of
    alpha(1_n, B) times X^|mu|, and alpha(1_n, B) = 0 for odd |B| (Li-Zhang, in
    the form of Cho-Yamauchi).  Even weight raises ValueError.  The quotient is
    a Laurent polynomial, and alpha(1_n, 1_n) = prod_{k=1..n} (1 - (-q)^-k)
    (``self_density_closed``), so the division is exact, one factor at a time.
    """
    return RatFunc.from_laurent(_derived_laurent(lam))


def _derived_laurent(lam):
    """``derived_density`` as a new Laurent dict, the form the geometry sums add."""
    lam = check_partition(lam)
    if weight(lam) % 2 == 0:
        raise ValueError(f"need an odd weight, got {lam} of weight {weight(lam)}")
    twin = _over_self_density(_column_chain((0,) * len(lam), lam, True)[1], (0,) * len(lam))
    return {e: -c for e, c in twin.items()}
