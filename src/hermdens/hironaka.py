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
(c_j, c_{j+1}).  So the sum is a transfer-matrix product (Stanley,
Enumerative Combinatorics I, 4.7),

    alpha = 1^T M_1 M_2 ... M_{lam_1+1} e_0,
    M_j[c][c2] = (-1)^c (-q)^(x c - C(c, 2)) I(l1, l2, c, c2),

with l1 = (lam+1)'_j, l2 = (lam+1)'_{j+1} and x = n - m - 1 + xi'_j, where
I(l1, l2, c, c2) = sum_i (-q)^(e_i) [l2 - c2; l2 - i] [l1 - i; l1 - c] and
e_i = i (2 l2 + 1 - i) / 2.  One kernel, ``_column_chain``, takes the
product from column lam_1 + 1 down to 1, one matrix-vector product per
column, and ``_column_matrix`` builds and caches each M_j.  M_j is lower
triangular (I vanishes for c2 > c), so a column costs at most
(l1 + 1)(l2 + 1) big-integer products and a chain of every column
O(lam_1 n^2), where the box of mu has up to prod_i (lam_i + 2) members.
At the ranks the CLI and the benchmarks use (n <= 6) a column's time is
interpreter overhead, so one product per entry runs ``alpha-direct`` about
2.6x as fast as splitting M_j into two q-binomial transforms of
O(l1^2 + l2^2) interpreted shift-adds (``BENCH_31.json``).  At rank 8 the
products of long integers cost more than those shift-adds: a hot
alpha(0^8, (20, 18, ..., 6)) takes about 1.6 ms against 1.2 ms (Python
3.11, a noisy 2-CPU host).

The columns lam_2 + 2..lam_1 have l1 = l2 = 1, and where x = -1 there (at
m = n, the columns above xi_1) each is one map M with M^2 = I.  That fact
is used in one place, at the label: ``_lead_period_label`` lowers lam_1 by
pairs of such columns to L_1 < max(lam_2 + 1, xi_1) + 2.  The value does
not change, and the |mu|-weighted twin is affine in the number of pairs.
So at m = n ``HironakaEngine`` chains alpha at the lowered label, and
``derived_density`` chains L and (L_1 + 2, L_2, ...) and extrapolates: a
chain at m = n never runs a long lead run, and its columns, tuples and
width bound cost O(max(lam_2, xi_1) + 1) columns whatever lam_1 - lam_2.
Every chain and the width bound take their columns one at a time.

Each entry is a Laurent polynomial in t = (-q)^-1 held as one integer
(Kronecker substitution): t^(-s) P(t) is P(2^B), in a frame s that a whole
matrix, or a whole chain state, shares.  So an entry product is one
big-integer product, a row sum needs no alignment, and a column adds its
matrix's frame to the state's.  The width B is the narrowest whose balanced
digits hold a bound proven from lam alone (``_coefficient_bound``) on every
coefficient of the result: the exact l1 sum sum_mu prod_j ||I_j||_1 of the
summands, run as the same column recursion on the column matrices at t = 1,
where they hold the norms up to sign.  Only ``_frame`` caches it, per label.  Only the result must fit, since evaluation
at 2^B is a ring map.  The height sum is unpacked once, at the end, into a
Laurent dict.  The packed form never leaves the kernel.

``derived_density`` takes the |mu|-weighted twin of the sum, in the same
kernel and code path: the twin vector takes the value's rows, column j adds
c times the value at height c, and only the twin is unpacked.  A twin column
costs twice the products of a value column.

``HironakaEngine`` memoizes alpha on (xi, lam) keys as ``_column_chain``'s
Laurent dict (densities lie in ZZ[q, q^-1]), which ``laurent_alpha`` returns
itself; ``alpha`` checks its labels and builds a ``RatFunc`` from it.  The
module function ``I_j`` builds one inner factor from a cache of its own,
keyed on the four conjugate values, for readers and as the tests' reference.
Column j reads xi only through m = len(xi) and xi'_j, so the engine also
keeps the packed chain states in one prefix tree per (label chained, m), a
dict keyed on xi'_{lam_1+1}, xi'_{lam_1}, ... from the root: an alpha runs
only the columns below the deepest state it shares with an earlier one.  On
a seed-1 ``relation-sweep`` benchmark pass the 1,558 alphas run 2,516
columns instead of 6,740.  ``derived_density`` keeps no tree: it caches
each lowered label's chain (``_derived_chain``).

Normalized densities divide by the self-density, alpha(A,B)/alpha(A,A), and
are 0 where ``partitions.provable_zero`` applies (weight parity or support:
A_xi cannot represent A_lam).  ``self_density_closed`` gives alpha(A_xi, A_xi)
in closed form, q^e prod_k (1 - (-q)^-k), for every label; ``laurent_value``
divides both direct alphas by those factors with additions only and no gcd
(``_over_self_density``), and the direct self-density must give exactly 1,
so the two stay independent; an engine checks this once per xi.

Module caches: ``_frame`` (the last 4096 labels), ``_column_matrix`` (the
last 4096 column keys), ``_derived_chain`` (the last 4096 labels that
derived densities chain), and ``_inner_laurent``, which is unbounded but keyed
on conjugate values alone, at most (n + 1)^4 keys for labels of length at
most n.

Concurrency: computations are pure and no stored value (no memo dict, no
tree state, no cached matrix) is ever mutated, the tree's nodes only grow by
``setdefault`` and the checked self-densities by ``add``;
the caches may be shared across threads (concurrent calls return identical
values) or confined to one engine instance per thread.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .partitions import (
    check_pair, check_partition, conjugate, conjugate_part, provable_zero, tilde, weight)
from .qalgebra import RatFunc, gauss_laurent, lau_iadd_scaled, lau_mul


class NotTabulated(LookupError):
    """Kept for compatibility: ``self_density_closed`` covers every label and
    no longer raises it."""


@lru_cache(maxsize=4096)
def _column_matrix(l1, l2, x, width):
    """One column of the chain as a packed lower-triangular matrix (rows, top),
    for l1 = (lam+1)'_j, l2 = (lam+1)'_{j+1} and x = n - m - 1 + xi'_j.

    Row c (c = 0..l1) holds M[c][c2] = (-1)^c (-q)^(x c - C(c, 2)) I(l1, l2, c, c2)
    for c2 = 0..min(c, l2); I vanishes for c2 > c, so no row holds more.  In
    t = (-q)^-1, I = sum_i t^(-e_i) [l2-c2; l2-i] [l1-i; l1-c] over
    i = c2..min(l2, c), with e_i = i (2 l2 + 1 - i) / 2, and every entry is
    t^(-top) P(t) for one frame top, the largest d_c + e_i (d_c = x c - C(c, 2)),
    and an integer polynomial P, stored as P(2^width).  The Gaussian binomials
    are built at t = 2^width by the q-Pascal rule [k; j] = [k-1; j-1] +
    t^j [k-1; j], so the matrix is made of integers alone, and
    ``_inner_laurent`` stays an independent reference for it.

    (lam+1)' does not increase, so l2 <= l1.  Cached per key, at most 4096
    matrices of at most (l1 + 1)(l2 + 1) integers: a key recurs across the
    columns of one label (a run of equal conjugate values) and across the
    labels of a sweep.
    """
    gauss = [[1]]                       # gauss[k][j] = [k; j] at t = 2^width
    for k in range(1, l1 + 1):
        prev = gauss[-1]
        gauss.append([1] + [prev[j - 1] + (prev[j] << j * width) for j in range(1, k)] + [1])
    e = [i * (2 * l2 + 1 - i) // 2 for i in range(l2 + 1)]
    d = [x * c - c * (c - 1) // 2 for c in range(l1 + 1)]
    # e_i grows with i <= l2, so the lowest power of t in row c is t^-(d_c + e_min(l2, c))
    top = max(d[c] + e[min(l2, c)] for c in range(l1 + 1))
    rows = tuple(tuple((-1) ** c * sum(gauss[l2 - c2][l2 - i] * gauss[l1 - i][l1 - c]
                                       << (top - d[c] - e[i]) * width
                                       for i in range(c2, min(l2, c) + 1))
                       for c2 in range(min(c, l2) + 1))
                 for c in range(l1 + 1))
    return rows, top


def _coefficient_bound(lam, twin):
    """A bound on every coefficient of ``_column_chain(xi, lam, twin)``, for any
    xi: the l1 norm sum_mu prod_j ||I_j||_1 of the summands, and with ``twin``
    the same sum weighted by |mu|.

    In t every factor of a summand is a monomial of l1 norm 1 or some
    I_j(c_j, c_{j+1}), and the l1 norm is submultiplicative, so the l1 norm of
    the sum, and so each of its coefficients, is at most sum_mu
    prod_j ||I_j||_1.  The column recursion sums this exactly:
    w_j[c] = sum_c2 N_j[c][c2] w_{j+1}[c2], N_j[c][c2] = ||I(l1, l2, c, c2)||_1,
    sums the norms of the factors of columns >= j over
    c_j = c >= c_{j+1} >= ..., from w = [1] at height 0 above the last
    column, and the sum is sum_c w_1[c].  In t every coefficient of I is
    nonnegative, so ||I||_1 is I at t = 1, where [u; v] is C(u, v) and the
    twists are signs: N_j is the column matrix at width 0 up to the sign
    (-1)^c of row c (at x = 0, as x moves only the twist), so each row sum
    is taken up to sign.  The twin lane runs the same recursion and adds
    c w_j[c] at height c, as the chain's twin adds c vec[c], so it sums the
    norms weighted by |mu| = c_1 + c_2 + ...
    Only the result's coefficients need the bound: evaluation at 2^B is a ring
    map, so the packed products and sums of the chain are exact at any
    width B.

    The recursion takes the columns one at a time, as the chain does, so it
    costs O(lam_1) columns; the chains at m = n ask it only at labels that
    ``_lead_period_label`` has lowered.
    """
    cols = (0,) + conjugate(tilde(lam)) + (0,)      # (lam+1)'_j from j = 1
    w, wt = [1], [0]
    for j in range(lam[0] + 1, 0, -1):
        rows = _column_matrix(cols[j], cols[j + 1], 0, 0)[0]
        w = [abs(sum(map(mul, row, w))) for row in rows]
        if twin:
            wt = [abs(sum(map(mul, row, wt))) + c * w[c] for c, row in enumerate(rows)]
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
    width is the narrowest whose balanced digits hold every coefficient the
    bound allows.  Both take O(lam_1) time and space; at m = n the chains ask
    them only at labels ``_lead_period_label`` has lowered, so there they
    do not grow with lam_1 - lam_2.
    """
    return (0,) + conjugate(tilde(lam)) + (0,), _coefficient_bound(lam, twin).bit_length() + 1


def _column_chain(xi, lam, twin, node=None):
    """Hironaka's sum for alpha(A_xi, A_lam), or with ``twin`` the same sum
    with each summand weighted by |mu|, as a Laurent dict.

    mu <= lam + 1 exactly when c_j = mu'_j <= (lam+1)'_j for j = 1..lam_1 + 1,
    and c_{lam_1+2} = 0.  The summand is a product over j of
    (-1)^c_j (-q)^e_j, e_j = (n-m-1+xi'_j) c_j - C(c_j, 2), and
    I_j(c_j, c_{j+1}), so the sum is the transfer-matrix product
    1^T M_1 M_2 ... M_{lam_1+1} e_0 with M_j = ``_column_matrix``, taken from
    the last column down: after column j, vec[c] sums the factors of
    columns >= j over all c_j = c >= c_{j+1} >= ...  The state is
    (vec, tw, s), every entry t^(-s) P(t) packed as P(2^width) in the one
    frame s, at the width ``_frame`` proves for the result; a column is one
    packed matrix-vector product and adds the matrix's frame to s.  Evaluation
    at 2^width is a ring map, so the packed form is exact throughout, and only
    the final height sum is unpacked.

    With ``twin``, tw[c] is the same sum weighted by c_j + c_{j+1} + ...:
    every map of a column is linear, so the twin takes the same rows, and
    column j adds c_j = c to the weight at height c as row . tw + c vec[c];
    only the twin is unpacked.  Without it, tw is None.

    The chain takes every column, one at a time, so it costs O(lam_1)
    columns.  Its callers at m = n chain labels that ``_lead_period_label``
    has lowered, or two above one, so at most three of its columns are the
    lead run's involution.

    ``node`` is None, or the root node of a ``HironakaEngine`` prefix tree
    for (lam, m).  Column j reads xi only through xi'_j, so the state after
    column j is fixed by (lam, m, xi'_{lam_1+1}, ..., xi'_j): a node maps
    xi'_j to that state and the node of column j - 1.  The loop takes every
    state it finds and fills the rest in with ``setdefault``, down to column
    2, one column at a time.  The state after column 1 is never stored: it is
    fixed by all of xi' that the chain reads, so an alpha that reaches it
    again is a memo hit unless its xi differs only in parts above lam_1 + 1.
    Stored states are never mutated.
    """
    m, n = len(xi), len(lam)
    cols, width = _frame(lam, twin)
    xi_cols = (0,) + conjugate(xi) + (0,) * (lam[0] + 1)      # xi'_j from j = 1
    vec, tw, s = [1], [0] if twin else None, 0
    for j in range(lam[0] + 1, 0, -1):
        if node is not None:
            hit = node.get(xi_cols[j])
            if hit is not None:
                (vec, tw, s), node = hit
                continue
        rows, top = _column_matrix(cols[j], cols[j + 1], n - m - 1 + xi_cols[j], width)
        vec = [sum(map(mul, row, vec)) for row in rows]
        if twin:
            tw = [sum(map(mul, row, tw)) + c * v for c, (row, v) in enumerate(zip(rows, vec))]
        s += top
        if node is not None and j > 1:
            node = node.setdefault(xi_cols[j], ((vec, tw, s), {}))[1]
    return _unpack(sum(tw if twin else vec), s, width)


def _lead_period_label(xi, lam):
    """The label L: lam with its first part lowered by 2 as often as the lead
    run allows.  For labels of one length n, L_1 is the lowest of lam_1's
    parity with L_1 >= low = max(lam_2 + 1, xi_1), or max(0, xi_1) at n = 1,
    and L = lam when lam_1 - 2 < low; at len(xi) > n, L = lam.  With P = (lam_1 - L_1) / 2 pairs removed
    and L + 2 = (L_1 + 2, L_2, ...),

        alpha(A_xi, A_lam) = alpha(A_xi, A_L),
        twin(lam) = twin(L) + P (twin(L + 2) - twin(L))     (the twin lemma),

    where twin is the sum weighted by |mu|, which ``derived_density`` reads
    at xi = 0^n.  This is the one place the lead run's involution is used.

    Proof: (lam+1)' and (L+1)' agree on the columns j <= L_1 + 1, so the
    chains share M_1, ..., M_(L_1).  As L_1 + 1 >= lam_2 + 2 (lam_2 read as
    -1 at n = 1), the columns
    L_1 + 1..lam_1 of lam are in the lead run (l1 = l2 = 1), and as they lie
    above xi_1, xi'_j = 0 and x = -1 there at m = n.  Such a column is the one
    map M = [[1, 0], [u, -1]], u = q^-1 - 1, with frame 0, and M M = I.  So
    the chain of lam is M_1 ... M_(L_1) M^(2P) M' e_0 and the chain of L is
    M_1 ... M_(L_1) M' e_0, where M' is the (1, 0) column lam_1 + 1 of lam
    and L_1 + 1 of L, at x = -1 in both: the values agree.  On (vec; tw) a
    twin column is the block map T = [[M, 0], [C M, M]], with C = diag(0, 1)
    the weight it adds, so T^2 = [[I, 0], [N, I]] with N = C + M C M and
    T^(2P) = [[I, 0], [P N, I]].  Every other column is linear, so the twin
    of lam is affine in P, and P = 0, 1 fix it.  The self-density
    alpha(A_xi, A_xi) does not read lam, so normalized densities agree too,
    and L_1 keeps the weight's parity and stays >= xi_1, so
    ``provable_zero`` rules both labels alike.
    """
    low = max(lam[1] + 1 if len(lam) > 1 else 0, xi[0])
    if len(xi) > len(lam) or lam[0] - 2 < low:
        return lam
    return (low + (lam[0] - low) % 2,) + lam[1:]


class HironakaEngine:
    """Memoizing evaluator for alpha(A_xi, A_lam) and its normalization.

    The engine holds the alpha memo on (xi, lam), one prefix tree of
    ``_column_chain`` states per (label chained, len(xi)) (see there), and
    the set of labels xi whose direct self-density ``laurent_value`` has
    checked.  The label chained is ``_lead_period_label(xi, lam)``, which
    has the same alpha, and is lam unless len(xi) = len(lam).  Alphas whose xi' agree on the columns j..lam_1+1 share the state
    after column j, so a sweep of many xi against one lam runs each distinct
    column once.  The tree holds at most lam_1 states per memoized alpha,
    lam_1 of the label chained.  Nodes and
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
            low = _lead_period_label(xi, lam)
            root = self._prefix.setdefault((low, len(xi)), {})
            val = self._alpha[xi, lam] = _column_chain(xi, low, False, root)
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
        it passes.  One ownership rule holds for both engines: no caller
        mutates a dict that ``laurent_value`` returns, since the reducer's is
        its memo's own; a caller that sums into a value copies it first."""
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
    and the slow reference that the chain's column matrices are checked against."""
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


@lru_cache(maxsize=4096)
def _derived_chain(lam):
    """The derived density of one label from its own twin chain, every column,
    as a shared Laurent dict (never mutate it).  Cached per label: the
    geometry sums ask the same lowered labels again across classes."""
    n = len(lam)
    twin = _over_self_density(_column_chain((0,) * n, lam, True), (0,) * n)
    return {e: -c for e, c in twin.items()}


def _derived_laurent(lam):
    """``derived_density`` as a new Laurent dict, the form the geometry sums add.

    It chains the lowered label L = ``_lead_period_label(0^n, lam)`` and, when
    P = (lam_1 - L_1) / 2 pairs were removed, L + 2 = (L_1 + 2, L_2, ...), and
    extrapolates by the twin lemma there: D(lam) = (1 - P) D(L) + P D(L + 2),
    since the division by the self-density is linear.
    """
    lam = check_partition(lam)
    if weight(lam) % 2 == 0:
        raise ValueError(f"need an odd weight, got {lam} of weight {weight(lam)}")
    low = _lead_period_label((0,) * len(lam), lam)
    pairs = (lam[0] - low[0]) // 2
    out = lau_iadd_scaled({}, _derived_chain(low), scale=1 - pairs)
    if pairs:
        lau_iadd_scaled(out, _derived_chain((low[0] + 2,) + low[1:]), scale=pairs)
    return out
