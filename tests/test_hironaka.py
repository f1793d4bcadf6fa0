"""Direct density evaluation: fixtures, inner factors, normalization, self-densities."""

import gc
import itertools
import os
import random
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hermdens import hironaka, qalgebra
from hermdens.hironaka import (
    HironakaEngine,
    _coefficient_bound,
    _column_chain,
    _column_matrix,
    _divide_one_minus_t,
    _frame,
    _lead_period_label,
    _unpack,
    alpha,
    derived_density,
    I_j,
    normalized,
    self_density_closed,
)
from hermdens.partitions import (
    conjugate,
    conjugate_part,
    lambda_ns_elements,
    n_stat,
    partitions_fixed_length,
    partitions_in_box,
    provable_zero,
    tilde,
    weight,
)
from hermdens.qalgebra import (
    ONE, Q, ZERO, RatFunc, lau_iadd_scaled, lau_mul, neg_q_power)
from hermdens.relations import ReductionEngine, fill_pattern, theorem_terms, verify_relation

from conftest import match_pattern


def _unit(k):
    # (1 + 1/q^k) for k > 0, (1 - 1/q^|k|) for k < 0
    return ONE + (1 if k > 0 else -1) * ONE / Q ** abs(k)


def test_alpha_intro_fixture():
    assert alpha((4, 0), (4, 2)) == Q ** 6 * _unit(1) ** 2


def test_alpha_unimodular_fixtures():
    assert alpha((0,), (0,)) == _unit(1)
    assert alpha((0, 0), (0, 0)) == _unit(1) * _unit(-2)
    assert alpha((0, 0, 0), (0, 0, 0)) == _unit(1) * _unit(-2) * _unit(3)
    assert alpha((0, 0, 0, 0), (0, 0, 0, 0)) == _unit(1) * _unit(-2) * _unit(3) * _unit(-4)


def test_alpha_rank2_self_fixtures():
    assert alpha((1, 0), (1, 0)) == Q * _unit(1) ** 2
    assert alpha((1, 1), (1, 1)) == Q ** 4 * _unit(1) * _unit(-2)
    assert alpha((2, 1), (2, 1)) == Q ** 5 * _unit(1) ** 2
    assert alpha((2, 2), (2, 2)) == Q ** 8 * _unit(1) * _unit(-2)


def _alpha_box_reference(xi, lam):
    """Hironaka's formula summed once per mu in the box tilde(lam): the reference for alpha."""
    m, n = len(xi), len(lam)
    lt = tilde(lam)
    # every mu in the sum satisfies mu <= lt, so the product cutoff is
    # uniformly lam_1 + 1
    jmax = lam[0] + 1
    lt_conj = [0] + [conjugate_part(lt, j) for j in range(1, jmax + 3)]
    xi_conj = [0] + [conjugate_part(xi, i) for i in range(1, jmax + 2)]
    acc = {}
    for mu in partitions_in_box(lt):
        w = weight(mu)
        mu_conj = [0] + [conjugate_part(mu, j) for j in range(1, jmax + 2)]
        prod = {0: 1}
        for j in range(1, jmax + 1):
            prod = lau_mul(prod, hironaka._inner_laurent(
                lt_conj[j], lt_conj[j + 1], mu_conj[j], mu_conj[j + 1]))
            if not prod:
                break
        if not prod:
            continue
        ip = sum(xi_conj[i] * mu_conj[i] for i in range(1, (mu[0] if mu else 0) + 1))
        e = -n_stat(mu) + (n - m - 1) * w + ip
        lau_iadd_scaled(acc, prod, shift=e, scale=-1 if (w + e) % 2 else 1)
    return RatFunc.from_laurent(acc)


def _labels(draw, length):
    return tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=length, max_size=length)),
                        reverse=True))


@st.composite
def _label_pairs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 2))
    return _labels(draw, m), _labels(draw, n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_label_pairs())
def test_alpha_chain_sum_matches_box_reference(pair):
    xi, lam = pair
    assert HironakaEngine().alpha(xi, lam).to_json() == _alpha_box_reference(xi, lam).to_json()


def test_alpha_chain_sum_matches_box_reference_on_larger_labels():
    # beyond the hypothesis strategy's n <= 4 and parts <= 6; each box
    # tilde(lam) is kept to at most 5000 partitions
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 6)
        xi, lam = (tuple(sorted((rng.randint(0, 9) for _ in range(k)), reverse=True))
                   for k in (rng.randint(n, n + 2), n))
        if sum(1 for _ in itertools.islice(partitions_in_box(tilde(lam)), 5001)) > 5000:
            continue
        assert HironakaEngine().alpha(xi, lam) == _alpha_box_reference(xi, lam), (xi, lam)
        checked += 1


def _dict_qbinomial_transform(terms):
    """S_v = sum_{u >= v} [u; v] a_u on Laurent dicts: the reference for the
    packed transform.  ``terms[u]`` is None or a lazy triple (d, shift, sign)
    standing for sign * q^shift * d, and so is each S_v."""
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


def _chain_dict_reference(xi, lam, twin):
    """The column chain with Laurent-dict entries, one dict addition per
    shifted addition: the reference for ``_column_chain``'s packed kernel."""
    m, n = len(xi), len(lam)
    lt = tilde(lam)
    chains = [[({0: 1}, 0, 1)], [None]] if twin else [[({0: 1}, 0, 1)]]
    for j in range(lam[0] + 1, 0, -1):
        l1, l2 = conjugate_part(lt, j), conjugate_part(lt, j + 1)
        x = n - m - 1 + conjugate_part(xi, j)
        for k, chain in enumerate(chains):
            inner = [None] * (l1 + 1)
            for v, term in enumerate(_dict_qbinomial_transform(chain[::-1])):
                if term is not None:
                    i = l2 - v
                    e = i * (2 * l2 + 1 - i) // 2
                    inner[l1 - i] = (term[0], term[1] + e, -term[2] if e % 2 else term[2])
            chain = chains[k] = [None] * (l1 + 1)
            for v, term in enumerate(_dict_qbinomial_transform(inner)):
                if term is not None:
                    c = l1 - v
                    e = x * c - c * (c - 1) // 2
                    chain[c] = (term[0], term[1] + e, -term[2] if (c + e) % 2 else term[2])
        if twin:
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


def _random_label(rng, length, top):
    return tuple(sorted((rng.randint(0, top) for _ in range(length)), reverse=True))


def _chain_labels():
    # seeded pairs with n <= 8, parts <= 20 and m <= n + 2, the widest
    # label (20, 18, ..., 6), and the unit class against rank-4 classes with
    # a first part >= 30, as the derived densities of the geometry ask them
    rng = random.Random(19)
    pairs = [((0,) * 8, (20, 18, 16, 14, 12, 10, 8, 6)), ((1, 1, 0), (20, 18, 16))]
    pairs += [((0, 0, 0, 0), lam) for lam in
              ((30, 1, 0, 0), (31, 1, 1, 1), (33, 3, 1, 0), (34, 4, 2, 1), (41, 2, 1, 1))]
    while len(pairs) < 120:
        n = rng.randint(1, 8)
        pairs.append((_random_label(rng, rng.randint(n, n + 2), rng.choice((4, 12, 20))),
                      _random_label(rng, n, rng.choice((4, 12, 20)))))
    return pairs


def test_packed_chain_matches_dict_reference():
    # the value chain against the reference value, the twin chain against the
    # reference twin: one dict each, the lane its caller reads
    for xi, lam in _chain_labels():
        for twin in (False, True):
            got = _column_chain(xi, lam, twin)
            want = _chain_dict_reference(xi, lam, True)[twin]
            assert isinstance(got, dict), (xi, lam, twin)
            assert RatFunc.from_laurent(got).to_json() == RatFunc.from_laurent(want).to_json(), \
                (xi, lam, twin)


def test_frame_width_is_the_narrowest_that_holds_the_bound():
    # balanced digits of width B hold [-2^(B-1), 2^(B-1)), and the bound fits
    # exactly when 2^(B-1) > bound
    for _, lam in _chain_labels():
        for twin in (False, True):
            width = _frame(lam, twin)[1]
            assert width == _coefficient_bound(lam, twin).bit_length() + 1, (lam, twin)


def test_coefficient_bound_holds():
    # every coefficient of the value and of the twin fits the width's
    # balanced digits; on small boxes the bound is at least the sum over mu
    # of the norms of the summands, the quantity it bounds
    rng = random.Random(1919)
    boxed = 0
    for xi, lam in _chain_labels():
        for twin, sums in enumerate(_chain_dict_reference(xi, lam, True)):
            half = 2 ** _coefficient_bound(lam, twin).bit_length()
            assert all(abs(c) < half for c in sums.values()), (xi, lam, twin)
    while boxed < 40:
        n = rng.randint(1, 5)
        lam = _random_label(rng, n, 8)
        lt = tilde(lam)
        box = list(itertools.islice(partitions_in_box(lt), 5001))
        if len(box) > 5000:
            continue
        norms = [0, 0]
        for mu in box:
            norm = 1
            for j in range(1, lam[0] + 2):
                inner = hironaka._inner_laurent(conjugate_part(lt, j), conjugate_part(lt, j + 1),
                                                conjugate_part(mu, j), conjugate_part(mu, j + 1))
                norm *= sum(abs(c) for c in inner.values())
            norms[0] += norm
            norms[1] += weight(mu) * norm
        assert _coefficient_bound(lam, False) >= norms[0], lam
        assert _coefficient_bound(lam, True) >= norms[1], lam
        boxed += 1


def _relaxed_bound_reference(lam, twin):
    # the width bound before the exact l1 sum: w_j[c] <= R_j max_c2 w_{j+1}[c2],
    # R_j the largest row sum of column j, over n + 1 heights of column 1,
    # and a twin weight |mu| <= |lam| + n
    cols = conjugate(tilde(lam)) + (0,)
    bound = len(lam) + 1
    for l1, l2 in zip(cols, cols[1:]):
        bound *= max(sum(comb(l2 - c2, l2 - i) * comb(l1 - i, l1 - c)
                         for c2 in range(l2 + 1) for i in range(c2, min(l2, c) + 1))
                     for c in range(l1 + 1))
    return bound * (weight(lam) + len(lam)) if twin else bound


def test_coefficient_bound_is_the_exact_l1_sum():
    # on the seeded boxes of test_coefficient_bound_holds the bound is the
    # sum over mu of the norms of the summands, and the |mu|-weighted twin of
    # it, exactly; it is never above the relaxed bound
    rng = random.Random(1919)
    boxed = 0
    while boxed < 40:
        n = rng.randint(1, 5)
        lam = _random_label(rng, n, 8)
        lt = tilde(lam)
        box = list(itertools.islice(partitions_in_box(lt), 5001))
        if len(box) > 5000:
            continue
        norms = [0, 0]
        for mu in box:
            norm = 1
            for j in range(1, lam[0] + 2):
                inner = hironaka._inner_laurent(conjugate_part(lt, j), conjugate_part(lt, j + 1),
                                                conjugate_part(mu, j), conjugate_part(mu, j + 1))
                norm *= sum(abs(c) for c in inner.values())
            norms[0] += norm
            norms[1] += weight(mu) * norm
        for twin in (False, True):
            assert _coefficient_bound(lam, twin) == norms[twin], (lam, twin)
        boxed += 1
    for _, lam in _chain_labels():
        for twin in (False, True):
            assert _coefficient_bound(lam, twin) <= _relaxed_bound_reference(lam, twin), lam


def test_chain_at_the_exact_width_equals_the_chain_at_the_relaxed_width(monkeypatch):
    # the chain reads its width off _frame, so the relaxed width goes in there
    rng = random.Random(2929)
    lams = [(60, 25, 13, 7), (20, 18, 16, 14, 12, 10, 8, 6)]
    lams += [_random_label(rng, n, rng.choice((4, 12))) for n in range(1, 9) for _ in range(4)]
    frame = hironaka._frame
    for lam in lams:
        n = len(lam)
        for xi in ((0,) * n, _random_label(rng, n + rng.randint(0, 2), lam[0] + 2)):
            for twin in (False, True):
                cols, width = frame(lam, twin)
                relaxed = _relaxed_bound_reference(lam, twin).bit_length() + 2
                assert width <= relaxed, lam
                exact = _column_chain(xi, lam, twin)
                with monkeypatch.context() as patch:
                    patch.setattr(hironaka, "_frame", lambda lam, twin: (cols, relaxed))
                    assert exact == _column_chain(xi, lam, twin), (xi, lam, twin)


def _lead_run_labels():
    # labels with a long lead run (the columns with l1 = l2 = 1): at m = n,
    # and at m > n with x = -1 on all of the run or only inside it; seeded
    # ones around the run's ends, lam_1 - lam_2 from 0 to 40
    pairs = [((0, 0, 0, 0), (200, 3, 1, 1)), ((0, 0, 0), (57, 0, 0)), ((0,), (57,)),
             ((3, 1, 1), (57, 0, 0)), ((1, 1, 1, 0), (10, 5, 0, 0)), ((50, 0), (33,)),
             ((60, 2, 0), (40, 3)), ((30, 9, 4, 0), (45, 6, 2)), ((60, 60, 0), (40, 3))]
    rng = random.Random(3333)
    while len(pairs) < 60:
        n = rng.randint(1, 4)
        lam = _random_label(rng, n, 8)
        lam = (lam[0] + rng.randint(0, 40),) + lam[1:]
        m = n + rng.choice((0, 0, 1, 2))
        pairs.append((_random_label(rng, m, rng.choice((3, lam[0] + 2))), lam))
    return pairs


def _paired_columns(xi, lam):
    # the columns j <= lam_1 with l1 = l2 = 1 and x = n - m - 1 + xi'_j = -1,
    # from the definitions: one run, whose pairs the chain skips
    lt, m, n = tilde(lam), len(xi), len(lam)
    run = [j for j in range(1, lam[0] + 1)
           if conjugate_part(lt, j) == conjugate_part(lt, j + 1) == 1
           and n - m - 1 + conjugate_part(xi, j) == -1]
    assert not run or run == list(range(run[0], run[-1] + 1)), (xi, lam)
    return len(run) // 2 * 2


def test_chain_takes_the_lead_run_in_pairs(monkeypatch):
    # both lanes against the dict reference, which runs every column, and
    # the chain asks no matrix for a column of a pair
    matrix = hironaka._column_matrix
    paired = 0
    for xi, lam in _lead_run_labels():
        value, weighted = _chain_dict_reference(xi, lam, True)
        for twin, want in ((False, value), (True, weighted)):
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(hironaka, "_column_matrix",
                              lambda *key: calls.append(key) or matrix(*key))
                got = _column_chain(xi, lam, twin)
            assert RatFunc.from_laurent(got) == RatFunc.from_laurent(want), (xi, lam, twin)
            # a cold width bound reads matrices at width 0, which no chain runs at
            columns = [key for key in calls if key[3]]
            assert len(columns) == lam[0] + 1 - _paired_columns(xi, lam), (xi, lam, twin)
        paired += _paired_columns(xi, lam) > 0
    assert paired >= 35
    # the twin chain of a rank-4 derived density runs the columns below the
    # run, one odd column and the top one, whatever lam_1
    assert _paired_columns((0, 0, 0, 0), (200, 3, 1, 1)) == 196


def _coefficient_bound_by_columns(lam, twin):
    # the width bound one column at a time, the lead run too: the reference
    # for _coefficient_bound, which takes that run in closed form
    cols = conjugate(tilde(lam)) + (0,)
    w, wt = [1], [0]
    for j in range(len(cols) - 2, -1, -1):
        rows = _column_matrix(cols[j], cols[j + 1], 0, 0)[0]
        w = [abs(sum(a * b for a, b in zip(row, w))) for row in rows]
        if twin:
            wt = [abs(sum(a * b for a, b in zip(row, wt))) + c * w[c]
                  for c, row in enumerate(rows)]
    return sum(wt) if twin else sum(w)


def test_coefficient_bound_takes_the_lead_run_in_closed_form():
    # the bound, and so the width, equals the column-by-column bound on 800
    # seeded label/lane pairs, lead runs of every length from 0 up
    rng = random.Random(4444)
    lams = [(0,), (1,), (2,), (3,), (5, 5), (5, 4), (5, 3), (200, 3, 1, 1), (57, 0, 0)]
    lams += [lam for _, lam in _lead_run_labels()]
    while len(lams) < 400:
        lams.append(_random_label(rng, rng.randint(1, 6), rng.choice((5, 30, 90))))
    for lam in lams:
        for twin in (False, True):
            want = _coefficient_bound_by_columns(lam, twin)
            assert _coefficient_bound(lam, twin) == want, (lam, twin)
            assert _frame(lam, twin)[1] == want.bit_length() + 1, (lam, twin)


def _lead_period_low(xi, lam):
    # the threshold: the identity lowers lam_1 while lam_1 - 2 >= this, which
    # is max(lam_2 + 1, xi_1), and max(0, xi_1) at n = 1
    return max(lam[1] + 1 if len(lam) > 1 else 0, xi[0])


def _lead_period_pairs(rng, count):
    # seeded (xi, lam) of one length past the threshold: every other pair
    # exactly at it, the rest up to 6 beyond it
    pairs = []
    while len(pairs) < count:
        n = rng.randint(1, 4)
        xi, rest = _random_label(rng, n, 8), _random_label(rng, n - 1, 6)
        low = _lead_period_low(xi, (0,) + rest)
        pairs.append((xi, (low + 2 + (len(pairs) % 2) * rng.randint(1, 6),) + rest))
    return pairs


def test_lead_period_identity():
    # alpha(A_xi, A_lam) = alpha(A_xi, A_(lam_1 - 2, lam_2, ...)) past the
    # threshold, by the direct engine, whose tree runs every column, and by
    # the reducer's normalized values; _lead_period_label lowers lam_1 to the
    # lowest of its parity at or above the threshold, and no further
    direct, reducer = HironakaEngine(), ReductionEngine()
    nonzero = 0
    for xi, lam in _lead_period_pairs(random.Random(5555), 160):
        low = _lead_period_low(xi, lam)
        lower = (lam[0] - 2,) + lam[1:]
        canon = _lead_period_label(xi, lam)
        assert canon[1:] == lam[1:] and (lam[0] - canon[0]) % 2 == 0, (xi, lam)
        assert low <= canon[0] < low + 2, (xi, lam)
        for label in (low, low + 1):
            kept = (label,) + lam[1:]
            assert _lead_period_label(xi, kept) == kept, (xi, kept)
        want = direct.laurent_alpha(xi, lam)
        assert direct.laurent_alpha(xi, lower) == want, (xi, lam)
        assert direct.laurent_alpha(xi, canon) == want, (xi, lam)
        want = reducer.laurent_value(xi, lam)
        assert reducer.laurent_value(xi, lower) == want, (xi, lam)
        assert reducer.laurent_value(xi, canon) == want, (xi, lam)
        nonzero += bool(want)
    assert nonzero >= 40


def _pack(d, s, width):
    # sum_e c q^e = t^-s sum_e c (-1)^e t^(s-e) for t = (-q)^-1, s >= every e
    return sum((c if e % 2 == 0 else -c) << (s - e) * width for e, c in d.items()), s


def _random_laurent(rng):
    return {rng.randint(-6, 6): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 4))}


def test_column_matrix_matches_inner_factor():
    # every entry is the twisted inner factor (-1)^c (-q)^(x c - C(c, 2))
    # I(l1, l2, c, c2), packed in the matrix's frame; the frame is the lowest
    # power of t of any entry, and no row reaches past c2 = min(c, l2), where
    # I vanishes.  The packed ints are compared at narrow widths too: packing
    # is a ring map, so equality holds whether or not the digits overflow, and
    # width 0 (t = 1) is the one _coefficient_bound reads
    for l1 in range(9):
        for l2 in range(l1 + 1):
            for x in range(-4, 4):
                for width in (0, 2, 7, 16, 40):
                    rows, top = _column_matrix(l1, l2, x, width)
                    assert len(rows) == l1 + 1, (l1, l2)
                    lowest = []
                    for c, row in enumerate(rows):
                        assert len(row) == min(c, l2) + 1, (l1, l2, c)
                        e = x * c - c * (c - 1) // 2
                        for c2 in range(l2 + 1):
                            want = {k + e: v if (c + e) % 2 == 0 else -v for k, v in
                                    hironaka._inner_laurent(l1, l2, c, c2).items()}
                            if c2 >= len(row):
                                assert want == {}, (l1, l2, c, c2)
                                continue
                            assert row[c2] == _pack(want, top, width)[0], (l1, l2, x, width, c, c2)
                            lowest.append(max(want))
                    assert top == max(lowest), (l1, l2, x, width)


def test_unpack_reads_balanced_digits():
    # P(t) = sum_k c_k t^k with every c_k in [-2^(width-1), 2^(width-1)), the
    # edges included, read back as the q-dict of t^-s P(t)
    rng = random.Random(162)
    for width in (2, 3, 7, 31, 64):
        half = 2 ** (width - 1)
        for _ in range(40):
            digits = [rng.choice((-half, half - 1, rng.randint(-half, half - 1)))
                      for _ in range(rng.randint(0, 12))]
            s = rng.randint(-6, 6)
            want = {s - k: c if (s - k) % 2 == 0 else -c for k, c in enumerate(digits) if c}
            p = sum(c << k * width for k, c in enumerate(digits))
            assert _unpack(p, s, width) == want, (width, digits)


def test_division_by_unit_factors_is_exact_or_raises():
    rng = random.Random(163)
    for _ in range(40):
        d = _random_laurent(rng)
        k = rng.randint(1, 6)
        factor = {0: 1, -k: 1 if k % 2 else -1}          # 1 - (-q)^-k
        assert _divide_one_minus_t(lau_mul(d, factor), k) == d
        with pytest.raises(ArithmeticError):
            # not a multiple: d (1 - (-q)^-k) + q^(max d + 1)
            _divide_one_minus_t(lau_iadd_scaled(lau_mul(d, factor), {max(d) + 1: 1}), k)
    assert _divide_one_minus_t({}, 3) == {}
    with pytest.raises(ArithmeticError):
        _divide_one_minus_t({0: 1}, 1)


def test_vanishing_relation_at_large_rank():
    # the box tilde(lam) holds 6324 partitions, each costing up to 11 Laurent
    # products in the box sum; the column chain takes one cached packed
    # matrix-vector product per column, 157 big-integer products in all, and
    # one unpack per alpha
    ok, residual = verify_relation(theorem_terms(6, 2, (3, 2, 2, 1, 0, 0)),
                                   (10, 9, 7, 5, 3, 1), HironakaEngine())
    assert ok, residual


def test_alpha_rejects_short_xi():
    with pytest.raises(ValueError):
        alpha((1,), (1, 0))


def test_derived_density_rank2_kudla_rapoport():
    # Kudla-Rapoport (Crelle 2011): the rank-2 intersection number of
    # B = A_(l,k), l + k odd, is 1/2 sum_{i=0..k} q^i (l+k+1-2i), which is
    # dDen(B) by Li-Zhang; all 420 odd-weight classes with l <= 40
    cases = 0
    for l in range(41):
        for k in range(l + 1):
            if (l + k) % 2:
                want = sum((Q ** i * ((l + k + 1 - 2 * i) // 2) for i in range(k + 1)), ZERO)
                assert derived_density((l, k)) == want, (l, k)
                cases += 1
    assert cases == 420


def test_derived_density_cancels_unimodular_parts():
    # alpha(1_N, B + 1) = alpha(1_N, 1) alpha(1_{N-1}, B), so Den(X, B + 1) =
    # Den(X, B): appending unimodular parts (zeros) to lam leaves dDen as it
    # is, at every rank; seeded odd-weight classes of ranks 1-6, parts <= 8
    rng = random.Random(2103)
    classes = set()
    while len(classes) < 60:
        lam = _random_label(rng, rng.randint(1, 6), 8)
        if weight(lam) % 2:
            classes.add(lam)
    for lam in sorted(classes):
        want = derived_density(lam)
        for k in (1, 2):
            assert derived_density(lam + (0,) * k) == want, (lam, k)


def test_derived_density_with_two_unimodular_parts_is_kudla_rapoport():
    # (a, l, 0, 0) cancels to the rank-2 class (a, l), whose dDen is the
    # Kudla-Rapoport form of test_derived_density_rank2_kudla_rapoport
    cases = 0
    for a in range(21):
        for l in range(a + 1):
            if (a + l) % 2:
                want = sum((Q ** i * ((a + l + 1 - 2 * i) // 2) for i in range(l + 1)), ZERO)
                assert derived_density((a, l, 0, 0)) == want, (a, l)
                cases += 1
    assert cases == 110


def _density_polynomial(lam):
    """Den(X, B) for B = A_lam as its coefficients a_0..a_|B| in X, sharing no
    code with the twin: Newton divided differences, in RatFunc, of
    Den(X_k, B) = alpha(1_{n+k}, B) / alpha(1_{n+k}, 1_n) at X_k = (-q)^-k
    (Li-Zhang, in the form of Cho-Yamauchi).  The nodes run to k = |B| + 1,
    and the top difference must vanish: the degree is at most |B|.
    """
    n, top = len(lam), weight(lam)
    eng = HironakaEngine()
    nodes = [neg_q_power(-k) for k in range(top + 2)]
    table = [eng.alpha((0,) * (n + k), lam) / eng.alpha((0,) * (n + k), (0,) * n)
             for k in range(top + 2)]
    newton = [table[0]]
    for j in range(1, top + 2):
        table = [(b - a) / (nodes[i + j] - nodes[i]) for i, (a, b) in enumerate(zip(table, table[1:]))]
        newton.append(table[0])
    assert newton.pop() == ZERO, lam
    # the Newton form in powers of X, by Horner's scheme: P <- P (X - X_j) + c_j
    poly = [newton[-1]]
    for j in range(top - 1, -1, -1):
        poly = [ZERO] + poly
        for i in range(len(poly) - 1):
            poly[i] = poly[i] - nodes[j] * poly[i + 1]
        poly[0] = poly[0] + newton[j]
    return poly


def _derivative_interpolation_reference(lam):
    """dDen(B) = -Den'(1, B), from the interpolated density polynomial."""
    return -sum((a * i for i, a in enumerate(_density_polynomial(lam))), ZERO)


def _interpolation_classes(rng, parity):
    # two seeded classes of each rank 1-6 with the given weight parity, parts <= 3
    classes = []
    for n in range(1, 7):
        while len(classes) < 2 * n:
            lam = _random_label(rng, n, 3)
            if weight(lam) % 2 == parity and lam not in classes:
                classes.append(lam)
    return classes


def test_derived_density_matches_interpolation_reference():
    # a second path for dDen at every rank: plain alphas at |B| + 2 nodes
    classes = _interpolation_classes(random.Random(2201), 1) + [(3, 3, 2, 1, 1, 1)]
    for lam in classes:
        assert derived_density(lam) == _derivative_interpolation_reference(lam), lam


def test_density_polynomial_functional_equation():
    # on both parities Den(X, B) has degree |B| and constant term 1, and
    # Den(X, B) = (-X)^|B| Den(1/X, B), that is a_(|B|-i) = (-1)^|B| a_i
    rng = random.Random(2202)
    for parity in (0, 1):
        for lam in _interpolation_classes(rng, parity)[::2]:
            poly = _density_polynomial(lam)
            sign = -1 if weight(lam) % 2 else 1
            assert len(poly) == weight(lam) + 1 and poly[0] == ONE, lam
            assert poly == [a * sign for a in reversed(poly)], lam


def _times_t_power(d, a, scale=1):
    """scale * t^a * d as a new Laurent dict in q, t = (-q)^-1 = -q^-1."""
    return lau_iadd_scaled({}, d, shift=-a, scale=-scale if a % 2 else scale)


def _den_node_laurent(eng, lam, k):
    """Den(X_k, B) = alpha(1_{n+k}, B) / alpha(1_{n+k}, 1_n) at X_k = t^k, as a
    Laurent dict: the denominator must equal prod_{i=k+1..n+k} (1 - t^i), which
    is checked first; the numerator is then divided by those factors."""
    n = len(lam)
    factors = range(k + 1, n + k + 1)
    den = {0: 1}
    for i in factors:
        den = lau_mul(den, lau_iadd_scaled({0: 1}, _times_t_power({0: 1}, i), scale=-1))
    if eng.laurent_alpha((0,) * (n + k), (0,) * n) != den:
        raise ArithmeticError(f"alpha(1_{n + k}, 1_{n}) is not prod (1 - t^i)")
    val = eng.laurent_alpha((0,) * (n + k), lam)
    for i in factors:
        val = _divide_one_minus_t(val, i)
    return val


def _density_polynomial_laurent(lam):
    """``_density_polynomial`` in Laurent form, with no RatFunc: the Newton
    divisor X_{i+j} - X_i = -t^i (1 - t^j) is a shift and one
    ``_divide_one_minus_t``, which raises on a remainder, and the top
    difference must vanish.  Returns a_0..a_|B| as Laurent dicts."""
    top = weight(lam)
    eng = HironakaEngine()
    table = [_den_node_laurent(eng, lam, k) for k in range(top + 2)]
    newton = [table[0]]
    for j in range(1, top + 2):
        table = [_times_t_power(_divide_one_minus_t(lau_iadd_scaled(dict(b), a, scale=-1), j),
                                -i, scale=-1)
                 for i, (a, b) in enumerate(zip(table, table[1:]))]
        newton.append(table[0])
    assert newton.pop() == {}, lam
    # the Newton form in powers of X, by Horner's scheme: P <- P (X - X_j) + c_j
    poly = [newton[-1]]
    for j in range(top - 1, -1, -1):
        poly = [{}] + poly
        for i in range(len(poly) - 1):
            poly[i] = lau_iadd_scaled(dict(poly[i]), _times_t_power(poly[i + 1], j), scale=-1)
        poly[0] = lau_iadd_scaled(poly[0], newton[j])
    return poly


def _derivative_laurent_reference(lam):
    """dDen(B) = -Den'(1, B) from ``_density_polynomial_laurent``."""
    acc = {}
    for i, a in enumerate(_density_polynomial_laurent(lam)):
        lau_iadd_scaled(acc, a, scale=-i)
    return acc


def test_derived_density_matches_laurent_interpolation_reference():
    # ranks 7-8 and a rank-4 class with a >= 30 (37 nodes), cheap in Laurent
    # form; on small classes the Laurent form meets the RatFunc one
    rng = random.Random(2404)
    classes = [(31, 2, 1, 1), (3, 1, 1, 0), (2, 1)]
    for n in (7, 8):
        drawn = (_random_label(rng, n, 4) for _ in range(40))
        classes += [lam for lam in drawn if weight(lam) % 2][:2]
    for lam in classes:
        ref = _derivative_laurent_reference(lam)
        assert derived_density(lam) == RatFunc.from_laurent(ref), lam
    for lam in classes[1:3]:
        assert [RatFunc.from_laurent(a) for a in _density_polynomial_laurent(lam)] == \
            _density_polynomial(lam), lam


def test_derived_density_rank1():
    for a in (1, 3, 5, 7, 9):
        assert derived_density((a,)) == ONE * ((a + 1) // 2), a


def test_inner_factor_examples():
    # all conjugate indices zero: single i=0 term equal to 1
    assert I_j((2, 1), (3, 1), 9) == ONE
    assert I_j((0,), (0,), 1) == ONE
    assert I_j((1,), (0,), 1) == ONE


def test_inner_factor_refuses_labels_outside_its_domain():
    # mu <= lam + 1 componentwise, at one length: outside the box, a longer
    # mu and a shorter lam each raise, naming both labels
    for mu, lam in (((3,), (1,)), ((1, 1), (1,)), ((0, 0), (0,))):
        with pytest.raises(ValueError, match=re.escape(f"mu={mu}, lam={lam}")):
            I_j(mu, lam, 1)


def test_non_integer_indices_raise():
    # an index is converted by operator.index, as a part is: 1.5 and
    # Fraction(3, 2) raise, naming it, instead of reading as another index
    for j in (1.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match=re.escape(f"got {j!r}")):
            I_j((1,), (1,), j)
        with pytest.raises(ValueError, match=re.escape(f"got {j!r}")):
            conjugate_part((3, 1), j)


def test_inner_factor_is_one_beyond_cutoff():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        lam = tuple(sorted((rng.randint(0, 5) for _ in range(n)), reverse=True))
        mu = tuple(min(x + 1, rng.randint(0, 6)) for x in lam)
        mu = tuple(sorted(mu, reverse=True))
        # the largest j for which I_j(mu, lam) can differ from 1
        cut = max(mu[0], lam[0] + 1)
        for j in (cut + 1, cut + 2, cut + 3):
            assert I_j(mu, lam, j) == ONE


def test_normalized_examples():
    assert normalized((3, 1), (3, 1)) == ONE
    assert normalized((0,), (6,)) == ONE
    assert normalized((2, 0, 0), (3, 3, 2)) == (Q + 1) * (Q ** 6 + Q ** 4 - Q ** 3 + Q ** 2)
    assert normalized((1, 0), (1, 1)) == ZERO


def test_rank1_density_is_constant_on_the_support():
    # the norm map is onto the units of an unramified extension, so
    # alpha(A_x, A_l) = (q+1) q^(x-1) for l >= x, l = x mod 2: the direct
    # formula is the reference for the reduction engine's "base-n1" leaf, 1
    eng = HironakaEngine()
    for l in range(31):
        for x in range(l % 2, l + 1, 2):
            assert eng.alpha((x,), (l,)) == (Q + 1) * Q ** (x - 1), (x, l)
            assert eng.normalized((x,), (l,)) == ONE, (x, l)


def test_normalized_parity_shortcut_agrees_with_full_evaluation():
    rng = random.Random(6)
    eng = HironakaEngine()
    found = 0
    while found < 12:
        n = rng.randint(1, 3)
        xi = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        if (weight(xi) - weight(lam)) % 2 == 0:
            continue
        assert eng.normalized(xi, lam) == ZERO
        assert eng.alpha(xi, lam) == ZERO  # full evaluation agrees
        found += 1


def _normalized_pairs(rng, count):
    # equal-length pairs with n <= 5 and parts <= 8: three in four with xi <= lam
    # componentwise (no support zero), the rest drawn independently
    pairs = []
    for k in range(count):
        n = rng.randint(1, 5)
        xi, lam = _random_label(rng, n, 8), _random_label(rng, n, 8)
        if k % 4:
            xi, lam = tuple(map(min, xi, lam)), tuple(map(max, xi, lam))
        pairs.append((xi, lam))
    return pairs


def test_laurent_value_matches_ratfunc_quotient_and_reducer():
    # the exact division by the closed self-density against the quotient of
    # two RatFunc alphas through the polynomial gcd, and against the reducer
    eng, ref, red = HironakaEngine(), HironakaEngine(), ReductionEngine()
    nonzero = 0
    for xi, lam in _normalized_pairs(random.Random(2401), 400):
        val = eng.laurent_value(xi, lam)
        assert val == (ref.alpha(xi, lam) / ref.alpha(xi, xi)).as_laurent(), (xi, lam)
        assert val == red.laurent_value(xi, lam), (xi, lam)
        nonzero += bool(val)
    assert nonzero > 100


def _disagreeing_factors(real):
    # the closed form with its last factor 1 - (-q)^-k dropped
    return lambda xi: (real(xi)[0], real(xi)[1][:-1])


def test_normalized_refuses_a_closed_form_the_direct_alpha_disputes(monkeypatch):
    real = hironaka._self_density_factors
    for wrong in (_disagreeing_factors(real), lambda xi: (real(xi)[0] + 1, real(xi)[1])):
        monkeypatch.setattr(hironaka, "_self_density_factors", wrong)
        for xi, lam in (((2, 0), (4, 2)), ((0,), (6,)), ((1, 1, 1), (1, 1, 1))):
            with pytest.raises(ArithmeticError, match="closed form"):
                HironakaEngine().normalized(xi, lam)


def test_normalized_refuses_a_disputed_closed_form_without_asserts():
    # the same check in an interpreter that strips assert statements
    script = "\n".join((
        "import sys",
        "from hermdens import hironaka",
        "assert False, 'assert statements are on'",
        "real = hironaka._self_density_factors",
        "hironaka._self_density_factors = lambda xi: (real(xi)[0], real(xi)[1][:-1])",
        "try:",
        "    hironaka.HironakaEngine().normalized((2, 0), (4, 2))",
        "except ArithmeticError:",
        "    sys.exit(0)",
        "sys.exit(1)",
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_engine_checks_each_self_density_once(monkeypatch):
    # the check divides alpha(xi, xi) by the closed factors; a shared engine
    # does so once per distinct xi, and the value once per call
    calls = []
    real = hironaka._over_self_density
    monkeypatch.setattr(hironaka, "_over_self_density",
                        lambda d, xi: calls.append(xi) or real(d, xi))
    pairs = [(xi, lam) for xi, lam in _normalized_pairs(random.Random(2403), 200)
             if provable_zero(xi, lam) is None]
    pairs += pairs[:50]
    eng = HironakaEngine()
    for xi, lam in pairs:
        eng.laurent_value(xi, lam)
    distinct = {xi for xi, _ in pairs}
    assert len(calls) == len(pairs) + len(distinct) < 2 * len(pairs)
    # a check that fails leaves xi unchecked, so the engine refuses it again
    monkeypatch.setattr(hironaka, "_self_density_factors",
                        _disagreeing_factors(hironaka._self_density_factors))
    eng = HironakaEngine()
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="closed form"):
            eng.laurent_value((2, 0), (4, 2))


def test_concurrent_normalized_checks_every_self_density():
    pairs = _normalized_pairs(random.Random(2404), 80)
    eng = HironakaEngine()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda pair: (pair, eng.laurent_value(*pair)), pairs * 3,
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (xi, lam), val in results:
        assert val == HironakaEngine().laurent_value(xi, lam), (xi, lam)
    assert eng._checked == {xi for xi, lam in pairs if provable_zero(xi, lam) is None}


def test_direct_engine_values_a_large_label_in_little_memory():
    # the chain's packed states are as wide as the proven width, so a loose
    # bound costs memory as well as time: 45 MiB here at the relaxed width
    xi, lam = (0, 0), (300, 300)
    HironakaEngine().normalized((0, 0), (2, 2))
    gc.collect()
    tracemalloc.start()
    try:
        val = HironakaEngine().normalized(xi, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    assert val == ReductionEngine().normalized_value(xi, lam)


def test_normalized_takes_no_polynomial_gcd(monkeypatch):
    calls = []
    real = qalgebra.poly_gcd
    monkeypatch.setattr(qalgebra, "poly_gcd", lambda a, b: calls.append(1) or real(a, b))
    eng = HironakaEngine()
    for xi, lam in _normalized_pairs(random.Random(2402), 100):
        eng.normalized(xi, lam)
    assert calls == []
    # the counter does see the gcd of a RatFunc quotient
    eng.alpha((2, 0), (4, 2)) / eng.alpha((2, 0), (2, 0))
    assert calls


def test_alpha_values_are_laurent():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = n + rng.randint(0, 1)
        xi = tuple(sorted((rng.randint(0, 6) for _ in range(m)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 6) for _ in range(n)), reverse=True))
        alpha(xi, lam).as_laurent()  # raises if not Laurent


def test_factorization_on_appended_zero():
    # alpha((xi,0), (lam,0)) = alpha((xi,0), (0,)) * alpha(xi, lam)
    rng = random.Random(8)
    eng = HironakaEngine()
    for _ in range(25):
        n = rng.randint(1, 3)
        xi = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lhs = eng.alpha(xi + (0,), lam + (0,))
        rhs = eng.alpha(xi + (0,), (0,)) * eng.alpha(xi, lam)
        assert lhs == rhs, (xi, lam)


def test_scaling_step():
    # alpha(xi, lam) = q^(n^2) alpha(xi-1, lam-1) when all parts >= 1
    rng = random.Random(9)
    eng = HironakaEngine()
    for _ in range(25):
        n = rng.randint(1, 4)
        xi = tuple(sorted((rng.randint(1, 5) for _ in range(n)), reverse=True))
        lam = tuple(sorted((rng.randint(1, 5) for _ in range(n)), reverse=True))
        lhs = eng.alpha(xi, lam)
        rhs = Q ** (n * n) * eng.alpha(tuple(x - 1 for x in xi), tuple(x - 1 for x in lam))
        assert lhs == rhs, (xi, lam)


def _table_instantiations(n, rows, values):
    for shape, _e, _units in rows:
        slots = sum(1 for s in shape if s == "*")
        fills = [()] if slots == 0 else [
            f for f in itertools.product(values, repeat=slots)
            if all(f[i] >= f[i + 1] for i in range(len(f) - 1))]
        for fill in fills:
            it = iter(fill)
            xi = tuple(next(it) if s == "*" else s for s in shape)
            if all(xi[i] >= xi[i + 1] for i in range(len(xi) - 1)):
                yield xi


def test_self_density_tables_match_direct_evaluation(self_table, table_self_density):
    eng = HironakaEngine()
    for n, values in ((1, ()), (2, (3, 4, 5)), (3, (3, 4, 5)), (4, (3, 4))):
        for xi in _table_instantiations(n, self_table[n], values):
            want = eng.alpha(xi, xi)
            assert self_density_closed(xi, eng) == want, xi
            assert table_self_density(xi, eng) == want, xi


def test_self_density_formula_matches_direct_sweep():
    rng = random.Random(2718)
    eng = HironakaEngine()
    for n, top in ((1, 9), (2, 8), (3, 7), (4, 6), (5, 4), (6, 3), (7, 3)):
        for _ in range(12):
            xi = tuple(sorted((rng.randint(0, top) for _ in range(n)), reverse=True))
            assert self_density_closed(xi) == eng.alpha(xi, xi), xi


def test_self_density_examples():
    assert self_density_closed((2, 1)) == Q ** 5 * _unit(1) ** 2
    # (3,2,1): q^13 (1+1/q)^2 times the rank-1 self-density q(1+1/q)
    assert self_density_closed((3, 2, 1)) == Q ** 13 * _unit(1) ** 2 * (Q * _unit(1))
    assert self_density_closed((2, 2, 2, 2)) == \
        Q ** 32 * _unit(1) * _unit(-2) * _unit(3) * _unit(-4)
    # beyond the old rank-4 tables: q^(5+12+15+14+9) (1+1/q)^5
    assert self_density_closed((5, 4, 3, 2, 1)) == Q ** 55 * _unit(1) ** 5


def test_table_shapes_are_disjoint(self_table):
    for n, rows in self_table.items():
        for xi in _table_instantiations(n, rows, (3, 4)):
            hits = 0
            for shape, _e, _units in rows:
                ok = all((s == "*" and x >= 3) or s == x for s, x in zip(shape, xi))
                bind = match_pattern(shape, xi)
                assert (bind is not None) == ok, (shape, xi)
                if ok:
                    assert fill_pattern(shape, bind) == xi
                hits += ok
            assert hits == 1, xi


def test_concurrent_alpha_calls_are_consistent():
    eng = HironakaEngine()
    cases = [((2, 1), (3, 2)), ((1, 1, 0), (2, 2, 1)), ((4, 0), (4, 2)), ((0, 0), (2, 2))]
    expected = {c: HironakaEngine().alpha(*c) for c in cases}
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda c: (c, eng.alpha(*c)), cases * 8))
    for case, val in results:
        assert val == expected[case]


def test_module_functions_keep_no_memo():
    # hermdens.alpha and hermdens.normalized build a fresh engine per call, so
    # a call's memo and prefix trees go with it; the module-level caches it
    # also fills are warmed first, so that only what the call keeps is counted
    xi, lam = (0, 0), (160, 160)
    HironakaEngine().normalized(xi, lam)
    gc.collect()
    tracemalloc.start()
    try:
        normalized(xi, lam)
        alpha(xi, lam)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2 ** 20, kept


# -- the engine's prefix trees of column states ----------------------------

def _sweep_labels(seed):
    # a few lam per rank n <= 6, each against many xi of length n, n + 1 and
    # n + 2 whose parts reach past lam_1 + 1, so that xi' often agrees on the
    # last columns; shuffled, with repeats
    rng = random.Random(seed)
    pairs = []
    for n in range(1, 7):
        for _ in range(3):
            lam = _random_label(rng, n, 3 if n > 4 else 4)
            for m in (n, n + 1, n + 2):
                pairs += [(_random_label(rng, m, lam[0] + 2), lam) for _ in range(6)]
    pairs += rng.sample(pairs, 30)
    rng.shuffle(pairs)
    return pairs


def _theorem_grid_labels():
    # every (part, lam) that a `verify theorem` sweep over n = 3, 4, every s,
    # xi parts <= 3 and lam parts 1..4 asks of its engine
    labels = set()
    for n in (3, 4):
        lams = list(partitions_fixed_length(n, 1, 4))
        for s in range(1, n + 1):
            for xi in lambda_ns_elements(n, s, 3):
                labels.update((part, lam) for _, part in theorem_terms(n, s, xi).laurent_terms
                              for lam in lams)
    return sorted(labels)


def _tree_states(prefix):
    """Every stored state of an engine's prefix trees, keyed on
    (lam, m, xi'_{lam_1+1}, ..., xi'_j) for the state after column j."""
    out = {}
    stack = list(prefix.items())
    while stack:
        key, node = stack.pop()
        for x, (state, child) in node.items():
            out[key + (x,)] = state
            stack.append((key + (x,), child))
    return out


def _column_suffixes(xi, lam):
    """The keys of the states a chain for (xi, lam) passes, column lam_1 + 1 first."""
    xi_cols = conjugate(xi) + (0,) * (lam[0] + 1)
    return [(lam, len(xi)) + tuple(xi_cols[j - 1:lam[0] + 1][::-1])
            for j in range(lam[0] + 1, 0, -1)]


def test_shared_prefix_sweep_matches_unshared_chain():
    for seed in (1, 2):
        eng = HironakaEngine()
        for xi, lam in _sweep_labels(seed):
            got = eng.laurent_alpha(xi, lam)
            assert got == _column_chain(xi, lam, False), (xi, lam)
            want = _chain_dict_reference(xi, lam, False)[0]
            assert RatFunc.from_laurent(got) == RatFunc.from_laurent(want), (xi, lam)


def test_shared_prefixes_run_each_column_state_once(monkeypatch):
    calls = []
    matrix = hironaka._column_matrix
    monkeypatch.setattr(hironaka, "_column_matrix",
                        lambda *key: calls.append(key) or matrix(*key))
    labels = _theorem_grid_labels()
    eng = HironakaEngine()
    for xi, lam in labels:
        eng.laurent_alpha(xi, lam)
    # a column asks for one matrix; the states after columns >= 2 are stored
    # once per distinct key, and column 1 runs once per memoized alpha.  A
    # cold width bound reads matrices at width 0, which no chain runs at
    calls = [key for key in calls if key[3]]
    stored = {key for xi, lam in labels for key in _column_suffixes(xi, lam)[:-1]}
    columns = sum(lam[0] + 1 for _, lam in labels)
    assert 0 < len(calls) <= len(stored) + len(labels) < columns
    assert _tree_states(eng._prefix).keys() == stored
    assert len(stored) <= sum(lam[0] for _, lam in labels)


def test_concurrent_sweep_leaves_every_tree_state_exact():
    # threads switched often race on the same nodes; a state stored under a
    # node that lost its race would be missing from the tree below
    labels = _sweep_labels(3)
    eng = HironakaEngine()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda pair: (pair, eng.laurent_alpha(*pair)), labels * 3,
                                    timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (xi, lam), val in results:
        assert val == _column_chain(xi, lam, False), (xi, lam)
    # each label's prefix recomputed alone, in a tree of its own
    fresh = {}
    for xi, lam in labels:
        tree = {(lam, len(xi)): {}}
        _column_chain(xi, lam, False, tree[lam, len(xi)])
        fresh.update(_tree_states(tree))
    assert _tree_states(eng._prefix) == fresh
    assert all(type(root) is dict for root in eng._prefix.values())
