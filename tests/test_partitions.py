"""Partition statistics, special constructions, and the d-coefficients."""

import itertools
import random
from fractions import Fraction

import numpy
import pytest

from hermdens.hironaka import alpha
from hermdens.partitions import (
    check_partition,
    conj_inner_product,
    conjugate,
    conjugate_part,
    d_coefficients,
    format_partition,
    mu_lk,
    parse_partition,
    partitions_first_part,
    partitions_fixed_length,
    stats,
    trailing_zeros,
    weight,
    xi_plus,
)
from hermdens.qalgebra import ONE, neg_q_power


def test_validation():
    assert check_partition([3, 2, 0]) == (3, 2, 0)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    with pytest.raises(ValueError):
        check_partition(())


def test_non_integer_parts_raise():
    # a part is converted by operator.index, never truncated to another label
    for parts in ([2.7, 0], (Fraction(5, 2), 1), (3.0,), ("3",)):
        with pytest.raises(ValueError, match="integers"):
            check_partition(parts)
    with pytest.raises(ValueError):
        alpha((2.7, 0), (3, 1))
    assert check_partition([True, 0]) == (1, 0)
    assert check_partition(numpy.array([3, 1])) == (3, 1)
    assert parse_partition(" 3, 1") == (3, 1)
    for text in ("2.5,1", "3,", "a"):
        with pytest.raises(ValueError, match="bad partition"):
            parse_partition(text)


def test_text_roundtrip():
    assert parse_partition("8,3,2") == (8, 3, 2)
    assert format_partition((3, 0)) == "3,0"
    assert parse_partition("3,0") != parse_partition("3")


def test_conjugate_part_examples():
    assert conjugate_part((4, 3), 4) == 1
    assert conjugate_part((4, 3), 5) == 0
    assert conjugate_part((2, 2, 0), 1) == 2


def test_stats_examples():
    assert stats((4, 3)) == (7, 3, (5, 4))
    assert stats((0, 0)) == (0, 0, (1, 1))
    assert stats((2, 1, 0)) == (3, 1, (3, 2, 1))


def test_conj_inner_product_examples():
    assert conj_inner_product((1,), (1,)) == 1
    assert conj_inner_product((0, 0), (3, 2)) == 0
    # (2,1)' = (2,1), (2,2)' = (2,2): 2*2 + 1*2 = 6
    assert conj_inner_product((2, 1), (2, 2)) == 6


def test_xi_plus_examples():
    assert xi_plus((4, 3, 0, 0), 1, 1) == (4, 3, 2, 1)
    assert xi_plus((4, 1, 0, 0), 2, 0) == (4, 2, 2, 1)
    assert xi_plus((4, 3, 0, 0), 0, 0) == (4, 3, 0, 0)
    with pytest.raises(ValueError):
        xi_plus((4, 3, 0, 0), 2, 1)


def test_mu_lk_examples():
    assert mu_lk((3, 2), 2, 1, 4) == (3, 2, 1, 0)
    assert mu_lk((), 2, 2, 2) == (1, 1)
    assert mu_lk((2,), 0, 0, 1) == (2,)
    with pytest.raises(ValueError):
        mu_lk((1, 2), 1, 0, 3)


def test_d_coefficients_examples():
    for n in (1, 2, 3, 5):
        for s in range(1, n + 1):
            assert d_coefficients(n, s)[0] == ONE
    for n in (1, 2, 4):
        assert d_coefficients(n, 1)[1] == -neg_q_power(-n)
    for n in (2, 3, 5):
        assert d_coefficients(n, 2)[2] == neg_q_power(-(2 * n - 1))
    with pytest.raises(ValueError):
        d_coefficients(2, 3)


def test_d_coefficients_defining_product():
    # sum_i d_i z^i equals prod_j (1 - (-q)^(-n+j) z) numerically at q = 3
    q0 = Fraction(3)
    for n, s in ((2, 2), (3, 1), (4, 3), (5, 5)):
        ds = [c.evaluate_at(q0) for c in d_coefficients(n, s)]
        for z in (Fraction(1), Fraction(-3), Fraction(9)):
            lhs = sum(d * z ** i for i, d in enumerate(ds))
            rhs = Fraction(1)
            for j in range(s):
                rhs *= 1 - Fraction(-3) ** (-n + j) * z
            assert lhs == rhs, (n, s, z)


def test_conjugation_involution():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        lam = tuple(sorted((rng.randint(0, 8) for _ in range(n)), reverse=True))
        cc = conjugate(conjugate(lam))
        padded = cc + (0,) * (len(lam) - len(cc))
        assert padded == lam, lam


def test_weight_equals_conjugate_sum():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 6)
        lam = tuple(sorted((rng.randint(0, 9) for _ in range(n)), reverse=True))
        assert weight(lam) == sum(conjugate(lam))


def test_xi_plus_always_valid():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = rng.randint(1, n)
        head = tuple(sorted((rng.randint(1, 6) for _ in range(n - s)), reverse=True))
        xi = head + (0,) * s
        a = rng.randint(0, s)
        b = rng.randint(0, s - a)
        out = xi_plus(xi, a, b)
        check_partition(out)
        assert len(out) == n
        assert weight(out) == weight(xi) + 2 * a + b
        assert trailing_zeros(out) == s - a - b


def _first_part_reference(level, length, min_part):
    # the parts after the first, as a multiset of values in [min_part, level]
    if level < min_part:
        return []
    return [(level,) + rest for rest in itertools.combinations_with_replacement(
        range(level, min_part - 1, -1), length - 1)]


def test_bounded_first_part_is_the_filtered_enumeration():
    # with the level as every bound: every partition of the level, in the
    # reference order; with a smaller bound, exactly those inside it
    rng = random.Random(15)
    cases = [(5, 3, 1, (4, 4, 4)), (3, 2, 2, (3, 1)), (2, 1, 1, (0,)), (4, 4, 1, (6, 5, 0, 0))]
    for _ in range(300):
        length = rng.randint(1, 4)
        cases.append((rng.randint(0, 7), length, rng.choice((1, 2)),
                      tuple(sorted((rng.randint(0, 7) for _ in range(length)), reverse=True))))
    empty = 0
    for level, length, min_part, bound in cases:
        full = _first_part_reference(level, length, min_part)
        assert list(partitions_first_part(level, length, min_part, (level,) * length)) == full
        inside = [p for p in full if all(x <= c for x, c in zip(p, bound))]
        got = list(partitions_first_part(level, length, min_part, bound))
        assert got == inside, (level, length, min_part, bound)
        if level > bound[0]:
            assert got == []
        empty += not got and bool(full)
    assert empty >= 50


def test_fixed_length_partitions_reject_a_negative_lower_bound():
    assert list(partitions_fixed_length(2, 0, 1)) == [(1, 1), (1, 0), (0, 0)]
    assert list(partitions_fixed_length(2, 1, 0)) == []
    # raised at the call, before any tuple is made
    with pytest.raises(ValueError, match="lower bound -1"):
        partitions_fixed_length(2, -1, 0)
