"""Exact q-arithmetic: operation examples and algebraic invariants."""

import random
from fractions import Fraction
from math import gcd

import pytest

from hermdens.qalgebra import (
    IntPoly,
    NotLaurentError,
    ONE,
    PoleError,
    Q,
    RatFunc,
    ZERO,
    arith,
    as_laurent,
    evaluate_at,
    gauss_binomial,
    gauss_laurent,
    neg_q_power,
    poly_gcd,
)


def test_neg_q_power_examples():
    assert neg_q_power(0) == ONE
    assert neg_q_power(2) == Q ** 2
    assert neg_q_power(-3) == -(ONE / Q ** 3)
    assert neg_q_power(5) == -(Q ** 5)


def test_gauss_binomial_trivial_edges():
    for u in range(13):
        assert gauss_binomial(u, 0) == ONE
        assert gauss_binomial(u, u) == ONE


def test_gauss_binomial_2_1():
    # (1-(-q)^-2)/(1-(-q)^-1) expands to 1 - 1/q
    assert gauss_binomial(2, 1) == ONE - ONE / Q


def test_gauss_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        gauss_binomial(2, 3)


def test_intpoly_refuses_non_integers():
    # exponents and coefficients convert by operator.index: a float or a
    # Fraction raises instead of truncating to another polynomial
    for build in (lambda: IntPoly({0: 0.5}), lambda: IntPoly({1.5: 2}),
                  lambda: IntPoly({1: 2.7}), lambda: IntPoly({1: Fraction(5, 2)}),
                  lambda: IntPoly.const(2.5), lambda: IntPoly.monomial(0.5, 1),
                  lambda: IntPoly.monomial(1, 1.0)):
        with pytest.raises(TypeError):
            build()
    assert IntPoly({0: 0, 2: 3}) == IntPoly.monomial(3, 2) and str(IntPoly({2: 3})) == "3q^2"
    assert IntPoly.const(0).is_zero and IntPoly.const(-2) == IntPoly({0: -2})


def test_arith_examples():
    assert arith(ONE, -ONE, "add") == ZERO
    assert arith(ONE - ONE / Q, Q, "mul") == Q - 1
    assert arith(Q ** 2 - 1, Q + 1, "div") == Q - 1
    with pytest.raises(ZeroDivisionError):
        arith(ONE, ZERO, "div")
    with pytest.raises(ValueError):
        arith(ONE, ONE, "pow")


def test_evaluate_at_examples():
    assert evaluate_at(ONE + ONE / Q, 3) == Fraction(4, 3)
    assert evaluate_at(Q ** 5 * (Q - 1), 3) == 486
    with pytest.raises(PoleError):
        evaluate_at(ONE / (Q - 3), 3)


def test_as_laurent_examples():
    f = Q ** 6 * (ONE + ONE / Q) ** 2
    assert as_laurent(f) == {6: 1, 5: 2, 4: 1}
    with pytest.raises(NotLaurentError) as info:
        as_laurent(ONE / (Q + 1))
    assert info.value.denominator == IntPoly({1: 1, 0: 1})
    assert as_laurent(ZERO) == {}


def _random_ratfunc(rng, max_deg=12, max_coeff=10 ** 6):
    def poly(allow_zero):
        while True:
            p = IntPoly({e: rng.randint(-max_coeff, max_coeff)
                         for e in range(rng.randint(0, max_deg) + 1)
                         if rng.random() < 0.5})
            if allow_zero or not p.is_zero:
                return p
    return RatFunc(poly(True), poly(False))


def test_field_axioms_randomized():
    rng = random.Random(20260809)
    for _ in range(40):
        a, b, c = (_random_ratfunc(rng, max_deg=6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == ZERO
        if not a.is_zero:
            assert a * (ONE / a) == ONE
        assert a + ZERO == a and a * ONE == a


def test_ratfunc_power_matches_repeated_multiplication():
    rng = random.Random(9017)
    for _ in range(12):
        f = _random_ratfunc(rng, max_deg=4, max_coeff=50)
        if f.is_zero:
            continue
        for n in range(-4, 10):
            base = f if n >= 0 else ONE / f
            want = ONE
            for _ in range(abs(n)):
                want = want * base
            assert f ** n == want, (str(f), n)


def test_gauss_binomial_wraps_the_one_cached_dict():
    # the Laurent dict is cached once, by gauss_laurent; gauss_binomial keeps
    # no cache of its own
    assert not hasattr(gauss_binomial, "cache_info")
    for u in range(8):
        for v in range(u + 1):
            assert gauss_binomial(u, v) == RatFunc.from_laurent(gauss_laurent(u, v))


def test_gauss_symmetry():
    for u in range(13):
        for v in range(u + 1):
            assert gauss_binomial(u, v) == gauss_binomial(u, u - v)


def test_gauss_binomial_is_the_product_quotient():
    # [u; v] = P(u) / (P(v) P(u-v)) with P(k) = prod_{i=1..k} (1 - (-q)^-i), by
    # RatFunc division; P(k) = N(k) (-q)^(-k(k+1)/2) with N(k) = prod ((-q)^i - 1),
    # and dividing the polynomials N keeps the gcd to one pseudo-division
    tri = [k * (k + 1) // 2 for k in range(31)]
    polys = [ONE]
    for i in range(1, 31):
        polys.append(polys[-1] * (neg_q_power(i) - 1))
    for u in range(31):
        for v in range(u // 2 + 1):
            want = polys[u] / (polys[v] * polys[u - v]) * neg_q_power(tri[v] + tri[u - v] - tri[u])
            assert gauss_binomial(u, v) == want == gauss_binomial(u, u - v), (u, v)


def test_gauss_binomial_is_the_plain_product_quotient():
    # the same quotient without splitting the powers of q by hand: plain RatFunc
    # division, where poly_gcd meets numerators and denominators of unequal
    # q-valuation
    polys = [ONE]
    for i in range(1, 25):
        polys.append(polys[-1] * (ONE - neg_q_power(-i)))
    for u in range(25):
        for v in range(u + 1):
            assert polys[u] / (polys[v] * polys[u - v]) == gauss_binomial(u, v), (u, v)


def test_pascal_type_step():
    # [k+1; j] - [k; j] = (-q)^(-k-1+j) [k; j-1]
    for k in range(1, 11):
        for j in range(1, k + 1):
            lhs = gauss_binomial(k + 1, j) - gauss_binomial(k, j)
            rhs = neg_q_power(-k - 1 + j) * gauss_binomial(k, j - 1)
            assert lhs == rhs, (k, j)


def test_gauss_product_identity():
    # sum_j (-q)^((2l+1-j)j/2) [l; l-j][l-j; l-k] = [l; k] prod_j (1+(-q)^(l-j))
    for l in range(0, 9):
        for k in range(0, l + 1):
            lhs = ZERO
            for j in range(0, k + 1):
                prod = (2 * l + 1 - j) * j
                assert prod % 2 == 0
                lhs = lhs + (neg_q_power(prod // 2)
                             * gauss_binomial(l, l - j)
                             * gauss_binomial(l - j, l - k))
            rhs = gauss_binomial(l, k)
            for j in range(k):
                rhs = rhs * (ONE + neg_q_power(l - j))
            assert lhs == rhs, (l, k)


def test_laurent_roundtrip_randomized():
    rng = random.Random(4242)
    for _ in range(100):
        d = {rng.randint(-8, 8): rng.randint(-50, 50) for _ in range(rng.randint(0, 6))}
        d = {e: c for e, c in d.items() if c}
        f = RatFunc.from_laurent(d)
        assert f.as_laurent() == d


def test_canonical_form():
    f = RatFunc(IntPoly({2: 2, 1: 2}), IntPoly({1: -4}))
    # (2q^2+2q)/(-4q) reduces to -(q+1)/2 with positive-leading denominator
    assert f.den == IntPoly({0: 2})
    assert f.num == IntPoly({1: -1, 0: -1})
    assert RatFunc(IntPoly({3: 1, 2: 1}), IntPoly({2: 1, 1: 1})) == Q
    # exact division over ZZ[q]: exact, inexact, and divisor of higher degree
    q2_1, q_1 = IntPoly({2: 1, 0: -1}), IntPoly({1: 1, 0: -1})
    assert q2_1.exact_div(q_1) == IntPoly({1: 1, 0: 1})
    assert IntPoly({2: 2, 0: -2}).exact_div(IntPoly({1: 2, 0: -2})) == IntPoly({1: 1, 0: 1})
    assert IntPoly({2: 1, 0: 1}).exact_div(q_1) is None  # nonzero remainder
    assert IntPoly({1: 1, 0: -1}).exact_div(IntPoly({1: 2, 0: -2})) is None  # 1/2 not in ZZ
    assert IntPoly({3: 3, 0: 1}).exact_div(IntPoly({1: 2})) is None
    assert q_1.exact_div(q2_1) is None  # degree too low
    assert IntPoly({0: 5}).exact_div(IntPoly({1: 1})) is None
    assert IntPoly({}).exact_div(q_1) == IntPoly({})
    with pytest.raises(ZeroDivisionError):
        q_1.exact_div(IntPoly({}))


def test_constants_compare_and_hash_like_numbers():
    assert ONE / 2 - Fraction(1, 2) == ZERO
    assert ONE / 2 == Fraction(1, 2) and Fraction(1, 2) == ONE / 2
    assert ONE / 2 != Fraction(1, 3) and Q != Fraction(1, 2) and Q != 1
    assert ONE / Q != 1 and (ONE / Q) * Q == 1
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 4)):
        f = RatFunc.from_fraction(value)
        assert f == value and hash(f) == hash(value), value
    assert hash(ONE) == hash(1) and hash(ZERO) == hash(0)
    assert len({ONE, 1, Fraction(1), ONE / 2, Fraction(2, 4)}) == 2
    assert ONE != "1" and ONE != None    # noqa: E711


def _gcd_reduced(num, den):
    # the canonical form written out with the full gcd: divide both by
    # poly_gcd (content included), then make the leading coefficient of the
    # denominator positive
    if num.is_zero:
        return IntPoly({}), IntPoly({0: 1})
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    return (-num, -den) if den.leading_coeff() < 0 else (num, den)


def test_monomial_denominator_matches_gcd_reduction():
    # a denominator c*q^k skips the polynomial gcd; the result must not change
    rng = random.Random(20261018)
    for k in range(9):
        for _ in range(30):
            c = rng.choice((-1, 1)) * rng.choice((1, 2, 3, 4, 6, 9, 12, 35))
            content = rng.choice((1, 2, 3, 5, 6, 12))
            low = rng.randint(0, 10)
            num = IntPoly({e: content * rng.randint(-9, 9)
                           for e in range(low, low + rng.randint(0, 8))})
            for n in (num, IntPoly({})):
                f = RatFunc(n, IntPoly({k: c}))
                assert (f.num, f.den) == _gcd_reduced(n, IntPoly({k: c})), (n, c, k)


def _prs_gcd(a, b):
    # poly_gcd without splitting off the powers of q: the primitive
    # pseudo-remainder sequence run on a and b as they are
    if a.is_zero and b.is_zero:
        return IntPoly({})
    if a.is_zero:
        a, b = b, a
    if b.is_zero:
        g, p = a.primitive()
        return IntPoly.const(g) * (p if p.leading_coeff() > 0 else -p)
    ca, pa = a.primitive()
    cb, pb = b.primitive()
    if pa.degree() < pb.degree():
        pa, pb = pb, pa
    while not pb.is_zero:
        db = pb.degree()
        r = pa * IntPoly.const(pb.leading_coeff() ** (pa.degree() - db + 1))
        while not r.is_zero and r.degree() >= db:
            f = IntPoly.monomial(r.leading_coeff() // pb.leading_coeff(), r.degree() - db)
            r = r - f * pb
        pa, pb = pb, r.primitive()[1]
    if pa.leading_coeff() < 0:
        pa = -pa
    return IntPoly.const(gcd(ca, cb)) * pa


def test_poly_gcd_matches_unsplit_prs():
    rng = random.Random(20261019)

    def poly(lo, hi):
        return IntPoly({e: rng.randint(-6, 6) for e in range(rng.randint(lo, hi))})

    for _ in range(300):
        common = poly(0, 4) if rng.random() < 0.7 else IntPoly({0: 1})
        a, b = poly(0, 6) * common, poly(0, 6) * common
        if rng.random() < 0.8:
            a = a.shift(rng.randint(0, 5))
            b = b.shift(rng.randint(0, 5))
        assert poly_gcd(a, b) == _prs_gcd(a, b), (a, b)


def test_json_roundtrip():
    vals = [Q ** 6 * (ONE + ONE / Q) ** 2, ZERO, -ONE / Q ** 3, (Q + 1) / (Q ** 2 - Q + 1)]
    for f in vals:
        assert RatFunc.from_json(f.to_json()) == f


def test_str_formats():
    assert str(Q ** 6 + 2 * Q ** 5 + Q ** 4) == "q^6+2q^5+q^4"
    assert str(Q ** 5 * (Q - 1)) == "q^6-q^5"
    assert str(ZERO) == "0"
    assert str(ONE + ONE / Q) == "(q+1)/(q)"
