"""Exact arithmetic in ZZ[q] and its fraction field QQ(q).

Every density computed by this package is an exact rational function of a
single indeterminate q with arbitrary-precision integer coefficients.  This
module provides the two value types and the q-combinatorial primitives built
on them:

* ``IntPoly``   -- integer polynomial in q, stored as a sparse map from
                   non-negative exponent to nonzero coefficient;
* ``RatFunc``   -- quotient of two ``IntPoly`` in canonical reduced form
                   (the universal value type of the package); the
                   polynomial gcd is taken only when the denominator is not
                   a monomial c*q^k, so Laurent values never reach it;
* ``neg_q_power(e)``      -- the exact power (-q)^e for any integer e;
* ``gauss_binomial(u,v)`` -- the q-binomial, the quotient of the descending
                   products prod_{i=1..k} (1 - (-q)^{-i}), built by the
                   q-Pascal rule without any division;
* ``evaluate_at`` / ``as_laurent`` -- exact numeric specialization and the
                   membership check for ZZ[q, q^-1].

Values are immutable after construction and hashable, so they can be shared
freely across threads; every operation here is a pure function.

The single polynomial representation is the sparse dictionary
{exponent: coefficient} with no zero coefficients.  The ``lau_*`` kernel
adds and multiplies such dictionaries (exponents may be negative there), and
``IntPoly`` arithmetic is built on it.  Sums that are known to stay inside
ZZ[q, q^-1] (for instance Gaussian binomials and the density formula's inner
sums) use the kernel directly and are only converted to ``RatFunc`` at the
boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class NotLaurentError(ValueError):
    """Raised by ``as_laurent`` when the reduced denominator is not a power of q.

    The offending reduced denominator is kept in ``self.denominator``.
    """

    def __init__(self, denominator):
        self.denominator = denominator
        super().__init__(f"not a Laurent polynomial: reduced denominator is {denominator}")


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def _dense(coeffs, deg):
    out = [0] * (deg + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def _long_divide(r, b):
    """Divide the dense coefficient list r by the dense list b over ZZ, in place.

    Eliminates the coefficients of r from the top down to degree deg(b) and
    returns the dense quotient, leaving the remainder in r[:deg(b)]; returns
    None as soon as a leading coefficient is not divisible by lc(b).
    """
    db = len(b) - 1
    lc = b[db]
    quo = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[db + k]
        if c == 0:
            continue
        if c % lc:
            return None
        f = c // lc
        quo[k] = f
        for i in range(db + 1):
            if b[i]:
                r[i + k] -= f * b[i]
    return quo


class IntPoly:
    """Integer polynomial in q with sparse {exponent: coefficient} storage.

    Invariants: exponents are non-negative ints, no zero coefficient is
    stored, and two polynomials are equal iff their maps are equal.  Both
    convert by ``operator.index``: a float raises ``TypeError``, not truncates.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = index(c)
                if c:
                    e = index(e)
                    if e < 0:
                        raise ValueError("IntPoly exponents must be non-negative")
                    d[e] = c
        self.coeffs = d

    @classmethod
    def _raw(cls, d):
        # trusted constructor: d already sanitized
        p = cls.__new__(cls)
        p.coeffs = d
        return p

    @classmethod
    def const(cls, c):
        return cls.monomial(c, 0)

    @classmethod
    def monomial(cls, c, e):
        c, e = index(c), index(e)
        if e < 0:
            raise ValueError("IntPoly exponents must be non-negative")
        return cls._raw({e: c} if c else {})

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, with the zero polynomial given degree -1."""
        return max(self.coeffs) if self.coeffs else -1

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def leading_coeff(self):
        return self.coeffs[max(self.coeffs)] if self.coeffs else 0

    def content(self):
        """Non-negative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, c)
        return g

    def primitive(self):
        """Return (content, self/content); the zero polynomial maps to (0, 0)."""
        g = self.content()
        if g <= 1:
            return g, self
        return g, IntPoly._raw({e: c // g for e, c in self.coeffs.items()})

    def shift(self, k):
        """Multiply by q^k (k may be negative if no exponent drops below 0)."""
        if not self.coeffs or k == 0:
            return self
        return IntPoly({e + k: c for e, c in self.coeffs.items()})

    def div_int(self, n):
        return IntPoly._raw({e: c // n for e, c in self.coeffs.items()})

    def __add__(self, other):
        return IntPoly._raw(lau_iadd_scaled(dict(self.coeffs), other.coeffs))

    def __neg__(self):
        return IntPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return IntPoly._raw(lau_iadd_scaled(dict(self.coeffs), other.coeffs, scale=-1))

    def __mul__(self, other):
        # values are immutable, so a factor 1 or 0 can hand back an operand
        if not self.coeffs or other.coeffs == _POLY_ONE.coeffs:
            return self
        if not other.coeffs or self.coeffs == _POLY_ONE.coeffs:
            return other
        return IntPoly._raw(lau_mul(self.coeffs, other.coeffs))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of IntPoly")
        out = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def evaluate(self, q0):
        """The exact value at q = q0 as a Fraction.  With q0 = a/b in lowest
        terms and D the degree, it is the integer sum of c a^e b^(D - e) over
        b^D, so only the last step divides."""
        q0 = Fraction(q0)
        a, b, top = q0.numerator, q0.denominator, max(self.coeffs, default=0)
        return Fraction(sum(c * a ** e * b ** (top - e) for e, c in self.coeffs.items()),
                        b ** top)

    def exact_div(self, other):
        """Exact quotient self/other over ZZ[q], or None if division is inexact."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return IntPoly._raw({})
        da, db = self.degree(), other.degree()
        if da < db:
            return None
        r = _dense(self.coeffs, da)
        quo = _long_divide(r, _dense(other.coeffs, db))
        if quo is None or any(r):
            return None
        return IntPoly({e: c for e, c in enumerate(quo) if c})

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"IntPoly({poly_str(self)})"


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b: rem(lc(b)^(da-db+1) * a, b), exact over ZZ."""
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    scale = b.leading_coeff() ** (da - db + 1)
    r = [c * scale for c in _dense(a.coeffs, da)]
    if _long_divide(r, _dense(b.coeffs, db)) is None:
        raise ArithmeticError(f"pseudo-division of {a} by {b} left a non-divisible coefficient")
    return IntPoly({e: c for e, c in enumerate(r[:db]) if c})


def poly_gcd(a, b):
    """GCD in ZZ[q] via a primitive pseudo-remainder sequence.

    The result has positive leading coefficient and includes the integer
    content gcd, so a/gcd and b/gcd are exactly divisible.  Powers of q are
    split off first: q divides neither a/q^va nor b/q^vb (va, vb the lowest
    exponents), so the gcd is q^min(va, vb) times theirs, and the sequence
    never has to work a power of q out.
    """
    if a.is_zero and b.is_zero:
        return IntPoly._raw({})
    if a.is_zero:
        a, b = b, a
    if b.is_zero:
        g, p = a.primitive()
        return IntPoly.const(g) * (p if p.leading_coeff() > 0 else -p)
    va, vb = a.min_exp(), b.min_exp()
    a, b = a.shift(-va), b.shift(-vb)
    ca, pa = a.primitive()
    cb, pb = b.primitive()
    c = gcd(ca, cb)
    if pa.degree() < pb.degree():
        pa, pb = pb, pa
    while not pb.is_zero:
        r = _pseudo_rem(pa, pb)
        pa, pb = pb, r.primitive()[1]
    if pa.leading_coeff() < 0:
        pa = -pa
    return (IntPoly.const(c) * pa).shift(min(va, vb))


def poly_str(p):
    """Conventional polynomial string, descending exponents, explicit '^'."""
    if p.is_zero:
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "q" if e == 1 else f"q^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Laurent dictionaries (internal fast path)
# ---------------------------------------------------------------------------
#
# A Laurent polynomial is a plain dict {exponent: coefficient} with no zero
# coefficients; exponents may be negative.  These helpers avoid RatFunc's
# canonicalization cost in inner loops.  ``lau_iadd_product`` is the one
# multiply kernel: ``lau_mul`` runs it on a new dict, ``lau_dot`` sums a list
# of products through it, and a caller that sums products into its own dict
# (the reducer's rule-(d) step) calls it with no product dict at all.
# ``lau_mul`` and ``lau_iadd_scaled`` are also all of ``IntPoly``'s addition
# and multiplication, on its dict of non-negative exponents.

def lau_mul(a, b):
    """a * b as a new dict."""
    return lau_iadd_product({}, a, b)


def lau_iadd_product(acc, a, b):
    """acc += a * b, in place and with no product dict; returns acc."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return acc


def lau_iadd_scaled(acc, a, shift=0, scale=1):
    """acc += scale * q^shift * a, in place."""
    for e, c in a.items():
        k = e + shift
        s = acc.get(k, 0) + scale * c
        if s:
            acc[k] = s
        elif k in acc:
            del acc[k]
    return acc


def lau_dot(pairs):
    """sum of a * b over (a, b) pairs of Laurent dicts, as a new dict; a pair
    with an empty factor costs nothing."""
    acc = {}
    for a, b in pairs:
        lau_iadd_product(acc, a, b)
    return acc


@lru_cache(maxsize=None)
def gauss_laurent(u, v):
    """Gaussian binomial [u; v] as a Laurent dict, shared: never mutate it.

    [u; v] is prod_{i=1..u}(1-(-q)^{-i}) divided by the corresponding
    products for v and u-v, a polynomial in (-q)^{-1}.  It is built row by
    row with the q-Pascal rule [k; j] = [k-1; j-1] + (-q)^{-j} [k-1; j], so
    only additions are needed.
    """
    if v < 0 or u < v:
        raise ValueError(f"gauss_binomial requires u >= v >= 0, got ({u}, {v})")
    row = [{0: 1}]      # [k; 0], ..., [k; min(k, v)], from k = 0
    for k in range(1, u + 1):
        row = [{0: 1}] + [
            lau_iadd_scaled(dict(row[j - 1]), row[j] if j < k else {},
                            shift=-j, scale=-1 if j % 2 else 1)
            for j in range(1, min(k, v) + 1)]
    return row[v]


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced fraction of integer polynomials in q.

    Canonical form: the denominator is nonzero with positive leading
    coefficient, numerator and denominator share no polynomial factor and no
    integer factor > 1, and zero is 0/1.  Equality and hashing are
    structural on this canonical form; an int or Fraction compares as the
    constant it is, and a constant hashes like its number.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = IntPoly.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, int):
            den = IntPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        s = min(num.min_exp(), den.min_exp())
        if s:
            num = num.shift(-s)
            den = den.shift(-s)
        cg = gcd(num.content(), den.content())
        if cg > 1:
            num = num.div_int(cg)
            den = den.div_int(cg)
        # After the shift a monomial denominator is a constant or faces a
        # numerator with a nonzero constant term, and the contents are now
        # coprime, so its gcd with the numerator is 1.
        if len(den.coeffs) > 1:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                nq = num.exact_div(g)
                dq = den.exact_div(g)
                if nq is None or dq is None:
                    raise ArithmeticError(f"gcd {g} does not divide both {num} and {den}")
                num, den = nq, dq
        if den.leading_coeff() < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_laurent(cls, items):
        """Build from a Laurent dictionary or item iterable.

        The shift is the least exponent of a nonzero coefficient.  The kernels'
        dicts hold no zero, so only a zero at the least exponent sends the
        dict through the filter.
        """
        d = dict(items)
        if not d:
            return _ZERO
        low = min(d)
        if not d[low]:
            d = {e: c for e, c in d.items() if c}
            if not d:
                return _ZERO
            low = min(d)
        shift = min(0, low)
        num = IntPoly({e - shift: c for e, c in d.items()})
        r = cls.__new__(cls)
        r.num = num
        r.den = _POLY_ONE if shift == 0 else IntPoly._raw({-shift: 1})
        return r

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return cls(IntPoly.const(fr.numerator), IntPoly.const(fr.denominator))

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc(IntPoly.const(x))
        if isinstance(x, Fraction):
            return RatFunc.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return RatFunc._coerce(other) - self

    def __mul__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFunc._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return (_ONE / self) ** -n
        return RatFunc(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = RatFunc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.num.degree() <= 0 and self.den.degree() == 0:
            # a constant hashes like the int or Fraction it equals
            return hash(Fraction(self.num.coeffs.get(0, 0), self.den.coeffs[0]))
        return hash((self.num, self.den))

    # -- conversions -------------------------------------------------------

    def evaluate_at(self, q0):
        """Exact value at q = q0 as a Fraction; raises PoleError on a pole."""
        q0 = Fraction(q0)
        dv = self.den.evaluate(q0)
        if dv == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / dv

    def as_laurent(self):
        """Return the {exponent: coefficient} map if the value lies in ZZ[q, q^-1].

        Succeeds exactly when the reduced denominator is a power of q;
        otherwise raises ``NotLaurentError`` carrying that denominator.
        """
        items = self.den.coeffs
        if not self.num.coeffs:
            return {}
        if len(items) == 1:
            (e, c), = items.items()
            if c == 1:
                return {k - e: v for k, v in self.num.coeffs.items()}
        raise NotLaurentError(self.den)

    def to_json(self):
        """JSON form: {"num": [[exp, "coeff"], ...], "den": [...]}, exponents ascending."""
        return {
            "num": [[e, str(self.num.coeffs[e])] for e in sorted(self.num.coeffs)],
            "den": [[e, str(self.den.coeffs[e])] for e in sorted(self.den.coeffs)],
        }

    @classmethod
    def from_json(cls, obj):
        num = IntPoly({int(e): int(c) for e, c in obj["num"]})
        den = IntPoly({int(e): int(c) for e, c in obj["den"]})
        return cls(num, den)

    def __str__(self):
        if self.den == _POLY_ONE:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"

    def __repr__(self):
        return f"RatFunc({self})"


_POLY_ZERO = IntPoly._raw({})
_POLY_ONE = IntPoly._raw({0: 1})

ZERO = _ZERO = RatFunc(0)
ONE = _ONE = RatFunc(1)
Q = RatFunc(IntPoly._raw({1: 1}))


# ---------------------------------------------------------------------------
# the q-combinatorial primitives and the module-level operation surface
# ---------------------------------------------------------------------------

def neg_q_power(e):
    """(-q)^e as a reduced RatFunc, for any integer e (negative allowed)."""
    return RatFunc.from_laurent({e: -1 if e % 2 else 1})


def gauss_binomial(u, v):
    """The q-binomial [u; v]; requires u >= v >= 0.

    A polynomial in (-q)^{-1}, with [u; 0] = [u; u] = 1 for every u; its
    Laurent dict is cached once, by ``gauss_laurent``.
    """
    return RatFunc.from_laurent(gauss_laurent(u, v))


def arith(a, b, kind):
    """Field arithmetic dispatch: kind in {'add', 'sub', 'mul', 'div'}."""
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    raise ValueError(f"unknown arithmetic kind {kind!r}")


def evaluate_at(f, q0):
    return f.evaluate_at(q0)


def as_laurent(f):
    return f.as_laurent()
