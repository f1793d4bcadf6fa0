"""Partition combinatorics for hermitian class labels.

A partition is a plain tuple of non-increasing, non-negative integers; its
length is significant, so (3, 0) and (3,) label different classes (the
diagonal hermitian matrices diag(pi^3, 1) and diag(pi^3)).  Text syntax is
comma-separated parts, e.g. "8,3,2"; JSON form is an array of integers.

Besides the basic statistics (weight, the n-statistic sum (i-1)*lambda_i
and conjugates) and the one rule that makes a density provably zero
(``provable_zero``), this module builds the label construction used by the
density relations, the zero-tail promotions ``xi_plus``.  It is pure
combinatorics and imports nothing from the rest of the package: the
relations' coefficients ``d_coefficients`` and the rewrite rules' label
patterns live in ``relations``.
"""

from __future__ import annotations

import itertools
import operator


def check_partition(parts):
    """Validate and normalize to a tuple of non-increasing, non-negative ints;
    a part that is no integer (2.7, Fraction(5, 2)) raises ``ValueError``."""
    try:
        t = tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError(f"partition parts must be integers, got {parts!r}") from None
    if not t:
        raise ValueError("partition must have at least one part")
    for i, x in enumerate(t):
        if x < 0:
            raise ValueError(f"negative part {x} in partition {t}")
        if i and t[i - 1] < x:
            raise ValueError(f"parts not non-increasing in {t}")
    return t


def check_pair(xi, lam):
    """Both labels of a normalized density, checked by ``check_partition``;
    labels of unequal length raise ``ValueError``."""
    xi, lam = check_partition(xi), check_partition(lam)
    if len(xi) != len(lam):
        raise ValueError("normalized density needs labels of equal length")
    return xi, lam


def parse_parts(text):
    """The integers of comma-separated text: each part is ASCII digits, with
    surrounding spaces allowed, so '1_0', '+2', '-1', '' and non-ASCII digits
    raise ``ValueError`` naming the part."""
    parts = []
    for part in text.split(","):
        digits = part.strip()
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"part {part!r} is not a number in ASCII digits")
        parts.append(int(digits))
    return parts


def parse_partition(text):
    """Parse comma-separated text like '8,3,2' (trailing zeros explicit)."""
    try:
        return check_partition(parse_parts(text))
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def format_partition(parts):
    return ",".join(str(x) for x in parts)


def weight(parts):
    return sum(parts)


def n_stat(parts):
    """The statistic sum_i (i-1) * parts_i, 1-based."""
    return sum(i * x for i, x in enumerate(parts))


def tilde(parts):
    """Add one to every part."""
    return tuple(x + 1 for x in parts)


def provable_zero(xi, lam):
    """The rule that makes A_xi(A_lam) zero for labels of equal length, or None:
    "parity-zero" when the weights differ in parity, "support-zero" when
    xi_i > lam_i for some i (Newman, Thm II.15).  Labels are not validated."""
    if (weight(xi) - weight(lam)) % 2:
        return "parity-zero"
    for x, l in zip(xi, lam):
        if x > l:
            return "support-zero"
    return None


def conjugate_part(parts, i):
    """The i-th part of the conjugate: the number of parts >= i, for i >= 1
    converted by ``operator.index``; 1.5 or Fraction(3, 2), like 0, raises
    ``ValueError`` naming it."""
    try:
        k = operator.index(i)
    except TypeError:
        k = 0
    if k < 1:
        raise ValueError(f"a conjugate index must be an integer >= 1, got {i!r}")
    return sum(1 for x in parts if x >= k)


def conjugate(parts):
    """Full conjugate partition, with length equal to the largest part."""
    out = []
    # i parts reach the columns parts[i] + 1..parts[i - 1] (parts[len] = 0)
    for i in range(len(parts), 0, -1):
        out += [i] * (parts[i - 1] - len(out))
    return tuple(out)


def trailing_zeros(parts):
    k = 0
    for x in reversed(parts):
        if x:
            break
        k += 1
    return k


def xi_plus(xi, a, b):
    """Promote a of xi's trailing zeros to 2s and b of them to 1s, re-sorted.

    Requires xi to end in s >= a+b zeros preceded by a nonzero part (unless
    all parts are zero).  Re-sorting matters when the last nonzero part of
    xi is smaller than 2, e.g. (4,1,0,0) with a=2 gives (4,2,2,1).
    """
    xi = check_partition(xi)
    s = trailing_zeros(xi)
    if a < 0 or b < 0 or a + b > s:
        raise ValueError(f"need a, b >= 0 with a + b <= {s} trailing zeros, got a={a}, b={b}")
    head = xi[: len(xi) - s]
    return tuple(sorted(head + (2,) * a + (1,) * b + (0,) * (s - a - b), reverse=True))


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

def partitions_in_box(bounds):
    """All non-increasing tuples t with 0 <= t[i] <= bounds[i], by odometer.

    This enumerates the box of Hironaka's formula for the reference sum in the
    tests; ``HironakaEngine.alpha`` sums over column heights instead.
    """
    for t in itertools.product(*(range(b + 1) for b in bounds)):
        if all(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            yield t


def partitions_fixed_length(n, lo, hi):
    """Partitions of length n with every part in [lo, hi]; ``ValueError`` at
    the call if lo < 0, since parts are never negative."""
    if lo < 0:
        raise ValueError(f"partition parts are >= 0, got lower bound {lo}")
    return itertools.combinations_with_replacement(range(hi, lo - 1, -1), n)


def partitions_first_part(level, length, min_part, bound):
    """Partitions of the given length whose first part equals level, with
    min_part <= part[i] <= bound[i] (one bound per part); none when
    level > bound[0].
    """
    if min_part <= level <= bound[0]:
        for rest in _bounded_tails(level, bound[1:length], min_part):
            yield (level,) + rest


def _bounded_tails(top, bound, min_part):
    """Non-increasing tuples t of len(bound), with min_part <= t[i] <= min(top, bound[i])."""
    if not bound:
        yield ()
        return
    for x in range(min(top, bound[0]), min_part - 1, -1):
        for rest in _bounded_tails(x, bound[1:], min_part):
            yield (x,) + rest


def lambda_ns_elements(n, s, max_nonzero):
    """Elements of the s-trailing-zero stratum with nonzero parts <= max_nonzero."""
    if not 1 <= s <= n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    if s == n:
        yield (0,) * n
        return
    for head in partitions_fixed_length(n - s, 1, max_nonzero):
        yield head + (0,) * s
