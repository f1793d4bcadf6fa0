"""Shared reference data: the closed self-density tables of ranks 1-4."""

import pytest

from hermdens.qalgebra import ONE, Q


def match_pattern(pattern, parts):
    """The parts bound by the "*" slots of pattern, in slot order, or None.

    An int slot matches that part exactly and a "*" slot matches any part
    >= 3; () means a literal match.  The library reads a rewrite rule by its
    signature instead; this linear matcher is the tests' reference.
    """
    bind = []
    for spec, x in zip(pattern, parts):
        if spec == "*":
            if x < 3:
                return None
            bind.append(x)
        elif spec != x:
            return None
    return tuple(bind)


# Each row is (shape, E, units):
#   shape  -- a label pattern (``match_pattern``): an int matches
#             exactly, "*" matches any value >= 3;
#   E      -- the power of q in front;
#   units  -- signed exponents k encoding the unit factors
#             (1 + q^-k) for k > 0 and (1 - q^-|k|) for k < 0.
# A shape with placeholders also multiplies by the self-density of the
# placeholder values, each reduced by 2.
SELF_TABLE = {
    1: [
        ((0,), 0, (1,)),
        ((2,), 2, (1,)),
    ],
    2: [
        ((0, 0), 0, (1, -2)),
        ((1, 0), 1, (1, 1)),
        ((1, 1), 4, (1, -2)),
        ((2, 0), 2, (1, 1)),
        ((2, 1), 5, (1, 1)),
        ((2, 2), 8, (1, -2)),
        (("*", 0), 2, (1,)),
        (("*", 2), 8, (1,)),
    ],
    3: [
        (("*", "*", 0), 8, (1,)),
        (("*", "*", 1), 13, (1,)),
        (("*", "*", 2), 18, (1,)),
        (("*", 2, 0), 8, (1, 1)),
        (("*", 2, 1), 13, (1, 1)),
        (("*", 2, 2), 18, (1, -2)),
        ((2, 2, 0), 8, (1, 1, -2)),
        ((2, 2, 1), 13, (1, 1, -2)),
        ((2, 2, 2), 18, (1, -2, 3)),
        (("*", 0, 0), 2, (1, -2)),
        (("*", 1, 0), 5, (1, 1)),
        (("*", 1, 1), 10, (1, -2)),
        ((2, 0, 0), 2, (1, 1, -2)),
        ((2, 1, 0), 5, (1, 1, 1)),
        ((2, 1, 1), 10, (1, 1, -2)),
        ((0, 0, 0), 0, (1, -2, 3)),
        ((1, 0, 0), 1, (1, 1, -2)),
        ((1, 1, 0), 4, (1, 1, -2)),
        ((1, 1, 1), 9, (1, -2, 3)),
    ],
    4: [
        (("*", "*", "*", 0), 18, (1,)),
        (("*", "*", "*", 1), 25, (1,)),
        (("*", "*", "*", 2), 32, (1,)),
        (("*", "*", 2, 0), 18, (1, 1)),
        (("*", "*", 2, 1), 25, (1, 1)),
        (("*", "*", 2, 2), 32, (1, -2)),
        (("*", 2, 2, 0), 18, (1, 1, -2)),
        (("*", 2, 2, 1), 25, (1, 1, -2)),
        (("*", 2, 2, 2), 32, (1, -2, 3)),
        ((2, 2, 2, 0), 18, (1, 1, -2, 3)),
        ((2, 2, 2, 1), 25, (1, 1, -2, 3)),
        ((2, 2, 2, 2), 32, (1, -2, 3, -4)),
        (("*", "*", 0, 0), 8, (1, -2)),
        (("*", "*", 1, 0), 13, (1, 1)),
        (("*", "*", 1, 1), 20, (1, -2)),
        (("*", 2, 0, 0), 8, (1, 1, -2)),
        (("*", 2, 1, 0), 13, (1, 1, 1)),
        (("*", 2, 1, 1), 20, (1, 1, -2)),
        ((2, 2, 0, 0), 8, (1, 1, -2, -2)),
        ((2, 2, 1, 0), 13, (1, 1, 1, -2)),
        ((2, 2, 1, 1), 20, (1, 1, -2, -2)),
        (("*", 0, 0, 0), 2, (1, -2, 3)),
        (("*", 1, 0, 0), 5, (1, 1, -2)),
        (("*", 1, 1, 0), 10, (1, 1, -2)),
        (("*", 1, 1, 1), 17, (1, -2, 3)),
        ((2, 0, 0, 0), 2, (1, 1, -2, 3)),
        ((2, 1, 0, 0), 5, (1, 1, 1, -2)),
        ((2, 1, 1, 0), 10, (1, 1, 1, -2)),
        ((2, 1, 1, 1), 17, (1, 1, -2, 3)),
        ((0, 0, 0, 0), 0, (1, -2, 3, -4)),
        ((1, 0, 0, 0), 1, (1, 1, -2, 3)),
        ((1, 1, 0, 0), 4, (1, 1, -2, -2)),
        ((1, 1, 1, 0), 9, (1, 1, -2, 3)),
        ((1, 1, 1, 1), 16, (1, -2, 3, -4)),
    ],
}


def _table_self_density(xi, engine):
    """alpha(A_xi, A_xi) read off SELF_TABLE, or None outside its shapes.

    A placeholder remainder the table does not cover is evaluated directly.
    """
    for shape, e, units in SELF_TABLE.get(len(xi), ()):
        holders = match_pattern(shape, xi)
        if holders is None:
            continue
        val = Q ** e
        for k in units:
            val = val * (ONE + (1 if k > 0 else -1) * ONE / Q ** abs(k))
        if holders:
            inner = tuple(v - 2 for v in holders)
            sub = _table_self_density(inner, engine)
            val = val * (sub if sub is not None else engine.alpha(inner, inner))
        return val
    return None


@pytest.fixture(scope="session")
def self_table():
    return SELF_TABLE


@pytest.fixture(scope="session")
def table_self_density():
    return _table_self_density
