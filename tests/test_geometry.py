"""Derived densities, intersection numbers, and the support-box sums."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from hermdens import geometry, hironaka, relations
from hermdens.geometry import (
    conjecture_check,
    derivative_0000,
    difference_identity_check,
    make_engine,
    sankaran_intersection,
    sankaran_intersection_report,
    truncated_partition_sum,
)
from hermdens.hironaka import derived_density, self_density_closed
from hermdens.partitions import (
    conjugate_part,
    n_stat,
    partitions_first_part,
    partitions_in_box,
    tilde,
    weight,
)
from hermdens.qalgebra import ONE, Q, RatFunc, ZERO, lau_iadd_scaled, lau_mul


REDUCE = make_engine("reduce")

GOLDEN_MAKER = Path(__file__).parent / "data" / "make_geometry_golden.py"


def closed_form_families(a):
    """The six verified closed forms of the rank-4 derived density."""
    q = Q
    half = a // 2
    tail6 = (-q ** 8 - 3 * q ** 7 - 3 * q ** 6 - q ** 5
             + 3 * q ** 4 + 2 * q ** 3 - q ** 2 + 3 * q + 4)
    return {
        (a, 1, 0, 0): (q + 1) * half + 1,
        (a, 1, 1, 1): half * (q + 1) * (q ** 3 + 1) + 2 + q - q ** 2,
        (a, 3, 0, 0): (q + 1) * (q ** 2 + 1) * half - q ** 3 + q + 2,
        (a, 3, 1, 1): half * (q + 1) * (q ** 5 + q ** 4 + q ** 3 + 1)
                      - (q + 1) * (q ** 5 - q ** 3 + q - 3),
        (a, 2, 1, 0): half * (q + 1) - q ** 3 - q ** 2 + q + 2,
        (a, 4, 2, 1): half * (q + 1) * (q ** 4 + q ** 3 + 1) + tail6,
    }


# (start, min_part) of each named sum
SUM_STARTS = {
    "tail3-zeros": (1, 1), "tail2-zeros": (1, 1), "tail1-zeros": (1, 1),
    "tail0-zeros": (1, 1), "pairs-ge-2": (2, 2), "column-1": (2, 1), "column-0": (2, 1),
    "horizontal-steps": (3, 1), "vertex-pairs": (1, 1), "vertex-triples": (1, 1),
}


def _assert_box_report(rep):
    """The report's levels are exactly start..box[0], each counting the
    partitions of the box with that first part and parts >= min_part."""
    start, min_part = SUM_STARTS[rep.name]
    assert [r.level for r in rep.levels] == list(range(start, rep.box[0] + 1)), rep
    inside = [p for p in partitions_in_box(rep.box) if p[0] >= start and p[-1] >= min_part]
    for r in rep.levels:
        assert r.terms == sum(p[0] == r.level for p in inside), (rep, r)
    assert sum(r.terms for r in rep.levels) == len(inside), rep


# weights of the tails of 3, 2, 1 and 0 zeros in the lattice sum below
_LATTICE_WEIGHTS = ({0: 1}, {0: 1, 1: 1}, lau_mul({0: 1, 1: 1}, {0: 1, 2: -1}),
                    lau_mul(lau_mul({0: 1, 1: 1}, {0: 1, 2: -1}), {0: 1, 3: 1}))


def _derivative_lattice_reference(b, engine):
    """The rank-4 derived density as a weighted lattice sum (Cho-Yamauchi
    style), sharing no code with the column chain:

        D(B) = sum_{k=1..4} w_k sum_{part in the box b[:k]} A_{part + 0^(4-k)}(B)

    with weights w = 1, (1+q), (1+q)(1-q^2), (1+q)(1-q^2)(1+q^3), parts >= 1,
    and each A read through ``engine``.  It is -d/dX Den(X, B) at X = 1 for
    odd |B| only (for even |B| it is +d/dX).  Returns (value, reports).
    ``geometry.truncated_partition_sum`` is read at call time, so that a
    test's patch of it applies.
    """
    nv = engine.laurent_value
    total, reports = {}, []
    for k, coeff in enumerate(_LATTICE_WEIGHTS, 1):
        def term(part, _k=k):
            return nv(part + (0,) * (4 - _k), b)
        val, rep = geometry.truncated_partition_sum(f"tail{4 - k}-zeros", k, 1, term, b[:k])
        lau_iadd_scaled(total, lau_mul(coeff, val))
        reports.append(rep)
    return RatFunc.from_laurent(total), reports


def test_box_sum_reports_every_level():
    nv = REDUCE.normalized_value
    val, rep = truncated_partition_sum(
        "demo", 1, 1, lambda p: nv(p + (0, 0, 0), (4, 1, 0, 0)).as_laurent(), (4,))
    assert RatFunc.from_laurent(val) == ONE  # only the (1,0,0,0) term survives
    assert rep.to_json() == {"name": "demo", "box": [4], "levels": [
        {"level": 1, "terms": 1, "all_zero": False},
        {"level": 2, "terms": 1, "all_zero": True},
        {"level": 3, "terms": 1, "all_zero": True},
        {"level": 4, "terms": 1, "all_zero": True}]}
    # a start above the box sums nothing and reports no level
    val, rep = truncated_partition_sum("empty", 2, 3, lambda p: {0: 1}, (2, 2))
    assert val == {} and rep.levels == []


def test_derivative_family_values():
    for a in (2, 4, 6):
        want = closed_form_families(a)
        assert derivative_0000((a, 1, 0, 0)) == want[(a, 1, 0, 0)]
    for key, want in closed_form_families(4).items():
        if key[1] <= 3 and key != (4, 4, 2, 1):
            assert derivative_0000(key) == want, key


def test_derivative_validation():
    with pytest.raises(ValueError):
        derivative_0000((3, 3, 0, 0))
    with pytest.raises(ValueError):
        derivative_0000((3, 1, 0))


def test_derived_density_rejects_even_weight():
    # on even weight the lattice sum is +d/dX Den(X, B) at X = 1, on odd
    # weight -d/dX: no one formula covers both, so even weight is refused
    for b in ((2, 1, 1, 0), (4, 1, 1, 0), (6, 3, 2, 1)):
        with pytest.raises(ValueError, match="odd weight"):
            derivative_0000(b)
    for lam in ((0,), (2,), (1, 1), (0, 0, 0, 0)):
        with pytest.raises(ValueError, match="odd weight"):
            derived_density(lam)


def test_derivative_matches_lattice_reference():
    # the chain against the lattice sum through the reduction engine, on 100
    # seeded odd-weight classes with parts up to 24
    rng = random.Random(1818)
    classes = set()
    while len(classes) < 100:
        a = rng.randint(1, 24)
        b = (a,) + tuple(sorted((rng.randint(0, a - 1) for _ in range(3)), reverse=True))
        if sum(b) % 2:
            classes.add(b)
    engine = make_engine("reduce")
    for b in sorted(classes):
        assert derivative_0000(b) == _derivative_lattice_reference(b, engine)[0], b


def test_derivative_outputs_are_laurent():
    for b in ((4, 1, 0, 0), (4, 2, 1, 0), (6, 3, 1, 1)):
        derivative_0000(b).as_laurent()


def test_derivative_alpha_step_is_constant_within_family():
    # the difference between consecutive even dominant parts does not depend
    # on the dominant part
    for tail in ((1, 0, 0), (1, 1, 1), (3, 0, 0), (3, 1, 1), (2, 1, 0)):
        vals = {a: derivative_0000((a,) + tail) for a in (4, 6, 8)}
        assert vals[6] - vals[4] == vals[8] - vals[6], tail
    vals = {a: derivative_0000((a, 4, 2, 1)) for a in (6, 8, 10)}
    assert vals[8] - vals[6] == vals[10] - vals[8]


def test_sankaran_values():
    assert sankaran_intersection((1, 1), engine=REDUCE) == -(Q - 1)
    assert sankaran_intersection((0, 0), engine=REDUCE) == ZERO
    # (2,0): evaluated term by term through the direct engine
    direct = make_engine("direct")
    assert sankaran_intersection((2, 0), engine=REDUCE) == \
        sankaran_intersection((2, 0), engine=direct)


def test_sankaran_reports():
    for b in ((2, 0), (0, 0), (1, 1), (5, 3), (9, 4)):
        _, reports = sankaran_intersection_report(b, engine=REDUCE)
        assert [(r.name, r.box) for r in reports] == \
            [("pairs-ge-2", b), ("column-1", b[:1]), ("column-0", b[:1])]
        for rep in reports:
            _assert_box_report(rep)


def test_difference_identity_grid():
    for lead in range(2, 6):
        for second in range(2, lead + 1):
            ok, residual = difference_identity_check((lead, second), engine=REDUCE)
            assert ok and residual == ZERO, (lead, second)


def test_difference_identity_validation():
    with pytest.raises(ValueError):
        difference_identity_check((3, 1))


def test_conjecture_families_small():
    for b in ((4, 1, 0, 0), (4, 2, 1, 0), (4, 1, 1, 1)):
        rep = conjecture_check(b, engine=REDUCE)
        assert rep.equal, b
        assert rep.lhs == rep.rhs


def test_conjecture_validation():
    with pytest.raises(ValueError):
        conjecture_check((5, 1, 0, 0))  # odd dominant part
    with pytest.raises(ValueError):
        conjecture_check((4, 4, 0, 0))  # not strictly dominant
    with pytest.raises(ValueError):
        conjecture_check((4, 2, 1, 1))  # even weight


def test_conjecture_report_json():
    rep = conjecture_check((4, 1, 0, 0), engine=REDUCE)
    blob = rep.to_json()
    assert blob["equal"] is True
    assert blob["b"] == [4, 1, 0, 0]
    assert any(s["name"] == "vertex-triples" for s in blob["truncation"])
    # every sum of the rank-4 classes, and those of the lattice reference
    for b in ((4, 1, 0, 0), (6, 3, 1, 1), (6, 4, 3, 2), (2, 1, 0, 0)):
        reports = conjecture_check(b, engine=REDUCE).truncation
        assert [(r.name, r.box) for r in reports] == [
            ("horizontal-steps", b[1:2]), ("vertex-pairs", b[1:3]), ("vertex-triples", b[1:])]
        lattice = _derivative_lattice_reference(b, REDUCE)[1]
        assert [(r.name, r.box) for r in lattice] == \
            [(f"tail{4 - k}-zeros", b[:k]) for k in range(1, 5)]
        for report in reports + lattice:
            _assert_box_report(report)


def test_engine_independence_spot_checks():
    rng = random.Random(21)
    direct = make_engine("direct")
    # derived densities: the lattice reference under either engine equals the
    # chain, on odd weight (the domain of both)
    for _ in range(20):
        a = rng.choice((2, 4))
        tail = tuple(sorted((rng.randint(0, a - 1) for _ in range(3)), reverse=True))
        b = (a,) + tail
        if sum(b) % 2:
            reduced = _derivative_lattice_reference(b, REDUCE)[0]
            assert reduced == _derivative_lattice_reference(b, direct)[0] == \
                derivative_0000(b), b
    # intersection numbers
    for _ in range(20):
        lead = rng.randint(0, 4)
        b = (lead, rng.randint(0, lead))
        assert sankaran_intersection(b, engine=REDUCE) == \
            sankaran_intersection(b, engine=direct), b
    # difference identity
    for _ in range(20):
        lead = rng.randint(2, 5)
        b = (lead, rng.randint(2, lead))
        assert difference_identity_check(b, engine=REDUCE)[0]
        assert difference_identity_check(b, engine=direct)[0]
    # the conjecture, on a few cases (each side is a full double sweep)
    for b in ((4, 1, 0, 0), (4, 2, 1, 0), (4, 3, 1, 1), (2, 1, 0, 0)):
        assert conjecture_check(b, engine=REDUCE).equal
        assert conjecture_check(b, engine=direct).equal


def _golden_maker():
    spec = importlib.util.spec_from_file_location("make_geometry_golden", GOLDEN_MAKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_geometry_golden():
    # values, truncation reports and conjecture reports of both engines, byte
    # for byte; tests/data/make_geometry_golden.py rewrites the file when the
    # geometry outputs are meant to change
    maker = _golden_maker()
    path = GOLDEN_MAKER.with_name("geometry_golden.json")
    text = path.read_text()
    cases = json.loads(text)
    assert [(c["fn"], tuple(c["b"]), c["engine"]) for c in cases] == maker.calls()
    replayed = []
    for case in cases:
        result = maker.record(case["fn"], tuple(case["b"]), case["engine"])
        assert json.dumps(result) == json.dumps(case["result"]), \
            (case["fn"], case["b"], case["engine"])
        replayed.append(dict(case, result=result))
    assert maker.dumps(replayed) == text


def test_zero_screen_is_sound(monkeypatch):
    # every label pair the reduction engine's zero screen answers 0 is 0 by
    # the direct formula: the pairs the screen sees from each sum's support
    # box and the rule-(d) children under them, and the pairs of the terms
    # outside the box, which the sums do not build, at every level from the
    # sum's start to ``top``, four above the largest part of the class
    screened, skipped = {}, {}
    sink = [screened]
    rule = relations.provable_zero
    top = None

    def recording(xi, lam):
        kind = rule(xi, lam)
        if kind is not None:
            sink[-1][(xi, lam)] = kind
        return kind

    real_sum = geometry.truncated_partition_sum

    def replaying(name, length, start, term_fn, bound, min_part=1):
        result = real_sum(name, length, start, term_fn, bound, min_part)
        # build every term outside the box, as an unbounded sum would: each
        # must be exactly zero
        sink.append(skipped)
        try:
            for level in range(start, top + 1):
                inside = set(partitions_first_part(level, length, min_part, bound))
                for part in partitions_first_part(level, length, min_part, (level,) * length):
                    if part not in inside:
                        assert term_fn(part) == {}, (name, part)
        finally:
            sink.pop()
        return result

    engine = make_engine("reduce")
    real_derived = hironaka._derived_laurent

    def with_lattice_reference(lam):
        # each derived density the conjecture takes from the chain also runs
        # the lattice reference on the same class, whose sums the census sees
        value = real_derived(lam)
        assert RatFunc.from_laurent(value) == _derivative_lattice_reference(lam, engine)[0], lam
        return value

    monkeypatch.setattr(relations, "provable_zero", recording)
    monkeypatch.setattr(geometry, "truncated_partition_sum", replaying)
    monkeypatch.setattr(hironaka, "_derived_laurent", with_lattice_reference)
    rng = random.Random(11)
    rank2 = set()
    while len(rank2) < 8:
        lead = rng.randint(2, 9)
        rank2.add((lead, rng.randint(2, lead)))
    rank4 = set()
    while len(rank4) < 6:
        a = rng.choice((2, 4, 6))
        b = (a,) + tuple(sorted((rng.randint(0, a - 1) for _ in range(3)), reverse=True))
        if sum(b) % 2:
            rank4.add(b)
    for b in sorted(rank2):
        top = max(b) + 4
        sankaran_intersection(b, engine=engine)
        difference_identity_check(b, engine=engine)
    for b in sorted(rank4):
        top = max(b) + 4
        conjecture_check(b, engine=engine)

    def census(pairs):
        kinds = list(pairs.values())
        return len(kinds), kinds.count("parity-zero"), kinds.count("support-zero")

    # the box terms themselves are parity zeros only; the support zeros
    # inside come from rule-(d) children, and the replay reaches the rest.
    # The vertex counts are asked at the lowest first part of a's parity
    # (hironaka._lead_period_label), so one support zero under them is no
    # longer reached, here or in the union below
    assert census(screened) == (251, 234, 17)
    checked = {**skipped, **screened}
    assert census(checked) == (6161, 3260, 2901)
    direct = make_engine("direct")
    for xi, lam in checked:
        assert direct.normalized(xi, lam) == ZERO, (xi, lam)
        assert direct.alpha(xi, lam) == ZERO, (xi, lam)


def test_no_sum_mutates_an_engines_values():
    # the one ownership rule: no caller mutates a dict that either engine's
    # laurent_value returns (the reducer's is its memo's own).  The sums run
    # twice on one shared engine of each kind; every memo value the first
    # round stored equals a fresh engine's, and keeps its object and value
    # through the second round, which reads it back
    import copy
    calls = [(sankaran_intersection, b) for b in ((2, 0), (5, 3), (9, 4))]
    calls += [(difference_identity_check, b) for b in ((5, 3), (9, 4))]
    calls += [(conjecture_check, b) for b in ((4, 2, 1, 0), (6, 3, 1, 1), (8, 5, 2, 0))]
    for kind, attr, value in (("reduce", "_memo", "laurent_value"),
                              ("direct", "_alpha", "laurent_alpha")):
        engine = make_engine(kind)
        for fn, b in calls:
            fn(b, engine=engine)
        memo = getattr(engine, attr)
        stored = {key: (val, copy.deepcopy(val)) for key, val in memo.items()}
        assert len(stored) > 50, kind
        for fn, b in reversed(calls):
            fn(b, engine=engine)
        for key, (val, before) in stored.items():
            assert memo[key] is val and val == before, (kind, key)
            assert val == getattr(make_engine(kind), value)(*key), (kind, key)


def test_conjecture_at_a_large_first_part():
    # the twin chain takes the lead run in pairs and the vertex counts are
    # asked at the lowest first part of a's parity, so a = 100000 costs what
    # a small a does; both sides are the family's closed form
    a, q = 100000, Q
    half = a // 2
    forms = {(1, 1, 1): half * (q + 1) * (q ** 3 + 1) + 2 + q - q ** 2,
             (1, 0, 0): (q + 1) * half + 1}
    for tail, form in forms.items():
        report = conjecture_check((a,) + tail)
        assert report.equal, tail
        assert report.lhs == report.rhs == form, tail


def _derivative_box_reference(b):
    """The derived density from Hironaka's box, sharing no code with the lattice sums:

        D(B) = -sum_{mu <= B+1} |mu| (-1)^|mu| (-q)^(-n(mu)-|mu|) prod_j I_j(mu, B)
               / alpha(1_4, 1_4),

    the X-derivative at X = 1 of Den(X, B) = alpha(1_{4+k}, B) / alpha(1_{4+k}, 1_4)
    at X = (-q)^-k, which vanishes at X = 1 for odd |B|.
    """
    lt = tilde(b)
    jmax = b[0] + 1                     # every factor beyond is 1 on the box
    lt_conj = [0] + [conjugate_part(lt, j) for j in range(1, jmax + 2)]
    acc = {}
    for mu in partitions_in_box(lt):
        w = weight(mu)
        if not w:
            continue
        mu_conj = [0] + [conjugate_part(mu, j) for j in range(1, jmax + 2)]
        prod = {0: 1}
        for j in range(1, jmax + 1):
            prod = lau_mul(prod, hironaka._inner_laurent(
                lt_conj[j], lt_conj[j + 1], mu_conj[j], mu_conj[j + 1]))
            if not prod:
                break
        e = -n_stat(mu) - w
        lau_iadd_scaled(acc, prod, shift=e, scale=-w if (w + e) % 2 else w)
    return -RatFunc.from_laurent(acc) / self_density_closed((0, 0, 0, 0))


def test_derivative_matches_box_reference():
    # the normaliser alpha(1_4, 1_4) = prod_{i=1..4} (1 - (-q)^-i); with the
    # sign of (-q)^-i flipped the reference is off by a constant factor
    assert self_density_closed((0, 0, 0, 0)) == \
        (ONE + ONE / Q) * (ONE - ONE / Q ** 2) * (ONE + ONE / Q ** 3) * (ONE - ONE / Q ** 4)
    rng = random.Random(1515)
    classes = {(6, 3, 1, 1), (4, 2, 1, 0), (7, 4, 2, 0)}
    while len(classes) < 28:
        a = rng.randint(1, 8)
        b = (a,) + tuple(sorted((rng.randint(0, a - 1) for _ in range(3)), reverse=True))
        if sum(b) % 2:
            classes.add(b)
    for b in sorted(classes):
        assert derivative_0000(b) == _derivative_box_reference(b), b


def _rank2_closed_form(l, k):
    # empirical: (l+k-1)/2 for odd l+k, (l+k)/2 - (q + ... + q^k) for even l+k
    if (l + k) % 2:
        return ONE * ((l + k - 1) // 2)
    val = ONE * ((l + k) // 2)
    for i in range(1, k + 1):
        val = val - Q ** i
    return val


def test_sankaran_rank2_closed_form():
    engine = make_engine("reduce")
    for l in range(22):
        for k in range(l + 1):
            assert sankaran_intersection((l, k), engine=engine) == _rank2_closed_form(l, k), (l, k)
    assert sankaran_intersection((60, 41), engine=engine) == _rank2_closed_form(60, 41) == 50
