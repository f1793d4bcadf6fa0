"""Rewrite geometry_golden.json: the exact outputs of the geometry functions,
with the support-box reports of their sums, on a fixed set of classes and
both engines.

Each record holds one call: ``derivative_0000`` as its value, once per class
and with no engine (it asks none); ``sankaran_intersection_report`` as its
value and ``SumReport.to_json`` list; ``conjecture_check`` as
``ConjectureReport.to_json``; and ``difference_identity_check`` as its flag
and residual.

Run from the repository root with ``PYTHONPATH=src python tests/data/make_geometry_golden.py``,
and only when the geometry outputs are meant to change;
``tests/test_geometry.py::test_geometry_golden`` replays the file.
"""

import json
from pathlib import Path

from hermdens.geometry import (
    conjecture_check,
    derivative_0000,
    difference_identity_check,
    make_engine,
    sankaran_intersection_report,
)

# (class, engines): the direct engine only where it stays fast
RANK4 = [
    ((4, 1, 0, 0), ("reduce", "direct")),
    ((4, 2, 1, 0), ("reduce", "direct")),
    ((6, 3, 1, 1), ("reduce", "direct")),
    ((8, 5, 2, 0), ("reduce", "direct")),
    ((7, 4, 2, 0), ("reduce", "direct")),   # odd dominant part: no conjecture
    ((10, 9, 6, 4), ("reduce",)),
]
RANK2 = [
    ((2, 0), ("reduce", "direct")),
    ((1, 1), ("reduce", "direct")),
    ((5, 3), ("reduce", "direct")),
    ((9, 4), ("reduce", "direct")),
    ((21, 13), ("reduce",)),
]


def _sum_record(value, reports):
    return {"value": value.to_json(), "reports": [r.to_json() for r in reports]}


def record(fn, b, engine):
    """The JSON form of one geometry call on a fresh engine of the given kind
    (None for ``derivative_0000``)."""
    if fn == "derivative_0000":
        return {"value": derivative_0000(b).to_json()}
    eng = make_engine(engine)
    if fn == "conjecture_check":
        return conjecture_check(b, engine=eng).to_json()
    if fn == "sankaran_intersection_report":
        return _sum_record(*sankaran_intersection_report(b, engine=eng))
    if fn == "difference_identity_check":
        equal, residual = difference_identity_check(b, engine=eng)
        return {"equal": equal, "residual": residual.to_json()}
    raise ValueError(f"unknown geometry call {fn!r}")


def calls():
    """(fn, class, engine) for every recorded call, in file order."""
    out = []
    for b, engines in RANK4:
        out.append(("derivative_0000", b, None))
        if b[0] % 2 == 0 and sum(b) % 2:
            out += [("conjecture_check", b, e) for e in engines]
    for b, engines in RANK2:
        fns = ["sankaran_intersection_report"]
        if b[1] >= 2:
            fns.append("difference_identity_check")
        out += [(fn, b, e) for e in engines for fn in fns]
    return out


def dumps(cases):
    """The file text of a list of cases."""
    return json.dumps(cases, indent=1) + "\n"


def main():
    cases = [{"fn": fn, "b": list(b), "engine": e, "result": record(fn, b, e)}
             for fn, b, e in calls()]
    Path(__file__).with_name("geometry_golden.json").write_text(dumps(cases))


if __name__ == "__main__":
    main()
