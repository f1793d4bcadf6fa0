#!/usr/bin/env python3
"""Write the pinned case universes in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

For each workload with seed-drawn cases this enumerates a fixed universe of
cases, runs each one, checks it (families against closed forms, controls for
a nonzero residual, crosschecks against the oracle) and pins the digest of
its value.  Cases are then sorted by their measured cost (fastest of five
runs, caches warm) and cut into narrow strata, from which ``make_cases``
draws two per seed.  The strata are data: once written they fix every
seed's inputs, whatever a later commit does to the cost of a case.

Run it only to change a universe; a commit that changes the program should
leave these files alone, so that the digests keep checking its outputs.
"""

from __future__ import annotations

import itertools
import json
import platform
import random
import sys
import time

import numpy

import workloads as W
from hermdens.partitions import lambda_ns_elements, partitions_fixed_length, tilde

MASTER_SEED = 20261017


def pinned(case, workload):
    """Run, pin the digest and check one case; returns its JSON form."""
    out = W.run_case(case, W.PassState(workload))
    if case.kind == "alpha":
        case.expect = W.digest(out)
    elif case.kind == "conjecture":
        case.expect = W.digest(out.lhs)
    elif case.kind == "sankaran":
        case.expect = W.digest(out)
    reason = W.check_case(case, out)
    if reason is not None:
        raise SystemExit(f"reference case {case.size()} fails its check: {reason}")
    return case.to_json()


def with_costs(objs, workload, sweeps=5):
    """Set each case's cost_ms to its fastest of `sweeps` runs, caches warm.

    Runs of one case lie a whole sweep apart, so a slow spell of a shared
    host does not reach all of them; the fastest run tracks the case's work.
    """
    cases = [W.Case.from_json(o) for o in objs]
    best = [float("inf")] * len(cases)
    for _ in range(sweeps):
        for i, case in enumerate(cases):
            t0 = time.perf_counter()
            W.run_case(case, W.PassState(workload))
            best[i] = min(best[i], time.perf_counter() - t0)
    for obj, t in zip(objs, best):
        obj["cost_ms"] = round(t * 1000, 3)
    return objs


def strata(objs, picks):
    """Cut the cases, cheapest first, into strata of near-equal size from which
    two each are drawn; so narrow a stratum keeps a pass's cost nearly the
    same from seed to seed."""
    objs = sorted(objs, key=lambda o: o["cost_ms"])
    k = picks // W.PER_STRATUM
    return [objs[i * len(objs) // k:(i + 1) * len(objs) // k] for i in range(k)]


def box_size(lam):
    """Number of partitions mu <= lam + (1, ..., 1) that alpha's sum visits."""
    ways = [1] * (lam[0] + 2)
    for bound in tilde(lam)[1:]:
        ways = [sum(ways[v:]) for v in range(bound + 1)]
    return sum(ways)


def alpha_universe():
    """n in 3..6, m in {n, n+1}, lam parts <= 10, xi parts <= 3, plus self cases,
    spread evenly over ten box-size buckets between 20 and 2100 candidates."""
    rng = random.Random(MASTER_SEED)
    edges = (20, 45, 90, 160, 260, 400, 600, 850, 1150, 1550, 2100)
    quota = {(b, self_): (6 if self_ else 24) for b in range(10) for self_ in (False, True)}
    seen, out = set(), []
    for _ in range(200000):
        if not any(quota.values()):
            break
        n = rng.randint(3, 6)
        lam = tuple(sorted((rng.randint(0, 10) for _ in range(n)), reverse=True))
        is_self = rng.random() < 0.2
        if is_self:
            xi = lam
        else:
            m = rng.choice((n, n + 1))
            xi = tuple(sorted((rng.randint(0, 3) for _ in range(m)), reverse=True))
        box = box_size(lam)
        bucket = next((i for i in range(10) if edges[i] <= box < edges[i + 1]), None)
        if bucket is None or (xi, lam) in seen or not quota[(bucket, is_self)]:
            continue
        quota[(bucket, is_self)] -= 1
        seen.add((xi, lam))
        out.append(W.Case("alpha", (xi, lam)))
    return out


def geometry_universe():
    """Every odd-weight rank-4 class with even, strictly dominant a in 4..10."""
    out = []
    for a in (4, 6, 8, 10):
        for tail in itertools.combinations_with_replacement(range(a - 1, -1, -1), 3):
            if (a + sum(tail)) % 2:
                out.append(W.Case("conjecture", ((a,) + tail,)))
    return out


def oracle_universe():
    """Ranks (2,1) at p = 3, d = 2-3 and at p = 5, d = 2 with xi parts <= 4,
    (3,1) at p = 3, d = 2 with xi parts <= 3 and (2,2) at p = 3, d = 2 with
    parts <= 1; each with the d+1 count wherever the budget and the memory
    ceiling admit it."""
    configs = []
    for p, d in ((3, 2), (3, 3), (5, 2)):
        for xi in partitions_fixed_length(2, 0, 4):
            configs += [(xi, (k,), p, d) for k in range(d)]
    configs += [(xi, (k,), 3, 2) for xi in partitions_fixed_length(3, 0, 3) for k in (0, 1)]
    configs += [(xi, lam, 3, 2) for xi in partitions_fixed_length(2, 0, 1)
                for lam in partitions_fixed_length(2, 0, 1)]
    out = []
    for xi, lam, p, d in configs:
        confirm = W.oracle_admits(p, d + 1, len(xi), len(lam))
        out.append(W.Case("crosscheck", (xi, lam, p, d, confirm)))
    return out


def relation_controls():
    """lam_n = 0 negative controls for n = 2, 3 whose residual is nonzero."""
    out = []
    for n in (2, 3):
        for s in range(1, n + 1):
            for xi in lambda_ns_elements(n, s, 3):
                for head in partitions_fixed_length(n - 1, 1, 3):
                    args = (n, s, xi, head + (0,))
                    if args in W.FIXED_CONTROLS:
                        continue
                    case = W.Case("control", args)
                    out_ = W.run_case(case, W.PassState("relation-sweep"))
                    if W.check_case(case, out_) is None:
                        out.append(case.to_json())
    return out


def build(workload):
    ref = {"workload": workload, "made_with": {
        "master_seed": MASTER_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hermdens_source": W.source_digest(),
    }}
    if workload == "alpha-direct":
        objs = with_costs([pinned(c, workload) for c in alpha_universe()], workload)
        ref["strata"] = strata(objs, 100)
    elif workload == "geometry-reduce":
        objs = with_costs([pinned(c, workload) for c in geometry_universe()], workload)
        ref["strata"] = strata(objs, 88)
        ref["sankaran"] = [pinned(W.Case("sankaran", (b,)), workload)
                           for b in partitions_fixed_length(2, 0, 8)]
        ref["difference"] = [pinned(W.Case("difference", (b,)), workload)
                             for b in partitions_fixed_length(2, 2, 9)]
        ref["extra"] = {"sankaran": 6, "difference": 6}
    elif workload == "oracle-crosscheck":
        objs = [pinned(c, workload) for c in oracle_universe()]
        objs.append(pinned(W.Case("crosscheck", ((0, 0), (1,), 7, 2, False)), workload))
        objs = with_costs(objs, workload)
        p7 = objs.pop()
        # sub-2 ms cases measure the harness, not the oracle; the few heavy
        # ones run on every seed, so that the p90 does not hinge on the draw
        ref["strata"] = strata([o for o in objs if 2.0 <= o["cost_ms"] < 100.0], 94)
        ref["always"] = [o for o in objs if o["cost_ms"] >= 100.0]
        ref["always"].append(p7)
    elif workload == "relation-sweep":
        ref["controls"] = relation_controls()
    path = W.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    for name in sys.argv[1:] or W.WORKLOADS:
        build(name)
