#!/usr/bin/env python3
"""Short benchmark runs that fail unless the output is well formed.

    python3 .github/scripts/bench_smoke.py alpha-direct relation-sweep --traced alpha-direct

Runs ``perfbench/run.py --seed 1 --seconds 1 --trace 0`` for each named
workload, and ``--trace 1`` for each ``--traced`` one, from the repository
root.  A run passes when it exits 0, prints exactly two stdout lines that both
parse as strict JSON (no ``NaN`` or ``Infinity``), and the last one has
``"correct": true`` and every metric that BENCHMARK.json names: the end-to-end
metrics untraced, the per-layer metrics traced.  A traced run also needs an
empty ``absent`` list in its detail line, so that every tracer target was found.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def check(workload, trace, metrics):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        return f"exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    if len(lines) != 2:
        return f"printed {len(lines)} stdout lines, expected 2"
    try:
        detail, result = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    except ValueError as exc:
        return f"stdout line is not strict JSON: {exc}"
    if result.get("correct") is not True:
        return f"correct is {result.get('correct')!r}"
    missing = sorted(set(metrics) - set(result.get("metrics", {})))
    if missing:
        return f"missing metrics {missing}"
    absent = detail.get("detail", {}).get("absent")
    if trace and absent != []:
        return f"absent tracer targets {absent!r}"
    return None


def main(argv):
    parser = argparse.ArgumentParser(description="Short benchmark runs with output checks.")
    parser.add_argument("workloads", nargs="+", help="workloads to run untraced")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD",
                        help="also run this workload traced (repeatable)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {trace: [m["name"] for m in bench[kind]]
               for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}
    runs = [(w, 0) for w in args.workloads] + [(w, 1) for w in args.traced]
    failed = 0
    for workload, trace in runs:
        reason = check(workload, trace, metrics[trace])
        label = f"{workload} (traced)" if trace else workload
        print(f"{label}: {'ok' if reason is None else 'FAILED, ' + reason}")
        failed += reason is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
