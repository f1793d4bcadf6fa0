#!/usr/bin/env python3
"""Short benchmark runs that fail unless the output is well formed.

    python3 .github/scripts/bench_smoke.py alpha-direct relation-sweep

Runs ``perfbench/run.py --seed 1 --seconds 1 --trace 0`` for each named
workload from the repository root.  A run passes when it exits 0, prints
exactly two stdout lines that both parse as JSON, and the last one has
``"correct": true`` and every end-to-end metric named in BENCHMARK.json.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def check(workload, metrics):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        return f"exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    if len(lines) != 2:
        return f"printed {len(lines)} stdout lines, expected 2"
    try:
        result = [json.loads(line) for line in lines][-1]
    except json.JSONDecodeError as exc:
        return f"stdout line is not JSON: {exc}"
    if result.get("correct") is not True:
        return f"correct is {result.get('correct')!r}"
    missing = sorted(set(metrics) - set(result.get("metrics", {})))
    if missing:
        return f"missing end-to-end metrics {missing}"
    return None


def main(workloads):
    if not workloads:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    failed = 0
    for workload in workloads:
        reason = check(workload, metrics)
        print(f"{workload}: {'ok' if reason is None else 'FAILED, ' + reason}")
        failed += reason is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
