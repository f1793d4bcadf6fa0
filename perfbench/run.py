#!/usr/bin/env python3
"""hermdens benchmark: one client, one process, a closed loop.

    python3 perfbench/run.py --workload alpha-direct --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
run measures one workload (see ``workloads.py`` and ``NOTES.md``):

1. a warm-up pass fills the library's caches and the off-clock references;
2. timed passes run the whole case list again and again, each case one
   closed-loop request with library defaults (``workers=1``,
   ``DEFAULT_BUDGET``, ``SumTruncationPolicy.for_target``), at least
   ``MIN_PASSES`` times and until the next pass would end after
   ``--seconds``; latencies are pooled over the passes, and between cases,
   off the clock, fixed host-speed samples measure how fast the host ran;
3. after each pass, every output is checked off the clock, and one cold
   interpreter imports hermdens, makes the seed's cases and builds the
   first pass's engines; ``setup_s`` is the median of these set-up probes
   (plus one before the warm-up), timed from process start to "ready".

Every time metric is divided by the host's slowdown against a fixed
reference speed, so that it reads what a host at that speed would see
(``HOST_SAMPLERS``; NOTES.md, "Host noise"); the unscaled figures are in the
detail record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` half the time runs untraced, half with ``tracer.Tracer``
installed, and the line carries the per-layer metrics of the traced passes
(counts and self time per pass) and the tracing overhead.  The line before
it is a JSON ``detail`` record: provenance, sample counts, the unscaled
figures, the host's slowdown, the drift reference, failures and, when
traced, each layer's share of the time.  The exit code is 1 when any output check
failed.  ``--workload all`` runs every workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench_out"

CLI_PROBES = 3
MIN_PASSES = 3
HARD_STOP_S = 120              # never measure longer than this, whatever --seconds says

PY_SAMPLE_ITERS = 100_000
NP_SAMPLE_SIZE = 1 << 21
DRIFT_ITERS = 1_000_000


def python_sample(iters=PY_SAMPLE_ITERS):
    """Seconds a fixed pure-Python loop takes; it tracks the host's speed, not hermdens."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def numpy_sample():
    """Seconds a fixed int64 numpy kernel takes, on arrays as large as the oracle's."""
    import numpy as np
    t0 = time.perf_counter()
    idx = np.arange(NP_SAMPLE_SIZE, dtype=np.int64)
    a, b = idx % 9, idx // 9 % 9
    int(((a * b - 3 * b * b + a) % 81 == 5).sum())
    return time.perf_counter() - t0


# Host-speed samples, taken between cases, off the clock, by the kind of work
# that dominates a workload's cases: kind -> (sampler, least seconds between
# two samples, seconds a sample takes at the reference speed).  Neither
# sampler calls hermdens.  Latencies are divided by the host's slowdown, the
# median sample over its reference time (NOTES.md, "Host noise").
HOST_SAMPLERS = {
    "python": (python_sample, 0.25, 0.008),
    "numpy": (numpy_sample, 1.0, 0.08),
}

# Set-up time is scaled the same way by a cold `python -c "import numpy"`,
# which tracks process start and imports as the samplers above do not.
START_ARGV = ("-c", "import numpy")
START_REF_S = 0.12


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_seconds(argv, until_line=None):
    """Wall time of a fresh interpreter, to the given stdout line or to exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if until_line is not None:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            out, err = proc.communicate(timeout=60)
            out = line + "\n" + out
        else:
            out, err = proc.communicate(timeout=60)
            elapsed = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (until_line is not None and line != until_line):
        raise RuntimeError(f"probe {argv} failed ({proc.returncode}): {err.strip()}")
    return elapsed, out


def setup_probe(workload, seed):
    """Body of one set-up probe: import, make inputs, build engines, say ready."""
    import workloads as W
    cases = W.make_cases(workload, seed)
    W.PassState(workload)
    print("ready", flush=True)
    return 0 if cases else 1


def setup_seconds(workload, seed):
    """One cold start to the first case ready, and one cold start of the reference import."""
    setup = cold_seconds([str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload,
                          "--seed", str(seed)], until_line="ready")[0]
    return setup, cold_seconds(START_ARGV)[0]


def measure_cli():
    """Cold `import hermdens` and a cold `python -m hermdens self 0`."""
    imports = []
    for _ in range(CLI_PROBES):
        _, out = cold_seconds(["-c", "import time; t = time.perf_counter(); import hermdens; "
                                     "print(time.perf_counter() - t)"])
        imports.append(float(out.split()[-1]))
    commands = []
    for _ in range(CLI_PROBES):
        elapsed, out = cold_seconds(["-m", "hermdens", "self", "0"])
        if out.strip() != "(q+1)/(q)":
            raise RuntimeError(f"`hermdens self 0` printed {out.strip()!r}")
        commands.append(elapsed)
    return statistics.median(imports), statistics.median(commands)


class Loop:
    """Runs passes over one case list and checks every output."""

    def __init__(self, workload, cases):
        import workloads as W
        self.W = W
        self.workload = workload
        self.cases = cases
        self.attempted = self.failed = 0
        self.failures = []        # the first few reasons, for the detail record
        self.sampler, self.sample_every, self.sample_ref = HOST_SAMPLERS[
            W.HOST_WORK.get(workload, "python")]
        self.samples = []         # host-speed samples taken during passes

    def run_pass(self, tracer=None):
        """One pass; returns each case's latency.

        Host-speed samples are taken between cases, off the clock.  With a
        tracer, its wrappers are in place only while cases run."""
        W, cases = self.W, self.cases
        outs, lat = [None] * len(cases), [0.0] * len(cases)
        clock = time.perf_counter
        if tracer is not None:
            tracer.install()
        try:
            state = W.PassState(self.workload)
            next_sample = clock()
            for i, case in enumerate(cases):
                t0 = clock()
                try:
                    if tracer is None:
                        outs[i] = W.run_case(case, state)
                    else:
                        outs[i] = tracer.run_case(i, W.run_case, case, state)
                except Exception as exc:   # a failed case is counted, the loop goes on
                    outs[i] = exc
                    exc.trace_text = traceback.format_exc()
                t1 = clock()
                lat[i] = t1 - t0
                if t1 >= next_sample:
                    self.samples.append(self.sampler())
                    next_sample = clock() + self.sample_every
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.check(outs)
        return lat

    def check(self, outs):
        for case, out in zip(self.cases, outs):
            self.attempted += 1
            reason = self.W.check_case(case, out)
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{case.size()}: {reason}")
                    if isinstance(out, BaseException):
                        print(out.trace_text, file=sys.stderr)

    def timed_passes(self, seconds, min_passes, tracer=None, between=None):
        """Passes until the next would end after `seconds`, and at least `min_passes`.

        `between` runs after each pass, off the clock.  Returns the per-case
        latencies of each pass and the host's slowdown meanwhile."""
        latencies, walls = [], []
        self.samples = []
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            latencies.append(self.run_pass(tracer))
            walls.append(time.perf_counter() - t_pass)
            if between is not None:
                between()
            spent = time.perf_counter() - t_start
            if spent > HARD_STOP_S:
                break
            if len(walls) >= min_passes and spent + statistics.median(walls) > seconds:
                break
        return latencies, statistics.median(self.samples) / self.sample_ref


def main(argv=None):
    if not (SRC / "hermdens" / "__init__.py").is_file():
        print(f"error: no hermdens sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn with a table of every metric")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args, W.WORKLOADS)

    import numpy
    cases = W.make_cases(args.workload, args.seed)
    loop = Loop(args.workload, cases)
    drift_start = python_sample(DRIFT_ITERS)
    loop.run_pass()                                   # warm-up, checked, not timed
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "hermdens_source": W.source_digest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "cases_per_pass": len(cases),
        "case_kinds": dict(Counter(c.kind for c in cases)), "cases": [c.size() for c in cases],
    }

    if args.trace:
        metrics = traced_run(args, loop, detail)
    else:
        # set-up probes are spread over the run, one before the warm-up and
        # one after each pass
        setup_runs = [setup_seconds(args.workload, args.seed)]
        latencies, slowdown = loop.timed_passes(
            args.seconds, MIN_PASSES,
            between=lambda: setup_runs.append(setup_seconds(args.workload, args.seed)))
        start_slowdown = statistics.median(ref for _, ref in setup_runs) / START_REF_S
        # latencies are pooled over the passes; every time is divided by the
        # host's slowdown, measured meanwhile
        pooled = [x for lat in latencies for x in lat]
        p90 = statistics.quantiles(pooled, n=10)[8]
        raw = {
            "throughput_cases_per_s": len(pooled) / sum(pooled),
            "latency_p50_ms": statistics.median(pooled) * 1000,
            "latency_p90_ms": p90 * 1000,
            "setup_s": statistics.median(setup for setup, _ in setup_runs),
        }
        metrics = {
            "throughput_cases_per_s": (raw["throughput_cases_per_s"] * slowdown, "cases/s"),
            "latency_p50_ms": (raw["latency_p50_ms"] / slowdown, "ms"),
            "latency_p90_ms": (raw["latency_p90_ms"] / slowdown, "ms"),
            "setup_s": (raw["setup_s"] / start_slowdown, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_rate": (1 - loop.failed / loop.attempted, "ratio"),
        }
        detail.update(passes=len(latencies), setup_and_reference_runs_s=setup_runs,
                      latency_samples=len(pooled),
                      samples_beyond_p90=sum(1 for x in pooled if x > p90),
                      host_slowdown=slowdown, host_samples=len(loop.samples),
                      start_slowdown=start_slowdown, raw=raw)

    failed = loop.failed
    detail.update(calibration_ms={"start": drift_start * 1000,
                                  "end": python_sample(DRIFT_ITERS) * 1000},
                  attempted=loop.attempted, failed=failed,
                  error_rate=failed / loop.attempted, failures=loop.failures)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args, workloads):
    """Every workload in its own process, one after another, with one table."""
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        argv = [str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            raise RuntimeError(f"{workload} exited with {proc.returncode} and no result")
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            print(f"{workload:18} {name:36} {m['value']:14.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def traced_run(args, loop, detail):
    from tracer import Tracer
    half = args.seconds / 2
    plain_lat, plain_slowdown = loop.timed_passes(half, 1)
    tracer = Tracer()
    traced_lat, traced_slowdown = loop.timed_passes(half, 1, tracer)
    traced_s = sum(map(sum, traced_lat))
    # both throughputs at the reference speed, so host drift between the halves cancels
    plain = len(loop.cases) * len(plain_lat) / sum(map(sum, plain_lat)) * plain_slowdown
    traced = len(loop.cases) * len(traced_lat) / traced_s * traced_slowdown
    metrics = tracer.per_layer(len(traced_lat))
    import_s, command_s = measure_cli()
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.cold_command_s"] = (command_s, "s")
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(span_file)
    detail.update(untraced_passes=len(plain_lat), traced_passes=len(traced_lat),
                  untraced_throughput=plain, traced_throughput=traced,
                  absent=tracer.absent, self_share=tracer.self_shares(traced_s),
                  spans=len(tracer.spans), dropped_spans=tracer.dropped_spans,
                  span_file=str(span_file.relative_to(ROOT)))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
