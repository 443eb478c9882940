#!/usr/bin/env python3
"""Benchmark for shufflereg: closed-loop workloads measured from outside the library.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_n500 --seed 1 --seconds 20 --trace 0

Workloads: sweep_n500, tie_n64, demo_failure_n1000, solve_files (see
``workloads.py`` for why each is there). The library is imported from
``src/`` of the checkout that holds this file; without it the command fails.

``--trace 0`` measures the end-to-end metrics with nothing wrapped. One
operation is a sweep trial, a solve, or an alternating-minimization
iteration; one call is one ``run_sweep``, one ``solve`` or one demo. Set-up
time is the median over fresh processes that each import the library and
generate the inputs.

``--trace 1`` alternates untraced calls with calls that have every wrap
target of ``tracer.py`` wrapped, and prints the per-layer metrics and the
tracing overhead. It also checks that the wrapper counts of ``lap_maximize`` and
``least_squares_signal`` equal the library's own ``instrument`` deltas.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results, and in
traced runs every span, are also written under ``.perfbench-out/``. A failed
correctness check prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("sweep_n500", "tie_n64", "demo_failure_n1000", "solve_files")
SETUP_SAMPLES = {"full": 3, "tiny": 1}
# Gated by BENCHMARK.json. Call latency (median and tail) is printed and saved but not
# gated: with one closed-loop caller it carries the same information as ops_per_s,
# and its run-to-run spread on a 2-vCPU shared host is about 1.5 times as wide.
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")
# Layer metrics that every workload produces; the rest are printed but are n/a somewhere.
PER_LAYER = (
    "lap.maximize_ms", "lap.calls", "lap.scipy_ms", "lap.subsolves", "lap.subsolves_per_call",
    "lap.self_ms", "estimators.ls_ms", "estimators.ls_calls", "estimators.cost_bytes",
    "trace.overhead_pct",
)


class BenchError(RuntimeError):
    pass


def load_library():
    src = ROOT / "src"
    package = src / "shufflereg"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"library source not found at {package}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import shufflereg

    if Path(shufflereg.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported shufflereg from {shufflereg.__file__}, not from {package}")
    return shufflereg


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy dimensions (smoke test)")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def time_setup(args, workdir: Path) -> float:
    """Wall time of a fresh process that imports the library and generates the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
           "--setup-only", str(workdir)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        raise BenchError("set-up process did not finish within 120 s") from None
    elapsed = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def timed_call(workload, k: int, tracer=None) -> tuple[float, int]:
    """Latency and operation count of call k; checks run after the clock stops."""
    start = time.perf_counter()
    if tracer is None:
        record = workload.run(k)
    else:
        with tracer.call():
            record = workload.run(k)
    latency = time.perf_counter() - start
    return latency, workload.account(k, record)


def measure(workload, seconds: float):
    """Closed loop for ``seconds``, after warm-up call 0."""
    latencies = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latency, done = timed_call(workload, len(latencies) + 1)
        latencies.append(latency)
        ops += done
    return latencies, ops


def end_to_end(workload, args, setup_times):
    from layers import tail

    latencies, ops = measure(workload, args.seconds)
    p50 = statistics.median(latencies)
    tail_s, tail_pct = tail(latencies)
    name, unit = workload.call_name, workload.ops_name
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_line = (f"{tail_s:.4f} s  (p{tail_pct:.1f} of {len(latencies)} calls, 10 beyond)"
                 if tail_s is not None else f"n/a  (needs 21 calls, got {len(latencies)})")
    lines = [
        f"setup_s       {metrics['setup_s'][0]:.4f} s  (median of {len(setup_times)} fresh processes)",
        f"{unit}_per_s  {metrics['ops_per_s'][0]:.4f} 1/s  [ops_per_s]  ({ops} {unit} in {len(latencies)} calls)",
        f"{name}_p50_s   {p50:.4f} s  ({len(latencies)} calls)",
        f"{name}_tail_s  {tail_line}",
        f"peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    details = {"setup_samples_s": setup_times, "call_latencies_s": latencies,
               "call_p50_s": p50, "call_tail_s": tail_s, "tail_percentile": tail_pct}
    return metrics, lines, details


def traced(workload, args, shufflereg):
    from layers import layer_table
    from tracer import Tracer

    tracer = Tracer()
    plain, spans_lat, plain_ops, spans_ops = [], [], 0, 0
    delta = Counter()
    deadline = time.perf_counter() + args.seconds
    k = 1
    # Untraced and traced calls alternate, so drift in machine speed cancels in the overhead.
    while time.perf_counter() < deadline or not spans_lat:
        latency, done = timed_call(workload, k)
        plain.append(latency)
        plain_ops += done
        before = shufflereg.instrument.snapshot()
        tracer.install()
        try:
            latency, done = timed_call(workload, k + 1, tracer)
        finally:
            tracer.uninstall()
        delta.update(shufflereg.instrument.delta_since(before))
        spans_lat.append(latency)
        spans_ops += done
        k += 2
    overhead = 100.0 * ((plain_ops / sum(plain)) / (spans_ops / sum(spans_lat)) - 1.0)
    table = layer_table(tracer.spans, workload.workers, overhead)
    wrapper_calls = Counter(span.name for span in tracer.spans)
    counts = {
        "lap_solve": (delta.get("lap_solve", 0), wrapper_calls["estimators.lap_maximize"]),
        "ls_solve": (delta.get("ls_solve", 0), wrapper_calls["estimators.least_squares_signal"]),
    }
    problems = [f"count cross-check: instrument {event} = {lib}, wrapper calls = {seen}"
                for event, (lib, seen) in counts.items() if lib != seen]
    lines = [f"{name:28s} {'n/a' if value is None else f'{value:.6g}'} {unit}"
             for name, (value, unit) in table.items()]
    lines.append("count cross-check: " + ", ".join(
        f"{event} instrument={lib} wrapper={seen}" for event, (lib, seen) in counts.items()))
    metrics = {name: table[name] for name in PER_LAYER}
    details = {"layers": table, "cross_check": counts}
    return metrics, lines, details, problems, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    try:
        shufflereg = load_library()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    if here not in sys.path:
        sys.path.insert(0, here)
    import envinfo
    import workloads
    from tracer import TracerError

    workload = workloads.SIZES[args.size][args.workload]()
    if args.setup_only:
        workload.setup(args.seed, Path(args.setup_only))
        return 0

    env = envinfo.environment(loadavg)
    print("env " + json.dumps(env))
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    tracer = None
    try:
        setup_times = [] if args.trace else [
            time_setup(args, workdir / f"setup{i}") for i in range(SETUP_SAMPLES[args.size])]
        workload.setup(args.seed, workdir / "inputs")
        workload.account(0, workload.run(0))  # warm-up: lazy imports, BLAS thread start
        if args.trace:
            metrics, lines, details, problems, tracer = traced(workload, args, shufflereg)
        else:
            metrics, lines, details = end_to_end(workload, args, setup_times)
            problems = []
        problems += workload.check()
    except (BenchError, TracerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = workload.failed / workload.ops
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {workload.workers}  size {args.size}")
    for line in lines:
        print("  " + line)
    print(f"  error_rate    {error_rate:.4g}  ({workload.failed} of {workload.ops} {workload.ops_name})")
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    result = {
        "correct": not problems,
        "attempted": workload.ops,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem.with_suffix(".json"), "w", encoding="ascii") as fh:
        json.dump({"env": env, "args": vars(args), "result": result, "details": details,
                   "problems": problems}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
