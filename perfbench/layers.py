"""Per-layer metrics computed from the spans of one traced run.

Times, counts and bytes are per closed-loop call (``ms/call``, ``count/call``,
``B/call``), so a faster program that completes more calls in the same
seconds does not read as more work. The exceptions are the per-trial
percentiles, the failed-trial total and the size of the largest cost matrix.
A timing whose layer never ran on the workload is ``None`` (printed as
``n/a``), never 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import CALL


def tail(values) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 21 samples that percentile would lie under the median, so
    ``(None, None)`` is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return None, None
    return ordered[n - 11], 100.0 * (n - 10) / n


def _union_ms(intervals) -> float:
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return 1e3 * covered


def layer_table(spans, workers: int, overhead_pct: float) -> dict:
    """Map ``metric name -> (value or None, unit)`` for every traced layer."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    calls = by_name[CALL]
    ncalls = len(calls)
    call_ms = sum(s.ms for s in calls)
    self_ms = sum(s.ms - _union_ms(children[s.span]) for s in calls) / ncalls

    def count(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    def count_per_call(*names) -> float:
        return count(*names) / ncalls

    def per_call(*names):
        if not count(*names):
            return None
        return sum(s.ms for n in names for s in by_name[n]) / ncalls

    def detail_sum(*names) -> float:
        return sum(s.detail for n in names for s in by_name[n] if s.detail is not None)

    trials = by_name["experiments.run_trial"]
    trial_ms = [s.ms for s in trials]
    lap_ms = per_call("estimators.lap_maximize")
    scipy_ms = per_call("lap.linear_sum_assignment")
    lap_calls = count("estimators.lap_maximize")
    subsolves = count("lap.linear_sum_assignment")
    io_ran = bool(count("cli.read_matrix"))
    write_names = ("cli.write_matrix", "cli.write_permutation")
    return {
        "experiments.trial_p50_ms": (statistics.median(trial_ms) if trials else None, "ms"),
        "experiments.trial_tail_ms": (tail(trial_ms)[0] if trials else None, "ms"),
        "experiments.trial_tail_pct": (tail(trial_ms)[1] if trials else None, "percentile"),
        "experiments.worker_busy_frac": (
            sum(trial_ms) / (workers * call_ms) if trials else None, "fraction"),
        "experiments.sweep_self_ms": (self_ms if trials else None, "ms/call"),
        "experiments.failed_trials": (int(detail_sum("experiments.run_trial")), "count"),
        "estimators.ls_ms": (per_call("estimators.least_squares_signal"), "ms/call"),
        "estimators.ls_calls": (count_per_call("estimators.least_squares_signal"), "count/call"),
        "estimators.cost_ms": (per_call("estimators.build_onestep_cost"), "ms/call"),
        "estimators.cost_bytes": (
            max((s.detail for s in by_name["estimators.lap_maximize"]), default=0.0), "B"),
        "estimators.onestep_ms": (
            per_call("experiments.one_step_estimate", "cli.one_step_estimate"), "ms/call"),
        "estimators.altmin_ms": (per_call("experiments.alternating_minimization"), "ms/call"),
        "estimators.altmin_iters": (
            detail_sum("experiments.alternating_minimization") / ncalls, "count/call"),
        "lap.maximize_ms": (lap_ms, "ms/call"),
        "lap.calls": (count_per_call("estimators.lap_maximize"), "count/call"),
        "lap.scipy_ms": (scipy_ms, "ms/call"),
        "lap.subsolves": (count_per_call("lap.linear_sum_assignment"), "count/call"),
        "lap.subsolves_per_call": (subsolves / lap_calls if lap_calls else None, "count/lap_call"),
        "lap.self_ms": (lap_ms - scipy_ms if lap_calls else None, "ms/call"),
        "model.synthesize_ms": (per_call("experiments.synthesize_instance"), "ms/call"),
        "model.synthesize_calls": (count_per_call("experiments.synthesize_instance"), "count/call"),
        "matrixio.read_ms": (per_call("cli.read_matrix"), "ms/call"),
        "matrixio.read_bytes": (detail_sum("cli.read_matrix") / ncalls, "B/call"),
        "matrixio.write_ms": (per_call(*write_names), "ms/call"),
        "matrixio.write_bytes": (detail_sum(*write_names) / ncalls, "B/call"),
        "cli.solve_self_ms": (self_ms if io_ran else None, "ms/call"),
        "trace.calls": (ncalls, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
