"""Smoke test of the benchmark: each workload at toy size, untraced and traced.

Run from the repository root (it is outside the library's test paths):

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Every per-layer metric the trace prints, whether or not a workload runs that layer.
LAYER_METRICS = (
    "experiments.trial_p50_ms", "experiments.trial_tail_ms", "experiments.worker_busy_frac",
    "experiments.sweep_self_ms", "experiments.failed_trials",
    "estimators.ls_ms", "estimators.ls_calls", "estimators.cost_ms", "estimators.cost_bytes",
    "estimators.onestep_ms", "estimators.altmin_ms", "estimators.altmin_iters",
    "lap.maximize_ms", "lap.calls", "lap.scipy_ms", "lap.subsolves", "lap.subsolves_per_call",
    "lap.self_ms", "model.synthesize_ms", "model.synthesize_calls",
    "matrixio.read_ms", "matrixio.read_bytes", "matrixio.write_ms", "matrixio.write_bytes",
    "cli.solve_self_ms", "trace.overhead_pct",
)
ISSUE_NAMES = {
    "sweep_n500": ("trials_per_s",),
    "tie_n64": ("trials_per_s",),
    "demo_failure_n1000": ("iters_per_s",),
    "solve_files": ("solve_p50_s", "solve_tail_s"),
}


def tiny(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "5", "--seconds", "0.3",
            "--trace", str(trace), "--size", "tiny"]


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert tuple(m["name"] for m in BENCHMARK["end_to_end"]) == run.END_TO_END
    assert tuple(m["name"] for m in BENCHMARK["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys):
    code = run.main(tiny(workload, 0))
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for name in ("setup_s", "peak_rss_mb", "error_rate") + ISSUE_NAMES[workload]:
        assert f"  {name} " in report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_counts_agree(workload, capsys):
    code = run.main(tiny(workload, 1))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    saved = json.loads((run.OUT_DIR / f"{workload}-seed5-trace1.json").read_text())
    assert set(LAYER_METRICS) <= set(saved["details"]["layers"])
    counts = saved["details"]["cross_check"]
    assert set(counts) == {"lap_solve", "ls_solve"}
    for library_count, wrapper_count in counts.values():
        assert library_count == wrapper_count > 0


def test_renamed_wrap_target_makes_the_tracer_fail(monkeypatch):
    run.load_library()
    import shufflereg.estimators
    import shufflereg.lap
    from tracer import Tracer, TracerError

    solver = shufflereg.lap.linear_sum_assignment
    monkeypatch.delattr(shufflereg.lap, "linear_sum_assignment")
    monkeypatch.setattr(shufflereg.lap, "linear_sum_assignment_renamed", solver, raising=False)
    lap_maximize = shufflereg.estimators.lap_maximize
    with pytest.raises(TracerError, match=r"shufflereg\.lap\.linear_sum_assignment\b"):
        Tracer().install()
    assert shufflereg.estimators.lap_maximize is lap_maximize


def test_traced_run_refuses_to_report_when_a_target_is_missing(monkeypatch, capsys):
    # The sweep never calls the CLI, so it still runs; the trace must not report a zero.
    run.load_library()
    import shufflereg.cli

    monkeypatch.delattr(shufflereg.cli, "read_matrix")
    code = run.main(tiny("sweep_n500", 1))
    captured = capsys.readouterr()
    assert code != 0
    assert '"metrics"' not in captured.out
    assert "shufflereg.cli.read_matrix" in captured.err


def test_fails_without_the_library_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "tie_n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
