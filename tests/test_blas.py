"""OpenBLAS thread control around sweeps (shufflereg.blas)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import shufflereg.experiments as experiments
import shufflereg.lap
import shufflereg.model as model
from shufflereg import blas, estimators, metrics
from shufflereg.experiments import ExperimentConfig, format_csv, run_sweep
from shufflereg.metrics import NOISELESS
from shufflereg.model import DistributionKind, build_canonical_signal, synthesize_instance


def small_config(**overrides):
    base = dict(n=60, p=6, m=6, h=10, snr_grid=(1.0, NOISELESS), trials=4, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def count(pair):
    return pair[0]()


def set_count(pair, value):
    pair[1](value)


@pytest.fixture
def pair():
    """numpy's OpenBLAS (get, set) thread-count pair; its count is put back after the test."""
    if blas._threads is None:
        pytest.skip("numpy's OpenBLAS thread-count symbols were not found")
    before = count(blas._threads)
    yield blas._threads
    set_count(blas._threads, before)


def test_discovers_numpy_openblas():
    try:
        blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS build")
    if "openblas" not in blas_name:
        pytest.skip(f"numpy uses {blas_name}, not OpenBLAS")
    assert blas._threads is not None
    get, _ = blas._threads
    assert get() >= 1


FRESH_PROCESS_PROBE = textwrap.dedent(
    """
    import json
    import numpy as np
    from shufflereg import blas, estimators
    from shufflereg.model import DistributionKind, build_canonical_signal, synthesize_instance

    get, _ = blas._threads
    at_import = get()
    seen = []
    real = np.linalg.lstsq

    def spy(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    np.linalg.lstsq = spy
    b = build_canonical_signal(3, 2, 1.0)
    inst = synthesize_instance(40, 3, 2, 10, DistributionKind.GAUSSIAN, b, 0.1, 1)
    estimators.one_step_estimate(inst.x, inst.y)
    print(json.dumps([at_import, seen, get()]))
    """
)


def test_fresh_process_pins_the_count_the_environment_set(pair):
    # OpenBLAS caps OPENBLAS_NUM_THREADS at the CPU count, so 2 is the largest count that
    # every machine with two CPUs reads back; nothing in the probe sets a count before the pin.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip("OpenBLAS runs one thread on one CPU, so the pin cannot be seen")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="2",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    out = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [2, [1], 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_trials_see_one_thread(pair, monkeypatch, workers):
    seen = []
    real = experiments.one_step_estimate

    def spy(x, y):
        seen.append(count(pair))
        return real(x, y)

    monkeypatch.setattr(experiments, "one_step_estimate", spy)
    set_count(pair, 2)
    cfg = small_config(workers=workers)
    run_sweep(cfg)
    assert len(seen) == cfg.trials * len(cfg.snr_grid)
    assert set(seen) == {1}


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_counts_restored(pair, workers):
    set_count(pair, 2)
    run_sweep(small_config(workers=workers))
    assert count(pair) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_counts_restored_when_trial_raises(pair, monkeypatch, workers):
    def boom(x, y):
        raise RuntimeError("not caught by run_trial")

    monkeypatch.setattr(experiments, "one_step_estimate", boom)
    set_count(pair, 2)
    with pytest.raises(RuntimeError, match="not caught"):
        run_sweep(small_config(workers=workers))
    assert count(pair) == 2


def test_overlapping_uses_restore_once(pair):
    set_count(pair, 2)
    first, second = blas.single_threaded(), blas.single_threaded()
    first.__enter__()
    second.__enter__()
    try:
        first.__exit__(None, None, None)
        after_first = count(pair)
    finally:
        second.__exit__(None, None, None)
    assert after_first == 1
    assert count(pair) == 2


def test_nothing_found_is_a_no_op(pair, monkeypatch):
    cfg = small_config(workers=2)
    expected = format_csv(run_sweep(cfg))
    set_count(pair, 1)
    monkeypatch.setattr(blas, "_threads", None)
    assert format_csv(run_sweep(cfg)) == expected


def test_csv_independent_of_caller_thread_count(pair):
    # At n=500, p=m=50 the least-squares solve and products are large enough for
    # OpenBLAS to split across threads, which changes their roundoff.
    cfg = ExperimentConfig(
        n=500, p=50, m=50, h=50, snr_grid=(NOISELESS,), trials=2, master_seed=1
    )
    outputs = set()
    for caller in (1, 2):
        set_count(pair, caller)
        outputs.add(format_csv(run_sweep(cfg)))
    assert len(outputs) == 1


def instance(n=40, p=3, m=2):
    b = build_canonical_signal(p, m, 1.0)
    return synthesize_instance(n, p, m, n // 4, DistributionKind.GAUSSIAN, b, 0.1, 1)


# Each library entry point that multiplies or factors matrices, called on a small instance.
ENTRY_POINTS = {
    "one_step_estimate": lambda inst: estimators.one_step_estimate(inst.x, inst.y),
    "oracle_permutation_estimate": lambda inst: estimators.oracle_permutation_estimate(
        inst.x, inst.y, inst.b_true
    ),
    "least_squares_signal": lambda inst: estimators.least_squares_signal(
        inst.x, inst.y, inst.perm_true
    ),
    "alternating_minimization": lambda inst: estimators.alternating_minimization(
        inst.x, inst.y, max_iters=2
    ),
    "synthesize_instance": lambda inst: synthesize_instance(
        40, 3, 2, 10, DistributionKind.GAUSSIAN, inst.b_true, 0.1, 2
    ),
    "stable_rank": lambda inst: metrics.stable_rank(inst.b_true),
    "build_onestep_cost": lambda inst: estimators.build_onestep_cost(inst.x, inst.y),
    "lap_maximize": lambda inst: shufflereg.lap.lap_maximize(inst.x, inst.x),
    "relative_signal_error": lambda inst: metrics.relative_signal_error(
        2.0 * inst.b_true, inst.b_true
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_see_one_thread_and_restore_the_callers(pair, monkeypatch, name):
    seen = []
    inst = instance()

    def spy(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            seen.append(count(pair))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    # The calls inside the entry points that reach BLAS, LAPACK or the assignment solver,
    # and the estimators' input checks, which run just before their `@` products.
    spy(shufflereg.lap, "linear_sum_assignment")
    spy(np.linalg, "lstsq")
    spy(np.linalg, "svd")
    spy(np.linalg, "norm")
    spy(model, "sample_design_matrix")
    spy(estimators, "require_matrix")
    set_count(pair, 2)
    ENTRY_POINTS[name](inst)
    assert seen and set(seen) == {1}
    assert count(pair) == 2


def test_estimates_independent_of_caller_thread_count(pair):
    # At n=500, p=m=50 the least-squares solve splits across OpenBLAS threads when it may, which
    # changes its roundoff; the estimators pin one thread, so the bytes agree.
    inst = instance(n=500, p=50, m=50)
    outputs = set()
    for caller in (1, 2):
        set_count(pair, caller)
        result = estimators.one_step_estimate(inst.x, inst.y)
        outputs.add(result.perm_hat.indices.tobytes() + result.b_hat.tobytes())
    assert len(outputs) == 1
