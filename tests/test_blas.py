"""OpenBLAS thread control around sweeps (shufflereg.blas)."""

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


def counts(builds):
    return [build.get_threads() for build in builds]


def set_counts(builds, values):
    for build, value in zip(builds, values):
        build.set_threads(value)


@pytest.fixture
def builds():
    """The loaded OpenBLAS builds; their thread counts are put back after the test."""
    found = blas.openblas_builds()
    if not found:
        pytest.skip("no OpenBLAS build with thread-count symbols is loaded")
    before = counts(found)
    yield found
    set_counts(found, before)


def test_discovers_numpy_openblas():
    try:
        blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS build")
    if "openblas" not in blas_name:
        pytest.skip(f"numpy uses {blas_name}, not OpenBLAS")
    assert any("openblas64_" in build.path for build in blas.openblas_builds())


@pytest.mark.parametrize("workers", [1, 2])
def test_trials_see_one_thread(builds, monkeypatch, workers):
    seen = []
    real = experiments.one_step_estimate

    def spy(x, y):
        seen.append(tuple(counts(builds)))
        return real(x, y)

    monkeypatch.setattr(experiments, "one_step_estimate", spy)
    set_counts(builds, [2] * len(builds))
    cfg = small_config(workers=workers)
    run_sweep(cfg)
    assert len(seen) == cfg.trials * len(cfg.snr_grid)
    assert set(seen) == {(1,) * len(builds)}


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_counts_restored(builds, workers):
    caller = [2 + i for i in range(len(builds))]
    set_counts(builds, caller)
    run_sweep(small_config(workers=workers))
    assert counts(builds) == caller


@pytest.mark.parametrize("workers", [1, 2])
def test_caller_counts_restored_when_trial_raises(builds, monkeypatch, workers):
    def boom(x, y):
        raise RuntimeError("not caught by run_trial")

    monkeypatch.setattr(experiments, "one_step_estimate", boom)
    caller = [2 + i for i in range(len(builds))]
    set_counts(builds, caller)
    with pytest.raises(RuntimeError, match="not caught"):
        run_sweep(small_config(workers=workers))
    assert counts(builds) == caller


def test_overlapping_uses_restore_once(builds):
    caller = [2 + i for i in range(len(builds))]
    set_counts(builds, caller)
    first, second = blas.single_threaded(), blas.single_threaded()
    first.__enter__()
    second.__enter__()
    try:
        first.__exit__(None, None, None)
        after_first = counts(builds)
    finally:
        second.__exit__(None, None, None)
    assert after_first == [1] * len(builds)
    assert counts(builds) == caller


def test_nothing_found_is_a_no_op(builds, monkeypatch):
    cfg = small_config(workers=2)
    expected = format_csv(run_sweep(cfg))
    set_counts(builds, [1] * len(builds))
    monkeypatch.setattr(blas, "openblas_builds", lambda: ())
    assert format_csv(run_sweep(cfg)) == expected


def test_csv_independent_of_caller_thread_count(builds):
    # At n=500, p=m=50 the least-squares solve and products are large enough for
    # OpenBLAS to split across threads, which changes their roundoff.
    cfg = ExperimentConfig(
        n=500, p=50, m=50, h=50, snr_grid=(NOISELESS,), trials=2, master_seed=1
    )
    outputs = set()
    for caller in (1, 2):
        set_counts(builds, [caller] * len(builds))
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
def test_entry_points_see_one_thread_and_restore_the_callers(builds, monkeypatch, name):
    seen = []
    inst = instance()

    def spy(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            seen.append(tuple(counts(builds)))
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
    caller = [2 + i for i in range(len(builds))]
    set_counts(builds, caller)
    ENTRY_POINTS[name](inst)
    assert seen and set(seen) == {(1,) * len(builds)}
    assert counts(builds) == caller


def test_estimates_independent_of_caller_thread_count(builds):
    # At n=500, p=m=50 the least-squares solve splits across OpenBLAS threads when it may, which
    # changes its roundoff; the estimators pin one thread, so the bytes agree.
    inst = instance(n=500, p=50, m=50)
    outputs = set()
    for caller in (1, 2):
        set_counts(builds, [caller] * len(builds))
        result = estimators.one_step_estimate(inst.x, inst.y)
        outputs.add(result.perm_hat.indices.tobytes() + result.b_hat.tobytes())
    assert len(outputs) == 1
