"""OpenBLAS thread control around sweeps (shufflereg.blas)."""

import numpy as np
import pytest

import shufflereg.experiments as experiments
from shufflereg import blas
from shufflereg.experiments import ExperimentConfig, format_csv, run_sweep
from shufflereg.metrics import NOISELESS


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
    # At n=500, p=m=50 the least-squares QR and products are large enough for
    # OpenBLAS to split across threads, which changes their roundoff.
    cfg = ExperimentConfig(
        n=500, p=50, m=50, h=50, snr_grid=(NOISELESS,), trials=2, master_seed=1
    )
    outputs = set()
    for caller in (1, 2):
        set_counts(builds, [caller] * len(builds))
        outputs.add(format_csv(run_sweep(cfg)))
    assert len(outputs) == 1
