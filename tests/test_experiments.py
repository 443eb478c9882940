import csv
import math
import os
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflereg.estimators as estimators
import shufflereg.experiments as experiments
import shufflereg.lap
from shufflereg import instrument
from shufflereg.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    TrialResult,
    format_csv,
    parse_config_text,
    parse_estimator,
    reproduce_failure_demo,
    run_sweep,
    run_trial,
    sigma_for_snr,
    write_csv,
)
from shufflereg.metrics import NOISELESS
from shufflereg.model import DistributionKind


def small_config(**overrides):
    base = dict(
        n=60,
        p=6,
        m=6,
        h=10,
        snr_grid=(0.1, 10.0, NOISELESS),
        trials=8,
        master_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSigmaForSnr:
    def test_unit_case(self):
        b = np.sqrt(np.full((1, 5), 1.0))  # ||B||_F^2 = 5
        assert sigma_for_snr(b, 5, 1.0) == pytest.approx(1.0)

    def test_inverse_of_definition(self):
        b = np.sqrt(np.full((1, 5), 1.0))
        assert sigma_for_snr(b, 5, 100.0) == pytest.approx(0.1)

    def test_round_trip_with_snr(self):
        from shufflereg.metrics import snr

        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 3))
        for target in (0.037, 1.0, 2.5e4):
            sigma = sigma_for_snr(b, 3, target)
            assert snr(b, 3, sigma) == pytest.approx(target, rel=1e-12)

    def test_extreme_scales(self):
        # The squared Frobenius norms 2e308 and 1e-340 are out of range; sigma is not.
        assert sigma_for_snr(np.diag([1e154, 1e154]), 2, 1.0) == pytest.approx(1e154, rel=1e-15)
        assert sigma_for_snr(np.array([[1e-170]]), 1, 1.0) == pytest.approx(1e-170, rel=1e-15)
        assert sigma_for_snr(np.array([[1e-170]]), 1, 100.0) == pytest.approx(1e-171, rel=1e-15)
        assert sigma_for_snr(np.ones((2, 2)), 2, math.inf) == 0.0

    @pytest.mark.parametrize("b,target,match", [(1e-300, 1e300, "underflows"), (1e300, 1e-300, "overflows")])
    def test_unrepresentable_sigma_is_rejected(self, b, target, match):
        with pytest.raises(ValueError, match=match):
            sigma_for_snr(np.array([[b]]), 1, target)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            sigma_for_snr(np.ones((2, 2)), 2, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            sigma_for_snr(np.zeros((2, 2)), 2, 1.0)


class TestEstimatorParsing:
    def test_parse_variants(self):
        assert parse_estimator("one_step") == ("one_step", None)
        assert parse_estimator("oracle_perm") == ("oracle_perm", None)
        assert parse_estimator("alt_min(7)") == ("alt_min", 7)
        assert parse_estimator("alt_min") == ("alt_min", 25)

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            parse_estimator("gradient_descent")
        with pytest.raises(ConfigError, match="no iteration count"):
            parse_estimator("one_step(3)")


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError, match="n must be >= p"):
            small_config(n=4)
        with pytest.raises(ConfigError, match=r"^p must lie in \[1, \d+\], got 0$"):
            small_config(p=0)
        with pytest.raises(ConfigError, match="h must lie"):
            small_config(h=1)
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=0)
        with pytest.raises(ConfigError, match="ascending"):
            small_config(snr_grid=(1.0, 0.5))
        with pytest.raises(ConfigError, match="non-empty"):
            small_config(snr_grid=())
        # Only values past np.intp's range, so the check must fire before anything is allocated.
        limit = np.iinfo(np.intp).max
        for key in ("m", "n"):
            with pytest.raises(ConfigError, match=rf"^{key} must lie in \[1, {limit}\], got {10**20}$"):
                small_config(**{key: 10**20})


class TestRunTrial:
    def test_deterministic(self):
        # Everything except the wall-clock runtime is a pure function of
        # (config, grid_index, trial_index).
        cfg = small_config()
        a = run_trial(cfg, 1, 4)
        b = run_trial(cfg, 1, 4)
        assert (a.exact, a.hamming, a.rel_b_error, a.ok, a.error) == (
            b.exact,
            b.hamming,
            b.rel_b_error,
            b.ok,
            b.error,
        )

    def test_noiseless_single_column_is_exact(self):
        cfg = ExperimentConfig(
            n=200, p=1, m=1, h=50, snr_grid=(NOISELESS,), trials=15, master_seed=1
        )
        results = [run_trial(cfg, 0, t) for t in range(cfg.trials)]
        assert all(r.exact and r.hamming == 0 and r.ok for r in results)
        assert all(r.rel_b_error <= 1e-8 for r in results)

    def test_noiseless_two_column_single_observation_fails(self):
        # Low-diversity point: the canonical signal at p=2, m=1 has stable
        # rank one and the matching scrambles even without noise.
        cfg = ExperimentConfig(
            n=1000, p=2, m=1, h=1000, snr_grid=(NOISELESS,), trials=1, master_seed=2
        )
        result = run_trial(cfg, 0, 0)
        assert result.ok and not result.exact
        assert result.hamming >= 0.7 * cfg.n

    def test_default_grid_is_log_spaced_with_noiseless_endpoint(self):
        cfg = small_config(snr_grid=ExperimentConfig.__dataclass_fields__["snr_grid"].default)
        ratios = [b / a for a, b in zip(cfg.snr_grid[:-2], cfg.snr_grid[1:-1])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)
        assert cfg.snr_grid[-1] is NOISELESS

    def test_exact_is_derived_from_ok_and_hamming(self):
        assert TrialResult(hamming=0, rel_b_error=0.0).exact
        assert not TrialResult(hamming=3, rel_b_error=0.0).exact
        assert not TrialResult(hamming=0, rel_b_error=math.nan, ok=False, error="x").exact
        with pytest.raises(TypeError):
            TrialResult(exact=True, hamming=3, rel_b_error=0.0)

    def test_estimator_dispatch(self):
        cfg_oracle = small_config(estimator="oracle_perm", trials=2)
        cfg_alt = small_config(estimator="alt_min(3)", trials=2)
        assert run_trial(cfg_oracle, 2, 0).ok
        assert run_trial(cfg_alt, 2, 0).ok

    def test_estimator_failure_becomes_flagged_row(self, monkeypatch):
        def boom(x, y):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(experiments, "one_step_estimate", boom)
        cfg = small_config(trials=3)
        result = run_trial(cfg, 0, 0)
        assert not result.ok
        assert "synthetic failure" in result.error
        sweep = run_sweep(cfg)
        assert sweep.rows[0].failures == 3
        assert sweep.rows[0].recovery_rate == 0.0
        assert math.isnan(sweep.rows[0].mean_hamming)
        assert sweep.rows[0].first_error == "synthetic failure"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_error_is_the_first_failed_trial_in_trial_order(self, monkeypatch, workers):
        # Trial 1 of grid point 0 finishes last on a pool, yet its message is the one kept.
        def fake_trial(config, grid_index, trial_index):
            if grid_index == 0 and trial_index % 2:
                time.sleep(0.05 if trial_index == 1 else 0.0)
                return TrialResult(hamming=0, rel_b_error=math.nan, ok=False, error=f"trial {trial_index}")
            return TrialResult(hamming=0, rel_b_error=0.0)

        monkeypatch.setattr(experiments, "run_trial", fake_trial)
        rows = run_sweep(small_config(trials=4, snr_grid=(1.0, NOISELESS), workers=workers)).rows
        assert [(row.failures, row.first_error) for row in rows] == [(2, "trial 1"), (0, "")]

    def test_cost_larger_than_memory_becomes_flagged_row(self, monkeypatch):
        cfg = small_config(trials=2)
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 8 * cfg.n**2 - 1)
        result = run_trial(cfg, 0, 0)
        assert not result.ok
        assert f"n={cfg.n} needs a dense" in result.error

    @pytest.mark.parametrize("estimator", ["one_step", "oracle_perm", "alt_min(2)"])
    def test_every_solve_is_called_through_the_estimators_module(self, monkeypatch, estimator):
        # A profiler that wraps the solvers where the estimators look them up sees every call.
        seen = Counter()

        def counting(attr, event):
            real = getattr(estimators, attr)

            def wrapper(*args, **kwargs):
                seen[event] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(estimators, attr, wrapper)

        counting("least_squares_signal", "ls_solve")
        counting("lap_maximize", "lap_solve")
        before = instrument.snapshot()
        run_sweep(small_config(trials=2, estimator=estimator))
        delta = instrument.delta_since(before)
        assert delta["ls_solve"] >= 6 and delta["lap_solve"] >= 6
        assert seen == Counter({event: delta[event] for event in ("ls_solve", "lap_solve")})


class TestRunSweep:
    def test_grid_bookkeeping(self):
        cfg = small_config(trials=5)
        result = run_sweep(cfg)
        assert len(result.rows) == len(cfg.snr_grid)
        assert all(row.trials == 5 for row in result.rows)
        assert [row.snr for row in result.rows] == list(cfg.snr_grid)
        assert all(0.0 <= row.recovery_rate <= 1.0 for row in result.rows)

    def test_recovery_improves_along_grid_and_noiseless_is_exact(self):
        cfg = ExperimentConfig(
            n=120,
            p=12,
            m=12,
            h=12,
            snr_grid=(0.05, 0.5, 5.0, NOISELESS),
            trials=12,
            master_seed=5,
        )
        result = run_sweep(cfg)
        rates = [row.recovery_rate for row in result.rows]
        t = cfg.trials
        for a, b in zip(rates, rates[1:]):
            se = math.sqrt(a * (1 - a) / t + b * (1 - b) / t)
            assert b >= a - 3 * se
        assert rates[-1] == 1.0
        noiseless_row = result.rows[-1]
        assert noiseless_row.mean_hamming == 0.0
        assert noiseless_row.mean_rel_b_error <= 1e-8

    def test_parallel_execution_is_byte_identical(self):
        cfg = small_config(trials=6)
        serial = format_csv(run_sweep(cfg))
        threaded = format_csv(run_sweep(replace(cfg, workers=4)))
        assert serial == threaded

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(4, 40),
        p=st.integers(1, 4),
        m=st.integers(1, 4),
        dist=st.sampled_from([DistributionKind.GAUSSIAN, DistributionKind.RADEMACHER]),
        master_seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_csv_bytes_do_not_depend_on_workers(self, n, p, m, dist, master_seed, data):
        # Rademacher designs tie, so pool threads run the lexicographic tie pass.
        cfg = ExperimentConfig(
            n=n,
            p=p,
            m=m,
            h=data.draw(st.integers(0, n).filter(lambda h: h != 1)),
            dist=dist,
            snr_grid=(1.0, NOISELESS),
            trials=2,
            master_seed=master_seed,
        )
        serial = format_csv(run_sweep(cfg))
        assert format_csv(run_sweep(replace(cfg, workers=3))) == serial

    def test_one_worker_runs_on_the_calling_thread_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 built a thread pool")

        threads = []
        real = experiments.run_trial

        def spy(config, grid_index, trial_index):
            threads.append(threading.get_ident())
            return real(config, grid_index, trial_index)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(experiments, "run_trial", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = small_config(trials=3)
        run_sweep(cfg)
        assert threads == [threading.get_ident()] * (cfg.trials * len(cfg.snr_grid))
        with pytest.raises(AssertionError, match="built a thread pool"):
            run_sweep(replace(cfg, workers=2))

    def test_threads_are_capped_at_the_cpu_count(self, monkeypatch):
        # A pool starts a thread on every submit while none is idle, so an uncapped
        # workers=10**6 would ask for one thread per trial. The recording pool starts none.
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
        cfg = small_config(trials=2)
        serial = format_csv(run_sweep(cfg))
        threads = threading.active_count()
        assert format_csv(run_sweep(replace(cfg, workers=10**6))) == serial
        assert threading.active_count() == threads
        assert all(w <= (os.cpu_count() or 1) for w in built)
        for cpus, pools in ((3, [3]), (1, []), (None, [])):
            built.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert format_csv(run_sweep(replace(cfg, workers=10**6))) == serial
            assert built == pools

    @pytest.mark.parametrize("workers", [1, 2])
    def test_noise_level_is_computed_once_per_grid_point(self, monkeypatch, workers):
        calls = []
        real = experiments.sigma_for_snr

        def counting(b, m, target_snr):
            calls.append(target_snr)
            return real(b, m, target_snr)

        monkeypatch.setattr(experiments, "sigma_for_snr", counting)
        cfg = small_config(trials=3, workers=workers)
        run_sweep(cfg)
        assert calls == list(cfg.snr_grid)

    def test_trials_share_one_read_only_signal(self, monkeypatch):
        seen = []
        real = experiments.synthesize_instance

        def spy(n, p, m, h, dist, b_true, sigma, seed):
            seen.append(b_true)
            return real(n, p, m, h, dist, b_true, sigma, seed)

        monkeypatch.setattr(experiments, "synthesize_instance", spy)
        cfg = small_config(trials=2, workers=2)
        run_sweep(cfg)
        assert len(seen) == cfg.trials * len(cfg.snr_grid)
        assert all(b is seen[0] for b in seen)
        assert not seen[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            seen[0][0, 0] = 2.0
        assert np.array_equal(seen[0], cfg.signal_matrix())
        assert cfg.signal_matrix().flags.writeable

    def test_cached_grid_values_leave_equality_alone(self):
        cfg = small_config()
        run_trial(cfg, 0, 0)
        fresh = small_config()
        assert cfg == fresh and hash(cfg) == hash(fresh)
        moved = replace(cfg, snr_grid=tuple(4.0 * snr for snr in cfg.snr_grid))
        assert moved._sigmas == tuple(s / 2.0 for s in cfg._sigmas)

    def test_trials_ignore_the_callers_floating_point_error_state(self, monkeypatch):
        # Every trial underflows a numpy scalar, which numpy ignores by default.
        def underflowing_estimate(x, y):
            np.float64(1e-300) * np.float64(1e-300)
            return estimators.one_step_estimate(x, y)

        monkeypatch.setattr(experiments, "one_step_estimate", underflowing_estimate)
        cfg = small_config(n=40, p=3, m=3, snr_grid=(1.0, NOISELESS), trials=3)
        with pytest.raises(FloatingPointError, match="underflow"), np.errstate(all="raise"):
            run_trial(cfg, 0, 0)
        expected = format_csv(run_sweep(cfg))
        with np.errstate(all="raise"):
            for workers in (1, 2):
                assert format_csv(run_sweep(replace(cfg, workers=workers))) == expected


class TestFailureDemo:
    def test_trace_shape_and_determinism(self):
        trace = reproduce_failure_demo(150, 5, seed=2)
        again = reproduce_failure_demo(150, 5, seed=2)
        assert len(trace) == 6
        assert [rec.iteration for rec in trace] == list(range(6))
        assert trace == again
        assert all(rec.hamming is not None for rec in trace)
        residuals = [rec.residual for rec in trace]
        assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(residuals, residuals[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ConfigError, match="^demo needs n >= 100, got 50$"):
            reproduce_failure_demo(50, 5, seed=0)

    def test_negative_iters_rejected(self):
        with pytest.raises(ConfigError, match="^max_iters must be >= 0, got -1$"):
            reproduce_failure_demo(150, -1, seed=0)


def read_sweep_csv(path) -> SweepResult:
    """The rows of a sweep CSV, each column converted by its ``SweepRow`` field type."""
    types = get_type_hints(SweepRow)
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        return SweepResult(
            rows=tuple(SweepRow(**{col: types[col](v) for col, v in rec.items()}) for rec in reader)
        )


class TestCsv:
    def test_header_only_for_empty_sweep(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(rows=()), path)
        content = path.read_text()
        assert content == (
            "n,p,m,h,dist,estimator,snr,sigma,logdet_ratio,recovery_rate,"
            "mean_hamming,mean_rel_b_error,trials,seed\n"
        )

    def test_row_count(self, tmp_path):
        cfg = small_config(trials=2)
        result = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(result.rows)

    def test_float_inf_grid_point_writes_the_noiseless_row(self):
        as_inf = format_csv(run_sweep(small_config(snr_grid=(1.0, math.inf), trials=3)))
        as_marker = format_csv(run_sweep(small_config(snr_grid=(1.0, NOISELESS), trials=3)))
        assert as_inf == as_marker

    def test_noiseless_row_writes_inf(self, tmp_path):
        cfg = small_config(trials=2)
        result = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        last = path.read_text().splitlines()[-1].split(",")
        assert last[6] == "inf"  # snr column
        assert last[7] == "0"  # sigma
        assert last[8] == "inf"  # logdet_ratio

    def test_round_trip_at_writer_precision(self, tmp_path):
        cfg = small_config(trials=3)
        result = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        parsed = read_sweep_csv(path)
        # Writing the parsed result again must be byte-identical, and every
        # numeric field must equal the original at 12 significant digits.
        path2 = tmp_path / "sweep2.csv"
        write_csv(parsed, path2)
        assert path.read_text() == path2.read_text()
        for row, back in zip(result.rows, parsed.rows):
            for col in ("sigma", "recovery_rate", "mean_hamming", "mean_rel_b_error"):
                original = getattr(row, col)
                reparsed = getattr(back, col)
                if math.isnan(original):
                    assert math.isnan(reparsed)
                else:
                    assert reparsed == float(f"{original:.12g}")
        assert parsed.rows[-1].snr == math.inf

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_write_parse_write_is_byte_exact(self, tmp_path_factory, data):
        ints = st.integers(-(2**63), 2**63)
        floats = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([math.nan, math.inf, -math.inf, NOISELESS]),
        )
        names = st.sampled_from(["gaussian", "rademacher", "one_step", "oracle_perm", "alt_min(3)"])
        strategies = {int: ints, float: floats, str: names}
        row = st.builds(
            SweepRow, **{name: strategies[kind] for name, kind in get_type_hints(SweepRow).items()}
        )
        rows = tuple(data.draw(st.lists(row, max_size=4)))
        path = tmp_path_factory.mktemp("csv") / "sweep.csv"
        write_csv(SweepResult(rows=rows), path)
        assert format_csv(read_sweep_csv(path)) == path.read_text()


class TestConfigParsing:
    def test_full_config(self):
        cfg = parse_config_text(
            """
            # experiment description
            n = 500
            p = 50
            m = 50
            h = 50
            dist = gaussian
            snr_grid = 0.01, 0.1, 1, 10, noiseless
            trials = 50
            master_seed = 42
            estimator = one_step
            """
        )
        assert cfg.n == 500 and cfg.trials == 50
        assert cfg.dist is DistributionKind.GAUSSIAN
        assert cfg.snr_grid == (0.01, 0.1, 1.0, 10.0, NOISELESS)

    def test_logspace_shorthand(self):
        cfg = parse_config_text(
            "n=40\np=4\nm=4\nh=8\ntrials=2\nsnr_grid = logspace(-2, 1, 4), noiseless\n"
        )
        assert cfg.snr_grid[:4] == pytest.approx((0.01, 0.1, 1.0, 10.0))
        assert cfg.snr_grid[4] is NOISELESS

    def test_inf_is_an_alias_of_noiseless(self):
        cfg = parse_config_text("n=40\np=4\nm=4\nh=8\ntrials=2\nsnr_grid = 1, inf\n")
        assert cfg.snr_grid == (1.0, NOISELESS)
        assert cfg.snr_grid[1] is NOISELESS

    def test_config_keys_are_the_config_fields(self):
        text = {
            "n": "40", "p": "4", "m": "4", "h": "8", "dist": "rademacher",
            "snr_grid": "1, noiseless", "trials": "2", "master_seed": "3",
            "estimator": "alt_min(4)", "workers": "2",
        }
        assert set(text) == {f.name for f in fields(ExperimentConfig)}
        cfg = parse_config_text("\n".join(f"{key} = {value}" for key, value in text.items()))
        assert cfg == ExperimentConfig(
            n=40, p=4, m=4, h=8, dist=DistributionKind.RADEMACHER,
            snr_grid=(1.0, NOISELESS), trials=2, master_seed=3,
            estimator="alt_min(4)", workers=2,
        )
        with pytest.raises(ConfigError, match="unknown config key: _sigmas"):
            parse_config_text("n=10\np=2\nm=2\nh=2\n_sigmas = 1\n")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("trials = 2.5", "line 5: key 'trials' needs an integer"),
            ("dist = laplace", "line 5: unknown distribution 'laplace'; expected one of: "),
            ("snr_grid = 1, loud", "cannot parse snr grid token 'loud'"),
            ("snr_grid = logspace(a, 1, 3)", "line 5: could not convert string to float: 'a'"),
        ],
    )
    def test_bad_values_name_the_line_and_key(self, line, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"n=10\np=2\nm=2\nh=2\n{line}\n")
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("n = 1_00", "line 1: key 'n' needs an integer"),
            ("trials = 1_0", "line 1: key 'trials' needs an integer"),
            ("trials = \u0662", "line 1: key 'trials' needs an integer"),
            ("snr_grid = 1_0", "cannot parse snr grid token '1_0'"),
            ("snr_grid = \u0661, noiseless", "cannot parse snr grid token '\u0661'"),
            ("snr_grid = logspace(1_0, 20, 3)",
             "line 1: number '1_0' has an underscore or a non-ASCII character"),
            ("snr_grid = logspace(0, 1, \u0663)",
             "line 1: number '\u0663' has an underscore or a non-ASCII character"),
            ("estimator = alt_min(\u0662)", "unknown estimator 'alt_min(\u0662)'"),
        ],
    )
    def test_numbers_follow_the_file_grammar(self, line, message):
        # int() and float() read underscores and non-ASCII digits; matrix files refuse both.
        key = line.split()[0]
        rest = "".join(f"{k} = 10\n" for k in "npmh" if k != key)
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"{line}\n{rest}")
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "token",
        ["logspace(0, 400, 2)", "logspace(1e308, 1, 3)", "logspace(0, inf, 2)", "logspace(nan, 1, 2)"],
    )
    def test_overflowing_logspace_is_a_config_error(self, token):
        # 10**400 is +inf; it must not print numpy's overflow warning or pass as the noiseless point.
        # An inf endpoint made numpy warn "invalid value" and a nan endpoint gave a nan grid point.
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"n=10\np=2\nm=2\nh=2\nsnr_grid = {token}\n")
        assert str(info.value) == (
            f"line 5: snr grid token {token!r} gives non-finite values: 10**start and 10**stop "
            "must be finite doubles (below about 1.8e308)"
        )

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key: snr_gird"):
            parse_config_text("n=10\np=2\nm=2\nh=2\nsnr_gird = 1\n")

    def test_signal_is_not_a_config_key(self):
        # The signal is always the canonical one at scale 1; naming it or its scale is an
        # unknown key like any other.
        for key, value in (("signal", "canonical"), ("signal_scale", "1.0")):
            with pytest.raises(ConfigError) as info:
                parse_config_text(f"n=10\np=2\nm=2\nh=2\n{key} = {value}\n")
            assert str(info.value) == f"unknown config key: {key}"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n=10\nn=12\np=2\nm=2\nh=2\n")

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required config keys: m, h"):
            parse_config_text("n=10\np=2\n")

    def test_alt_min_estimator_accepted(self):
        cfg = parse_config_text("n=10\np=2\nm=2\nh=2\nestimator = alt_min(9)\ntrials=1\nsnr_grid=1\n")
        assert parse_estimator(cfg.estimator) == ("alt_min", 9)
