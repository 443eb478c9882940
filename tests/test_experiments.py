import math

import numpy as np
import pytest

import shufflereg.experiments as experiments
from shufflereg.experiments import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    SweepRow,
    TrialResult,
    format_csv,
    parse_config_text,
    parse_csv,
    parse_estimator,
    reproduce_failure_demo,
    run_sweep,
    run_trial,
    sigma_for_snr,
    with_overrides,
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
        with pytest.raises(ConfigError, match="h must lie"):
            small_config(h=1)
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=0)
        with pytest.raises(ConfigError, match="ascending"):
            small_config(snr_grid=(1.0, 0.5))
        with pytest.raises(ConfigError, match="non-empty"):
            small_config(snr_grid=())


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

    def test_exact_iff_zero_hamming_enforced(self):
        with pytest.raises(ValueError, match="exact flag"):
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
        threaded = format_csv(run_sweep(with_overrides(cfg, workers=4)))
        assert serial == threaded


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
        with pytest.raises(ValueError, match="n >= 100"):
            reproduce_failure_demo(50, 5, seed=0)


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
        parsed = parse_csv(path)
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
        assert parsed.rows[-1].snr is NOISELESS

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv(path)


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
            signal = canonical
            signal_scale = 1.0
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

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown config key: snr_gird"):
            parse_config_text("n=10\np=2\nm=2\nh=2\nsnr_gird = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n=10\nn=12\np=2\nm=2\nh=2\n")

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required config keys: m, h"):
            parse_config_text("n=10\np=2\n")

    def test_alt_min_estimator_accepted(self):
        cfg = parse_config_text("n=10\np=2\nm=2\nh=2\nestimator = alt_min(9)\ntrials=1\nsnr_grid=1\n")
        assert parse_estimator(cfg.estimator) == ("alt_min", 9)
