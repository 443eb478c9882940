import numpy as np
import pytest

from shufflereg.cli import main
from shufflereg.matrixio import read_matrix, read_permutation, write_matrix
from shufflereg.model import (
    DistributionKind,
    build_canonical_signal,
    synthesize_instance,
)

GAUSSIAN = DistributionKind.GAUSSIAN

TINY_CONFIG = """
n = 60
p = 6
m = 6
h = 10
dist = gaussian
snr_grid = 0.5, 5, noiseless
trials = 4
master_seed = 9
"""


def write_instance(tmp_path, *, n=60, p=6, m=6, h=0, sigma=0.0, seed=1):
    b = build_canonical_signal(p, m, 1.0)
    inst = synthesize_instance(n, p, m, h, GAUSSIAN, b, sigma, seed)
    x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
    write_matrix(inst.x, x_path)
    write_matrix(inst.y, y_path)
    return inst, x_path, y_path


class TestSolve:
    def test_identity_instance_recovers_identity(self, tmp_path):
        inst, x_path, y_path = write_instance(tmp_path, h=0)
        out_perm = tmp_path / "perm.txt"
        out_b = tmp_path / "b.txt"
        code = main(
            [
                "solve",
                "--x", str(x_path),
                "--y", str(y_path),
                "--out-perm", str(out_perm),
                "--out-b", str(out_b),
            ]
        )
        assert code == 0
        perm = read_permutation(out_perm)
        assert perm.is_identity()
        b_hat = read_matrix(out_b)
        assert np.allclose(b_hat, inst.b_true, atol=1e-8)

    def test_missing_file_names_path(self, tmp_path, capsys):
        _, x_path, y_path = write_instance(tmp_path)
        code = main(
            [
                "solve",
                "--x", str(tmp_path / "nope.txt"),
                "--y", str(y_path),
                "--out-perm", str(tmp_path / "p.txt"),
                "--out-b", str(tmp_path / "b.txt"),
            ]
        )
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_row_mismatch_fails(self, tmp_path, capsys):
        inst, x_path, y_path = write_instance(tmp_path, n=60)
        write_matrix(inst.y[:50, :], y_path)
        code = main(
            [
                "solve",
                "--x", str(x_path),
                "--y", str(y_path),
                "--out-perm", str(tmp_path / "p.txt"),
                "--out-b", str(tmp_path / "b.txt"),
            ]
        )
        assert code == 1
        assert "rows" in capsys.readouterr().err

    def test_underdetermined_fails(self, tmp_path):
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        write_matrix(rng.standard_normal((3, 5)), x_path)
        write_matrix(rng.standard_normal((3, 1)), y_path)
        code = main(
            [
                "solve",
                "--x", str(x_path),
                "--y", str(y_path),
                "--out-perm", str(tmp_path / "p.txt"),
                "--out-b", str(tmp_path / "b.txt"),
            ]
        )
        assert code == 1


class TestSimulate:
    def test_writes_csv_with_one_row_per_grid_point(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "sweep.csv"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        assert lines[0].startswith("n,p,m,h,dist,estimator,snr,")
        assert len(capsys.readouterr().err.strip().splitlines()) == 3

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--workers", "8"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "77"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=10\np=2\nm=2\nh=2\ntrials=0\nsnr_grid=1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "trials" in capsys.readouterr().err

    def test_unknown_key_is_usage_error_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=10\np=2\nm=2\nh=2\nbogus_key=1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "missing" / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write sweep CSV to {out}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDemoFailure:
    def test_trace_file_layout(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["demo-failure", "--n", "150", "--iters", "4", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,hamming,residual"
        assert len(lines) == 6  # header + iterations 0..4
        residuals = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(residuals, residuals[1:]))

    def test_small_n_is_usage_error(self, tmp_path):
        assert main(["demo-failure", "--n", "50", "--out", str(tmp_path / "t.csv")]) == 2

    def test_same_seed_reproduces_trace(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["demo-failure", "--n", "120", "--iters", "3", "--seed", "5", "--out", str(out1)])
        main(["demo-failure", "--n", "120", "--iters", "3", "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestDiagnose:
    def test_canonical_signal_diagnostics(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(50, 5, 1.0), b_path)
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1", "--n", "500"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["stable_rank"]) == pytest.approx(5.0)
        assert float(values["snr"]) == pytest.approx(1.0)
        # srank 5 sits below log(500) ~ 6.21 but above c0 = 2.
        assert values["regime"] == "hard"

    def test_noiseless_skips_logdet(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(4, 2, 1.0), b_path)
        code = main(["diagnose", "--b", str(b_path), "--sigma", "0", "--n", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snr = noiseless" in out
        assert "logdet = noiseless" in out
        assert "logdet_over_log_n" not in out

    def test_below_threshold_message(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(4, 2, 1.0), b_path)
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1000", "--n", "500"])
        assert code == 0
        assert "below minimax threshold" in capsys.readouterr().out

    def test_overflowing_gram_fails_before_printing(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        b_path.write_text("2 2\n1e200 0\n0 1\n")
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1", "--n", "100"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows" in captured.err
        assert "nan" not in captured.err

    def test_tiny_signal_is_not_the_zero_matrix(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        b_path.write_text("2 2\n1e-170 0\n0 2e-170\n")
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1", "--n", "100"])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines() if " = " in line)
        # ||B||_F^2 / ||B||_op^2 = (1 + 4) / 4.
        assert float(values["stable_rank"]) == 1.25
        assert "nan" not in out

    def test_negative_sigma_is_usage_error(self, tmp_path):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(2, 2, 1.0), b_path)
        assert main(["diagnose", "--b", str(b_path), "--sigma", "-1", "--n", "100"]) == 2


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--x", "x.txt"])
        assert err.value.code == 2

    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
