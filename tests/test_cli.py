import codecs
import io
import itertools
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shufflereg.cli
import shufflereg.experiments
import shufflereg.lap
from shufflereg.cli import main
from shufflereg.matrixio import read_matrix, read_permutation, write_matrix
from shufflereg.model import (
    DistributionKind,
    Permutation,
    build_canonical_signal,
    synthesize_instance,
)

GAUSSIAN = DistributionKind.GAUSSIAN


def refuse_allocation(monkeypatch, module, attr, message):
    """Make ``module.attr`` raise the MemoryError numpy raises for ``message``, allocating nothing."""

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, attr, refuse)


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


def run_cli(*argv):
    """The CLI in a fresh interpreter, so stderr holds whatever a user would see."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "shufflereg.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
        assert perm == Permutation(np.arange(len(perm)))
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

    def test_cost_larger_than_memory_fails_with_its_size(self, tmp_path, capsys, monkeypatch):
        _, x_path, y_path = write_instance(tmp_path, n=60)
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 8 * 60 * 60 - 1)
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
        err = capsys.readouterr().err
        assert err.startswith("error: assignment with n=60 needs a dense 60x60 cost of 28800 bytes")
        assert "Traceback" not in err
        assert not (tmp_path / "p.txt").exists()

    def test_overflowing_cost_factor_fails_without_warning(self, tmp_path):
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        # Finite inputs: X^T Y is about 1e221, X (X^T Y) about 1e331.
        write_matrix(rng.standard_normal((20, 2)) * 1e110, x_path)
        write_matrix(rng.standard_normal((20, 2)) * 1e110, y_path)
        out = run_cli("solve", "--x", x_path, "--y", y_path,
                      "--out-perm", tmp_path / "p.txt", "--out-b", tmp_path / "b.txt")
        assert out.returncode == 1
        assert out.stderr == "error: one-step matching direction X X^T Y overflows float64\n"
        assert "Warning" not in out.stderr

    def test_overflowing_cost_product_fails_without_warning(self, tmp_path):
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        # X (X^T Y) is about 1e161 and Y about 1e150, so only C = Y Y^T X X^T overflows.
        write_matrix(rng.standard_normal((20, 2)) * 1e5, x_path)
        write_matrix(rng.standard_normal((20, 2)) * 1e150, y_path)
        out = run_cli("solve", "--x", x_path, "--y", y_path,
                      "--out-perm", tmp_path / "p.txt", "--out-b", tmp_path / "b.txt")
        assert out.returncode == 1
        assert out.stderr.startswith("error: cost matrix left @ right.T has NaN or infinite")
        assert "finite factors overflows float64" in out.stderr
        assert "Warning" not in out.stderr

    def test_overflowing_signal_estimate_writes_no_output(self, tmp_path):
        # X of about 1e-300 and Y of about 1e300: the assignment is finite, B_hat is not.
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        write_matrix(rng.standard_normal((40, 3)) * 1e-300, x_path)
        write_matrix(rng.standard_normal((40, 3)) * 1e300, y_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.txt"
        out = run_cli("solve", "--x", x_path, "--y", y_path, "--out-perm", out_perm, "--out-b", out_b)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: least-squares signal estimate B_hat overflows float64; rescale x or y\n"
        )
        assert not out_perm.exists() and not out_b.exists()

    def test_rank_deficient_design_writes_no_output(self, tmp_path):
        # The third column of X repeats the first. The condition estimate is matched by a
        # pattern, since its digits follow the BLAS kernel.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        x[:, 2] = x[:, 0]
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        write_matrix(x, x_path)
        write_matrix(rng.standard_normal((40, 3)), y_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.txt"
        out = run_cli("solve", "--x", x_path, "--y", y_path, "--out-perm", out_perm, "--out-b", out_b)
        assert out.returncode == 1
        assert out.stdout == ""
        assert re.fullmatch(
            r"error: design matrix is numerically rank deficient "
            r"\(condition estimate \S+, cutoff 1\.0e\+10\)\n",
            out.stderr,
        )
        assert not out_perm.exists() and not out_b.exists()

    def test_underflowing_matching_direction_writes_no_output(self, tmp_path):
        # X of about 1e-175 and Y of about 1e25: X X^T Y is about 1e-325 and rounds to zero.
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        write_matrix(rng.standard_normal((20, 2)) * 1e-175, x_path)
        write_matrix(rng.standard_normal((20, 2)) * 1e25, y_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.txt"
        out = run_cli("solve", "--x", x_path, "--y", y_path, "--out-perm", out_perm, "--out-b", out_b)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: matching direction X D is zero or below about 2.2e-308 in every entry\n"
        )
        assert not out_perm.exists() and not out_b.exists()

    def test_underflowing_matching_cost_writes_no_output(self, tmp_path):
        # X of about 1e-60 and Y of about 1e-103: X X^T Y is about 1e-223, a normal double,
        # but the cost Y (X X^T Y)^T is about 1e-326 and rounds to zero.
        rng = np.random.default_rng(0)
        x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
        write_matrix(rng.standard_normal((20, 2)) * 1e-60, x_path)
        write_matrix(rng.standard_normal((20, 2)) * 1e-103, y_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.txt"
        out = run_cli("solve", "--x", x_path, "--y", y_path, "--out-perm", out_perm, "--out-b", out_b)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            "error: matching cost Y (X D)^T is zero or below about 2.2e-308 in every entry\n"
        )
        assert not out_perm.exists() and not out_b.exists()

    def test_repeated_observation_row_takes_the_smaller_column_first(self, tmp_path):
        # Rows 4 and 25 of Y are equal, so the cost has two equal rows that trade columns at no
        # loss: the objective is one correctly rounded sum of the same entries either way, and
        # the lexicographically smallest optimum gives row 4 the smaller column.
        inst, x_path, y_path = write_instance(tmp_path, n=40, p=3, m=3, h=10, sigma=0.5, seed=7)
        y = inst.y.copy()
        y[25] = y[4]
        write_matrix(y, y_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.txt"
        code = main(["solve", "--x", str(x_path), "--y", str(y_path),
                     "--out-perm", str(out_perm), "--out-b", str(out_b)])
        assert code == 0
        perm = read_permutation(out_perm).indices
        assert perm[4] < perm[25]

    def test_unwritable_signal_file_leaves_no_permutation_file(self, tmp_path):
        _, x_path, y_path = write_instance(tmp_path)
        out_perm, out_b = tmp_path / "p.txt", tmp_path / "b.d"
        out_b.mkdir()
        out = run_cli("solve", "--x", x_path, "--y", y_path, "--out-perm", out_perm, "--out-b", out_b)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == f"error: cannot open {out_b}: Is a directory\n"
        assert not out_perm.exists()

    def test_non_ascii_input_names_path(self, tmp_path):
        _, x_path, y_path = write_instance(tmp_path)
        y_path.write_bytes(b"60 6\n\xd9" + y_path.read_bytes().split(b"\n", 1)[1])
        out = run_cli("solve", "--x", x_path, "--y", y_path,
                      "--out-perm", tmp_path / "p.txt", "--out-b", tmp_path / "b.txt")
        assert out.returncode == 1
        assert out.stderr.startswith(f"error: {y_path}: non-ASCII byte 0xd9")
        assert "Warning" not in out.stderr
        assert "Traceback" not in out.stderr

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

    def test_inf_grid_point_is_the_noiseless_point(self, tmp_path, capsys):
        outs = {}
        for token in ("noiseless", "inf"):
            cfg = tmp_path / f"{token}.txt"
            cfg.write_text(TINY_CONFIG.replace("noiseless", token))
            outs[token] = tmp_path / f"{token}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(outs[token])]) == 0
            assert capsys.readouterr().err.splitlines()[-1].startswith("snr=noiseless sigma=0 ")
        assert outs["inf"].read_bytes() == outs["noiseless"].read_bytes()

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

    def test_signal_key_is_an_unknown_key(self, tmp_path, capsys):
        # The signal is always the canonical one at scale 1, so neither key exists.
        cfg = tmp_path / "cfg.txt"
        out = tmp_path / "o.csv"
        for key, value in (("signal", "canonical"), ("signal_scale", "1.0")):
            cfg.write_text(TINY_CONFIG + f"{key} = {value}\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: unknown config key: {key}\n")
            assert not out.exists()

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(TINY_CONFIG)
        marked.write_bytes(codecs.BOM_UTF8 + TINY_CONFIG.encode())
        outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
        for cfg, out in zip((plain, marked), outs):
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        capsys.readouterr()
        # The mark holds no newline, so a bad byte after it is still on the right line.
        marked.write_bytes(codecs.BOM_UTF8 + b"n = 20\np = 2\nm = 2\nh = 0\n# caf\xe9\n")
        assert main(["simulate", "--config", str(marked), "--out", str(outs[1])]) == 2
        assert capsys.readouterr().err == f"error: {marked}: line 5: byte 0xe9 is not UTF-8\n"

    @pytest.mark.parametrize("grid", ["1", "noiseless"])
    def test_n_below_two_is_usage_error_before_any_trial(self, tmp_path, capsys, monkeypatch, grid):
        # A noisy grid point ran every trial and then failed in its log-det ratio; a
        # noiseless-only grid exited 0.
        monkeypatch.setattr(shufflereg.experiments, "run_trial", lambda *args: pytest.fail("a trial ran"))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 1\np = 1\nm = 1\nh = 0\ntrials = 2\nsnr_grid = {grid}\n")
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: n must be >= 2, got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["m", "n"])
    def test_dimension_past_numpy_limit_is_usage_error_naming_key(self, tmp_path, capsys, key):
        # Only values past np.intp's range: the check must fire before anything is allocated.
        dims = {"n": 60, "p": 6, "m": 6, key: 100000000000000000000}
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in dims.items()) + "h = 10\ntrials = 1\nsnr_grid = 1\n")
        out = tmp_path / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must lie in [1, {np.iinfo(np.intp).max}], got 100000000000000000000\n"
        assert not out.exists()

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "missing" / "s.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot open {out}: No such file or directory\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_unreadable_config_exits_without_traceback(self, tmp_path):
        directory = tmp_path / "cfg.d"
        directory.mkdir()
        proc = run_cli("simulate", "--config", directory, "--out", tmp_path / "a.csv")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot open {directory}: Is a directory\n"
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"n = 20\np = 2\nm = 2\nh = 0\n# caf\xe9\n")
        proc = run_cli("simulate", "--config", latin1, "--out", tmp_path / "b.csv")
        assert proc.returncode == 2
        assert proc.stderr == f"error: {latin1}: line 5: byte 0xe9 is not UTF-8\n"
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        "module,attr,grid,message",
        [
            # numpy's messages for the signal at n = p = m = 10**6 and for logspace(0, 1, 10**12).
            (shufflereg.experiments, "build_canonical_signal", "1", "Unable to allocate 7.28 TiB for "
             "an array with shape (1000000, 1000000) and data type float64"),
            (np, "logspace", "logspace(0, 1, 3)", "Unable to allocate 7.28 TiB for an array with "
             "shape (1000000000000,) and data type float64"),
        ],
    )
    def test_failed_allocation_is_runtime_error_naming_it(
        self, tmp_path, capsys, monkeypatch, module, attr, grid, message
    ):
        refuse_allocation(monkeypatch, module, attr, message)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 20\np = 2\nm = 2\nh = 0\ntrials = 1\nsnr_grid = {grid}\n")
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_signal_error_whose_squares_overflow_is_finite(self, tmp_path, capsys):
        # sigma = 1e154 at snr 1e-308, so ||B_hat - B||_F^2 overflowed: the CSV read inf, with a warning.
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 12\np = 3\nm = 2\nh = 0\ntrials = 1\nsnr_grid = 1e-308\nestimator = oracle_perm\n")
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        assert 1e150 < float(row["mean_rel_b_error"]) < 1e160
        assert "Warning" not in capsys.readouterr().err


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

    def test_negative_iters_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["demo-failure", "--n", "150", "--iters", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: max_iters must be >= 0, got -1\n"
        assert not out.exists()

    def test_cost_larger_than_memory_fails_with_its_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 8 * 150 * 150 - 1)
        out = tmp_path / "t.csv"
        assert main(["demo-failure", "--n", "150", "--iters", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: assignment with n=150 needs a dense 150x150 cost of 180000 bytes")
        assert "Traceback" not in err
        assert not out.exists()

    def test_too_large_n_exits_1_without_traceback(self, tmp_path):
        # 8 n^2 bytes is over a terabyte at this n, so the size guard refuses it on any host.
        out = tmp_path / "t.csv"
        proc = run_cli("demo-failure", "--n", "400000", "--iters", "0", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: assignment with n=400000 needs a dense 400000x400000 cost")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_failed_allocation_is_runtime_error_naming_it(self, tmp_path, capsys, monkeypatch):
        # numpy's message for the design of --n 10**12.
        message = "Unable to allocate 14.6 TiB for an array with shape (1000000000000, 2) and data type float64"
        refuse_allocation(monkeypatch, shufflereg.experiments, "synthesize_instance", message)
        out = tmp_path / "t.csv"
        assert main(["demo-failure", "--n", "150", "--iters", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_snr_past_the_squared_norm_range(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        b_path.write_text("2 2\n1e154 0\n0 1e154\n")
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1", "--n", "100"])
        assert code == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines() if " = " in line
        )
        # ||B||_F^2 = 2e308 overflows; ||B||_F^2 / (2 * 1^2) = 1e308 does not.
        assert float(values["snr"]) == pytest.approx(1e308, rel=1e-12)

    # ||B||_F^2 / m with m the column count of B: 2e310 / 2 and 1e616 / 1 overflow.
    @pytest.mark.parametrize("text", ["2 2\n1e155 0\n0 1e155\n", "1 1\n1e308\n"])
    def test_unrepresentable_snr_fails_before_printing(self, tmp_path, capsys, text):
        b_path = tmp_path / "b.txt"
        b_path.write_text(text)
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1", "--n", "100"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows double precision" in captured.err

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

    def test_rank_one_signal_counts_one_singular_value(self, tmp_path, capsys):
        # The roundoff singular values of a rank-one B, about eps * ||B||, are not signal: the
        # log-det is log1p(||B||^2 / sigma^2) alone. Eigenvalues of B^T B would give 426.67.
        b_path = tmp_path / "b.txt"
        v = np.array([0.3, 0.7, 1.1])
        write_matrix(np.outer(v, v), b_path)
        code = main(["diagnose", "--b", str(b_path), "--sigma", "1e-50", "--n", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "logdet = 231.422940539\n" in out
        assert "stable_rank = 1\n" in out

    def test_negative_sigma_is_usage_error(self, tmp_path):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(2, 2, 1.0), b_path)
        assert main(["diagnose", "--b", str(b_path), "--sigma", "-1", "--n", "100"]) == 2

    def test_nan_sigma_is_usage_error(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(2, 2, 1.0), b_path)
        assert main(["diagnose", "--b", str(b_path), "--sigma", "nan", "--n", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sigma must be >= 0, got nan\n"

    def test_infinite_sigma_is_the_pure_noise_limit(self, tmp_path, capsys):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(2, 2, 1.0), b_path)
        assert main(["diagnose", "--b", str(b_path), "--sigma", "inf", "--n", "100"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines() if " = " in line)
        assert (values["snr"], values["logdet"], values["logdet_over_log_n"]) == ("0", "0", "0")
        assert "below minimax threshold" in out


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


def run_main(argv):
    """(exit code, stdout, stderr, parsed) of ``main`` in-process; argparse's exit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:
            code, parsed = exc.code, False
    return code, out.getvalue(), err.getvalue(), parsed


def assert_one_error_line(code, out, err, expected_code=1):
    assert code == expected_code
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")


class TestErrorPath:
    """Every command raises; ``main`` alone maps the exception to an exit code and one line."""

    def test_missing_inputs_and_outputs_name_path_and_reason(self, tmp_path):
        _, x_path, y_path = write_instance(tmp_path)
        nope = tmp_path / "nope.txt"
        nodir = tmp_path / "missing" / "out.txt"
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(3, 2, 1.0), b_path)
        cases = [
            (["solve", "--x", nope, "--y", y_path, "--out-perm", tmp_path / "p", "--out-b", tmp_path / "b"], nope),
            (["solve", "--x", x_path, "--y", y_path, "--out-perm", nodir, "--out-b", tmp_path / "b"], nodir),
            (["solve", "--x", x_path, "--y", y_path, "--out-perm", tmp_path / "p", "--out-b", nodir], nodir),
            (["simulate", "--config", nope, "--out", tmp_path / "s.csv"], nope),
            (["demo-failure", "--n", "100", "--iters", "0", "--out", nodir], nodir),
            (["diagnose", "--b", nope, "--sigma", "1", "--n", "100"], nope),
        ]
        for argv, path in cases:
            code, out, err, _ = run_main(argv)
            assert_one_error_line(code, out, err)
            assert err == f"error: cannot open {path}: No such file or directory\n"

    @pytest.mark.parametrize(
        "attr,argv",
        [
            ("one_step_estimate", ["solve", "--x", "x.txt", "--y", "y.txt", "--out-perm", "p", "--out-b", "b"]),
            ("stable_rank", ["diagnose", "--b", "b.txt", "--sigma", "1", "--n", "100"]),
        ],
    )
    def test_failed_allocation_is_runtime_error(self, tmp_path, monkeypatch, attr, argv):
        _, x_path, y_path = write_instance(tmp_path)
        write_matrix(build_canonical_signal(3, 2, 1.0), tmp_path / "b.txt")
        message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type float64"
        refuse_allocation(monkeypatch, shufflereg.cli, attr, message)
        monkeypatch.chdir(tmp_path)
        code, out, err, _ = run_main(argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("shape", [(11, 1), (1, 11)], ids=["column", "row"])
    def test_diagnose_rank_one_signal_is_the_unknown_regime(self, tmp_path, shape):
        # This Gaussian column's stable rank once rounded to 0.9999999999999999 and crashed diagnose.
        b_path = tmp_path / "b.txt"
        write_matrix(np.random.default_rng(0).standard_normal((11, 1)).reshape(shape), b_path)
        code, out, err, _ = run_main(["diagnose", "--b", b_path, "--sigma", "0.5", "--n", "500"])
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["stable_rank = 1", "regime = unknown"]

    @pytest.mark.parametrize("n,regime", [(3, "unknown"), (5, "unknown"), (7, "unknown"),
                                          (8, "hard"), (500, "hard")])
    def test_diagnose_regime_is_unknown_below_n_8(self, tmp_path, n, regime):
        # The 2 x 2 identity has stable rank 2 = c0; below n = 8 the bands are out of order.
        b_path = tmp_path / "b.txt"
        write_matrix(np.eye(2), b_path)
        code, out, err, _ = run_main(["diagnose", "--b", b_path, "--sigma", "0.5", "--n", str(n)])
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["stable_rank = 2", f"regime = {regime}"]

    @pytest.mark.parametrize(
        "flag,message",
        [("--n", "log n! overflows double precision at n of about 1e401")],
        ids=["n"],
    )
    def test_diagnose_count_past_double_range_fails_before_printing(self, tmp_path, flag, message):
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(3, 2, 1.0), b_path)
        argv = ["diagnose", "--b", b_path, "--sigma", "1", "--n", "500", flag, "9" * 401]
        code, out, err, _ = run_main(argv)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"

    def test_diagnose_has_no_m_option(self, tmp_path):
        # m is the column count of B, the only value the model allows.
        b_path = tmp_path / "b.txt"
        write_matrix(build_canonical_signal(3, 2, 1.0), b_path)
        code, out, err, parsed = run_main(["diagnose", "--b", b_path, "--sigma", "1", "--n", "500", "--m", "5"])
        assert (code, out, parsed) == (2, "", False)
        assert err.startswith("usage: ") and "unrecognized arguments: --m 5" in err

    @pytest.mark.parametrize(
        "argv,flag,kind,token",
        [
            (["diagnose", "--b", "b.txt", "--sigma", "1", "--n", "5_00"], "--n", "int", "5_00"),
            (["diagnose", "--b", "b.txt", "--sigma", "1", "--n", "\u0665\u0660\u0660"], "--n", "int", "\u0665\u0660\u0660"),
            (["diagnose", "--b", "b.txt", "--sigma", "0_5", "--n", "500"], "--sigma", "float", "0_5"),
            (["demo-failure", "--n", "1_50", "--out", "t.csv"], "--n", "int", "1_50"),
            (["demo-failure", "--iters", "\u0663", "--out", "t.csv"], "--iters", "int", "\u0663"),
            (["demo-failure", "--seed", "0_1", "--out", "t.csv"], "--seed", "int", "0_1"),
            (["simulate", "--config", "c.cfg", "--out", "s.csv", "--workers", "1_0"], "--workers", "int", "1_0"),
            (["simulate", "--config", "c.cfg", "--out", "s.csv", "--seed", "\u0667"], "--seed", "int", "\u0667"),
        ],
    )
    def test_number_flags_follow_the_file_grammar(self, tmp_path, monkeypatch, argv, flag, kind, token):
        # int() and float() read underscores and non-ASCII digits; matrix and config files do not.
        monkeypatch.chdir(tmp_path)
        code, out, err, parsed = run_main(argv)
        assert (code, out, parsed) == (2, "", False)
        assert err.splitlines()[-1].endswith(f": error: argument {flag}: invalid {kind} value: {token!r}")
        assert not list(tmp_path.iterdir())


HUGE = "9" * 401
# Per config key: values that pass validation (with n >= 12, so every h here is valid), then
# values that fail it or sit at the edge of double range. Only keys that are rejected or never
# size an allocation get a huge integer.
_CONFIG_VALUES = {
    "n": (["12", "30", "40"], ["0", "-3", "2", "nan", "1e308", "\u00e9"]),
    "p": (["1", "2", "3"], ["0", "-1", "41", "inf"]),
    "m": (["1", "2", "3"], ["0", "-1", "1.5"]),
    "h": (["0", "2", "12"], ["1", "-2", "41", HUGE]),
    "dist": (["gaussian", "rademacher"], ["cauchy", "\u00e9"]),
    "snr_grid": (
        ["1", "0.5, 5, noiseless", "1, inf", "logspace(-1, 1, 3)"],
        ["0", "-1", "nan", "1e308", "1e-308", "noiseless, 1", "1, 1", "logspace(0, 1, 0)",
         "logspace(a, 1, 2)", "logspace(1e308, 1, 2)", "logspace(-400, 400, 3)", "logspace(nan, 1, 2)", "logspace(0, 1)"],
    ),
    "trials": (["1", "2"], ["0", "-1", "nan"]),
    "master_seed": (["0", "7", "-5", HUGE], ["nan", "1.5"]),
    "estimator": (["one_step", "oracle_perm", "alt_min(2)"], ["alt_min(0)", "one_step(3)", "bogus"]),
    "workers": (["1", "2", "3"], ["0", "-2"]),
}
_ALWAYS = ("n", "p", "m", "h", "trials", "snr_grid")


def valid_or_edge(valid, edge):
    """A valid value about half the time, so that most draws get past the first check."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(edge))


@st.composite
def config_bytes(draw):
    """A valid tiny config with up to two keys set to edge values, and optional damage around it."""
    # trials and snr_grid are always set: their defaults (100 trials, 10 points) are not tiny.
    optional = [key for key in _CONFIG_VALUES if key not in _ALWAYS]
    keys = [*_ALWAYS, *draw(st.lists(st.sampled_from(optional), unique=True))]
    edged = set(draw(st.lists(st.sampled_from(keys), max_size=2)))
    values = {key: draw(st.sampled_from(_CONFIG_VALUES[key][key in edged])) for key in keys}
    dropped = draw(st.sampled_from([None, None, None, "n", "h"]))  # a missing required key
    lines = [f"{key} = {value}" for key, value in values.items() if key != dropped]
    extra = ["# comment", "", "no equals sign", "bogus = 1", "caf\u00e9 = 1", f"p = {values['p']}"]
    lines += draw(st.lists(st.sampled_from(extra), max_size=1))
    data = "\n".join(draw(st.permutations(lines))).encode("utf-8")
    return data + draw(st.sampled_from([b"", b"\n", b"\n# caf\xe9\n"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Tiny input files of every kind, plus output paths that do and do not work."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 2))
    write_matrix(x, root / "x.txt")
    write_matrix(x[rng.permutation(12)] @ rng.standard_normal((2, 2)), root / "y.txt")
    write_matrix(np.hstack([x[:, :1], x[:, :1]]), root / "x_rank1.txt")
    write_matrix(rng.standard_normal((3, 2)), root / "b.txt")
    write_matrix(rng.standard_normal((11, 1)), root / "b_col.txt")
    (root / "ragged.txt").write_text("3 2\n1 2\n3\n4 5\n")
    (root / "non_ascii.txt").write_bytes(b"2 1\n\xe9\n1\n")
    (root / "nan.txt").write_text("2 1\nnan\n1\n")
    (root / "zero.txt").write_text("2 2\n0 0\n0 0\n")
    (root / "empty.txt").write_text("")
    (root / "huge.txt").write_text("2 2\n1e300 0\n0 1e-300\n")
    (root / "dir").mkdir()
    (root / "out").mkdir()
    return root


_BROKEN_INPUTS = ["ragged.txt", "non_ascii.txt", "nan.txt", "empty.txt", "missing.txt", "dir"]
_BROKEN_OUTPUTS = ["missing/a", "dir"]
_config_counter = itertools.count()


class InDir(str):
    """A path relative to the fuzz directory; ``in_fuzz_dir`` makes it absolute."""


class ConfigFile(bytes):
    """The bytes of a config file; ``in_fuzz_dir`` writes them to a new file there."""


def in_fuzz_dir(argv, root):
    """argv with each ``InDir`` and ``ConfigFile`` replaced by a path under ``root``."""
    resolved = []
    for arg in argv:
        if isinstance(arg, ConfigFile):
            path = root / f"config{next(_config_counter)}.cfg"
            path.write_bytes(arg)
            arg = path
        elif isinstance(arg, InDir):
            arg = root / arg
        resolved.append(arg)
    return resolved


@st.composite
def cli_argv(draw):
    """argv for one of the four subcommands over tiny inputs, valid or broken."""
    def path(valid, broken):
        return InDir(draw(valid_or_edge(valid, broken)))

    def out():
        return path(["out/a", "out/b"], _BROKEN_OUTPUTS)

    command = draw(st.sampled_from(["solve", "simulate", "demo-failure", "diagnose"]))
    if command == "solve":
        # At most one argument is broken, so that most draws reach the solve and the writes.
        broken = draw(st.sampled_from([None, "--x", "--y", "--out-perm", "--out-b"]))
        valid = {"--x": ["x.txt", "x_rank1.txt", "huge.txt"], "--y": ["y.txt", "b.txt"],
                 "--out-perm": ["out/a"], "--out-b": ["out/b"]}
        argv = [command]
        for flag, names in valid.items():
            choices = (_BROKEN_OUTPUTS if flag.startswith("--out") else _BROKEN_INPUTS) if flag == broken else names
            argv += [flag, InDir(draw(st.sampled_from(choices)))]
        return argv
    if command == "simulate":
        config = st.one_of(st.builds(ConfigFile, config_bytes()), st.sampled_from([InDir("missing.txt"), InDir("dir")]))
        argv = [command, "--config", draw(config), "--out", out()]
        for flag, values in (("--workers", [1, 3, 0, -1, "1_0"]), ("--seed", [0, -1, HUGE, "\u0667"])):
            value = draw(st.sampled_from([None, *values]))
            if value is not None:
                argv += [flag, value]
        return argv
    if command == "demo-failure":
        return [command, "--n", draw(st.one_of(st.integers(100, 150), st.integers(-5, 99),
                                               st.sampled_from(["1e3", "1_20", "\u0661\u0662\u0660"]))),
                "--iters", draw(st.one_of(st.integers(-1, 3), st.just("0_1"))),
                "--seed", draw(st.sampled_from([0, -1, HUGE, "1_0"])),
                "--out", out()]
    return [command, "--b", path(["b.txt", "b_col.txt", "huge.txt", "zero.txt"], _BROKEN_INPUTS),
            "--sigma", draw(valid_or_edge(["0", "1", "0.5", "1e-3"],
                                          ["-0", "-1", "nan", "inf", "1e308", "1e-308", "0_5", "\u0660.5"])),
            "--n", draw(valid_or_edge([3, 500, 10**20], [-1, 0, 2, HUGE, "5_00", "\u0665\u0660\u0660"]))]


# Its optimal assignment sum passes 1.8e308; that draw once failed the fuzz test below on a warning.
OVERFLOWING_OBJECTIVE_CONFIG = b"n = 30\np = 1\nm = 1\nh = 0\ntrials = 2\nsnr_grid = 1e-308\n"


class TestFuzzMain:
    @settings(max_examples=400, deadline=None)
    @given(argv=cli_argv())
    @example(argv=["simulate", "--config", ConfigFile(OVERFLOWING_OBJECTIVE_CONFIG), "--out", InDir("out/a")])
    def test_every_input_ends_in_a_code_and_one_error_line(self, fuzz_dir, argv):
        code, out, err, parsed = run_main(in_fuzz_dir(argv, fuzz_dir))
        assert code in (0, 1, 2)
        if code == 0:
            return
        assert out == ""
        if parsed:
            assert_one_error_line(code, out, err, expected_code=code)
        else:
            assert code == 2 and ": error: " in err.splitlines()[-1]
