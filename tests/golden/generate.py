"""Generate the golden-output corpus of the CLI, or check it byte for byte.

    python tests/golden/generate.py           rewrite tests/golden/corpus
    python tests/golden/generate.py --bytes   regenerate in a temporary directory and
                                              compare every file with tests/golden/corpus

Each case writes its inputs (configs and matrix files), runs one ``shufflereg``
command in process through ``shufflereg.cli.main`` inside the output
directory, so that file names in error lines are relative, and records the
command, exit code, stdout and stderr in ``<case>.txt`` beside the files the
command wrote. The cases are:

- sweeps of one-step, the oracle, alt_min(3) and alt_min(25) on Gaussian and
  Rademacher designs at two shapes with n <= 64, so the tie rule runs, and a
  one-step sweep on a Gaussian design at n = 200;
- ``solve`` on three pairs: Gaussian, noiseless Rademacher built to tie, and
  the Gaussian pair with one observation row repeated;
- ``demo-failure`` and ``diagnose`` on six signals;
- nine refusals, each with its exit code and ``error:`` line: a short row, a
  missing file, a direction that overflows or is zero, a zero cost, a signal
  estimate that overflows, a log-det that overflows, and two bad configs.

``tests/test_golden.py`` compares a fresh corpus with the committed one
allowing a relative 1e-9 on floats, since another OpenBLAS kernel may round
differently; ``--bytes`` is the check for a change that claims identical
bytes on one machine. A change that moves an output regenerates the corpus,
so that its diff shows the change. Run with the package importable
(installed, or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from shufflereg.cli import main
from shufflereg.matrixio import write_matrix
from shufflereg.model import DistributionKind, build_canonical_signal, synthesize_instance

CORPUS = Path(__file__).resolve().parent / "corpus"

SHAPES = [(40, 3, 5, 10), (64, 4, 2, 20)]  # (n, p, m, h)
ESTIMATORS = {
    "one_step": "one_step", "oracle_perm": "oracle_perm", "alt_min3": "alt_min(3)",
    "alt_min25": "alt_min(25)",
}
DESIGNS = ["gaussian", "rademacher"]


def run(case: str, *argv: str) -> None:
    """Run ``shufflereg ARGV`` in the current directory and write its transcript to ``case.txt``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    Path(f"{case}.txt").write_text(
        f"$ shufflereg {' '.join(argv)}\nexit {code}\n"
        f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}",
        encoding="utf-8",
    )


def sweep(tag: str, estimator: str, design: str, n: int, p: int, m: int, h: int) -> None:
    case = f"sweep_{tag}_{design}_{n}x{p}x{m}"
    Path(f"{case}.cfg").write_text(
        f"n = {n}\np = {p}\nm = {m}\nh = {h}\ndist = {design}\ntrials = 4\n"
        f"snr_grid = 0.5, 3, 30, noiseless\nestimator = {estimator}\nmaster_seed = 5\n"
    )
    run(case, "simulate", "--config", f"{case}.cfg", "--out", f"{case}.csv")


def sweeps() -> None:
    for shape in SHAPES:
        for design in DESIGNS:
            for tag, estimator in ESTIMATORS.items():
                sweep(tag, estimator, design, *shape)
    # Past n = 64 a Rademacher cost ties, and scipy's pick among tied optima follows bits
    # that another OpenBLAS kernel may round differently, so this shape is Gaussian only.
    sweep("one_step", "one_step", "gaussian", 200, 10, 4, 50)


def solves() -> None:
    gaussian = synthesize_instance(
        40, 3, 3, 10, DistributionKind.GAUSSIAN, build_canonical_signal(3, 3, 1.0), 0.5, 7
    )
    tie = synthesize_instance(
        64, 4, 4, 64, DistributionKind.RADEMACHER, build_canonical_signal(4, 4, 1.0), 0.0, 3
    )
    # Rows 4 and 25 of Y are equal, so they trade columns at no loss and row 4 takes the smaller.
    repeated = gaussian.y.copy()
    repeated[25] = repeated[4]
    pairs = {
        "solve_gaussian_40x3": (gaussian.x, gaussian.y),
        "solve_rademacher_tie_64x4": (tie.x, tie.y),
        "solve_repeated_row_40x3": (gaussian.x, repeated),
    }
    for case, (x, y) in pairs.items():
        write_matrix(x, f"{case}_x.txt")
        write_matrix(y, f"{case}_y.txt")
        run(case, "solve", "--x", f"{case}_x.txt", "--y", f"{case}_y.txt",
            "--out-perm", f"{case}_perm.txt", "--out-b", f"{case}_b.txt")


def diagnoses() -> None:
    signals = {
        "diag": ("2 2\n1 0\n0 2\n", "0.5", "500"),
        "column": ("3 1\n0.3\n-0.7\n1.1\n", "0.5", "500"),
        "rank_one": (
            "3 3\n0.09 0.21 0.33\n0.21 0.48999999999999994 0.77\n0.33 0.77 1.2100000000000002\n",
            "1e-50", "500",
        ),
        "noiseless": ("2 2\n1 0\n0 2\n", "0", "500"),
        "infinite_noise": ("2 2\n1 0\n0 2\n", "inf", "500"),
        "identity": ("3 3\n1 0 0\n0 1 0\n0 0 1\n", "0.1", "10000"),
    }
    for name, (text, sigma, n) in signals.items():
        path = f"diagnose_{name}_b.txt"
        Path(path).write_text(text)
        run(f"diagnose_{name}", "diagnose", "--b", path, "--sigma", sigma, "--n", n)


def refusals() -> None:
    rng = np.random.default_rng(0)
    write_matrix(rng.standard_normal((40, 3)), "refuse_y.txt")
    Path("refuse_short.txt").write_text("40 3\n1 2 3\n4 5\n")
    run("refuse_short_row", "solve", "--x", "refuse_short.txt", "--y", "refuse_y.txt",
        "--out-perm", "refused_perm.txt", "--out-b", "refused_b.txt")
    run("refuse_missing_file", "solve", "--x", "missing.txt", "--y", "missing.txt",
        "--out-perm", "refused_perm.txt", "--out-b", "refused_b.txt")
    scaled = {
        "refuse_direction_overflow": (20, 1e110, 1e110),
        "refuse_direction_zero": (20, 1e-175, 1e25),
        "refuse_cost_zero": (20, 1e-60, 1e-103),
    }
    for case, (n, x_scale, y_scale) in scaled.items():
        write_matrix(rng.standard_normal((n, 2)) * x_scale, f"{case}_x.txt")
        write_matrix(rng.standard_normal((n, 2)) * y_scale, f"{case}_y.txt")
        run(case, "solve", "--x", f"{case}_x.txt", "--y", f"{case}_y.txt",
            "--out-perm", "refused_perm.txt", "--out-b", "refused_b.txt")
    write_matrix(rng.standard_normal((6, 7)) * 2.7e307, "refuse_huge_b.txt")
    run("refuse_logdet_overflow", "diagnose", "--b", "refuse_huge_b.txt", "--sigma", "0.5", "--n", "500")
    configs = {
        "refuse_config_underscore": "n = 40\np = 3\nm = 3\nh = 8\ntrials = 1_0\nsnr_grid = 1\n",
        "refuse_config_one_row": "n = 1\np = 1\nm = 1\nh = 0\ntrials = 2\nsnr_grid = 1, noiseless\n",
    }
    for case, text in configs.items():
        Path(f"{case}.cfg").write_text(text)
        run(case, "simulate", "--config", f"{case}.cfg", "--out", "refused.csv")
    # The assignment is finite and B_hat is not, so the solve writes neither file.
    rng = np.random.default_rng(0)
    write_matrix(rng.standard_normal((40, 3)) * 1e-300, "refuse_signal_overflow_x.txt")
    write_matrix(rng.standard_normal((40, 3)) * 1e300, "refuse_signal_overflow_y.txt")
    run("refuse_signal_overflow", "solve", "--x", "refuse_signal_overflow_x.txt",
        "--y", "refuse_signal_overflow_y.txt", "--out-perm", "refused_perm.txt",
        "--out-b", "refused_b.txt")


def generate(out: Path) -> None:
    """Write the whole corpus into the existing directory ``out``."""
    cwd = os.getcwd()
    os.chdir(out)
    try:
        sweeps()
        solves()
        run("demo_failure", "demo-failure", "--n", "150", "--iters", "20", "--out", "demo_failure.csv")
        diagnoses()
        refusals()
    finally:
        os.chdir(cwd)


def byte_differences(fresh: Path, committed: Path) -> list[str]:
    """Names of the files that are missing, extra or not byte-identical between the two corpora."""
    names = sorted({p.name for p in fresh.iterdir()} | {p.name for p in committed.iterdir()})
    return [
        name for name in names
        if not ((fresh / name).is_file() and (committed / name).is_file()
                and filecmp.cmp(fresh / name, committed / name, shallow=False))
    ]


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bytes", action="store_true",
                        help="compare a fresh corpus with the committed one, byte for byte")
    args = parser.parse_args(argv)
    if args.bytes:
        with tempfile.TemporaryDirectory() as tmp:
            generate(Path(tmp))
            differ = byte_differences(Path(tmp), CORPUS)
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} file(s) differ from {CORPUS}")
        return 1 if differ else 0
    CORPUS.mkdir(exist_ok=True)
    for path in CORPUS.iterdir():
        path.unlink()
    generate(CORPUS)
    return 0


if __name__ == "__main__":
    sys.exit(cli())
