"""Command-line front end.

Subcommands: ``solve`` (estimate a permutation and signal from matrix files),
``simulate`` (run a Monte-Carlo sweep from a config file into a CSV),
``demo-failure`` (single-observation stagnation trace), and ``diagnose``
(feasibility diagnostics for a signal file).

Exit codes: 0 success, 1 runtime or data error, 2 usage or validation error.
Diagnostics go to stderr; files and stdout stay machine-readable. Commands
raise, and ``main`` alone maps an exception to an exit code and one ``error:``
line on stderr, with stdout left empty: ``ConfigError`` exits 2; ``OSError``
(``cannot open PATH: REASON``), ``ValueError``, ``MemoryError`` and
``LinAlgError`` exit 1. Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .estimators import one_step_estimate
from .experiments import (
    ConfigError,
    load_config,
    reproduce_failure_demo,
    run_sweep,
    write_csv,
    write_trace_csv,
)
from .matrixio import decimal_token, read_matrix, write_matrix, write_permutation
from .metrics import (
    classify_regime,
    logdet_ratio,
    minimax_logdet_threshold,
    snr,
    stable_rank,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


# argparse types: numbers in the grammar of the files. argparse names a type in its message
# ("invalid int value: '5_00'"), so each keeps the name of the builtin it stands for.
_INT = functools.partial(decimal_token, kind=int)
_FLOAT = functools.partial(decimal_token, kind=float)
_INT.__name__, _FLOAT.__name__ = "int", "float"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_solve(args) -> int:
    x = read_matrix(args.x)
    y = read_matrix(args.y)
    result = one_step_estimate(x, y)
    write_permutation(result.perm_hat, args.out_perm)
    try:
        write_matrix(result.b_hat, args.out_b)
    except OSError:  # a failed solve leaves neither output file
        os.remove(args.out_perm)
        raise
    print(
        f"solved: n={x.shape[0]} p={x.shape[1]} m={y.shape[1]} "
        f"objective={result.objective:.12g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    overrides = {"workers": args.workers, "master_seed": args.seed}
    config = replace(config, **{key: value for key, value in overrides.items() if value is not None})
    result = run_sweep(config)
    write_csv(result, args.out)
    for row in result.rows:
        note = f" failures={row.failures} first_error={row.first_error}" if row.failures else ""
        print(
            f"snr={row.snr!r} sigma={row.sigma:.6g} recovery_rate={row.recovery_rate:.4g} "
            f"mean_hamming={row.mean_hamming:.6g} trials={row.trials}{note}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_demo_failure(args) -> int:
    trace = reproduce_failure_demo(args.n, args.iters, args.seed)
    write_trace_csv(trace, args.out)
    print(
        f"demo-failure: n={args.n} iterations={len(trace) - 1} "
        f"first_hamming={trace[0].hamming} last_hamming={trace[-1].hamming}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if not args.sigma >= 0:  # nan fails every comparison, so test for the valid range
        raise ConfigError(f"sigma must be >= 0, got {args.sigma}")
    if args.n < 3:
        raise ConfigError(f"n must be >= 3, got {args.n}")
    b = read_matrix(args.b)
    # Every value is computed before the first line is printed, so a failure leaves stdout empty.
    srank = stable_rank(b)
    logdet = logdet_ratio(b, args.sigma, args.n) * math.log(args.n) if args.sigma > 0 else None
    ratio = snr(b, b.shape[1], args.sigma)
    regime = classify_regime(srank, args.n)
    threshold = minimax_logdet_threshold(args.n)
    print(f"stable_rank = {srank:.12g}")
    print(f"regime = {regime}")
    print(f"minimax_threshold = {threshold:.12g}")
    if logdet is None:
        print("snr = noiseless")
        print("logdet = noiseless")
        return EXIT_OK
    print(f"snr = {ratio:.12g}")
    print(f"logdet = {logdet:.12g}")
    print(f"logdet_over_log_n = {logdet / math.log(args.n):.12g}")
    if logdet < threshold:
        print("below minimax threshold: recovery information-theoretically unreliable")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflereg",
        description="Estimators and Monte-Carlo experiments for regression with shuffled labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="recover a permutation and signal from matrix files")
    solve.add_argument("--x", required=True, help="design matrix file (n x p)")
    solve.add_argument("--y", required=True, help="observation matrix file (n x m)")
    solve.add_argument("--out-perm", required=True, help="output permutation file, one index per line")
    solve.add_argument("--out-b", required=True, help="output signal matrix file")
    solve.set_defaults(func=cmd_solve)

    simulate = sub.add_parser("simulate", help="run a Monte-Carlo sweep from a config file")
    simulate.add_argument("--config", required=True, help="flat key = value config file")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.add_argument("--workers", type=_INT, default=None, help="override worker count")
    simulate.add_argument("--seed", type=_INT, default=None, help="override the master seed")
    simulate.set_defaults(func=cmd_simulate)

    demo = sub.add_parser("demo-failure", help="two-column single-observation stagnation trace")
    demo.add_argument("--n", type=_INT, default=1000, help="sample count (>= 100)")
    demo.add_argument("--iters", type=_INT, default=100, help="alternating iterations")
    demo.add_argument("--seed", type=_INT, default=0, help="instance seed")
    demo.add_argument("--out", required=True, help="output trace CSV path")
    demo.set_defaults(func=cmd_demo_failure)

    diagnose = sub.add_parser("diagnose", help="feasibility diagnostics for a signal file")
    diagnose.add_argument("--b", required=True, help="signal matrix file (p x m)")
    diagnose.add_argument("--sigma", type=_FLOAT, required=True, help="noise level (>= 0)")
    diagnose.add_argument("--n", type=_INT, required=True, help="sample count")
    diagnose.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # before ValueError, which it subclasses
        return _fail(str(exc), EXIT_USAGE)
    except OSError as exc:
        message = str(exc) if exc.filename is None else f"cannot open {exc.filename}: {exc.strerror}"
        return _fail(message, EXIT_RUNTIME)
    except (ValueError, MemoryError, np.linalg.LinAlgError) as exc:  # bad data, allocation, numerics
        return _fail(str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
