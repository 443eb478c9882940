"""The four closed-loop workloads: one caller in one process, next call after the last ends.

Each workload generates its inputs from the seed alone and hands the library
only those inputs. ``run(k)`` is the timed call; ``account(k, record)`` runs
after the clock stops, keeps what the correctness checks need and returns the
number of operations the call completed; ``check()`` compares with the
references once the measurement is over.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import numpy as np

from shufflereg import NOISELESS, DistributionKind, cli, experiments
from shufflereg.matrixio import write_matrix
from shufflereg.model import build_canonical_signal, synthesize_instance

import reference


def derive(name: str, seed: int, k: int) -> int:
    """Seed of the k-th call of a run; the same (name, seed, k) always gives the same inputs."""
    digest = hashlib.blake2b(f"{name}:{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Sweep:
    """Repeated ``run_sweep`` calls, each a fresh master seed; one operation is one trial."""

    call_name, ops_name = "sweep", "trials"

    def __init__(self, name: str, check_workers: int | None, **config):
        self.name = name
        self.template = experiments.ExperimentConfig(**config)
        self.workers = self.template.workers
        self.check_workers = check_workers

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.first = None
        self.failed = 0
        self.ops = 0

    def config(self, k: int):
        return replace(self.template, master_seed=derive(self.name, self.seed, k))

    def run(self, k: int):
        return experiments.run_sweep(self.config(k))

    def account(self, k: int, result) -> int:
        if self.first is None:
            self.first = (k, result)
        self.failed += sum(row.failures for row in result.rows)
        ops = self.template.trials * len(result.rows)
        self.ops += ops
        return ops

    def check(self) -> list[str]:
        problems = []
        if self.failed:
            problems.append(f"{self.failed} trials failed")
        k, result = self.first
        config = self.config(k)
        if self.check_workers is not None:
            again = experiments.run_sweep(replace(config, workers=self.check_workers))
            if experiments.format_csv(again) != experiments.format_csv(result):
                self.failed += config.trials * len(result.rows)
                problems.append(
                    f"sweep CSV differs between workers={config.workers} "
                    f"and workers={self.check_workers}")
        expected = reference.sweep_columns(config)
        for row, (rate, hamming) in zip(result.rows, expected):
            if (row.recovery_rate, row.mean_hamming) != (rate, hamming):
                self.failed += config.trials
                problems.append(
                    f"snr={row.snr!r}: recovery_rate, mean_hamming = "
                    f"{row.recovery_rate}, {row.mean_hamming}; reference {rate}, {hamming}")
        return problems


class FailureDemo:
    """Repeated ``reproduce_failure_demo`` calls; one operation is one alternating iteration."""

    call_name, ops_name = "demo", "iters"
    workers = 1

    def __init__(self, name: str, n: int, max_iters: int):
        self.name, self.n, self.max_iters = name, n, max_iters

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.traces = []
        self.failed = 0
        self.ops = 0

    def run(self, k: int):
        return experiments.reproduce_failure_demo(
            self.n, self.max_iters, derive(self.name, self.seed, k))

    def account(self, k: int, trace) -> int:
        self.traces.append((k, [record.hamming for record in trace]))
        self.ops += len(trace)
        return len(trace)

    def check(self) -> list[str]:
        problems = []
        for k, hammings in self.traces:
            expected = reference.failure_demo_hammings(
                self.n, self.max_iters, derive(self.name, self.seed, k))
            wrong = sum(a != b for a, b in zip(hammings, expected))
            wrong += abs(len(hammings) - len(expected))
            if wrong:
                self.failed += wrong
                problems.append(f"call {k}: hamming trace {hammings}, reference {expected}")
        return problems


class SolveFiles:
    """Repeated in-process ``shufflereg solve`` on one pre-written file pair."""

    call_name, ops_name = "solve", "solves"
    workers = 1

    def __init__(self, name: str, n: int, p: int, m: int, h: int, sigma: float):
        self.name, self.n, self.p, self.m, self.h, self.sigma = name, n, p, m, h, sigma

    def setup(self, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        inst = synthesize_instance(
            self.n, self.p, self.m, self.h, DistributionKind.GAUSSIAN,
            build_canonical_signal(self.p, self.m, 1.0), self.sigma, derive(self.name, seed, 0))
        self.paths = {key: str(workdir / f"{key}.txt") for key in ("x", "y", "perm", "b")}
        write_matrix(inst.x, self.paths["x"])
        write_matrix(inst.y, self.paths["y"])
        self.truth = inst.perm_true.indices
        self.failed = 0
        self.ops = 0
        self.problems = []

    def run(self, k: int) -> int:
        argv = ["solve", "--x", self.paths["x"], "--y", self.paths["y"],
                "--out-perm", self.paths["perm"], "--out-b", self.paths["b"]]
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def account(self, k: int, code: int) -> int:
        self.ops += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"call {k}: solve exited {code}")
            return 1
        with open(self.paths["perm"], encoding="ascii") as fh:
            found = np.array(fh.read().split(), dtype=np.int64)
        if not np.array_equal(found, self.truth):
            self.failed += 1
            self.problems.append(f"call {k}: permutation file differs from the true permutation")
        return 1

    def check(self) -> list[str]:
        return self.problems


# Why each workload: sweep_n500 is the paper's main experiment and the only user
# of the worker pool; tie_n64 is the only one whose exact ties run the n <= 64
# lexicographic pass; demo_failure_n1000 is the rank-1 cost that alternating
# minimization re-solves densely; solve_files is I/O-bound and the only one with
# an n x n cost large enough to show in memory.
SIZES = {
    "full": {
        "sweep_n500": lambda: Sweep(
            "sweep_n500", check_workers=1, n=500, p=50, m=50, h=50,
            dist=DistributionKind.GAUSSIAN, snr_grid=(1.0, 10.0, 100.0, NOISELESS),
            trials=4, workers=2),
        "tie_n64": lambda: Sweep(
            "tie_n64", check_workers=None, n=64, p=8, m=8, h=64,
            dist=DistributionKind.RADEMACHER, snr_grid=(10.0, NOISELESS), trials=3, workers=1),
        "demo_failure_n1000": lambda: FailureDemo("demo_failure_n1000", n=1000, max_iters=1),
        "solve_files": lambda: SolveFiles("solve_files", n=2000, p=100, m=100, h=200, sigma=0.3),
    },
    "tiny": {
        "sweep_n500": lambda: Sweep(
            "sweep_n500", check_workers=1, n=80, p=4, m=4, h=10,
            dist=DistributionKind.GAUSSIAN, snr_grid=(10.0, NOISELESS), trials=2, workers=2),
        "tie_n64": lambda: Sweep(
            "tie_n64", check_workers=None, n=24, p=3, m=3, h=24,
            dist=DistributionKind.RADEMACHER, snr_grid=(10.0, NOISELESS), trials=2, workers=1),
        "demo_failure_n1000": lambda: FailureDemo("demo_failure_n1000", n=100, max_iters=1),
        "solve_files": lambda: SolveFiles("solve_files", n=80, p=4, m=4, h=10, sigma=0.05),
    },
}
