"""Deterministic Monte-Carlo sweep engine with CSV output.

A sweep runs ``trials`` independent synthesized instances at every SNR grid
point and aggregates recovery statistics. Per-trial seeds are derived from
(master_seed, grid_index, trial_index), never from scheduling, and OpenBLAS
runs single-threaded for the whole sweep (the caller's thread counts are
restored afterwards), so CSV bytes are identical at any worker count and on
any core count (for one CPU type and BLAS build), and trials may run
concurrently. The signal matrix and the noise level of each grid point are
computed once per config and shared by its trials and its CSV row. Every
estimator returns an ``EstimationResult``, so a trial reads the permutation
and signal estimate the same way whichever estimator ran.

The dataclasses are the schema: the CSV columns are ``SweepRow``'s fields in
order, without ``failures`` and ``first_error``, and the config keys are
``ExperimentConfig``'s fields, each parsed by its annotated type.

The noiseless grid point is SNR = +inf (sigma = 0): every +inf in ``snr_grid``
becomes ``metrics.NOISELESS``, so ``inf`` in a config is an alias of
``noiseless``. Floats carry 12 significant digits (also in demo traces); the
noiseless point writes the literal ``inf`` for snr and logdet_ratio.
"""

from __future__ import annotations

import contextvars
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Sequence, get_type_hints

import numpy as np

from . import blas
from .estimators import alternating_minimization, one_step_estimate, oracle_permutation_estimate
from .matrixio import decimal_token
from .metrics import (
    NOISELESS,
    hamming_distance,
    logdet_ratio,
    relative_signal_error,
    sigma_for_snr,
)
from .model import DistributionKind, build_canonical_signal, require_finite, synthesize_instance
from .rng import derive_seed

_ESTIMATOR_RE = re.compile(r"^(one_step|oracle_perm|alt_min)(?:\((\d+)\))?$", re.ASCII)


class ConfigError(ValueError):
    """Invalid experiment configuration (bad key or value)."""


def parse_estimator(name_with_args: str) -> tuple[str, int | None]:
    """Split an estimator name like ``alt_min(50)`` into (name, iterations)."""
    match = _ESTIMATOR_RE.match(name_with_args.strip())
    if not match:
        raise ConfigError(
            f"unknown estimator {name_with_args!r}; expected one_step, oracle_perm, or alt_min(K)"
        )
    name, iters = match.group(1), match.group(2)
    if name == "alt_min":
        return name, int(iters) if iters is not None else 25
    if iters is not None:
        raise ConfigError(f"estimator {name} takes no iteration count")
    return name, None


# Recovery phase transitions span orders of magnitude, so the default grid is
# logarithmically spaced with a noiseless endpoint.
DEFAULT_SNR_GRID = tuple(float(v) for v in np.logspace(-2, 2, 9)) + (NOISELESS,)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p: int
    m: int
    h: int
    dist: DistributionKind = DistributionKind.GAUSSIAN
    snr_grid: tuple = DEFAULT_SNR_GRID
    trials: int = 100
    master_seed: int = 0
    estimator: str = "one_step"
    workers: int = 1

    def __post_init__(self) -> None:
        limit = np.iinfo(np.intp).max  # numpy's largest array dimension
        for key in ("n", "p", "m"):
            if not 1 <= getattr(self, key) <= limit:
                raise ConfigError(f"{key} must lie in [1, {limit}], got {getattr(self, key)}")
        if self.n < 2:  # the log-det ratio of a grid point divides by log n
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.n < self.p:
            raise ConfigError(f"n must be >= p, got n={self.n}, p={self.p}")
        if self.h < 0 or self.h > self.n or self.h == 1:
            raise ConfigError(f"h must lie in [0, n] and differ from 1, got h={self.h}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        grid = tuple(NOISELESS if v == math.inf else v for v in self.snr_grid)
        if not grid:
            raise ConfigError("snr_grid must be non-empty")
        for v in grid:
            if not float(v) > 0:
                raise ConfigError(f"snr values must be positive, got {v!r}")
        if any(float(a) >= float(b) for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_grid must be strictly ascending (noiseless last)")
        object.__setattr__(self, "_estimator_call", parse_estimator(self.estimator))
        object.__setattr__(self, "snr_grid", grid)

    def signal_matrix(self) -> np.ndarray:
        return build_canonical_signal(self.p, self.m, 1.0)

    @cached_property
    def _signal(self) -> np.ndarray:
        """``signal_matrix()``, built once and read-only: every trial shares it."""
        b = self.signal_matrix()
        b.setflags(write=False)
        return b

    @cached_property
    def _sigmas(self) -> tuple[float, ...]:
        """Noise level of each grid point, in grid order."""
        return tuple(sigma_for_snr(self._signal, self.m, snr) for snr in self.snr_grid)


@dataclass(frozen=True)
class TrialResult:
    hamming: int
    rel_b_error: float
    ok: bool = True
    error: str = ""

    @property
    def exact(self) -> bool:
        return self.ok and self.hamming == 0


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: int
    m: int
    h: int
    dist: str
    estimator: str
    snr: float
    sigma: float
    logdet_ratio: float
    recovery_rate: float
    mean_hamming: float
    mean_rel_b_error: float
    trials: int
    seed: int
    failures: int = 0
    first_error: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow) if f.name not in ("failures", "first_error"))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def run_trial(config: ExperimentConfig, grid_index: int, trial_index: int) -> TrialResult:
    """One synthesized instance at a grid point; failures become flagged rows."""
    sigma = config._sigmas[grid_index]
    seed = derive_seed(config.master_seed, grid_index, trial_index)
    inst = synthesize_instance(
        config.n, config.p, config.m, config.h, config.dist, config._signal, sigma, seed
    )
    name, alt_iters = config._estimator_call
    try:
        if name == "one_step":
            result = one_step_estimate(inst.x, inst.y)
        elif name == "oracle_perm":
            result = oracle_permutation_estimate(inst.x, inst.y, inst.b_true)
        else:
            result = alternating_minimization(inst.x, inst.y, max_iters=alt_iters)
        rel_b_error = relative_signal_error(result.b_hat, inst.b_true)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return TrialResult(hamming=0, rel_b_error=math.nan, ok=False, error=str(exc))
    return TrialResult(
        hamming=hamming_distance(result.perm_hat, inst.perm_true),
        rel_b_error=rel_b_error,
    )


def _aggregate(
    config: ExperimentConfig, grid_index: int, sigma: float, results: Sequence[TrialResult]
) -> SweepRow:
    """One CSV row from the trials of one grid point.

    Failed trials (``ok=False``) count in the denominator of
    ``recovery_rate``, which is exact recoveries over ``config.trials``, but
    ``mean_hamming`` and ``mean_rel_b_error`` average only the successful
    trials (NaN when none succeeded). ``failures`` and ``first_error``, the
    message of the first failed trial in trial order, are not written to the CSV.
    """
    snr_point = config.snr_grid[grid_index]
    ld_ratio = logdet_ratio(config._signal, sigma, config.n) if sigma > 0 else math.inf
    good = [r for r in results if r.ok]
    mean_hamming = float(np.mean([r.hamming for r in good])) if good else math.nan
    mean_rel = float(np.mean([r.rel_b_error for r in good])) if good else math.nan
    return SweepRow(
        n=config.n,
        p=config.p,
        m=config.m,
        h=config.h,
        dist=str(config.dist),
        estimator=config.estimator,
        snr=snr_point,
        sigma=sigma,
        logdet_ratio=ld_ratio,
        recovery_rate=sum(r.exact for r in results) / config.trials,
        mean_hamming=mean_hamming,
        mean_rel_b_error=mean_rel,
        trials=config.trials,
        seed=config.master_seed,
        failures=len(results) - len(good),
        first_error=next((r.error for r in results if not r.ok), ""),
    )


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every (grid point, trial) pair; row order follows the grid.

    The pairs run in grid-major order, with OpenBLAS single-threaded for the
    whole sweep (``shufflereg.blas``), on ``min(config.workers, os.cpu_count())``
    threads: on the calling thread when that is 1, otherwise on a pool. A pool
    starts a thread on every submit while none is idle, so without the cap it
    would start up to one thread per trial. Either way each trial, and each
    row's aggregation, starts from an empty ``contextvars`` context, so it sees
    numpy's default floating-point error state whatever the caller set. The
    caller's BLAS thread counts are restored on return, also when a trial
    raises.
    """
    sigmas = config._sigmas

    def trial(pair: tuple[int, int]) -> TrialResult:
        return contextvars.Context().run(run_trial, config, *pair)

    pairs = [(g, t) for g in range(len(sigmas)) for t in range(config.trials)]
    workers = min(config.workers, os.cpu_count() or 1)
    with blas.single_threaded():
        # One worker needs no pool: its thread start and a queue hop per trial are a
        # visible share of a trial at small n.
        if workers == 1:
            results = [trial(pair) for pair in pairs]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(trial, pairs))
    t = config.trials
    return SweepResult(
        rows=tuple(
            contextvars.Context().run(_aggregate, config, g, sigma, results[g * t : (g + 1) * t])
            for g, sigma in enumerate(sigmas)
        )
    )


def reproduce_failure_demo(n: int, max_iters: int, seed: int):
    """Single-observation two-column stagnation demo; returns the full trace.

    Builds the noiseless instance with signal [1000; 1000], a fully shuffled
    row order, and a Gaussian design, then runs alternating minimization from
    the one-step initialization without the fixed-point early stop, so the
    trace always has ``max_iters + 1`` records carrying the Hamming distance
    to the true permutation. With every row displaced the matching has no
    correctly aligned anchor rows, and the iteration stalls far from the
    truth; light shuffles (h well below n) let it escape. Raises ConfigError
    for n < 100 or max_iters < 0.
    """
    if n < 100:
        raise ConfigError(f"demo needs n >= 100, got {n}")
    if max_iters < 0:
        raise ConfigError(f"max_iters must be >= 0, got {max_iters}")
    b_true = np.array([[1000.0], [1000.0]])
    inst = synthesize_instance(n, 2, 1, n, DistributionKind.GAUSSIAN, b_true, 0.0, seed)
    result = alternating_minimization(
        inst.x,
        inst.y,
        max_iters=max_iters,
        ref_perm=inst.perm_true,
        stop_on_repeat=False,
    )
    return result.trace


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def format_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_format_value(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_csv(result))


def write_trace_csv(trace, path) -> None:
    rows = "".join(f"{r.iteration},{r.hamming},{_format_value(r.residual)}\n" for r in trace)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,hamming,residual\n" + rows)


_GRID_TOKEN_RE = re.compile(r"logspace\([^)]*\)|[^,\s]+")


def _parse_snr_grid(value: str) -> tuple:
    grid: list = []
    for token in _GRID_TOKEN_RE.findall(value):
        if token == "noiseless":
            grid.append(NOISELESS)
        elif token.startswith("logspace(") and token.endswith(")"):
            args = token[len("logspace(") : -1].split(",")
            if len(args) != 3:
                raise ConfigError(f"logspace expects (start, stop, count), got {token!r}")
            start, stop = decimal_token(args[0], float), decimal_token(args[1], float)
            count = decimal_token(args[2])
            if count < 1:
                raise ConfigError(f"logspace count must be >= 1, got {count}")
            message = (f"snr grid token {token!r} gives non-finite values: 10**start and "
                       "10**stop must be finite doubles (below about 1.8e308)")
            grid += require_finite(lambda: np.logspace(start, stop, count), message).tolist()
        else:
            try:
                grid.append(decimal_token(token, float))
            except ValueError:
                raise ConfigError(f"cannot parse snr grid token {token!r}") from None
    return tuple(grid)


# Each config key is parsed by its ExperimentConfig annotation; str parses itself.
_CONFIG_TYPES = get_type_hints(ExperimentConfig)
_VALUE_PARSERS = {
    int: decimal_token, DistributionKind: DistributionKind.from_name, tuple: _parse_snr_grid
}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines (# comments allowed) into a config."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        kind = _CONFIG_TYPES[key]
        try:
            values[key] = _VALUE_PARSERS.get(kind, kind)(value)
        except ConfigError:
            raise
        except ValueError as exc:
            reason = f"key {key!r} needs an integer" if kind is int else exc
            raise ConfigError(f"line {line_no}: {reason}") from None
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``: UTF-8 text, a leading byte-order mark ignored."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # the UTF-8 byte-order mark
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"{path}: line {line_no}: byte 0x{data[exc.start]:02x} is not UTF-8"
        ) from None
    return parse_config_text(text)
