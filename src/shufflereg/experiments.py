"""Deterministic Monte-Carlo sweep engine with CSV output.

A sweep runs ``trials`` independent synthesized instances at every SNR grid
point and aggregates recovery statistics. Per-trial seeds are derived from
(master_seed, grid_index, trial_index), never from scheduling, and OpenBLAS
runs single-threaded for the whole sweep (the caller's thread counts are
restored afterwards), so CSV bytes are identical at any worker count and on
any core count (for one CPU type and BLAS build), and trials may run
concurrently.

CSV columns (fixed order)::

    n,p,m,h,dist,estimator,snr,sigma,logdet_ratio,recovery_rate,
    mean_hamming,mean_rel_b_error,trials,seed

Floats carry 12 significant digits; the noiseless grid point writes the
literal ``inf`` for snr and logdet_ratio.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import blas
from .estimators import (
    alternating_minimization,
    least_squares_signal,
    one_step_estimate,
    oracle_permutation_estimate,
)
from .metrics import (
    NOISELESS,
    NoiselessMarker,
    hamming_distance,
    logdet_ratio,
    relative_signal_error,
)
from .model import (
    DistributionKind,
    build_canonical_signal,
    require_matrix,
    synthesize_instance,
)
from .rng import derive_seed

CSV_COLUMNS = (
    "n",
    "p",
    "m",
    "h",
    "dist",
    "estimator",
    "snr",
    "sigma",
    "logdet_ratio",
    "recovery_rate",
    "mean_hamming",
    "mean_rel_b_error",
    "trials",
    "seed",
)

_ESTIMATOR_RE = re.compile(r"^(one_step|oracle_perm|alt_min)(?:\((\d+)\))?$")


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


def sigma_for_snr(b, m: int, target_snr: float) -> float:
    """Noise level that realizes ``target_snr`` = ||B||_F^2 / (m sigma^2)."""
    if not target_snr > 0:
        raise ValueError(f"target snr must be positive, got {target_snr}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    arr = require_matrix(b, "b")
    fro_sq = float(np.sum(arr * arr))
    if fro_sq == 0.0:
        raise ValueError("signal must be nonzero")
    return math.sqrt(fro_sq / (m * target_snr))


def _snr_key(value) -> float:
    return math.inf if isinstance(value, NoiselessMarker) else float(value)


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
    signal: str = "canonical"
    signal_scale: float = 1.0
    snr_grid: tuple = DEFAULT_SNR_GRID
    trials: int = 100
    master_seed: int = 0
    estimator: str = "one_step"
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1 or self.m < 1:
            raise ConfigError(f"dimensions must be positive, got n={self.n}, p={self.p}, m={self.m}")
        if self.n < self.p:
            raise ConfigError(f"n must be >= p, got n={self.n}, p={self.p}")
        if self.h < 0 or self.h > self.n or self.h == 1:
            raise ConfigError(f"h must lie in [0, n] and differ from 1, got h={self.h}")
        if self.signal != "canonical":
            raise ConfigError(f"unknown signal kind {self.signal!r}")
        if not self.signal_scale > 0:
            raise ConfigError(f"signal_scale must be positive, got {self.signal_scale}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        grid = tuple(self.snr_grid)
        if not grid:
            raise ConfigError("snr_grid must be non-empty")
        for v in grid:
            if not isinstance(v, NoiselessMarker) and not float(v) > 0:
                raise ConfigError(f"snr values must be positive, got {v!r}")
        keys = [_snr_key(v) for v in grid]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ConfigError("snr_grid must be strictly ascending (noiseless last)")
        parse_estimator(self.estimator)
        object.__setattr__(self, "snr_grid", grid)

    def signal_matrix(self) -> np.ndarray:
        return build_canonical_signal(self.p, self.m, self.signal_scale)


@dataclass(frozen=True)
class TrialResult:
    exact: bool
    hamming: int
    rel_b_error: float
    ok: bool = True
    error: str = ""

    def __post_init__(self) -> None:
        if self.ok and self.exact != (self.hamming == 0):
            raise ValueError("exact flag must agree with hamming == 0")


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: int
    m: int
    h: int
    dist: str
    estimator: str
    snr: float | NoiselessMarker
    sigma: float
    logdet_ratio: float
    recovery_rate: float
    mean_hamming: float
    mean_rel_b_error: float
    trials: int
    seed: int
    failures: int = 0


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def run_trial(config: ExperimentConfig, grid_index: int, trial_index: int) -> TrialResult:
    """One synthesized instance at a grid point; failures become flagged rows."""
    snr_point = config.snr_grid[grid_index]
    b_true = config.signal_matrix()
    sigma = (
        0.0
        if isinstance(snr_point, NoiselessMarker)
        else sigma_for_snr(b_true, config.m, snr_point)
    )
    seed = derive_seed(config.master_seed, grid_index, trial_index)
    inst = synthesize_instance(
        config.n, config.p, config.m, config.h, config.dist, b_true, sigma, seed
    )
    name, alt_iters = parse_estimator(config.estimator)
    try:
        if name == "one_step":
            result = one_step_estimate(inst.x, inst.y)
            perm_hat, b_hat = result.perm_hat, result.b_hat
        elif name == "oracle_perm":
            perm_hat = oracle_permutation_estimate(inst.x, inst.y, inst.b_true)
            b_hat = least_squares_signal(inst.x, inst.y, perm_hat)
        else:
            alt = alternating_minimization(inst.x, inst.y, max_iters=alt_iters)
            perm_hat, b_hat = alt.perm_hat, alt.b_hat
    except (ValueError, np.linalg.LinAlgError) as exc:
        return TrialResult(exact=False, hamming=0, rel_b_error=math.nan, ok=False, error=str(exc))
    hamming = hamming_distance(perm_hat, inst.perm_true)
    return TrialResult(
        exact=hamming == 0,
        hamming=hamming,
        rel_b_error=relative_signal_error(b_hat, inst.b_true),
    )


def _aggregate(config: ExperimentConfig, grid_index: int, results: Sequence[TrialResult]) -> SweepRow:
    """One CSV row from the trials of one grid point.

    Failed trials (``ok=False``) count in the denominator of
    ``recovery_rate``, which is exact recoveries over ``config.trials``, but
    ``mean_hamming`` and ``mean_rel_b_error`` average only the successful
    trials (NaN when none succeeded). ``failures`` is not written to the CSV.
    """
    snr_point = config.snr_grid[grid_index]
    b_true = config.signal_matrix()
    noiseless = isinstance(snr_point, NoiselessMarker)
    sigma = 0.0 if noiseless else sigma_for_snr(b_true, config.m, snr_point)
    ld_ratio = math.inf if noiseless else logdet_ratio(b_true, sigma, config.n)
    good = [r for r in results if r.ok]
    exact_count = sum(r.exact for r in good)
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
        recovery_rate=exact_count / config.trials,
        mean_hamming=mean_hamming,
        mean_rel_b_error=mean_rel,
        trials=config.trials,
        seed=config.master_seed,
        failures=len(results) - len(good),
    )


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every (grid point, trial) pair; row order follows the grid.

    All pairs go through one worker pool of ``config.workers`` threads in
    grid-major order, with OpenBLAS single-threaded for the whole sweep
    (``shufflereg.blas``); the caller's BLAS thread counts are restored on
    return, also when a trial raises.
    """
    pairs = [(g, t) for g in range(len(config.snr_grid)) for t in range(config.trials)]
    with blas.single_threaded(), ThreadPoolExecutor(max_workers=config.workers) as pool:
        results = list(pool.map(lambda pair: run_trial(config, *pair), pairs))
    t = config.trials
    return SweepResult(
        rows=tuple(
            _aggregate(config, g, results[g * t : (g + 1) * t])
            for g in range(len(config.snr_grid))
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
    truth; light shuffles (h well below n) let it escape.
    """
    if n < 100:
        raise ValueError(f"demo needs n >= 100, got {n}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
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
    if isinstance(value, NoiselessMarker):
        return "inf"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.12g}"


def format_csv(result: SweepResult) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in result.rows:
        lines.append(",".join(_format_value(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(result: SweepResult, path) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_csv(result))
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def parse_csv(path) -> SweepResult:
    """Read a sweep CSV back into rows (inverse of write_csv at writer precision)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"{path}:{line_no}: expected {len(CSV_COLUMNS)} fields")
            rec = dict(zip(CSV_COLUMNS, parts))
            rows.append(
                SweepRow(
                    n=int(rec["n"]),
                    p=int(rec["p"]),
                    m=int(rec["m"]),
                    h=int(rec["h"]),
                    dist=rec["dist"],
                    estimator=rec["estimator"],
                    snr=NOISELESS if rec["snr"] == "inf" else float(rec["snr"]),
                    sigma=float(rec["sigma"]),
                    logdet_ratio=float(rec["logdet_ratio"]),
                    recovery_rate=float(rec["recovery_rate"]),
                    mean_hamming=float(rec["mean_hamming"]),
                    mean_rel_b_error=float(rec["mean_rel_b_error"]),
                    trials=int(rec["trials"]),
                    seed=int(rec["seed"]),
                )
            )
    return SweepResult(rows=tuple(rows))


_CONFIG_INT_KEYS = {"n", "p", "m", "h", "trials", "master_seed", "workers"}
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
            start, stop, count = float(args[0]), float(args[1]), int(args[2])
            if count < 1:
                raise ConfigError(f"logspace count must be >= 1, got {count}")
            grid.extend(float(v) for v in np.logspace(start, stop, count))
        else:
            try:
                grid.append(float(token))
            except ValueError:
                raise ConfigError(f"cannot parse snr grid token {token!r}") from None
    return tuple(grid)


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
        if key in _CONFIG_INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {line_no}: key {key!r} needs an integer") from None
        elif key == "signal_scale":
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {line_no}: key {key!r} needs a number") from None
        elif key == "dist":
            try:
                values[key] = DistributionKind.from_name(value)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: {exc}") from None
        elif key == "snr_grid":
            values[key] = _parse_snr_grid(value)
        elif key in ("estimator", "signal"):
            values[key] = value
        else:
            raise ConfigError(f"unknown config key: {key}")
    missing = [key for key in ("n", "p", "m", "h") if key not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def with_overrides(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    return replace(config, **kwargs)
