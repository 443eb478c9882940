"""Estimators for the row-shuffled linear model.

Every estimator is built on one match-and-fit step: an assignment solve on a
matching cost C = L R^T, then a least-squares solve on the matched rows.

* ``one_step_estimate`` — the step on the cost Y Y^T X X^T. Tuning-free: needs
  neither the noise level nor the number of displaced rows.
* ``oracle_permutation_estimate`` — the step on the cost Y (X B)^T for a
  known matching direction B (invariant to positive rescaling of it).
* ``least_squares_signal`` — signal recovery for a known permutation using an
  orthogonal factorization; the normal equations are never formed.
* ``alternating_minimization`` — diagnostic baseline: each iteration is the
  oracle step with the previous estimate as B. Reports a full per-iteration
  trace so stagnation is observable.
* ``reduce_known_direction`` — collapses a p-column problem with known signal
  direction e to the single-column model on the projection X e.

The one-step, oracle and alternating estimators return an
``EstimationResult`` (alternating minimization's subclass adds the trace), so
a caller reads ``perm_hat`` and ``b_hat`` the same way from each. Every
estimator needs n >= p, checked once with the other input checks.

Every public function here runs with OpenBLAS at one thread
(``shufflereg.blas``), so its results do not depend on the machine's core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import blas, instrument
from .lap import lap_maximize
from .metrics import frobenius_norm, hamming_distance
from .model import Permutation, require_finite, require_matrix

_RANK_RTOL = 1e-10


class RankDeficiencyError(ValueError):
    """Design matrix is numerically rank deficient for least squares."""


@dataclass(frozen=True)
class EstimationResult:
    perm_hat: Permutation
    b_hat: np.ndarray
    objective: float
    iterations: int


@dataclass(frozen=True)
class AltMinRecord:
    iteration: int
    perm: Permutation
    residual: float
    hamming: int | None  # distance to the reference permutation, when given


@dataclass(frozen=True)
class AltMinResult(EstimationResult):
    trace: tuple[AltMinRecord, ...]


def _validate_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = require_matrix(x, "x")
    ya = require_matrix(y, "y")
    n, p = xa.shape
    if ya.shape[0] != n:
        raise ValueError(f"x has {n} rows but y has {ya.shape[0]}")
    if n < p:
        raise ValueError(f"estimation needs n >= p, got n={n}, p={p}")
    return xa, ya


def _qr_full_rank(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR of x, raising RankDeficiencyError below the spectral cutoff."""
    q, r = np.linalg.qr(x, mode="reduced")
    # Singular values of R equal those of x since Q has orthonormal columns.
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] < _RANK_RTOL * svals[0]:
        cond = np.inf if svals[-1] == 0 else svals[0] / svals[-1]
        raise RankDeficiencyError(
            f"design matrix is numerically rank deficient "
            f"(condition estimate {cond:.3e}, cutoff {1 / _RANK_RTOL:.1e})"
        )
    return q, r


@blas.single_threaded()
def least_squares_signal(x, y, perm: Permutation) -> np.ndarray:
    """argmin_B || inverse-permuted Y - X B ||_F via QR, columnwise back-substitution."""
    xa, ya = _validate_pair(x, y)
    n = xa.shape[0]
    if len(perm) != n:
        raise ValueError(f"permutation length {len(perm)} != n={n}")
    instrument.record("ls_solve")
    q, r = _qr_full_rank(xa)
    # Row perm(i) of the aligned Y is row i of Y: the inverse permutation as one scatter.
    aligned = np.empty_like(ya)
    aligned[perm.indices] = ya
    # Both operands come from the validated x and y, so scipy's finiteness scans are skipped.
    return require_finite(
        lambda: solve_triangular(r, q.T @ aligned, lower=False, check_finite=False),
        "least-squares signal estimate B_hat overflows float64; rescale x or y",
    )


@blas.single_threaded()
def build_onestep_cost(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Factors (Y (Y^T X), X) of the n-by-n matching cost C = Y Y^T X X^T.

    C equals left @ right.T for the returned pair; ``lap_maximize`` takes the
    pair and forms C itself, so no caller holds a second n-by-n copy. Raises
    ValueError when finite inputs give a non-finite Y (Y^T X).
    """
    xa, ya = _validate_pair(x, y)
    left = require_finite(
        lambda: ya @ (ya.T @ xa), "one-step cost factor Y (Y^T X) overflows float64"
    )
    return left, xa


def _match_and_fit(xa: np.ndarray, y, left, right) -> EstimationResult:
    """Assignment solve on C = left @ right.T, then least squares on the matched rows."""
    assignment = lap_maximize(left, right)
    return EstimationResult(
        perm_hat=assignment.perm,
        b_hat=least_squares_signal(xa, y, assignment.perm),
        objective=assignment.objective,
        iterations=1,
    )


@blas.single_threaded()
def one_step_estimate(x, y) -> EstimationResult:
    """Single assignment solve on Y Y^T X X^T, then one least-squares solve."""
    left, xa = build_onestep_cost(x, y)
    return _match_and_fit(xa, y, left, xa)


@blas.single_threaded()
def oracle_permutation_estimate(x, y, b_true) -> EstimationResult:
    """Assignment solve on Y (X B)^T for a known matching direction B, then least squares."""
    xa, ya = _validate_pair(x, y)
    ba = require_matrix(b_true, "signal")
    if ba.shape[0] != xa.shape[1]:
        raise ValueError(f"signal has {ba.shape[0]} rows but x has {xa.shape[1]} columns")
    if ba.shape[1] != ya.shape[1]:
        raise ValueError(f"signal has {ba.shape[1]} columns but y has {ya.shape[1]}")
    direction = require_finite(lambda: xa @ ba, "oracle matching direction X B overflows float64")
    return _match_and_fit(xa, ya, ya, direction)


def _residual(x: np.ndarray, y: np.ndarray, perm: Permutation, b: np.ndarray) -> float:
    """||Y - P X B||_F; the row gather ``[perm.indices]`` is ``apply_permutation``'s row action."""
    diff = require_finite(
        lambda: y - (x @ b)[perm.indices],
        "alternating-minimization residual Y - P X B overflows float64",
    )
    return frobenius_norm(diff, "alternating-minimization residual ||Y - P X B||_F")


@blas.single_threaded()
def alternating_minimization(
    x,
    y,
    init_b=None,
    max_iters: int = 100,
    *,
    ref_perm: Permutation | None = None,
    stop_on_repeat: bool = True,
) -> AltMinResult:
    """Alternate assignment and least-squares steps starting from ``init_b``.

    Each iteration is ``oracle_permutation_estimate`` with the previous
    estimate as the matching direction; ``init_b`` defaults to X^T Y, so
    iteration 0 reproduces the one-step estimate. Each half-step minimizes the
    shared residual ||Y - P X B||_F, which is therefore non-increasing along
    the trace. Stops after ``max_iters`` further iterations, or earlier once
    the permutation repeats (a fixed point) unless ``stop_on_repeat`` is
    false. When ``ref_perm`` is given, each record carries the Hamming
    distance to it.
    """
    xa, ya = _validate_pair(x, y)
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    b = init_b
    if b is None:
        b = require_finite(
            lambda: xa.T @ ya, "alternating-minimization start X^T Y overflows float64"
        )
    trace: list[AltMinRecord] = []
    for t in range(max_iters + 1):
        est = oracle_permutation_estimate(xa, ya, b)
        perm = est.perm_hat
        trace.append(
            AltMinRecord(
                iteration=t,
                perm=perm,
                residual=_residual(xa, ya, perm, est.b_hat),
                hamming=None if ref_perm is None else hamming_distance(perm, ref_perm),
            )
        )
        if stop_on_repeat and t > 0 and perm == trace[-2].perm:
            break
        b = est.b_hat
    return AltMinResult(
        perm_hat=perm,
        b_hat=est.b_hat,
        objective=est.objective,
        iterations=len(trace),
        trace=tuple(trace),
    )


@blas.single_threaded()
def reduce_known_direction(x, e) -> np.ndarray:
    """Project the design onto a known unit signal direction.

    Returns X e as an n-by-1 matrix; the p-column problem with known direction
    then reads as the single-column model on that projection.
    """
    xa = require_matrix(x, "x")
    vec = np.asarray(e, dtype=np.float64).reshape(-1)
    if vec.size != xa.shape[1]:
        raise ValueError(f"direction has length {vec.size} but x has {xa.shape[1]} columns")
    if not np.all(np.isfinite(vec)):
        raise ValueError("direction contains non-finite entries")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"direction must be a unit vector, got norm {norm!r}")
    return require_finite(lambda: (xa @ (vec / norm))[:, None], "projection X e overflows float64")
