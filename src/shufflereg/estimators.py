"""Estimators for the row-shuffled linear model.

Every estimator is built on one match-and-fit step: an assignment solve on a
matching cost C = Y (X D)^T for a direction D, then a least-squares solve on
the matched rows.

* ``one_step_estimate`` — the step with D = X^T Y, so C = Y Y^T X X^T.
  Tuning-free: needs neither the noise level nor the number of displaced rows.
* ``oracle_permutation_estimate`` — the step with a known matching direction
  D = B (invariant to positive rescaling of it).
* ``least_squares_signal`` — signal recovery for a known permutation with
  numpy's SVD-based least-squares driver; the normal equations are never formed.
* ``alternating_minimization`` — diagnostic baseline: each iteration is the
  match-and-fit step on the oracle's cost Y (X B)^T with the previous
  estimate as B, whose X B is also that estimate's residual fit. Reports a
  full per-iteration trace so stagnation is observable.

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

from . import blas, instrument
from .lap import lap_maximize
from .metrics import frobenius_norm, hamming_distance
from .model import Permutation, require_finite, require_matrix

_RANK_RTOL = 1e-10
_TINY = np.finfo(np.float64).tiny


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


@blas.single_threaded()
def least_squares_signal(x, y, perm: Permutation) -> np.ndarray:
    """argmin_B || inverse-permuted Y - X B ||_F by numpy's SVD-based ``lstsq`` (gelsd).

    Its singular values of X decide the rank check; a zero X is rank deficient too.
    """
    xa, ya = _validate_pair(x, y)
    n = xa.shape[0]
    if len(perm) != n:
        raise ValueError(f"permutation length {len(perm)} != n={n}")
    instrument.record("ls_solve")
    # Row perm(i) of the aligned Y is row i of Y: the inverse permutation as one scatter.
    aligned = np.empty_like(ya)
    aligned[perm.indices] = ya
    b_hat, _, _, svals = np.linalg.lstsq(xa, aligned, rcond=None)
    if svals[-1] == 0 or svals[-1] < _RANK_RTOL * svals[0]:
        cond = np.inf if svals[-1] == 0 else svals[0] / svals[-1]
        raise RankDeficiencyError(
            f"design matrix is numerically rank deficient "
            f"(condition estimate {cond:.3e}, cutoff {1 / _RANK_RTOL:.1e})"
        )
    return require_finite(
        lambda: b_hat, "least-squares signal estimate B_hat overflows float64; rescale x or y"
    )


@blas.single_threaded()
def build_onestep_cost(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Factors (Y, X (X^T Y)) of the n-by-n matching cost C = Y Y^T X X^T.

    C equals left @ right.T for the returned pair, the oracle's cost with the
    direction B = X^T Y; ``lap_maximize`` takes the pair and forms C itself,
    so no caller holds a second n-by-n copy. Raises ValueError when finite
    inputs give a non-finite X (X^T Y).
    """
    xa, ya = _validate_pair(x, y)
    direction = require_finite(
        lambda: xa @ (xa.T @ ya), "one-step matching direction X X^T Y overflows float64"
    )
    return ya, direction


def _no_normal_entry(arr: np.ndarray) -> bool:
    return max(arr.max(), -arr.min()) < _TINY


def _match_and_fit(x, ya: np.ndarray, direction: np.ndarray) -> EstimationResult:
    """Assignment solve on C = Y (X D)^T, given direction = X D, then least squares.

    Raises ValueError when X D, or C itself, has no normal float64 entry: C is
    then zero up to subnormals, and every matching ties.
    """
    if _no_normal_entry(direction):
        raise ValueError("matching direction X D is zero or below about 2.2e-308 in every entry")
    assignment = lap_maximize(ya, direction)
    # A C with no normal entry sums to less than n tiny in magnitude; only then is it formed again.
    if abs(assignment.objective) < ya.shape[0] * _TINY and _no_normal_entry(ya @ direction.T):
        raise ValueError("matching cost Y (X D)^T is zero or below about 2.2e-308 in every entry")
    return EstimationResult(
        perm_hat=assignment.perm,
        b_hat=least_squares_signal(x, ya, assignment.perm),
        objective=assignment.objective,
        iterations=1,
    )


@blas.single_threaded()
def one_step_estimate(x, y) -> EstimationResult:
    """Single assignment solve on Y Y^T X X^T, then one least-squares solve."""
    return _match_and_fit(x, *build_onestep_cost(x, y))


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
    return _match_and_fit(xa, ya, direction)


@blas.single_threaded()
def alternating_minimization(
    x,
    y,
    *,
    max_iters: int = 100,
    ref_perm: Permutation | None = None,
    stop_on_repeat: bool = True,
) -> AltMinResult:
    """Alternate assignment and least-squares steps starting from B = X^T Y.

    Each iteration is the oracle step with the previous estimate as the
    matching direction. The start X (X^T Y) comes from ``build_onestep_cost``,
    so iteration 0 is the one-step estimate bit for bit: the same permutation,
    B_hat and objective. Each half-step minimizes the shared residual
    ||Y - P X B||_F, which is therefore non-increasing along the trace. Stops after
    ``max_iters`` further iterations, or earlier once the permutation repeats
    (a fixed point) unless ``stop_on_repeat`` is false. When ``ref_perm`` is
    given, each record carries the Hamming distance to it.
    """
    xa, ya = _validate_pair(x, y)
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    _, direction = build_onestep_cost(xa, ya)
    overflow = "alternating-minimization residual Y - P X B overflows float64"
    trace: list[AltMinRecord] = []
    for t in range(max_iters + 1):
        est = _match_and_fit(xa, ya, direction)
        perm = est.perm_hat
        # X B_hat is this iteration's fit and the next iteration's matching direction.
        direction = require_finite(lambda: xa @ est.b_hat, overflow)
        diff = require_finite(lambda: ya - direction[perm.indices], overflow)
        trace.append(
            AltMinRecord(
                iteration=t,
                perm=perm,
                residual=frobenius_norm(diff, "alternating-minimization residual ||Y - P X B||_F"),
                hamming=None if ref_perm is None else hamming_distance(perm, ref_perm),
            )
        )
        if stop_on_repeat and t > 0 and perm == trace[-2].perm:
            break
    return AltMinResult(
        perm_hat=perm,
        b_hat=est.b_hat,
        objective=est.objective,
        iterations=len(trace),
        trace=tuple(trace),
    )
