"""Reference answers computed without calling shufflereg's estimators or assignment code.

The benchmark's seed is chosen by whoever runs it, so references are computed
for that seed rather than stored. Instances still come from
``shufflereg.model.synthesize_instance``: it is the input generator, and the
seeds are derived exactly as ``run_trial`` documents.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from shufflereg.experiments import sigma_for_snr
from shufflereg.metrics import NoiselessMarker
from shufflereg.model import DistributionKind, synthesize_instance
from shufflereg.rng import derive_seed

# The library promises the lexicographically smallest optimum up to this size.
LEX_MAX_N = 64


def _objective(cost: np.ndarray, cols: np.ndarray) -> float:
    return float(np.sum(cost[np.arange(cost.shape[0]), cols]))


def max_assignment(cost: np.ndarray) -> np.ndarray:
    """Columns of a maximum-weight assignment; the lexicographically smallest if n <= 64.

    Rows are fixed in order to the smallest free column that still admits a
    completion with the optimal objective, found by solving the remainder.
    """
    n = cost.shape[0]
    _, cols = linear_sum_assignment(cost, maximize=True)
    if n > LEX_MAX_N:
        return cols
    best = _objective(cost, cols)
    for i in range(n - 1):
        free = np.setdiff1d(np.arange(n), cols[:i])
        for j in free[free < cols[i]]:
            rest = free[free != j]
            _, sub = linear_sum_assignment(cost[i + 1 :][:, rest], maximize=True)
            trial = np.concatenate([cols[:i], [j], rest[sub]])
            if _objective(cost, trial) == best:
                cols = trial
                break
    return cols


def sweep_columns(config) -> list[tuple[float, float]]:
    """(recovery_rate, mean_hamming) per grid point of a ``one_step`` sweep."""
    b_true = config.signal_matrix()
    rows = []
    for g, snr_point in enumerate(config.snr_grid):
        sigma = 0.0 if isinstance(snr_point, NoiselessMarker) else sigma_for_snr(
            b_true, config.m, snr_point)
        hammings = []
        for t in range(config.trials):
            inst = synthesize_instance(
                config.n, config.p, config.m, config.h, config.dist, b_true, sigma,
                derive_seed(config.master_seed, g, t),
            )
            x, y = inst.x, inst.y
            cols = max_assignment((y @ (y.T @ x)) @ x.T)
            hammings.append(int(np.count_nonzero(cols != inst.perm_true.indices)))
        exact = sum(h == 0 for h in hammings)
        rows.append((exact / config.trials, float(np.mean(hammings))))
    return rows


def failure_demo_hammings(n: int, max_iters: int, seed: int) -> list[int]:
    """Hamming trace of the failure demo, with each rank-1 matching done by sorting.

    The cost C[i, j] = y_i z_j with z = X b has rank one, so by the
    rearrangement inequality the maximum matches the k-th smallest y with the
    k-th smallest z. Least squares uses numpy's SVD-based ``lstsq``.
    """
    inst = synthesize_instance(
        n, 2, 1, n, DistributionKind.GAUSSIAN, np.array([[1000.0], [1000.0]]), 0.0, seed)
    x, y = inst.x, inst.y
    b = x.T @ y
    hammings = []
    for _ in range(max_iters + 1):
        cols = np.empty(n, dtype=np.int64)
        cols[np.argsort(y[:, 0], kind="stable")] = np.argsort((x @ b)[:, 0], kind="stable")
        aligned = np.empty_like(y)
        aligned[cols] = y
        b = np.linalg.lstsq(x, aligned, rcond=None)[0]
        hammings.append(int(np.count_nonzero(cols != inst.perm_true.indices)))
    return hammings
