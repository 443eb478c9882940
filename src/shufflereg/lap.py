"""Exact dense linear assignment in maximization form, plus a factorial oracle.

``lap_maximize`` negates the cost matrix into a shortest-augmenting-path
minimizer (scipy's linear_sum_assignment), which is exact and O(n^3). Ties
between optimal assignments are broken toward the lexicographically smallest
index map; exhaustive tie canonicalization runs for n <= 64 (one restricted
re-solve per row, repeated while it finds a tie), while larger problems return
the solver's deterministic optimum — cost matrices with continuous random
entries have a unique optimum with probability one. Objectives on both solver
and oracle paths are computed by one shared summation routine so equality
comparisons are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import instrument
from .model import Permutation

# Above this size the lexicographic tie pass (one sub-solve per row, more on ties) is skipped.
LEX_TIEBREAK_MAX_N = 64

BRUTE_FORCE_MAX_N = 10


@dataclass(frozen=True)
class Assignment:
    """An index map pi with objective sum_i C[i, pi(i)] on the matrix it solved."""

    perm: Permutation
    objective: float


def assignment_objective(cost: np.ndarray, indices: np.ndarray) -> float:
    """Canonical objective: sum of C[i, pi(i)] in ascending row order."""
    n = cost.shape[0]
    return float(np.sum(cost[np.arange(n), indices]))


def _validate_cost(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cost matrix must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cost matrix contains NaN or infinite entries")
    return arr


def _lexicographically_canonical(cost: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Refine an optimal assignment to the lex-smallest one of equal objective.

    Greedy over rows: with rows < i fixed, re-solve rows i.. over their free
    columns with row i barred from its current column and every larger one,
    and adopt the result while its canonical objective still equals the
    optimum. Comparisons are exact float equality on canonically summed
    objectives, which detects exactly the ties that are exact in double
    precision.
    """
    n = cost.shape[0]
    best = assignment_objective(cost, indices)
    current = indices.copy()
    for i in range(n - 1):
        free = np.sort(current[i:])
        sub = -cost[i:, free]
        while current[i] > free[0]:
            sub[0, free >= current[i]] = np.inf
            rows, cols = linear_sum_assignment(sub)
            trial = current.copy()
            trial[i + rows] = free[cols]
            if assignment_objective(cost, trial) != best:
                break
            current = trial
    return current


def lap_maximize(cost) -> Assignment:
    """Permutation maximizing sum_i C[i, pi(i)] exactly.

    Raises ValueError on non-square input or non-finite entries.
    """
    arr = _validate_cost(cost)
    instrument.record("lap_solve")
    _, col_ind = linear_sum_assignment(-arr)
    indices = col_ind.astype(np.int64)
    if arr.shape[0] <= LEX_TIEBREAK_MAX_N:
        indices = _lexicographically_canonical(arr, indices)
    return Assignment(Permutation(indices), assignment_objective(arr, indices))


def lap_brute_force(cost) -> Assignment:
    """Exhaustive maximum over all n! permutations (n <= 10), lex-first tie-break."""
    arr = _validate_cost(cost)
    n = arr.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (factorial blow-up)")
    rows = np.arange(n)
    best_perm = None
    best_obj = -np.inf
    for candidate in itertools.permutations(range(n)):
        obj = float(np.sum(arr[rows, candidate]))
        if obj > best_obj:
            best_obj = obj
            best_perm = candidate
    indices = np.array(best_perm, dtype=np.int64)
    return Assignment(Permutation(indices), assignment_objective(arr, indices))
