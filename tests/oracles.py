"""Test oracles for the assignment solver: the objective and an exhaustive maximum.

Both sum with ``shufflereg.lap._canonical_sum`` (``math.fsum``), so an
objective here compares exactly (``==``) with one that ``lap_maximize``
returns. ``exact_objective`` and ``lap_exact_maximum`` sum in rationals
(``fractions.Fraction``) with no rounding at all. ``dense`` spells a dense
cost C as the factor pair (C, I) that ``lap_maximize`` takes.
``lex_smallest_matching`` is the numpy reference for the bit-set search of
``shufflereg.lap._lex_smallest_matching``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from shufflereg.lap import Assignment, _canonical_sum
from shufflereg.model import Permutation, require_finite

BRUTE_FORCE_MAX_N = 10


def dense(cost) -> tuple[np.ndarray, np.ndarray]:
    """Factors (C, I) of a square cost C: ``lap_maximize(*dense(C))`` solves C."""
    return cost, np.eye(np.shape(cost)[0])


def assignment_objective(cost: np.ndarray, indices: np.ndarray) -> float:
    """Objective: the correctly rounded sum of the C[i, pi(i)]; ValueError on overflow."""
    return _canonical_sum(cost[np.arange(cost.shape[0]), indices])


def lap_brute_force(cost) -> Assignment:
    """Exhaustive maximum over all n! permutations (n <= 10), lex-first tie-break.

    Raises ValueError when the objective of any candidate overflows float64.
    """
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cost matrix must be non-empty")
    require_finite(lambda: arr, "cost matrix contains NaN or infinite entries")
    n = arr.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (factorial blow-up)")
    candidates = itertools.permutations(range(n))
    # permutations() runs in lexicographic order and max() keeps the first maximum.
    best = max(candidates, key=lambda c: assignment_objective(arr, np.array(c)))
    indices = np.array(best, dtype=np.int64)
    return Assignment(Permutation(indices), assignment_objective(arr, indices))


def exact_objective(cost: np.ndarray, indices) -> Fraction:
    """The sum of the C[i, pi(i)] in exact rational arithmetic."""
    return sum(map(Fraction, cost[np.arange(cost.shape[0]), indices].tolist()), Fraction(0))


def lap_exact_maximum(cost: np.ndarray) -> Fraction:
    """Exact maximum of sum_i C[i, pi(i)] over all n! permutations (n <= 10), in rationals."""
    n = cost.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (factorial blow-up)")
    entries = [[Fraction(value) for value in row] for row in cost.tolist()]
    return max(
        sum((entries[i][j] for i, j in enumerate(c)), Fraction(0))
        for c in itertools.permutations(range(n))
    )


def lex_smallest_matching(allowed: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the boolean k x k graph ``allowed``.

    ``start`` is one perfect matching of it: row a holds column start[a]. Rows
    are fixed in ascending order; each runs a backward breadth-first search
    from its column over the columns that later rows hold, on boolean numpy
    arrays, takes the smallest freed column it is allowed, and the columns
    rotate along the search's pointers.
    """
    match = start.copy()
    owner = np.empty_like(match)
    owner[match] = np.arange(match.size)
    for a in range(match.size - 1):
        own = match[a]
        # The columns below its own that row a may take, held by later rows.
        wanted = allowed[a, :own] & (owner[:own] > a)
        if not wanted.any():
            continue
        first = wanted.argmax()
        # freed[c]: column c can be vacated, its row moving on to column via[c].
        freed = np.zeros(match.size, dtype=bool)
        freed[own] = True
        via = np.empty_like(match)
        later = np.arange(match.size) > a
        frontier = match[a : a + 1]
        # Once the smallest column row a may take is freed, no other can beat it.
        while frontier.size and not freed[first]:
            hits = allowed[:, frontier]
            movers = hits.any(axis=1) & later & ~freed[match]
            via[match[movers]] = frontier[hits[movers].argmax(axis=1)]
            frontier = match[movers]
            freed[frontier] = True
        # The smallest column row a may take that the search freed; its own, if no other.
        path = [int(np.argmax(freed & allowed[a]))]
        while path[-1] != own:
            path.append(int(via[path[-1]]))
        rows = owner[path]
        match[rows] = path[1:] + path[:1]
        owner[match[rows]] = rows
    return match
