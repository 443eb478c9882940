"""Exact dense linear assignment in maximization form, plus a factorial oracle.

``lap_maximize`` takes the cost C either dense or as two thin factors with
C = L R^T, which is how every cost in the library arises. It writes -C once,
as (-L) R^T, and hands that one n x n buffer to a shortest-augmenting-path
minimizer (scipy's linear_sum_assignment), which is exact and O(n^3).
Negating the thin factor is exact, so the buffer is -C bit for bit up to the
sign of zero entries.

Ties between optimal assignments are broken toward the lexicographically
smallest index map for n <= 64. The tie pass first finds, on the exchange
graph of the solver's optimum, the rows that lie on a zero-weight cycle and so
can take another column in some other optimum: a Bellman-Ford that relaxes
only from the rows changed in the round before, then a boolean transitive
closure of the tight edges. Each strongly connected group of such rows is
then refined on its own. It first tries its columns in ascending order, which
settles most groups with no solve at all; only if that arrangement is not
tied does it run restricted re-solves of the group, one per row and repeated
while they find a tie. A cost without ties costs one solve and the test.
Larger problems return the solver's deterministic optimum: cost matrices with
continuous random entries have a unique optimum with probability one, while
the test, O(n^2) per Bellman-Ford round, costs more than the solve itself on
such costs at n = 500 and 1000.
Every objective, on the solver, tie and oracle paths alike, is the same
summation of the entries C[i, pi(i)] in ascending row order
(``assignment_objective``), so equality comparisons are exact. A sum that
overflows float64 raises ValueError (``model.require_finite``): the solver's
optimum is summed before the tie pass compares anything, so every comparison
is between finite sums, and a cost whose tie test overflows is refused too.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import blas, instrument
from .model import Permutation, require_finite

# Above this size the lexicographic tie pass (tie test, then re-solves of tied rows) is skipped.
LEX_TIEBREAK_MAX_N = 64

BRUTE_FORCE_MAX_N = 10

_COST_NOT_FINITE = "cost matrix contains NaN or infinite entries"
_OBJECTIVE_OVERFLOWS = (
    "assignment objective sum_i C[i, pi(i)] overflows float64 (above about 1.8e308); "
    "rescale the inputs"
)


@dataclass(frozen=True)
class Assignment:
    """An index map pi with objective sum_i C[i, pi(i)] on the matrix it solved."""

    perm: Permutation
    objective: float


def _canonical_sum(entries: np.ndarray) -> float:
    """Sum of the chosen entries C[i, pi(i)], in ascending row order; ValueError if it overflows.

    ``np.add.reduce`` is ``np.sum`` without its Python wrapper: the same pairwise summation.
    """
    return require_finite(lambda: float(np.add.reduce(entries)), _OBJECTIVE_OVERFLOWS)


def assignment_objective(cost: np.ndarray, indices: np.ndarray) -> float:
    """Canonical objective: sum of C[i, pi(i)] in ascending row order; ValueError on overflow."""
    return _canonical_sum(cost[np.arange(cost.shape[0]), indices])


def _square_cost(cost) -> np.ndarray:
    arr = np.asarray(cost, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("cost matrix must be non-empty")
    return arr


def _reduced_costs(cost: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Reduced costs r = w + d_i - d_j of the exchange graph of pi (see ``_tied_components``).

    If d still changes after n rounds, every r is 0: each edge then counts as
    tight, so every row is flagged.
    """
    n = cost.shape[0]
    held = cost[np.arange(n), indices]
    w = held[:, None] - cost[:, indices]
    # w has a zero diagonal, so d <= 0 and the rows below zero are the ones that changed.
    d = w.min(axis=0)
    changed = np.flatnonzero(d)
    for _ in range(n - 1):
        if not changed.size:
            break
        offers = w[changed]
        offers += d[changed, None]
        relaxed = offers.min(axis=0)
        changed = np.flatnonzero(relaxed < d)
        d[changed] = relaxed[changed]
    if changed.size:
        return np.zeros((n, n))
    return w + d[:, None] - d[None, :]


def _tied_components(cost: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    """Row groups, ascending, that may trade columns with one another in some optimum.

    Exchange graph of the optimum pi: the edge i -> j weighs
    w[i, j] = C[i, pi(i)] - C[i, pi(j)], the loss when row i takes row j's
    column. Another assignment sigma differs from pi by disjoint cycles of
    this graph, and sigma is also optimal iff every one of them weighs zero
    (complementary slackness; Burkard, Dell'Amico & Martello, *Assignment
    Problems*, 2009). Bellman-Ford from a virtual source gives potentials d
    with reduced costs r = w + d_i - d_j >= 0, and r sums to w around a
    cycle, so every edge of a zero cycle has r = 0 and its rows share a
    strongly connected component of the edges with r <= tol. Rows outside
    every component of size > 1 hold the same column in every optimum.

    Bellman-Ford starts from the first round, d = min_i w[i, :], and each
    later round relaxes only from the rows whose potential the round before
    changed: an unchanged row offers every column the sum it offered then.
    The rounds therefore give the potentials of a full relaxation bit for
    bit, within the same n rounds. The components are read off a boolean
    transitive closure, by repeated squaring, of the tight edges among the
    rows that have a tight edge both in and out (the diagonal is always
    tight and does not count): i and j share a component iff each reaches
    the other. That is O(k^3 log k) in the k such rows, cheap at the sizes
    the tie pass runs but not a bound that scales to a dense solve's n.

    ``tol`` bounds roundoff, so a row may be flagged in error but never
    missed. With u = eps / 2, M = max|C| and canonical sums of n terms, to
    first order in u: (1) two sums that compare equal differ by at most
    2 n^2 u M exactly; (2) once d stops changing, d_j <= fl(d_i + w_ij) and
    -2nM <= d <= 0, so a cycle of k edges weighs at least -2k (n + 1) u M
    exactly, and a cycle of an assignment tied in floating point weighs at
    most (4 n^2 + 2n) u M; (3) every reduced cost is at least -2n u M, so on
    such a cycle none exceeds (6 n^2 + 2n) u M, and computing r adds at most
    (8n + 4) u M. The sum, (6 n^2 + 10 n + 4) u M, stays below
    tol = 4 (n + 2)^2 eps M = (8 n^2 + 32 n + 32) u M for every n >= 1, with
    room for the higher-order terms. If d still changes after n rounds, pi is
    not optimal in exact arithmetic and every row is flagged.
    """
    n = cost.shape[0]
    reduced = require_finite(
        lambda: _reduced_costs(cost, indices),
        "assignment tie test overflows float64: a reduced cost "
        "C[i, pi(i)] - C[i, pi(j)] + d_i - d_j passes about 1.8e308; rescale the inputs",
    )
    tol = 4.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * float(np.abs(cost).max())
    tight = reduced <= tol
    linked = np.flatnonzero((tight.sum(axis=0) > 1) & (tight.sum(axis=1) > 1))
    if not linked.size:
        return []
    reach = tight[np.ix_(linked, linked)]
    while True:
        as_float = reach.astype(np.float64)
        wider = as_float @ as_float > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    mutual = reach & reach.T
    leaders = np.flatnonzero(
        (mutual.argmax(axis=1) == np.arange(linked.size)) & (mutual.sum(axis=1) > 1)
    )
    return [linked[mutual[i]] for i in leaders]


def _lexicographically_canonical(cost: np.ndarray, indices: np.ndarray, best: float) -> np.ndarray:
    """Refine an optimal assignment, objective ``best``, to the lex-smallest one of equal objective.

    Only the rows of ``_tied_components`` can move, and only among their own
    component's columns; components are independent, so each is refined on
    its own and a cost without ties takes no sub-solve. A component's rows g
    first try its columns in ascending order, the one arrangement of them
    that no other beats lexicographically, and keep it if the canonical
    objective over all rows still equals the optimum. Otherwise the greedy
    runs over g, ascending: with rows < g[k] fixed, re-solve rows g[k:] over
    their columns with row g[k] barred from its current column and every
    larger one, and adopt the result while the objective still equals the
    optimum. Comparisons are exact float equality on canonically summed
    objectives, which detects exactly the ties that are exact in double
    precision.
    """
    rows = np.arange(cost.shape[0])
    # No partial sum of n entries passes n max|C|. Below the double range, then, no trial sum
    # can overflow, and each skips require_finite, whose error-state switch costs about a sum.
    if math.isfinite((rows.size + 1) * float(np.abs(cost).max())):
        total = lambda entries: float(np.add.reduce(entries))
    else:
        total = _canonical_sum
    current = indices.copy()
    for group in _tied_components(cost, indices):
        trial = current.copy()
        cols = trial[group] = np.sort(current[group])
        if total(cost[rows, trial]) == best:
            current = trial
            continue
        # Positions in cols of each row's column; the greedy only permutes them.
        held = np.searchsorted(cols, current[group])
        neg = -cost[group[:, None], cols]
        for k in range(group.size - 1):
            free = np.sort(held[k:])
            if held[k] == free[0]:
                continue
            sub = neg[k:, free]
            while held[k] > free[0]:
                sub[0, free >= held[k]] = np.inf
                _, picked = linear_sum_assignment(sub)
                moved = held.copy()
                moved[k:] = free[picked]
                trial[group] = cols[moved]
                if total(cost[rows, trial]) != best:
                    break
                held = moved
        current[group] = cols[held]
    return current


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@blas.single_threaded()
def lap_maximize(left, right=None) -> Assignment:
    """Permutation maximizing sum_i C[i, pi(i)] exactly, for C = left @ right.T.

    With ``right`` omitted, C = left. Given the two n-by-r factors, the dense
    product is formed once, negated, as the only n-by-n allocation. Raises
    ValueError before that allocation if its 8 n^2 bytes exceed physical
    memory, on non-square or mismatched input or non-finite entries, when
    finite factors have a product that overflows float64, and when the
    objective or the tie test overflows it.
    """
    if right is None:
        arr = _square_cost(left)
    else:
        arr, factor = np.asarray(left, dtype=np.float64), np.asarray(right, dtype=np.float64)
        if arr.ndim != 2 or arr.shape != factor.shape or arr.shape[0] == 0:
            raise ValueError(
                "cost factors must be non-empty n-by-r matrices of one shape, "
                f"got {arr.shape} and {factor.shape}"
            )
    n = arr.shape[0]
    need, limit = 8 * n * n, _physical_memory_bytes()
    if need > limit:
        raise ValueError(
            f"assignment with n={n} needs a dense {n}x{n} cost of {need} bytes "
            f"({need / 2**30:.3g} GiB), more than the {limit} bytes of physical memory"
        )
    if right is None:
        neg = require_finite(lambda: -arr, _COST_NOT_FINITE)
    else:
        for f in (arr, factor):
            require_finite(lambda: f, "cost factors contain NaN or infinite entries")
        neg = require_finite(
            lambda: (-arr) @ factor.T,
            "cost matrix left @ right.T has NaN or infinite entries: the product of "
            "finite factors overflows float64 (above about 1.8e308); rescale the inputs",
        )
    instrument.record("lap_solve")
    _, col_ind = linear_sum_assignment(neg)
    indices = col_ind.astype(np.int64)
    rows = np.arange(n)
    # The gathered entries are those of C, so each sum is assignment_objective's.
    objective = _canonical_sum(-neg[rows, indices])
    if n <= LEX_TIEBREAK_MAX_N:
        indices = _lexicographically_canonical(-neg, indices, objective)
        objective = _canonical_sum(-neg[rows, indices])
    return Assignment(Permutation(indices), objective)


def lap_brute_force(cost) -> Assignment:
    """Exhaustive maximum over all n! permutations (n <= 10), lex-first tie-break.

    Raises ValueError when the objective of any candidate overflows float64.
    """
    arr = _square_cost(cost)
    require_finite(lambda: arr, _COST_NOT_FINITE)
    n = arr.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (factorial blow-up)")
    rows = np.arange(n)
    candidates = (np.add.reduce(arr[rows, c]) for c in itertools.permutations(range(n)))
    objectives = require_finite(
        lambda: np.fromiter(candidates, np.float64, math.factorial(n)), _OBJECTIVE_OVERFLOWS
    )
    # permutations() runs in lexicographic order and argmax returns the first maximum.
    best = next(itertools.islice(itertools.permutations(range(n)), int(objectives.argmax()), None))
    indices = np.array(best, dtype=np.int64)
    return Assignment(Permutation(indices), assignment_objective(arr, indices))
