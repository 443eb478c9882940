"""Exact dense linear assignment in maximization form.

``lap_maximize`` takes the cost C as two thin factors with C = L R^T, which
is how every cost in the library arises. It writes -C once, as (-L) R^T, and
hands that one n x n buffer to a shortest-augmenting-path minimizer (scipy's
linear_sum_assignment), which is exact and O(n^3). Negating the thin factor
is exact, so the buffer is -C bit for bit up to the sign of zero entries. A
dense cost C is the pair (C, I), whose product (-C) I is -C up to the same signs.

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

n <= 64 is the permanent rule. Larger problems return the solver's
deterministic optimum: costs with continuous random entries have a unique
optimum with probability one, while the test alone, O(n^2) per Bellman-Ford
round plus several more n x n arrays, takes about twice the solve on such costs;
run at every n, it cut perfbench throughput by 30-66% (README, "Ties").

Every objective, on the solver and tie paths alike, is the correctly rounded
sum of the entries C[i, pi(i)] (``_canonical_sum``, ``math.fsum``), which does
not depend on their order: two assignments that pick the same entries in
different rows, such as two repeated rows trading columns, tie exactly. A sum
whose partial sums overflow float64 raises ValueError: the solver's optimum is
summed before the tie pass compares anything, so every comparison is between
finite sums, and a cost whose tie test overflows is refused too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import blas, instrument
from .model import Permutation, require_finite, require_matrix

# Above this size the lexicographic tie pass (tie test, then re-solves of tied rows) is skipped.
LEX_TIEBREAK_MAX_N = 64

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
    """Correctly rounded sum of the chosen entries C[i, pi(i)], in any order (``math.fsum``).

    ValueError if a partial sum overflows float64.
    """
    try:
        return math.fsum(entries.tolist())
    except OverflowError:
        raise ValueError(_OBJECTIVE_OVERFLOWS) from None


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


def _tied_components(cost: np.ndarray, indices: np.ndarray, scale: float) -> list[np.ndarray]:
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
    missed. With u = eps / 2, M = max|C| and correctly rounded sums of n
    terms, to first order in u: (1) each sum is within n u M of its exact
    value, so two sums that compare equal differ by at most 2n u M exactly;
    (2) once d stops changing, d_j <= fl(d_i + w_ij) and -2nM <= d <= 0, so a
    cycle of k edges weighs at least -2k (n + 1) u M exactly, and a cycle of
    an assignment tied in floating point weighs at most (2 n^2 + 4n) u M;
    (3) every reduced cost is at least -2n u M, so on such a cycle none
    exceeds (4 n^2 + 4n) u M, and computing r adds at most (8n + 4) u M. The
    sum, (4 n^2 + 12 n + 4) u M, stays below tol = 4 (n + 2)^2 eps M =
    (8 n^2 + 32 n + 32) u M for every n >= 1, with room for the higher-order
    terms. ``tol`` also covers plain summation in a fixed order, whose point
    (1) bound is 2 n^2 u M, so for correctly rounded sums it is an upper bound
    with room to spare. If d still changes after n rounds, pi is not optimal
    in exact arithmetic and every row is flagged. The caller passes M as
    ``scale``.
    """
    n = cost.shape[0]
    reduced = require_finite(
        lambda: _reduced_costs(cost, indices),
        "assignment tie test overflows float64: a reduced cost "
        "C[i, pi(i)] - C[i, pi(j)] + d_i - d_j passes about 1.8e308; rescale the inputs",
    )
    tol = 4.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * scale
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
    that no other beats lexicographically, and keep it if the objective over
    all rows still equals the optimum. Otherwise the greedy runs over g,
    ascending: with rows < g[k] fixed, re-solve rows g[k:] over their columns
    with row g[k] barred from its current column and every larger one, and
    adopt the result while the objective still equals the optimum. Comparisons are exact float equality on correctly rounded
    objectives (``_canonical_sum``): two arrangements tie exactly when their
    exact sums round to the same double, whatever rows hold the entries.
    """
    rows = np.arange(cost.shape[0])
    scale = float(np.abs(cost).max())
    current = indices.copy()
    for group in _tied_components(cost, indices, scale):
        trial = current.copy()
        cols = trial[group] = np.sort(current[group])
        if _canonical_sum(cost[rows, trial]) == best:
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
                if _canonical_sum(cost[rows, trial]) != best:
                    break
                held = moved
        current[group] = cols[held]
    return current


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@blas.single_threaded()
def lap_maximize(left, right) -> Assignment:
    """Permutation maximizing sum_i C[i, pi(i)] exactly, for C = left @ right.T.

    The dense product of the two n-by-r factors is formed once, negated, as
    the only n-by-n allocation. Raises ValueError before that allocation if
    its 8 n^2 bytes exceed physical memory, on mismatched factors or
    non-finite entries, when finite factors have a product that overflows
    float64, and when the objective or the tie test overflows it.
    """
    arr = require_matrix(left, "cost factor left")
    factor = require_matrix(right, "cost factor right")
    if arr.shape != factor.shape:
        raise ValueError(f"cost factors must have one shape, got {arr.shape} and {factor.shape}")
    n = arr.shape[0]
    need, limit = 8 * n * n, _physical_memory_bytes()
    if need > limit:
        raise ValueError(
            f"assignment with n={n} needs a dense {n}x{n} cost of {need} bytes "
            f"({need / 2**30:.3g} GiB), more than the {limit} bytes of physical memory"
        )
    neg = require_finite(
        lambda: (-arr) @ factor.T,
        "cost matrix left @ right.T has NaN or infinite entries: the product of "
        "finite factors overflows float64 (above about 1.8e308); rescale the inputs",
    )
    instrument.record("lap_solve")
    _, col_ind = linear_sum_assignment(neg)
    indices = col_ind.astype(np.int64)
    # Negated back, the gathered entries are those of C: the sum the tie pass compares with.
    objective = _canonical_sum(-neg[np.arange(n), indices])
    if n <= LEX_TIEBREAK_MAX_N:
        indices = _lexicographically_canonical(-neg, indices, objective)
    return Assignment(Permutation(indices), objective)
