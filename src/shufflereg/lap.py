"""Exact dense linear assignment in maximization form.

``lap_maximize`` takes the cost C as two thin factors with C = L R^T, which
is how every cost in the library arises. It writes -C once, as (-L) R^T, and
hands that one n x n buffer to a shortest-augmenting-path minimizer (scipy's
linear_sum_assignment), which is exact and O(n^3). Negating the thin factor
is exact, so the buffer is -C bit for bit up to the sign of zero entries. A
dense cost C is the pair (C, I), whose product (-C) I is -C up to the same signs.

Ties are broken for n <= 64 by one rule, the tight graph of the solver's
optimum (``_tied_components``): an edge of its exchange graph is tight when
its reduced cost lies within roundoff of zero. The pass returns the
lexicographically smallest index map that uses only tight edges. A boolean
transitive closure groups the rows that can trade columns; a group whose rows
may take its columns in ascending order takes them, and any other group runs
a backward search per row (``_lex_smallest_matching``). The pass makes no
re-solve and compares no objectives; its one float comparison is the tight
test. Every exact optimum uses only tight edges, so the result is never
lexicographically after one, and its exact objective is within the roundoff
bound (2n + 1) tol of the maximum. Where every sum is exact and distinct sums
lie further apart than that, as on small integer and dyadic costs, it is the
lexicographically smallest optimum. A cost without ties costs one solve and
the test.

n <= 64 is the permanent rule. Larger problems return the solver's
deterministic optimum: costs with continuous random entries have a unique
optimum with probability one, while the test alone, O(n^2) per Bellman-Ford
round plus several more n x n arrays, takes about twice the solve on such costs;
run at every n, it cut perfbench throughput by 30-66% (README, "Ties").

The objective is the correctly rounded sum of the entries C[i, pi(i)] of the
returned assignment (``_canonical_sum``, ``math.fsum``), which does not depend
on their order. A sum whose partial sums overflow float64 raises ValueError;
the solver's optimum is summed first, so such a cost is refused before the
tie test runs, and a cost whose tie test overflows is refused too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import blas, instrument
from .model import Permutation, require_finite, require_matrix

# Above this size the lexicographic tie pass (tie test, then the tight-graph matching) is skipped.
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


def _reduced_costs(cost: np.ndarray, indices: np.ndarray, tol: float) -> np.ndarray:
    """Reduced costs r = w + tol / n + d_i - d_j of pi's lengthened exchange graph.

    See ``_tied_components``. If d still changes after n rounds, pi is not
    optimal even within roundoff: every r is then the largest double, so no
    edge is tight, no row is flagged and the solver's optimum is kept.
    """
    n = cost.shape[0]
    held = cost[np.arange(n), indices]
    w = held[:, None] - cost[:, indices]
    w += tol / n
    # The virtual source offers 0 to every row, so d <= 0 and the rows below zero changed.
    d = np.minimum(w.min(axis=0), 0.0)
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
        return np.full((n, n), np.finfo(np.float64).max)
    return w + d[:, None] - d[None, :]


def _tied_components(
    cost: np.ndarray, indices: np.ndarray, scale: float
) -> tuple[list[np.ndarray], np.ndarray]:
    """Row groups, ascending, that trade columns in some tight matching, and the tight edges.

    Exchange graph of the solver's optimum pi: the edge i -> j weighs
    w[i, j] = C[i, pi(i)] - C[i, pi(j)], the loss when row i takes row j's
    column. Another assignment sigma differs from pi by disjoint cycles of
    this graph, which weigh sum(pi) - sum(sigma) in all (Burkard, Dell'Amico
    & Martello, *Assignment Problems*, 2009). Every edge is lengthened by
    l = tol / n, so a cycle gains at most tol: the negative cycle a few ulps
    deep that a floating-point optimum can leave turns positive. Bellman-Ford
    from a virtual source then gives potentials d with reduced costs
    r = w + l + d_i - d_j, at least zero up to roundoff, that sum to the
    lengthened weight around any cycle. The edge i -> j is *tight* when
    r <= 2 tol, and ``tight[i, j]`` says so; once d settles, the diagonal is.
    Every assignment that uses only tight edges differs from pi by cycles of
    tight edges, so its moved rows share a strongly connected component of
    them; rows outside every component of size > 1 keep their column.

    Bellman-Ford starts from the first round, d = min(min_i w[i, :], 0), and
    each later round relaxes only from the rows whose potential the round
    before changed: an unchanged row offers every column the sum it offered
    then. The rounds therefore give the potentials of a full relaxation bit
    for bit, within the same n rounds. The components are read off a boolean
    transitive closure, by repeated squaring, of the tight edges among the
    rows that have a tight edge both in and out besides the diagonal: i and
    j share a component iff each reaches the other. That is O(k^3 log k) in
    the k such rows, cheap at the sizes the tie pass runs but not a bound
    that scales to a dense solve's n.

    ``tol`` = 4 (n + 2)^2 eps M bounds roundoff, with u = eps / 2, M = max|C|
    (the caller passes it as ``scale``) and correctly rounded objectives. To
    first order in u: each computed w is within 4uM of w + l, and the
    diagonal is exactly l; d lies in [-2nM, 0]; once d settles,
    d_j <= fl(d_i + w_ij), so every reduced cost r* taken exactly from the
    computed w and d is at least -(2n + 2) u M, and the computed r is within
    (4n + 4) u M of r*. Around the rows of any assignment sigma the r* sum
    to sum(pi) - sum(sigma) + n l, up to 4uM per moved row. Two facts follow.
    (1) Every sigma whose correctly rounded objective is at least pi's, an
    exact optimum among them, uses only tight edges: its exact sum is at
    most 2nuM below pi's, so none of its edges has r above
    tol + (2n^2 + 10n + 2) u M <= 2 tol. (2) Every assignment tau that uses
    only tight edges is within (2n + 1) tol of the exact maximum: for any
    sigma, sum(sigma) - sum(tau) is the r* over tau's edges minus those over
    sigma's, up to 8nuM, at most 2n tol + (6n^2 + 14n) u M. Both hold for
    every n >= 1, since tol = (8n^2 + 32n + 32) u M, with room for the
    higher-order terms.
    """
    n = cost.shape[0]
    tol = 4.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * scale
    reduced = require_finite(
        lambda: _reduced_costs(cost, indices, tol),
        "assignment tie test overflows float64: a reduced cost "
        "C[i, pi(i)] - C[i, pi(j)] + d_i - d_j passes about 1.8e308; rescale the inputs",
    )
    tight = reduced <= 2.0 * tol
    linked = np.flatnonzero((tight.sum(axis=0) > 1) & (tight.sum(axis=1) > 1))
    if not linked.size:
        return [], tight
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
    return [linked[mutual[i]] for i in leaders], tight


def _lex_smallest_matching(allowed: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the boolean k x k graph ``allowed``.

    ``start`` is one perfect matching of it: row a holds column start[a]. Rows
    are fixed in ascending order. With the rows before a fixed, a perfect
    matching of the rest gives row a column c iff an alternating cycle runs
    from a through c and back to a's own column, since two perfect matchings
    differ by such cycles. A backward breadth-first search from a's column,
    over the columns that later rows hold, finds every column whose row can
    move on along allowed edges; row a takes the smallest of them that it is
    allowed, and the columns rotate along the search's pointers.
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


def _lexicographically_canonical(cost: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The lexicographically smallest perfect matching of the tight graph of ``indices``.

    Only the rows of ``_tied_components`` can move, and only among their own
    group's columns; groups are independent, so each takes its own smallest
    matching. A group whose rows may each take its columns in ascending
    order takes them, the one arrangement of them that no other beats
    lexicographically, with no search; the others run
    ``_lex_smallest_matching``. No float is compared but the tight test.
    """
    current = indices.copy()
    groups, tight = _tied_components(cost, indices, float(np.abs(cost).max()))
    for group in groups:
        order = np.argsort(indices[group])
        cols = indices[group][order]
        # allowed[a, b]: row group[a] may take cols[b], the column of row group[order[b]].
        allowed = tight[np.ix_(group, group[order])]
        if allowed.diagonal().all():
            current[group] = cols
        else:
            current[group] = cols[_lex_smallest_matching(allowed, np.argsort(order))]
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
    rows = np.arange(n)
    # Negated back, the gathered entries are those of C. The solver's optimum is summed
    # first, so an objective that overflows is refused before the tie test runs.
    objective = _canonical_sum(-neg[rows, indices])
    if n <= LEX_TIEBREAK_MAX_N:
        indices = _lexicographically_canonical(-neg, indices)
        objective = _canonical_sum(-neg[rows, indices])
    return Assignment(Permutation(indices), objective)
