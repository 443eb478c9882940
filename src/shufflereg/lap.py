"""Exact dense linear assignment in maximization form.

``lap_maximize`` takes the cost C as two thin factors with C = L R^T, which
is how every cost in the library arises. It writes -C once, as (-L) R^T, and
hands that one n x n buffer to a shortest-augmenting-path minimizer (scipy's
linear_sum_assignment), which is exact and O(n^3). Negating the thin factor
is exact, so the buffer is -C bit for bit up to the sign of zero entries. A
dense cost C is the pair (C, I), whose product (-C) I is -C up to the same signs.

Ties are broken for n <= 64 by one rule, the tight graph of the solver's
optimum (``_reduced_costs``): an edge of its exchange graph is tight when
its reduced cost lies within roundoff of zero. The pass returns the
lexicographically smallest index map that uses only tight edges, found by
one search over the whole tight graph (``_lex_smallest_matching``): rows in
ascending order, each searching backward over the rows after it only when
it may take a smaller column that one of them holds, on bit sets of the
tight edges. The pass makes no re-solve and compares no objectives; its one
float comparison is the tight test. Every exact optimum uses only tight
edges, so the result is never lexicographically after one, and its exact
objective is within the roundoff bound (2n + 1) tol of the maximum. Where
every sum is exact and distinct sums lie further apart than that, as on
small integer and dyadic costs, it is the lexicographically smallest
optimum. A cost without ties costs one solve and the test.

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
# The matching search builds its bit sets in uint64 words, so the pass needs n <= 64.
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
    r <= 2 tol; once d settles, the diagonal is. Every assignment that uses
    only tight edges differs from pi by cycles of tight edges.

    Bellman-Ford starts from the first round, d = min(min_i w[i, :], 0), and
    each later round relaxes only from the rows whose potential the round
    before changed: an unchanged row offers every column the sum it offered
    then. The rounds therefore give the potentials of a full relaxation bit
    for bit, within the same n rounds. If d still changes after n rounds, pi
    is not optimal even within roundoff: every r is then the largest double,
    so no edge is tight, no row moves and the solver's optimum is kept.

    ``tol`` = 4 (n + 2)^2 eps M bounds roundoff, with u = eps / 2, M = max|C|
    and correctly rounded objectives. To first order in u: each computed w is
    within 4uM of w + l, and the diagonal is exactly l; d lies in [-2nM, 0];
    once d settles, d_j <= fl(d_i + w_ij), so every reduced cost r* taken
    exactly from the computed w and d is at least -(2n + 2) u M, and the
    computed r is within (4n + 4) u M of r*. Around the rows of any
    assignment sigma the r* sum to sum(pi) - sum(sigma) + n l, up to 4uM per
    moved row. Two facts follow. (1) Every sigma whose correctly rounded
    objective is at least pi's, an exact optimum among them, uses only tight
    edges: its exact sum is at most 2nuM below pi's, so none of its edges has
    r above tol + (2n^2 + 10n + 2) u M <= 2 tol. (2) Every assignment tau
    that uses only tight edges is within (2n + 1) tol of the exact maximum:
    for any sigma, sum(sigma) - sum(tau) is the r* over tau's edges minus
    those over sigma's, up to 8nuM, at most 2n tol + (6n^2 + 14n) u M. Both
    hold for every n >= 1, since tol = (8n^2 + 32n + 32) u M, with room for
    the higher-order terms.
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


def _lex_smallest_matching(allowed: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the boolean k x k graph ``allowed``, k <= 64.

    ``start`` is one perfect matching of it: row a holds column start[a]. Rows
    are fixed in ascending order. With the rows before a fixed, a perfect
    matching of the rest gives row a column c iff an alternating cycle runs
    from a through c and back to a's own column, since two perfect matchings
    differ by such cycles. Only a row that may take a smaller column held by
    a later row searches: a backward breadth-first search from its column,
    over the columns that later rows hold, finds every column whose row can
    move on along allowed edges; the row takes the smallest of them that it
    is allowed, and the columns rotate along the search's pointers.

    The search runs on bit sets held as Python ints, built once: bit c of
    ``takes[i]`` and bit i of ``admits[c]`` both say that row i may take
    column c. Each search step is then a few integer operations per row or
    column it reaches, not a pass over the graph, and the search stops as
    soon as it reaches the row that holds the smallest column wanted.
    """
    k = start.size
    bits = np.uint64(1) << np.arange(k, dtype=np.uint64)
    # Sums of distinct powers of two, so each integer product is exact.
    takes = (allowed @ bits).tolist()
    admits = (bits @ allowed).tolist()
    match = start.tolist()
    owner = [0] * k
    for row, col in enumerate(match):
        owner[col] = row
    via = [0] * k
    fixed = 0
    for a in range(k - 1):
        own = match[a]
        # The columns below its own that row a may take, held by later rows.
        wanted = takes[a] & ((1 << own) - 1) & ~fixed
        if wanted:
            first = wanted & -wanted
            target = owner[first.bit_length() - 1]
            # Bit c of freed: column c can be vacated, its row moving on to column via[c].
            freed = frontier = 1 << own
            unreached = ((1 << k) - 1) >> (a + 1) << (a + 1)
            while frontier:
                movers, rest = 0, frontier
                while rest:
                    low = rest & -rest
                    movers |= admits[low.bit_length() - 1]
                    rest ^= low
                movers &= unreached
                # Reaching the row that holds the smallest column row a may take frees that
                # column, and no other can beat it.
                if movers >> target & 1:
                    step = takes[target] & frontier
                    via[match[target]] = (step & -step).bit_length() - 1
                    freed |= first
                    break
                unreached ^= movers
                reached = 0
                while movers:
                    low = movers & -movers
                    row = low.bit_length() - 1
                    col = match[row]
                    step = takes[row] & frontier
                    via[col] = (step & -step).bit_length() - 1
                    reached |= 1 << col
                    movers ^= low
                frontier = reached
                freed |= frontier
            # The smallest column row a may take that the search freed; its own, if no other.
            taken = wanted & freed
            if taken:
                path = [(taken & -taken).bit_length() - 1]
                while path[-1] != own:
                    path.append(via[path[-1]])
                rows = [owner[col] for col in path]
                for row, col in zip(rows, path[1:] + path[:1]):
                    match[row] = col
                    owner[col] = row
        fixed |= 1 << match[a]
    return np.array(match, dtype=start.dtype)


def _lexicographically_canonical(cost: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The lexicographically smallest perfect matching of the tight graph of ``indices``.

    One search over the whole tight graph (``_lex_smallest_matching``): rows
    that can trade no column keep theirs, so the graph is never split into
    groups first. No float is compared but the tight test.
    """
    n = cost.shape[0]
    tol = 4.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * float(np.abs(cost).max())
    reduced = require_finite(
        lambda: _reduced_costs(cost, indices, tol),
        "assignment tie test overflows float64: a reduced cost "
        "C[i, pi(i)] - C[i, pi(j)] + d_i - d_j passes about 1.8e308; rescale the inputs",
    )
    owner = np.empty_like(indices)
    owner[indices] = np.arange(n)
    # allowed[i, c]: row i may take column c, the column of row owner[c], by a tight edge.
    return _lex_smallest_matching((reduced <= 2.0 * tol)[:, owner], indices)


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
