import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import shufflereg.lap
from shufflereg.estimators import build_onestep_cost
from shufflereg.experiments import sigma_for_snr
from shufflereg.lap import Assignment, _lex_smallest_matching, _reduced_costs, lap_maximize
from shufflereg.model import (
    DistributionKind,
    Permutation,
    build_canonical_signal,
    synthesize_instance,
)

from oracles import (
    assignment_objective,
    dense,
    exact_objective,
    lap_brute_force,
    lap_exact_maximum,
    lex_smallest_matching,
)


def ones_with(index, value):
    """A 3 x 2 matrix of ones with ``value`` at ``index``."""
    arr = np.ones((3, 2))
    arr[index] = value
    return arr


def objective_of(cost, perm):
    return assignment_objective(np.asarray(cost, dtype=float), perm.indices)


class TestSmallCases:
    def test_two_by_two_diagonal_dominant(self):
        # Both 2-permutations enumerated by hand: identity gives 2 + 3 = 5,
        # the swap gives 1 + 1 = 2.
        result = lap_maximize(*dense([[2.0, 1.0], [1.0, 3.0]]))
        assert result.perm == Permutation(np.arange(2))
        assert result.objective == 5.0

    def test_one_by_one(self):
        result = lap_brute_force([[7.0]])
        assert result.perm == Permutation(np.arange(1))
        assert result.objective == 7.0

    def test_off_diagonal_dominant_swap(self):
        result = lap_brute_force([[0.0, 1.0], [1.0, 0.0]])
        assert result.perm == Permutation(np.array([1, 0]))
        assert result.objective == 2.0


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"])
    @pytest.mark.parametrize("solve", [lap_brute_force])
    def test_non_finite_dense_cost_rejected(self, solve, bad):
        cost = np.ones((3, 3))
        cost[2, 0] = bad
        with pytest.raises(ValueError, match=r"^cost matrix contains NaN or infinite entries$"):
            solve(cost)

    def test_non_finite_entries_are_reported_before_the_size_guard(self, monkeypatch):
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 0)
        with pytest.raises(ValueError, match="^cost factor left contains non-finite entries$"):
            lap_maximize(np.full((3, 2), np.inf), np.ones((3, 2)))

    def test_brute_force_refuses_large_inputs(self):
        with pytest.raises(ValueError, match="factorial"):
            lap_brute_force(np.ones((11, 11)))


class TestAffineInvariance:
    def test_positive_scale_and_shift_preserve_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cost = rng.standard_normal((6, 6))
            base = lap_maximize(*dense(cost))
            for alpha, beta in ((0.5, 0.0), (3.0, 4.0), (100.0, -7.5)):
                scaled = lap_maximize(*dense(alpha * cost + beta))
                assert scaled.perm == base.perm


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_objective_matches_brute_force_exactly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            cost = rng.standard_normal((n, n))
            brute = lap_brute_force(cost)
            assert lap_maximize(*dense(cost)).objective == brute.objective
            assert brute.objective == assignment_objective(cost, brute.perm.indices)

    def test_integer_ties_resolve_to_same_lexicographic_optimum(self):
        # Small-integer costs force exact ties; both paths must agree on the
        # lexicographically smallest optimal index map, not just the value.
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            fast = lap_maximize(*dense(cost))
            brute = lap_brute_force(cost)
            assert fast.objective == brute.objective
            assert fast.perm == brute.perm


class TestTieBreak:
    def test_all_equal_costs_return_identity(self):
        for n in (2, 3, 5):
            assert lap_maximize(*dense(np.ones((n, n)))).perm == Permutation(np.arange(n))

    def test_duplicate_rows(self):
        cost = np.array([[5.0, 5.0, 1.0], [5.0, 5.0, 1.0], [0.0, 0.0, 9.0]])
        result = lap_maximize(*dense(cost))
        assert result.perm == Permutation(np.array([0, 1, 2]))
        assert result.objective == 19.0

    def test_repeated_rows_tie_whatever_order_their_entries_are_summed_in(self):
        # Rows 1 and 2 are equal, so [0, 1, 2] and [0, 2, 1] sum the same entries; in row
        # order those sums are (a + u) + v and (a + v) + u, which round apart for these values.
        a, u, v = -0.7819084623568421, -0.2571922406188707, 0.008142180518343508
        cost = np.array([[a, -10.0, -10.0], [-10.0, u, v], [-10.0, u, v]])
        assert (a + u) + v != (a + v) + u
        fast, brute = lap_maximize(*dense(cost)), lap_brute_force(cost)
        assert fast.perm == brute.perm == Permutation(np.arange(3))
        assert fast.objective == brute.objective

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_gaussian_cost_with_a_repeated_row_matches_brute_force(self, case):
        n, (i, j), seed = case
        cost = np.random.default_rng(seed).standard_normal((n, n))
        cost[j] = cost[i]
        fast, brute = lap_maximize(*dense(cost)), lap_brute_force(cost)
        assert fast.perm == brute.perm
        assert fast.objective == brute.objective
        # Rows i < j trade columns at no loss, so the earlier one holds the smaller column.
        assert fast.perm.indices[i] < fast.perm.indices[j]


def per_candidate_canonical(cost):
    """Reference tie pass: for each row, try every smaller free column in turn.

    Forces row i to candidate column j, re-solves the rows below over the
    remaining free columns, and keeps the first j whose objective
    equals the optimum.
    """
    n = cost.shape[0]
    _, current = linear_sum_assignment(-cost)
    best = assignment_objective(cost, current)
    for i in range(n):
        used = set(current[:i].tolist())
        for j in [c for c in range(int(current[i])) if c not in used]:
            free_cols = np.array([c for c in range(n) if c not in used and c != j])
            trial = current.copy()
            trial[i] = j
            if i + 1 < n:
                _, cols = linear_sum_assignment(-cost[i + 1 :][:, free_cols])
                trial[i + 1 :] = free_cols[cols]
            if assignment_objective(cost, trial) == best:
                current = trial
                break
    return current


def rademacher_one_step_factors(n, p, snr, seed):
    """One-step cost factors of a fully shuffled Rademacher instance; snr None is noiseless."""
    b = build_canonical_signal(p, p, 1.0)
    sigma = 0.0 if snr is None else sigma_for_snr(b, p, snr)
    inst = synthesize_instance(n, p, p, n, DistributionKind.RADEMACHER, b, sigma, seed)
    return build_onestep_cost(inst.x, inst.y)


def count_solves(monkeypatch):
    """Shapes of every linear_sum_assignment call the lap module makes from now on."""
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return linear_sum_assignment(matrix)

    monkeypatch.setattr(shufflereg.lap, "linear_sum_assignment", counting)
    return calls


def tie_tolerance(cost):
    """tol = 4 (n + 2)^2 eps max|C|, the tie test's roundoff bound (``lap._reduced_costs``)."""
    n = cost.shape[0]
    return 4.0 * (n + 2) ** 2 * np.finfo(np.float64).eps * float(np.abs(cost).max())


def strong_component_groups(cost, indices):
    """Reference tie test: full Bellman-Ford rounds, then scipy's strong components.

    Same lengthened exchange graph, potentials and tight threshold as
    ``lap._reduced_costs``; the rows of each group of two or more can trade
    columns in some tight matching, and no other row moves.
    """
    n = cost.shape[0]
    tol = tie_tolerance(cost)
    w = cost[np.arange(n), indices][:, None] - cost[:, indices] + tol / n
    d = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(d, (d[:, None] + w).min(axis=0))
        if np.array_equal(relaxed, d):
            break
        d = relaxed
    else:
        return []
    tight = csr_array(w + d[:, None] - d[None, :] <= 2 * tol)
    _, labels = connected_components(tight, directed=True, connection="strong")
    groups = [np.flatnonzero(labels == c).tolist() for c in range(labels.max() + 1)]
    return sorted(g for g in groups if len(g) > 1)


class TestTiePassAgainstReference:
    # Rademacher designs repeat rows, so the one-step cost has exactly equal
    # columns and the optimum is tied, as in the tie benchmark workload.
    @pytest.mark.parametrize("n,p", [(24, 3), (40, 5), (64, 3), (64, 8)])
    @pytest.mark.parametrize("snr", [10.0, None])
    def test_rademacher_one_step_costs(self, n, p, snr):
        for seed in range(20):
            left, right = rademacher_one_step_factors(n, p, snr, seed)
            expected = per_candidate_canonical(left @ right.T)
            assert np.array_equal(lap_maximize(left, right).perm.indices, expected), seed

    def test_noiseless_n64_costs_with_large_components(self):
        # Seeds 20-49 extend the case above. Noiseless costs are where the large
        # components occur, whose rows the matching search moves the most.
        largest = 0
        for seed in range(20, 50):
            left, right = rademacher_one_step_factors(64, 8, None, seed)
            cost = left @ right.T
            _, start = linear_sum_assignment(-cost)
            largest = max([largest] + [len(g) for g in strong_component_groups(cost, start)])
            expected = per_candidate_canonical(cost)
            assert np.array_equal(lap_maximize(left, right).perm.indices, expected), seed
        assert largest >= 20

    @pytest.mark.parametrize("n", [16, 64])
    def test_duplicate_column_costs_take_one_solve(self, monkeypatch, n):
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(n)
        # Each distinct row of `right` appears about four times, so C has groups of
        # equal columns, and rows holding them may swap at no loss.
        right = rng.standard_normal((n // 4, 3))[rng.integers(0, n // 4, size=n)]
        left = rng.standard_normal((n, 3))
        cost = left @ right.T
        _, start = linear_sum_assignment(-cost)
        assert strong_component_groups(cost, start)
        result = lap_maximize(left, right)
        # Each tied group is settled by the matching search, with no re-solve.
        assert calls == [(n, n)]
        assert np.array_equal(result.perm.indices, per_candidate_canonical(cost))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 7).map(lambda n: (n, n)),
            elements=st.integers(-2, 2).map(float),
        )
    )
    def test_small_integer_costs_match_brute_force(self, cost):
        fast = lap_maximize(*dense(cost))
        brute = lap_brute_force(cost)
        assert fast.perm == brute.perm
        assert fast.objective == brute.objective

    def test_continuous_cost_takes_one_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        n = 64
        cost = np.random.default_rng(5).standard_normal((n, n))
        lap_maximize(*dense(cost))
        # The optimum is unique, so the tie test flags no row and nothing is re-solved.
        assert calls == [(n, n)]

    @pytest.mark.parametrize("snr", [1.0, 10.0, None])
    def test_moved_rows_stay_inside_their_tied_component(self, snr):
        b = build_canonical_signal(8, 8, 1.0)
        sigma = 0.0 if snr is None else sigma_for_snr(b, 8, snr)
        for seed in range(10):
            inst = synthesize_instance(64, 8, 8, 64, DistributionKind.RADEMACHER, b, sigma, seed)
            left, right = build_onestep_cost(inst.x, inst.y)
            cost = left @ right.T
            _, start = linear_sum_assignment(-cost)
            groups = strong_component_groups(cost, start)
            canonical = per_candidate_canonical(cost)
            in_group = np.zeros(64, dtype=bool)
            for group in groups:
                in_group[group] = True
                assert sorted(canonical[group]) == sorted(start[group]), seed
            assert not np.any((canonical != start) & ~in_group), seed

    def test_non_optimal_start_flags_no_row(self):
        # The swap loses 2, far more than the lengthening of its two edges, so the exchange
        # graph keeps a negative cycle and Bellman-Ford never settles: no edge is tight, no
        # row is flagged, and the pass keeps the start it was given.
        cost, start = np.eye(3), np.array([1, 0, 2])
        tol = tie_tolerance(cost)
        assert not (_reduced_costs(cost, start, tol) <= 2.0 * tol).any()
        assert np.array_equal(shufflereg.lap._lexicographically_canonical(cost, start), start)


def roundoff_bound(cost):
    """(2n + 1) tol: how far below the exact maximum a tight matching may sum.

    The bound is derived in ``lap._reduced_costs``.
    """
    return (2 * cost.shape[0] + 1) * tie_tolerance(cost)


class TestNearTies:
    # Costs of one-decimal entries: distinct assignments can sum within an ulp of each other,
    # and scipy's floating-point optimum may be the one an ulp below.

    def test_lexicographically_smaller_matching_of_the_exact_maximum(self):
        # scipy picks [2, 3, 0, 1], which sums to 3.6999999999999997, exactly 2^-54 below
        # [2, 0, 1, 3]; both use only tight edges, and the lexicographically smaller one wins.
        cost = np.array(
            [
                [-0.5, -0.1, 0.1, 1.2],
                [0.6, -1.3, -0.9, 2.0],
                [0.2, 1.4, -1.3, 1.6],
                [0.2, 1.4, -1.3, 1.6],
            ]
        )
        fast, brute = lap_maximize(*dense(cost)), lap_brute_force(cost)
        assert fast.perm == brute.perm == Permutation(np.array([2, 0, 1, 3]))
        assert fast.objective == brute.objective == 3.7

    def test_lexicographically_smaller_tight_matching_beats_one_an_ulp_larger(self):
        # [1, 2, 0] sums to exactly -2^-54 and [2, 1, 0], brute force's pick, to 0.0: both
        # are tight, so the tie rule takes the lexicographically smaller one, within the bound.
        cost = np.array([[-0.4, -0.6, 0.5], [-1.0, -1.0, 0.1], [0.5, -0.2, 0.7]]) * 3.7
        fast = lap_maximize(*dense(cost))
        assert fast.perm == Permutation(np.array([1, 2, 0]))
        assert lap_brute_force(cost).perm == Permutation(np.array([2, 1, 0]))
        gap = lap_exact_maximum(cost) - exact_objective(cost, fast.perm.indices)
        assert gap == Fraction(1, 2**54)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 3.7, 1.44e305, 1.025e306]),
        st.booleans(),
    )
    def test_within_the_bound_and_never_lexicographically_after_brute_force(
        self, n, seed, scale, repeat_a_row
    ):
        rng = np.random.default_rng(seed)
        cost = np.round(rng.standard_normal((n, n)), 1) * scale
        if repeat_a_row:
            i, j = rng.choice(n, 2, replace=False)
            cost[j] = cost[i]
        fast = lap_maximize(*dense(cost)).perm.indices
        # Brute force's fsum maximum uses only tight edges, so it is one of the candidates.
        assert tuple(fast) <= tuple(lap_brute_force(cost).perm.indices)
        bound = Fraction(roundoff_bound(cost))
        assert exact_objective(cost, fast) >= lap_exact_maximum(cost) - bound

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda k: st.tuples(hnp.arrays(bool, (k, k)), st.permutations(range(k)).map(np.array))
        )
    )
    def test_matching_search_takes_the_first_perfect_matching(self, case):
        allowed, start = case
        allowed[np.arange(start.size), start] = True
        # permutations() runs in lexicographic order.
        rows = range(start.size)
        first = next(c for c in itertools.permutations(rows) if allowed[rows, c].all())
        assert tuple(_lex_smallest_matching(allowed, start).tolist()) == first

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda k: st.tuples(
                st.permutations(range(k)).map(np.array),
                st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 0.7]),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_bit_set_search_matches_the_numpy_reference(self, case):
        start, density, seed = case
        k = start.size
        allowed = np.random.default_rng(seed).random((k, k)) < density
        allowed[np.arange(k), start] = True
        found = _lex_smallest_matching(allowed, start)
        assert np.array_equal(found, lex_smallest_matching(allowed, start))
        assert allowed[np.arange(k), found].all()

    @pytest.mark.parametrize("p", [3, 8])
    def test_tied_costs_take_one_solve(self, monkeypatch, p):
        # Noiseless Rademacher costs at n = 64 have tied groups that span several distinct
        # columns, so their rows are rearranged by the matching search, never re-solved.
        calls = count_solves(monkeypatch)
        for seed in range(5):
            left, right = rademacher_one_step_factors(64, p, None, seed)
            cost = left @ right.T
            _, start = linear_sum_assignment(-cost)
            assert strong_component_groups(cost, start)
            lap_maximize(left, right)
        assert calls == [(64, 64)] * 5


@st.composite
def small_integer_factors(draw):
    """Two n-by-r factors with entries in {-2..2}; their product has exact ties."""
    n, r = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    factor = hnp.arrays(np.float64, (n, r), elements=st.integers(-2, 2).map(float))
    return draw(factor), draw(factor)


class TestFactorForm:
    @settings(max_examples=200, deadline=None)
    @given(small_integer_factors())
    def test_small_integer_factors_match_dense_and_brute_force(self, factors):
        left, right = factors
        cost = left @ right.T
        factored = lap_maximize(left, right)
        for other in (lap_maximize(*dense(cost)), lap_brute_force(cost)):
            assert factored.perm == other.perm
            assert factored.objective == other.objective

    @pytest.mark.parametrize("n", [64, 65, 300])
    def test_gaussian_factors_match_dense(self, n):
        rng = np.random.default_rng(n)
        left, right = rng.standard_normal((2, n, 5))
        factored = lap_maximize(left, right)
        solved = lap_maximize(*dense(left @ right.T))
        assert factored.perm == solved.perm
        assert factored.objective == solved.objective

    def test_mismatched_factors_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            lap_maximize(np.ones((4, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="one shape"):
            lap_maximize(np.ones((4, 2)), np.ones((4, 3)))
        with pytest.raises(ValueError, match="non-empty"):
            lap_maximize(np.ones((0, 2)), np.ones((0, 2)))

    @pytest.mark.parametrize(
        "left,right",
        [
            *[(ones_with((1, 0), bad), np.ones((3, 2))) for bad in (np.nan, np.inf, -np.inf)],
            *[(np.ones((3, 2)), ones_with((2, 1), bad)) for bad in (np.nan, np.inf, -np.inf)],
            # inf * 0 is NaN in IEEE arithmetic, but a BLAS kernel may skip the zero column.
            (ones_with((1, 0), np.inf), ones_with(np.s_[:, 0], 0.0)),
            (ones_with(np.s_[:, 1], 0.0), ones_with((0, 1), -np.inf)),
            (np.ones(3), np.ones(3)),
            (np.ones((3, 2)), np.ones(3)),
            (np.ones((3, 2)), np.ones((2, 3))),
        ],
        ids=["left-nan", "left-inf", "left-neg-inf", "right-nan", "right-inf", "right-neg-inf",
             "left-inf-at-zero-column", "right-neg-inf-at-zero-column", "both-1d", "right-1d",
             "shapes-differ"],
    )
    def test_bad_factors_rejected(self, monkeypatch, left, right):
        monkeypatch.setattr(shufflereg.lap, "linear_sum_assignment", None)
        with pytest.raises(ValueError, match="cost factor"):
            lap_maximize(left, right)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.nan, "cost factor left contains non-finite entries"),
            (np.inf, "cost factor left contains non-finite entries"),
            (1e200, "the product of finite factors overflows float64"),
        ],
        ids=["nan", "inf", "1e+200"],
    )
    def test_non_finite_product_rejected(self, bad, message):
        left = np.ones((3, 2))
        left[1, 0] = bad
        with pytest.raises(ValueError, match=message):
            lap_maximize(left, np.full((3, 2), 1e200))


class TestRankOne:
    @pytest.mark.parametrize("n", [65, 300])
    def test_optimum_is_the_rank_matching(self, n):
        # Rearrangement inequality: with distinct entries the unique maximum of
        # sum_i a_i b_pi(i) pairs the k-th smallest a with the k-th smallest b.
        for seed in range(10):
            a, b = np.random.default_rng([n, seed]).standard_normal((2, n))
            expected = np.empty(n, dtype=np.int64)
            expected[np.argsort(a)] = np.argsort(b)
            result = lap_maximize(a[:, None], b[:, None])
            assert result.perm == Permutation(expected)
            assert result.objective == assignment_objective(np.outer(a, b), expected)


class TestSizeGuard:
    def test_cost_larger_than_memory_is_refused_before_solving(self, monkeypatch):
        n = 5
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 8 * n * n - 1)
        monkeypatch.setattr(shufflereg.lap, "linear_sum_assignment", None)
        for args in (dense(np.ones((n, n))), (np.ones((n, 2)), np.ones((n, 2)))):
            with pytest.raises(ValueError, match=f"n={n} needs a dense {n}x{n} cost of {8 * n * n} bytes"):
                lap_maximize(*args)

    def test_cost_that_fits_exactly_is_solved(self, monkeypatch):
        monkeypatch.setattr(shufflereg.lap, "_physical_memory_bytes", lambda: 8 * 3 * 3)
        assert lap_maximize(*dense(np.eye(3))).perm == Permutation(np.arange(3))


class TestOptimalityCertificate:
    def test_beats_random_alternatives(self):
        rng = np.random.default_rng(7)
        cost = rng.standard_normal((12, 12))
        best = lap_maximize(*dense(cost))
        for _ in range(1000):
            other = Permutation(rng.permutation(12))
            assert best.objective >= objective_of(cost, other)


class TestEquivariance:
    def test_row_permutation_maps_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cost = rng.standard_normal((7, 7))
            rho = rng.permutation(7)
            base = lap_maximize(*dense(cost))
            permuted = lap_maximize(*dense(cost[rho, :]))
            # Row i of the permuted problem is row rho(i) of the original, so the maps
            # compose, and the objectives, correctly rounded sums of the same entries, agree.
            assert permuted.objective == base.objective
            composed = Permutation(base.perm.indices[rho])
            assert objective_of(cost[rho, :], composed) == permuted.objective


def test_assignment_records_its_objective():
    cost = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = lap_maximize(*dense(cost))
    assert isinstance(result, Assignment)
    assert result.objective == objective_of(cost, result.perm)
