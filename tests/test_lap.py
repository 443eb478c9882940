import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

import shufflereg.lap
from shufflereg.estimators import build_onestep_cost
from shufflereg.experiments import sigma_for_snr
from shufflereg.lap import Assignment, assignment_objective, lap_brute_force, lap_maximize
from shufflereg.model import (
    DistributionKind,
    Permutation,
    build_canonical_signal,
    synthesize_instance,
)


def objective_of(cost, perm):
    cost = np.asarray(cost, dtype=float)
    return float(np.sum(cost[np.arange(cost.shape[0]), perm.indices]))


class TestSmallCases:
    def test_two_by_two_diagonal_dominant(self):
        # Both 2-permutations enumerated by hand: identity gives 2 + 3 = 5,
        # the swap gives 1 + 1 = 2.
        result = lap_maximize([[2.0, 1.0], [1.0, 3.0]])
        assert result.perm == Permutation.identity(2)
        assert result.objective == 5.0

    def test_one_by_one(self):
        result = lap_brute_force([[7.0]])
        assert result.perm == Permutation.identity(1)
        assert result.objective == 7.0

    def test_off_diagonal_dominant_swap(self):
        result = lap_brute_force([[0.0, 1.0], [1.0, 0.0]])
        assert result.perm == Permutation(np.array([1, 0]))
        assert result.objective == 2.0


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            lap_maximize(np.ones((2, 3)))

    def test_nan_rejected(self):
        cost = np.ones((3, 3))
        cost[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            lap_maximize(cost)

    def test_brute_force_refuses_large_inputs(self):
        with pytest.raises(ValueError, match="factorial"):
            lap_brute_force(np.ones((11, 11)))


class TestAffineInvariance:
    def test_positive_scale_and_shift_preserve_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cost = rng.standard_normal((6, 6))
            base = lap_maximize(cost)
            for alpha, beta in ((0.5, 0.0), (3.0, 4.0), (100.0, -7.5)):
                scaled = lap_maximize(alpha * cost + beta)
                assert scaled.perm == base.perm


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_objective_matches_brute_force_exactly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            cost = rng.standard_normal((n, n))
            assert lap_maximize(cost).objective == lap_brute_force(cost).objective

    def test_integer_ties_resolve_to_same_lexicographic_optimum(self):
        # Small-integer costs force exact ties; both paths must agree on the
        # lexicographically smallest optimal index map, not just the value.
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 3, size=(n, n)).astype(float)
            fast = lap_maximize(cost)
            brute = lap_brute_force(cost)
            assert fast.objective == brute.objective
            assert fast.perm == brute.perm


class TestTieBreak:
    def test_all_equal_costs_return_identity(self):
        for n in (2, 3, 5):
            assert lap_maximize(np.ones((n, n))).perm == Permutation.identity(n)

    def test_duplicate_rows(self):
        cost = np.array([[5.0, 5.0, 1.0], [5.0, 5.0, 1.0], [0.0, 0.0, 9.0]])
        result = lap_maximize(cost)
        assert result.perm == Permutation(np.array([0, 1, 2]))
        assert result.objective == 19.0


def per_candidate_canonical(cost):
    """Reference tie pass: for each row, try every smaller free column in turn.

    Forces row i to candidate column j, re-solves the rows below over the
    remaining free columns, and keeps the first j whose canonical objective
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


class TestTiePassAgainstReference:
    # Rademacher designs repeat rows, so the one-step cost has exactly equal
    # columns and the optimum is tied, as in the tie benchmark workload.
    @pytest.mark.parametrize("n,p", [(24, 3), (64, 8)])
    @pytest.mark.parametrize("snr", [10.0, None])
    def test_rademacher_one_step_costs(self, n, p, snr):
        b = build_canonical_signal(p, p, 1.0)
        sigma = 0.0 if snr is None else sigma_for_snr(b, p, snr)
        for seed in range(20):
            inst = synthesize_instance(n, p, p, n, DistributionKind.RADEMACHER, b, sigma, seed)
            cost = build_onestep_cost(inst.x, inst.y)
            expected = per_candidate_canonical(cost)
            assert np.array_equal(lap_maximize(cost).perm.indices, expected), seed

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 7).map(lambda n: (n, n)),
            elements=st.integers(-2, 2).map(float),
        )
    )
    def test_small_integer_costs_match_brute_force(self, cost):
        fast = lap_maximize(cost)
        brute = lap_brute_force(cost)
        assert fast.perm == brute.perm
        assert fast.objective == brute.objective

    def test_continuous_cost_takes_at_most_one_sub_solve_per_row(self, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return linear_sum_assignment(matrix)

        monkeypatch.setattr(shufflereg.lap, "linear_sum_assignment", counting)
        n = 64
        cost = np.random.default_rng(5).standard_normal((n, n))
        lap_maximize(cost)
        # One full solve plus at most n - 1 restricted re-solves.
        assert len(calls) <= n


class TestOptimalityCertificate:
    def test_beats_random_alternatives(self):
        rng = np.random.default_rng(7)
        cost = rng.standard_normal((12, 12))
        best = lap_maximize(cost)
        for _ in range(1000):
            other = Permutation(rng.permutation(12))
            assert best.objective >= objective_of(cost, other)


class TestEquivariance:
    def test_row_permutation_maps_optimum(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cost = rng.standard_normal((7, 7))
            rho = rng.permutation(7)
            base = lap_maximize(cost)
            permuted = lap_maximize(cost[rho, :])
            # Row i of the permuted problem is row rho(i) of the original, so
            # optimal objectives agree and the maps compose.
            assert permuted.objective == pytest.approx(base.objective, rel=1e-12)
            composed = Permutation(base.perm.indices[rho])
            assert objective_of(cost[rho, :], composed) == pytest.approx(
                permuted.objective, rel=1e-12
            )


def test_assignment_records_its_objective():
    cost = np.array([[1.0, 2.0], [3.0, 4.0]])
    result = lap_maximize(cost)
    assert isinstance(result, Assignment)
    assert result.objective == objective_of(cost, result.perm)
