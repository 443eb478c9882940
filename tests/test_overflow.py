"""The overflow rule: every value the library computes is finite or a ValueError.

Each test is one site that once printed numpy's RuntimeWarning, returned inf,
or blamed an input the caller never gave. Each runs with RuntimeWarning as an
error. It asserts that the ValueError names the quantity that overflowed or,
where the true value is a double, that this value is returned.
"""

import numpy as np
import pytest

import shufflereg.estimators
import shufflereg.lap
from shufflereg.cli import main
from shufflereg.estimators import (
    alternating_minimization,
    least_squares_signal,
    one_step_estimate,
    oracle_permutation_estimate,
)
from shufflereg.lap import lap_maximize
from shufflereg.metrics import relative_signal_error
from shufflereg.model import Permutation, require_finite

from oracles import assignment_objective, dense, lap_brute_force

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

OBJECTIVE = r"^assignment objective sum_i C\[i, pi\(i\)\] overflows float64"
START = r"^one-step matching direction X X\^T Y overflows float64$"
UNDERFLOW = r"^matching direction X D is zero or below about 2\.2e-308 in every entry$"
COST_UNDERFLOW = r"^matching cost Y \(X D\)\^T is zero or below about 2\.2e-308 in every entry$"


def pair(n=6, p=3, m=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, p)), rng.standard_normal((n, m))


class TestRequireFinite:
    def test_returns_a_finite_value_unchanged(self):
        arr = np.arange(4.0)
        assert require_finite(lambda: arr, "unused") is arr
        assert require_finite(lambda: 2.5, "unused") == 2.5

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: np.full(3, 1e308) * 10,  # overflow
            lambda: np.array([np.inf]) - np.inf,  # invalid
            lambda: np.ones(2) / 0.0,  # divide by zero
            lambda: float(np.sum(np.full(3, 1e308))),  # a float, not an array
        ],
    )
    def test_non_finite_is_the_message_without_a_warning(self, compute):
        with pytest.raises(ValueError, match="^the quantity overflows$"):
            require_finite(compute, "the quantity overflows")


class TestAssignmentObjective:
    def test_lap_maximize_raises_before_the_tie_pass(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the tie pass ran on an overflowing objective")

        monkeypatch.setattr(shufflereg.lap, "_reduced_costs", unreachable)
        factor = np.full((30, 1), 1e154)
        with pytest.raises(ValueError, match=OBJECTIVE):
            lap_maximize(factor, factor)
        with pytest.raises(ValueError, match=OBJECTIVE):
            lap_maximize(*dense(factor @ factor.T))

    def test_assignment_objective(self):
        with pytest.raises(ValueError, match=OBJECTIVE):
            assignment_objective(np.full((3, 3), 1e308), np.arange(3))

    def test_brute_force(self):
        with pytest.raises(ValueError, match=OBJECTIVE):
            lap_brute_force(np.full((3, 3), 1e308))

    def test_ties_near_the_double_range_keep_the_lexicographic_optimum(self):
        # 41 max|C| passes the double range, so the tie pass checks every trial sum; none overflows.
        n = 40
        cost = np.zeros((n, n))
        cost[:, :10] = np.random.default_rng(3).integers(0, 2, (n, 10))
        scale = 2.0**1019
        plain, scaled = lap_maximize(*dense(cost)), lap_maximize(*dense(cost * scale))
        assert scaled.perm == plain.perm
        assert scaled.objective == plain.objective * scale

    def test_tie_test_whose_difference_overflows(self):
        # The optimum sums to 0, but C[0, 0] - C[0, 1] = 2e308 in the tie test.
        cost = np.array([[1e308, -1e308], [0.0, -1e308]])
        with pytest.raises(ValueError, match="^assignment tie test overflows float64"):
            lap_maximize(*dense(cost))


class TestEstimators:
    def test_oracle_matching_direction(self):
        x, y = pair()
        b = np.full((3, 2), 1e308)
        message = "^oracle matching direction X B overflows float64$"
        with pytest.raises(ValueError, match=message):
            oracle_permutation_estimate(x, y, b)

    def test_alternating_minimization_default_start(self):
        x, y = pair(n=40, p=3, m=3)
        with pytest.raises(ValueError, match=START):
            alternating_minimization(x * 1e154, y * 1e154, max_iters=0)

    def test_alternating_minimization_start_direction(self):
        # X^T Y is about 1e170 and finite; its direction X X^T Y is about 1e320.
        x, y = pair(n=40, p=3, m=3)
        x, y = x * 1e150, y * 1e20
        assert np.all(np.isfinite(x.T @ y))
        with pytest.raises(ValueError, match=START):
            alternating_minimization(x, y, max_iters=0)

    @pytest.mark.parametrize(
        "estimate",
        [one_step_estimate, lambda x, y: alternating_minimization(x, y, max_iters=0)],
        ids=["one_step", "alt_min"],
    )
    def test_one_step_and_alternating_minimization_share_the_start(self, estimate):
        # X^T Y is about 1e100 and Y Y^T X about 1e-50, but X X^T Y is about 1e350: both
        # estimators match on the direction X X^T Y, so both refuse the pair.
        x, y = pair(n=20, p=2, m=2)
        with pytest.raises(ValueError, match=START):
            estimate(x * 1e250, y * 1e-150)

    @pytest.mark.parametrize("scale_x,scale_y", [(1e-175, 1e25), (1e-200, 1e50), (1e-225, 1e75)])
    @pytest.mark.parametrize(
        "estimate",
        [
            one_step_estimate,
            lambda x, y: oracle_permutation_estimate(x, y, x.T @ y),
            lambda x, y: alternating_minimization(x, y, max_iters=3),
        ],
        ids=["one_step", "oracle", "alt_min"],
    )
    def test_matching_direction_that_underflows(self, estimate, scale_x, scale_y):
        # X^T Y is about 1e-150, and X X^T Y about 1e-325 rounds to zero: the cost would be
        # zero, every matching tied, and the identity returned with objective 0.
        x, y = pair(n=20, p=2, m=2)
        with pytest.raises(ValueError, match=UNDERFLOW):
            estimate(x * scale_x, y * scale_y)

    @pytest.mark.parametrize("scale_x,scale_y", [(1e-60, 1e-103), (1e-100, 1e-80)])
    @pytest.mark.parametrize(
        "estimate",
        [
            one_step_estimate,
            lambda x, y: oracle_permutation_estimate(x, y, x.T @ y),
            lambda x, y: alternating_minimization(x, y, max_iters=3),
        ],
        ids=["one_step", "oracle", "alt_min"],
    )
    def test_matching_cost_that_underflows(self, estimate, scale_x, scale_y):
        # X X^T Y is a normal double (about 1e-223 and 1e-280), but C = Y (X X^T Y)^T, about
        # 1e-326 and 1e-360, rounds to zero: every matching would tie on objective 0.
        x, y = pair(n=20, p=2, m=2)
        with pytest.raises(ValueError, match=COST_UNDERFLOW):
            estimate(x * scale_x, y * scale_y)

    def test_zero_objective_of_normal_entries_is_a_match(self):
        # C = diag(1, -1): both matchings sum to exactly 0 from normal entries, so the cost is
        # formed again, found to hold a normal entry, and the tie goes to the identity.
        est = oracle_permutation_estimate(np.eye(2), np.eye(2), np.diag([1.0, -1.0]))
        assert est.objective == 0.0
        assert est.perm_hat == Permutation(np.arange(2))

    def test_cost_with_a_normal_objective_is_not_formed_again(self, monkeypatch):
        # Only an objective below n * 2.2e-308 in magnitude sends the n x n cost to the scan.
        checked = []
        scan = shufflereg.estimators._no_normal_entry
        monkeypatch.setattr(
            shufflereg.estimators, "_no_normal_entry", lambda arr: checked.append(arr.shape) or scan(arr)
        )
        one_step_estimate(*pair(n=20, p=2, m=2))
        assert checked == [(20, 2)]

    def test_matching_direction_of_exactly_orthogonal_data(self):
        # Y is orthogonal to the columns of X, so X^T Y and X X^T Y are exactly zero.
        x = np.vstack([np.eye(2), np.zeros((2, 2))])
        y = np.array([[0.0], [0.0], [1.0], [-1.0]])
        with pytest.raises(ValueError, match=UNDERFLOW):
            one_step_estimate(x, y)

    def test_least_squares_signal(self):
        x, y = pair(n=40, p=3, m=3)
        with pytest.raises(ValueError, match="^least-squares signal estimate B_hat overflows float64"):
            least_squares_signal(x * 1e-300, y * 1e300, Permutation(np.arange(40)))

    def test_alternating_minimization_residual_is_its_finite_value(self):
        # The start X^T Y is about 1e60, the direction X X^T Y about 1e-40 and B_hat about
        # 1e260, so the residual is about 1e160: its square, and the plain norm, overflowed to inf.
        x, y = pair()
        unscaled = alternating_minimization(x, y, max_iters=0)
        result = alternating_minimization(x * 1e-100, y * 1e160, max_iters=0)
        assert result.perm_hat == unscaled.perm_hat
        assert np.allclose(result.b_hat, unscaled.b_hat * 1e260, rtol=1e-12, atol=0)
        expected = unscaled.trace[0].residual * 1e160
        assert result.trace[0].residual == pytest.approx(expected, rel=1e-12)


class TestMetrics:
    def test_relative_signal_error_of_an_overflowing_difference_is_its_finite_value(self):
        b = np.full((2, 2), 1e308)
        assert relative_signal_error(b, -b) == 2.0

    def test_relative_signal_error_past_the_double_range(self):
        with pytest.raises(ValueError, match=r"^relative signal error .* overflows float64$"):
            relative_signal_error(np.full((2, 2), 1e300), np.full((2, 2), 1e-300))


def test_simulate_with_an_overflowing_objective_reports_failed_trials(tmp_path, capsys):
    # sigma = 1e154: one trial's cost product Y Y^T X X^T overflows, the other's optimal
    # assignment sum.
    config = tmp_path / "sweep.cfg"
    config.write_text("n = 30\np = 1\nm = 1\nh = 0\ntrials = 2\nsnr_grid = 1e-308\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "snr=1e-308 sigma=1e+154 recovery_rate=0 mean_hamming=nan trials=2 failures=2 "
        "first_error=cost matrix left @ right.T has NaN or infinite entries: the product of "
        "finite factors overflows float64 (above about 1.8e308); rescale the inputs\n"
    )
