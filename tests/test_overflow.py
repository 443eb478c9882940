"""The overflow rule: every value the library computes is finite or a ValueError.

Each test is one site that once printed numpy's RuntimeWarning, returned inf,
or blamed an input the caller never gave. Each runs with RuntimeWarning as an
error. It asserts that the ValueError names the quantity that overflowed or,
where the true value is a double, that this value is returned.
"""

import numpy as np
import pytest

import shufflereg.lap
from shufflereg.cli import main
from shufflereg.estimators import (
    alternating_minimization,
    least_squares_signal,
    oracle_permutation_estimate,
    reduce_known_direction,
)
from shufflereg.lap import assignment_objective, lap_brute_force, lap_maximize
from shufflereg.metrics import relative_signal_error
from shufflereg.model import Permutation, require_finite

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

OBJECTIVE = r"^assignment objective sum_i C\[i, pi\(i\)\] overflows float64"


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

        monkeypatch.setattr(shufflereg.lap, "_tied_components", unreachable)
        factor = np.full((30, 1), 1e154)
        with pytest.raises(ValueError, match=OBJECTIVE):
            lap_maximize(factor, factor)
        with pytest.raises(ValueError, match=OBJECTIVE):
            lap_maximize(factor @ factor.T)

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
        plain, scaled = lap_maximize(cost), lap_maximize(cost * scale)
        assert scaled.perm == plain.perm
        assert scaled.objective == plain.objective * scale

    def test_tie_test_whose_difference_overflows(self):
        # The optimum sums to 0, but C[0, 0] - C[0, 1] = 2e308 in the tie test.
        cost = np.array([[1e308, -1e308], [0.0, -1e308]])
        with pytest.raises(ValueError, match="^assignment tie test overflows float64"):
            lap_maximize(cost)


class TestEstimators:
    def test_oracle_matching_direction(self):
        x, y = pair()
        b = np.full((3, 2), 1e308)
        message = "^oracle matching direction X B overflows float64$"
        with pytest.raises(ValueError, match=message):
            oracle_permutation_estimate(x, y, b)
        with pytest.raises(ValueError, match=message):
            alternating_minimization(x, y, init_b=b, max_iters=0)

    def test_alternating_minimization_default_start(self):
        x, y = pair(n=40, p=3, m=3)
        with pytest.raises(ValueError, match=r"^alternating-minimization start X\^T Y overflows float64$"):
            alternating_minimization(x * 1e154, y * 1e154, max_iters=0)

    def test_least_squares_signal(self):
        x, y = pair(n=40, p=3, m=3)
        with pytest.raises(ValueError, match="^least-squares signal estimate B_hat overflows float64"):
            least_squares_signal(x * 1e-300, y * 1e300, Permutation.identity(40))

    def test_reduce_known_direction(self):
        with pytest.raises(ValueError, match="^projection X e overflows float64$"):
            reduce_known_direction(np.full((5, 3), 1.5e308), (0.6, 0.8, 0.0))

    def test_alternating_minimization_residual_is_its_finite_value(self):
        # The residual is about 1e160, so its square, and the plain norm, overflowed to inf.
        x, y = pair()
        init_b = np.full((3, 2), 1e-200)
        unscaled = alternating_minimization(x, y, init_b=init_b, max_iters=0).trace[0].residual
        result = alternating_minimization(x, y * 1e160, init_b=init_b, max_iters=0)
        assert result.trace[0].residual == pytest.approx(unscaled * 1e160, rel=1e-12)


class TestMetrics:
    def test_relative_signal_error_of_an_overflowing_difference_is_its_finite_value(self):
        b = np.full((2, 2), 1e308)
        assert relative_signal_error(b, -b) == 2.0

    def test_relative_signal_error_past_the_double_range(self):
        with pytest.raises(ValueError, match=r"^relative signal error .* overflows float64$"):
            relative_signal_error(np.full((2, 2), 1e300), np.full((2, 2), 1e-300))


def test_simulate_with_an_overflowing_objective_reports_failed_trials(tmp_path, capsys):
    # sigma = 1e154: one trial's cost factor overflows, the other's optimal assignment sum.
    config = tmp_path / "sweep.cfg"
    config.write_text("n = 30\np = 1\nm = 1\nh = 0\ntrials = 2\nsnr_grid = 1e-308\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "snr=1e-308 sigma=1e+154 recovery_rate=0 mean_hamming=nan trials=2 failures=2\n"
    )
