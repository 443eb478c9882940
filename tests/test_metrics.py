import copy
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shufflereg.experiments import ExperimentConfig, sigma_for_snr
from shufflereg.metrics import (
    NOISELESS,
    NoiselessMarker,
    RegimeLabel,
    classify_regime,
    hamming_distance,
    logdet_ratio,
    minimax_logdet_threshold,
    relative_signal_error,
    snr,
    stable_rank,
)
from shufflereg.model import Permutation, build_canonical_signal


LOGDET_OVERFLOW = (
    r"^log-det ratio at sigma=\S+: a singular value of B / sigma passes about 1\.3e154 "
    r"and its square overflows double precision$"
)


def assert_logdet_matches_log_space_svd(b, sigma, count=None):
    """logdet_ratio(B, sigma, 100) against a log-space sum over the ``count`` largest singular
    values of B, from the SVD of B over a power of two; or the named error, when one of
    those B / sigma ratios passes about 1.3e154."""
    exponent = math.frexp(float(np.abs(b).max()))[1]
    svals = np.linalg.svd(np.ldexp(b, -exponent), compute_uv=False)[:count]
    log_ratios = np.log(svals) + exponent * math.log(2.0) - math.log(sigma)
    try:
        value = logdet_ratio(b, sigma, 100)
    except ValueError as err:
        assert re.match(LOGDET_OVERFLOW, str(err))
        assert log_ratios.max() > math.log(1.3e154)
        return
    expected = float(np.sum(np.logaddexp(0.0, 2.0 * log_ratios)) / math.log(100))
    assert value == pytest.approx(expected, rel=1e-9, abs=0.0)


def svd_stable_rank(b):
    """||B||_F^2 / sigma_1^2 from the singular values, each over sigma_1 so no square overflows."""
    svals = np.linalg.svd(b, compute_uv=False)
    return float(np.sum((svals / svals[0]) ** 2))


class TestHammingDistance:
    def test_identity_to_itself_is_zero(self):
        ident = Permutation(np.arange(4))
        assert hamming_distance(ident, ident) == 0

    def test_single_swap_is_two(self):
        assert hamming_distance(Permutation(np.array([1, 0, 2])), Permutation(np.arange(3))) == 2

    def test_three_cycles_disagree_everywhere(self):
        # Positionwise count: (1,2,0) vs (2,0,1) differ at all three slots.
        a = Permutation(np.array([1, 2, 0]))
        b = Permutation(np.array([2, 0, 1]))
        assert hamming_distance(a, b) == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            hamming_distance(Permutation(np.arange(3)), Permutation(np.arange(4)))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = Permutation(rng.permutation(n))
            b = Permutation(rng.permutation(n))
            c = Permutation(rng.permutation(n))
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert (hamming_distance(a, b) == 0) == (a == b)
            assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestStableRank:
    def test_canonical_signal(self):
        assert stable_rank(build_canonical_signal(50, 5, 1.0)) == pytest.approx(5.0)

    def test_rank_one_outer_product(self):
        u = np.array([[1.0], [2.0], [-1.0]])
        v = np.array([[3.0, 0.5]])
        assert stable_rank(u @ v) == pytest.approx(1.0)

    def test_diagonal_two_one(self):
        # From the definition: ||B||_F^2 = 4 + 1 = 5 and ||B||_op^2 = 4.
        assert stable_rank(np.diag([2.0, 1.0])) == pytest.approx(5.0 / 4.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero matrix"):
            stable_rank(np.zeros((2, 2)))

    def test_bounds_against_svd_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            b = rng.standard_normal((p, m))
            svals = np.linalg.svd(b, compute_uv=False)
            rank = int(np.sum(svals > 1e-12 * svals[0]))
            sr = stable_rank(b)
            assert 1.0 - 1e-12 <= sr <= rank + 1e-9
            assert sr == pytest.approx(float(np.sum(svals**2) / svals[0] ** 2))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        length=st.integers(1, 40),
        single_row=st.booleans(),
    )
    def test_single_row_or_column_is_at_least_one(self, data, length, single_row):
        # Rank one: the two norms agree exactly, and the computed ratio must not round below 1.
        b = data.draw(
            hnp.arrays(
                np.float64,
                (1, length) if single_row else (length, 1),
                elements=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            )
        )
        assume(np.any(b != 0))
        sr = stable_rank(b)
        assert 1.0 <= sr <= 1.0 + 1e-12

    def test_rank_one_outer_product_is_exactly_one(self):
        # Its trailing singular values are roundoff, about eps * s_1, and count as 0, so the ratio is 1
        # exactly; with the roundoff eigenvalue of B^T B it reads 1.0000000000000002.
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        assert stable_rank(np.outer(u, v)) == 1.0

    def test_gaussian_column_that_rounded_below_one(self):
        # An eigvalsh top eigenvalue an ulp above ||b||_F^2 once gave 0.9999999999999999.
        b = np.random.default_rng(0).standard_normal((11, 1))
        assert stable_rank(b) == 1.0
        assert stable_rank(b.T) == 1.0

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (2, 39), (17, 5), (40, 40), (2001, 3), (3, 2500), (300, 2001)],
        ids=lambda shape: f"{shape[0]}x{shape[1]}",
    )
    def test_operator_norm_agrees_with_svd(self, shape):
        # ||B||_op is computed only inside stable_rank, so the operator-norm tests check it there.
        b = np.random.default_rng(3).standard_normal(shape)
        assert stable_rank(b) == pytest.approx(svd_stable_rank(b), rel=1e-12)

    def test_operator_norm_of_diagonal(self):
        for diagonal, exact in (([3.0, 1.0], 10.0 / 9.0), ([1.0, -4.0, 2.0], 21.0 / 16.0)):
            b = np.diag(diagonal)
            assert svd_stable_rank(b) == pytest.approx(exact, rel=1e-15)
            assert stable_rank(b) == pytest.approx(exact, rel=1e-12)

    def test_operator_norm_at_extreme_scales(self):
        # Squaring these entries would overflow or underflow a float64.
        for diagonal, exact in (([1e200, 5e199], 1.25), ([1e-170, -2e-170, 1e-170], 1.5)):
            b = np.diag(diagonal)
            assert svd_stable_rank(b) == pytest.approx(exact, rel=1e-15)
            assert stable_rank(b) == pytest.approx(exact, rel=1e-12)


class TestSnr:
    def test_direct_substitution(self):
        b = np.ones((1, 5))  # ||B||_F^2 = 5 over m = 5 columns
        assert snr(b, 1.0) == pytest.approx(1.0)

    def test_canonical_with_small_sigma(self):
        assert snr(build_canonical_signal(50, 5, 1.0), 0.1) == pytest.approx(100.0)

    def test_noiseless_marker_dominates_everything(self):
        marker = snr(np.ones((2, 2)), 0.0)
        assert isinstance(marker, NoiselessMarker)
        assert marker is NOISELESS
        assert marker > 1e300
        assert not (marker < 1e300)
        assert marker >= marker and marker <= marker
        assert float(marker) == math.inf
        # The marker is +inf itself: same value, hash and formatting, own repr.
        assert marker == math.inf and hash(marker) == hash(math.inf)
        assert repr(marker) == "noiseless"
        assert f"{marker:.6g}" == "inf"
        assert sigma_for_snr(np.ones((2, 2)), 2, marker) == 0.0

    @pytest.mark.parametrize(
        "roundtrip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    )
    def test_noiseless_marker_survives_copy_and_pickle(self, roundtrip):
        assert roundtrip(NOISELESS) is NOISELESS

    def test_deep_copied_config_keeps_the_marker(self):
        cfg = ExperimentConfig(n=10, p=2, m=2, h=2, snr_grid=(1.0, NOISELESS))
        assert copy.deepcopy(cfg).snr_grid[1] is NOISELESS

    def test_scaling_laws(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((3, 4))
        base = snr(b, 0.7)
        assert snr(2.5 * b, 0.7) == pytest.approx(2.5**2 * base)
        assert snr(b, 3.0 * 0.7) == pytest.approx(base / 9.0)

    def test_extreme_scales(self):
        # ||B||_F^2 = 2e308 and m * sigma^2 = 1e-340 are out of range; the ratios are not.
        assert snr(np.diag([1e154, 1e154]), 1.0) == pytest.approx(1e308, rel=1e-15)
        assert snr(np.array([[1e-170]]), 1e-170) == pytest.approx(1.0, rel=1e-15)
        assert snr(np.array([[1.7e308]]), 1e155) == pytest.approx(2.89e306, rel=1e-15)

    def test_inverse_count_past_double_range_is_value_error(self):
        # float(m) overflows above 1.8e308; the message gives its size, not its 401 digits.
        with pytest.raises(ValueError) as err:
            sigma_for_snr(np.eye(2), 10**400, 1.0)
        assert str(err.value) == "m of about 1e400 overflows double precision"
        assert sigma_for_snr(np.eye(2), 10**300, 1e-300) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("b,sigma", [([[1.0]], 1e-200), ([[1e155, 0], [0, 1e155]], 1.0)])
    def test_overflow_is_rejected(self, b, sigma):
        with pytest.raises(ValueError, match="overflows double precision"):
            snr(np.array(b), sigma)

    def test_underflow_rounds_to_zero(self):
        assert snr(np.array([[1e-200]]), 1e10) == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="sigma"):
            snr(np.ones((2, 2)), -1.0)
        with pytest.raises(ValueError, match=r"^sigma must be >= 0, got nan$"):
            snr(np.ones((2, 2)), math.nan)


class TestLogdetRatio:
    def test_identity_gram_matrix(self):
        # B^T B = I_m, sigma = 1: every eigenvalue contributes log 2.
        for m, n in ((2, 100), (5, 500)):
            b = build_canonical_signal(10, m, 1.0)
            assert logdet_ratio(b, 1.0, n) == pytest.approx(m * math.log(2.0) / math.log(n))

    def test_vanishes_for_huge_sigma(self):
        b = build_canonical_signal(4, 3, 1.0)
        assert logdet_ratio(b, 1e6, 100) < 1e-6

    def test_equal_singular_values_closed_form(self):
        # With all nonzero singular values equal, logdet(I + B^T B / s^2)
        # equals srank * log(1 + ||B||_F^2 / (srank * s^2)) exactly; for the
        # canonical signal with m = srank this is srank * log(1 + snr).
        b = build_canonical_signal(40, 8, 1.7)
        sigma = 0.31
        sr = stable_rank(b)
        closed = sr * math.log1p(float(np.sum(b * b)) / (sr * sigma**2))
        assert logdet_ratio(b, sigma, 1000) * math.log(1000) == pytest.approx(
            closed, rel=1e-12
        )
        assert closed == pytest.approx(sr * math.log1p(snr(b, sigma)), rel=1e-12)

    def test_monotone_decreasing_in_sigma(self):
        b = np.array([[1.0, 0.2], [0.0, 2.0]])
        values = [logdet_ratio(b, s, 50) for s in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert all(a > c for a, c in zip(values, values[1:]))

    def test_increases_when_appending_nonzero_column(self):
        b = np.array([[1.0], [0.5]])
        wider = np.hstack([b, np.array([[0.3], [-0.2]])])
        assert logdet_ratio(wider, 1.0, 50) > logdet_ratio(b, 1.0, 50)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            logdet_ratio(np.ones((2, 2)), 0.0, 10)

    def test_nan_sigma_is_refused(self):
        with pytest.raises(ValueError, match=r"^sigma must be > 0 for the log-det ratio, got nan$"):
            logdet_ratio(np.ones((2, 2)), math.nan, 10)

    def test_gram_matrix_below_the_double_range(self):
        # B^T B has entries near 1e-340, which underflow; (B / sigma)^T (B / sigma) does not.
        value = logdet_ratio(np.diag([1e-170, 2e-170]), 1e-40, 100)
        assert value == pytest.approx((1e-260 + 4e-260) / math.log(100), rel=1e-14, abs=0.0)

    def test_gram_matrix_above_the_double_range(self):
        # B^T B has entries near 1e400; the ratios 1e200 and 1e198 are in range.
        value = logdet_ratio(np.diag([1e200, 1e199]), 1e100, 500)
        assert value == pytest.approx((math.log1p(1e200) + math.log1p(1e198)) / math.log(500), rel=1e-15)

    def test_rank_two_signal_far_above_the_noise(self):
        # Singular values 1 and 1e-4 at sigma = 1e-9. B^T B squares the condition number to 1e8,
        # and its roundoff eigenvalue, about eps, would add a third term (rel error 2.3e-2).
        rng = np.random.default_rng(1)
        q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        b = q1[:, :2] @ np.diag([1.0, 1e-4]) @ q2[:, :2].T
        expected = (math.log1p(1e18) + math.log1p(1e10)) / math.log(500)
        assert logdet_ratio(b, 1e-9, 500) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_squared_ratio_past_the_double_range_names_b_over_sigma(self):
        # Singular values of B / sigma near 1e308: their squares overflow, and eigvalsh once
        # failed to converge on the overflowed Gram matrix of B itself.
        b = np.random.default_rng(0).standard_normal((6, 7)) * 2.7e307
        with pytest.raises(ValueError, match=LOGDET_OVERFLOW):
            logdet_ratio(b, 0.5, 500)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        singular_values=st.lists(st.floats(1.0, 8.0), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        b_exponent=st.integers(-307, 307),
        data=st.data(),
    )
    def test_full_rank_matches_log_space_svd_at_any_scale(
        self, shape, singular_values, seed, b_exponent, data
    ):
        # B / sigma spans about 1e-150 to 1e161: every squared ratio stays above the subnormal
        # range, where a result keeps few digits, and the largest pass the double range.
        sigma_exponent = data.draw(st.integers(max(-307, b_exponent - 160), min(307, b_exponent + 150)))
        rng = np.random.default_rng(seed)
        k = min(shape)
        left = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
        right = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
        b = (left * singular_values[:k]) @ right.T * 10.0**b_exponent
        assert_logdet_matches_log_space_svd(b, 10.0**sigma_exponent)

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 8), st.integers(2, 8)),
        singular_values=st.lists(
            st.floats(1e-6, 1.0, exclude_min=True), min_size=6, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
        b_exponent=st.integers(-150, 150),
        data=st.data(),
    )
    def test_rank_deficient_counts_only_its_rank(
        self, shape, singular_values, seed, b_exponent, data
    ):
        # A rank-r product, r < min(p, m), with s_r / s_1 above 1e-6: its roundoff singular
        # values are not signal, so the log-det sums over the top r values alone. The squared
        # ratios stay above the subnormal range, and the largest pass the double range.
        rank = data.draw(st.integers(1, min(shape) - 1))
        sigma_exponent = data.draw(st.integers(max(-307, b_exponent - 160), b_exponent + 140))
        rng = np.random.default_rng(seed)
        left = np.linalg.qr(rng.standard_normal((shape[0], rank)))[0]
        right = np.linalg.qr(rng.standard_normal((shape[1], rank)))[0]
        b = (left * ([1.0] + singular_values[: rank - 1])) @ right.T * 10.0**b_exponent
        assert_logdet_matches_log_space_svd(b, 10.0**sigma_exponent, rank)


class TestMinimaxThreshold:
    def test_matches_direct_log_factorial(self):
        for n in (2, 5, 20, 100):
            direct = sum(math.log(k) for k in range(1, n + 1))
            assert minimax_logdet_threshold(n) == pytest.approx((direct - 2.0) / n, rel=1e-12)

    def test_stable_for_large_n(self):
        value = minimax_logdet_threshold(10**6)
        assert math.isfinite(value)
        # log n! / n ~ log n - 1 by Stirling.
        assert value == pytest.approx(math.log(1e6) - 1.0, rel=1e-3)

    @pytest.mark.parametrize("n", [3 * 10**305, 10**400], ids=["lgamma-range", "float-range"])
    def test_overflow_is_value_error_without_the_digits(self, n):
        # lgamma overflows above n ~ 2.5e305, and n itself leaves the double range at 1.8e308.
        with pytest.raises(ValueError, match=r"^log n! overflows double precision at n of about 1e") as err:
            minimax_logdet_threshold(n)
        assert len(str(err.value)) < 80


class TestRegimeClassification:
    def test_below_c0_is_unknown(self):
        assert classify_regime(1.5, 1000) is RegimeLabel.UNKNOWN

    def test_left_closed_easy_boundary(self):
        n = 100
        boundary = math.log(n) ** 4
        assert classify_regime(boundary, n) is RegimeLabel.EASY
        assert classify_regime(boundary - 1e-9, n) is RegimeLabel.MEDIUM

    def test_hard_band(self):
        # log(1e6) ~ 13.8, so srank 5 sits in [c0, log n), and c0 = 2 is its closed end.
        assert classify_regime(5.0, 10**6) is RegimeLabel.HARD
        assert classify_regime(2.0, 10**6) is RegimeLabel.HARD
        assert classify_regime(math.nextafter(2.0, 0.0), 10**6) is RegimeLabel.UNKNOWN

    def test_medium_band(self):
        n = 10**6
        assert classify_regime(20.0, n) is RegimeLabel.MEDIUM
        assert classify_regime(math.log(n), n) is RegimeLabel.MEDIUM
        assert classify_regime(math.nextafter(math.log(n), 0.0), n) is RegimeLabel.HARD

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_below_n_8_is_unknown(self, n):
        # log n < c0 = 2, so c1 log n < c0 empties the hard band and the bands fall out of order.
        for srank in (1.0, 2.0, math.log(n), math.log(n) ** 4, 1e6):
            assert classify_regime(srank, n) is RegimeLabel.UNKNOWN

    def test_n_8_keeps_every_band(self):
        n = 8  # log 8 ~ 2.08: the smallest n with log n >= c0
        assert classify_regime(math.nextafter(2.0, 0.0), n) is RegimeLabel.UNKNOWN
        assert classify_regime(2.0, n) is RegimeLabel.HARD
        assert classify_regime(math.log(n), n) is RegimeLabel.MEDIUM
        assert classify_regime(math.log(n) ** 4, n) is RegimeLabel.EASY

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            classify_regime(0.5, 100)
        with pytest.raises(ValueError):
            classify_regime(2.0, 2)


class TestRelativeSignalError:
    def test_exact_match_is_zero(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert relative_signal_error(b, b) == 0.0

    def test_double_is_one(self):
        b = np.array([[1.0], [2.0]])
        assert relative_signal_error(2.0 * b, b) == pytest.approx(1.0)

    def test_zero_estimate_is_one(self):
        b = np.array([[1.0], [2.0]])
        assert relative_signal_error(np.zeros_like(b), b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            relative_signal_error(np.ones((2, 2)), np.ones((2, 3)))

    def test_error_whose_squares_overflow(self):
        # ||B_hat - B||_F^2 is about 1.25e308 * 1e0 and overflowed to inf with a RuntimeWarning.
        b_hat, b = np.array([[1e154, -5e153]]), np.array([[1.0, 0.0]])
        assert relative_signal_error(b_hat, b) == pytest.approx(math.hypot(1e154 - 1.0, 5e153), rel=1e-15)
        assert relative_signal_error(np.array([[1e-170]]), np.array([[2e-170]])) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 6)))
    def test_equals_the_plain_ratio_where_it_stays_in_range(self, data, shape):
        # Magnitudes in [1e-100, 1e100] or 0: no square or sum of squares leaves the normal range.
        magnitude = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))
        elements = st.builds(lambda v, sign: sign * v, magnitude, st.sampled_from([1.0, -1.0]))
        b_hat = data.draw(hnp.arrays(np.float64, shape, elements=elements))
        b = data.draw(hnp.arrays(np.float64, shape, elements=elements))
        assume(np.any(b != 0))
        plain = float(np.linalg.norm(b_hat - b)) / float(np.linalg.norm(b))
        assert relative_signal_error(b_hat, b) == plain
