import numpy as np
import pytest

from shufflereg.metrics import hamming_distance, stable_rank
from shufflereg.model import (
    DistributionKind,
    Permutation,
    apply_permutation,
    build_canonical_signal,
    sample_design_matrix,
    sample_permutation_with_hamming_weight,
    synthesize_instance,
)

GAUSSIAN = DistributionKind.GAUSSIAN
UNIFORM = DistributionKind.UNIFORM
RADEMACHER = DistributionKind.RADEMACHER


class TestDistributionKind:
    def test_log_concavity_flags(self):
        assert GAUSSIAN.is_log_concave
        assert UNIFORM.is_log_concave
        assert not RADEMACHER.is_log_concave

    def test_variances(self):
        assert GAUSSIAN.variance == 1.0
        assert UNIFORM.variance == pytest.approx(1.0 / 3.0)
        assert RADEMACHER.variance == 1.0

    def test_from_name(self):
        assert DistributionKind.from_name(" Gaussian ") is GAUSSIAN
        with pytest.raises(ValueError, match="unknown distribution"):
            DistributionKind.from_name("cauchy")


class TestSampleDesignMatrix:
    def test_rademacher_support(self):
        x = sample_design_matrix(2, 2, RADEMACHER, seed=5)
        assert set(np.unique(x)) <= {-1.0, 1.0}
        x = sample_design_matrix(200, 3, RADEMACHER, seed=6)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_gaussian_moments_large_sample(self):
        x = sample_design_matrix(10_000, 1, GAUSSIAN, seed=1)
        assert -0.05 <= x.mean() <= 0.05
        assert 0.9 <= x.var() <= 1.1

    def test_uniform_variance_large_sample(self):
        # Var = (1/2) * integral_{-1}^{1} z^2 dz = 1/3.
        x = sample_design_matrix(10_000, 1, UNIFORM, seed=2)
        assert 0.30 <= x.var() <= 0.37

    def test_moments_at_five_sigma(self):
        # Mean has sd sigma/sqrt(n); the variance estimate has sd
        # sqrt((mu4 - var^2)/n): 2/n for Gaussian, (1/5 - 1/9)/n for Uniform.
        # For Rademacher the sample variance is exactly 1 - mean^2, so its
        # deviation is bounded by the squared 5-sigma mean bound.
        n = 100_000
        for dist, var, var_tol in (
            (GAUSSIAN, 1.0, 5 * np.sqrt(2.0 / n)),
            (UNIFORM, 1.0 / 3.0, 5 * np.sqrt((0.2 - 1.0 / 9.0) / n)),
            (RADEMACHER, 1.0, 25.0 / n),
        ):
            x = sample_design_matrix(n, 1, dist, seed=3)
            assert abs(x.mean()) <= 5 * np.sqrt(dist.variance / n)
            assert abs(x.var() - var) <= var_tol

    def test_deterministic_in_seed(self):
        a = sample_design_matrix(50, 4, GAUSSIAN, seed=11)
        b = sample_design_matrix(50, 4, GAUSSIAN, seed=11)
        c = sample_design_matrix(50, 4, GAUSSIAN, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n,p", [(0, 3), (3, 0), (0, 0)])
    def test_zero_dimension_rejected(self, n, p):
        with pytest.raises(ValueError, match="positive"):
            sample_design_matrix(n, p, GAUSSIAN, seed=0)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation(np.array([0, 0, 2]))
        with pytest.raises(ValueError, match="out of range"):
            Permutation(np.array([0, 3, 1]))

    def test_identity_and_equality(self):
        assert Permutation.identity(4) == Permutation(np.arange(4))
        assert Permutation(np.array([1, 0])) != Permutation.identity(2)

    def test_apply_identity_is_noop(self):
        m = np.arange(12, dtype=float).reshape(4, 3)
        assert np.array_equal(apply_permutation(Permutation.identity(4), m), m)

    def test_apply_swap_convention(self):
        # Output row i is input row pi(i): pi = (1, 0) on [[1], [2]] -> [[2], [1]].
        swapped = apply_permutation(Permutation(np.array([1, 0])), [[1.0], [2.0]])
        assert np.array_equal(swapped, [[2.0], [1.0]])

    def test_apply_preserves_frobenius_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            perm = Permutation(rng.permutation(n))
            m = rng.standard_normal((n, int(rng.integers(1, 5))))
            assert np.linalg.norm(perm.apply(m)) == pytest.approx(np.linalg.norm(m))

    def test_inverse_roundtrip_on_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            perm = Permutation(rng.permutation(n))
            m = rng.standard_normal((n, 3))
            assert np.array_equal(perm.inverse().apply(perm.apply(m)), m)
            assert np.array_equal(perm.apply(perm.inverse().apply(m)), m)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            apply_permutation(Permutation.identity(3), np.ones((4, 2)))


class TestPermutationSampling:
    def test_zero_weight_is_identity(self):
        assert sample_permutation_with_hamming_weight(5, 0, seed=0).is_identity()

    def test_weight_two_is_a_transposition(self):
        perm = sample_permutation_with_hamming_weight(5, 2, seed=0)
        assert hamming_distance(perm, Permutation.identity(5)) == 2
        assert perm == perm.inverse()

    def test_weight_one_is_impossible(self):
        with pytest.raises(ValueError, match="one displaced point"):
            sample_permutation_with_hamming_weight(5, 1, seed=0)

    def test_weight_above_n_rejected(self):
        with pytest.raises(ValueError, match=r"h must lie"):
            sample_permutation_with_hamming_weight(5, 6, seed=0)

    @pytest.mark.parametrize("n,h", [(5, 0), (5, 2), (6, 6), (40, 17), (200, 50), (9, 9)])
    def test_exact_hamming_weight(self, n, h):
        for seed in range(5):
            perm = sample_permutation_with_hamming_weight(n, h, seed=seed)
            displaced = int(np.count_nonzero(perm.indices != np.arange(n)))
            assert displaced == h

    def test_deterministic_in_seed(self):
        a = sample_permutation_with_hamming_weight(30, 10, seed=3)
        b = sample_permutation_with_hamming_weight(30, 10, seed=3)
        assert a == b


class TestCanonicalSignal:
    def test_unit_basis_columns(self):
        b = build_canonical_signal(3, 2, 1.0)
        assert np.array_equal(b, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.sum(b * b) == pytest.approx(2.0)

    def test_stable_rank_is_min_of_dims(self):
        assert stable_rank(build_canonical_signal(3, 2, 1.0)) == pytest.approx(2.0)
        assert stable_rank(build_canonical_signal(50, 5, 2.5)) == pytest.approx(5.0)

    def test_wide_signal_pads_zero_columns(self):
        b = build_canonical_signal(2, 5, 2.0)
        assert np.all(b[:, 2:] == 0.0)
        assert np.sum(b * b) == pytest.approx(8.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_canonical_signal(0, 2, 1.0)
        with pytest.raises(ValueError):
            build_canonical_signal(2, 2, 0.0)


class TestSynthesizeInstance:
    def test_noiseless_is_exactly_permuted_product(self):
        b = build_canonical_signal(4, 3, 1.5)
        inst = synthesize_instance(20, 4, 3, 6, GAUSSIAN, b, 0.0, seed=7)
        residual = inst.y - apply_permutation(inst.perm_true, inst.x @ b)
        assert np.all(residual == 0.0)

    def test_same_seed_is_bit_identical(self):
        b = build_canonical_signal(4, 3, 1.0)
        a = synthesize_instance(25, 4, 3, 8, UNIFORM, b, 0.3, seed=9)
        c = synthesize_instance(25, 4, 3, 8, UNIFORM, b, 0.3, seed=9)
        assert np.array_equal(a.x, c.x)
        assert np.array_equal(a.y, c.y)
        assert a.perm_true == c.perm_true

    def test_exact_displacement_count(self):
        b = build_canonical_signal(3, 3, 1.0)
        inst = synthesize_instance(40, 3, 3, 12, GAUSSIAN, b, 1.0, seed=2)
        assert hamming_distance(inst.perm_true, Permutation.identity(40)) == 12

    def test_cross_correlation_mean_identity(self):
        # Monte-Carlo oracle for E[X^T Y] = (n - h) B: estimate the entrywise
        # standard error from the sample itself and require agreement at 5 SE.
        n, p, m, h, seeds = 200, 5, 5, 50, 300
        b = build_canonical_signal(p, m, 1.0)
        samples = np.empty((seeds, p, m))
        for s in range(seeds):
            inst = synthesize_instance(n, p, m, h, GAUSSIAN, b, 1.0, seed=s)
            samples[s] = inst.x.T @ inst.y
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(seeds)
        assert np.all(np.abs(mean - (n - h) * b) <= 5 * se)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            synthesize_instance(10, 3, 2, 0, GAUSSIAN, np.ones((2, 2)), 0.0, seed=0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            synthesize_instance(10, 2, 2, 0, GAUSSIAN, np.ones((2, 2)), -1.0, seed=0)
