import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import shufflereg
from shufflereg.metrics import hamming_distance, stable_rank
from shufflereg.model import (
    DistributionKind,
    Permutation,
    build_canonical_signal,
    sample_design_matrix,
    sample_permutation_with_hamming_weight,
    synthesize_instance,
)

GAUSSIAN = DistributionKind.GAUSSIAN
UNIFORM = DistributionKind.UNIFORM
RADEMACHER = DistributionKind.RADEMACHER


class TestDistributionKind:
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
            assert abs(x.mean()) <= 5 * np.sqrt(var / n)
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

    @pytest.mark.parametrize("indices", [np.array([0.7, 1.9]), [True, False]], ids=["float", "bool"])
    def test_rejects_non_integer_indices(self, indices):
        # Casting would truncate [0.7, 1.9] to [0, 1] and read [True, False] as [1, 0].
        with pytest.raises(ValueError, match="must be integers"):
            Permutation(indices)

    def test_identity_and_equality(self):
        assert Permutation(np.arange(4)) == Permutation(np.array([0, 1, 2, 3]))
        assert Permutation(np.array([1, 0])) != Permutation(np.arange(2))

    def test_different_lengths_are_unequal(self):
        assert Permutation(np.arange(3)) != Permutation(np.arange(4))
        assert Permutation(np.array([2, 0, 1])) != Permutation(np.array([2, 0, 1, 3]))

    def test_apply_identity_is_noop(self):
        m = np.arange(12, dtype=float).reshape(4, 3)
        assert np.array_equal(m[Permutation(np.arange(4)).indices], m)

    def test_apply_swap_convention(self):
        # Output row i is input row pi(i): pi = (1, 0) on [[1], [2]] -> [[2], [1]].
        swapped = np.array([[1.0], [2.0]])[Permutation(np.array([1, 0])).indices]
        assert np.array_equal(swapped, [[2.0], [1.0]])

    def test_apply_preserves_frobenius_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            perm = Permutation(rng.permutation(n))
            m = rng.standard_normal((n, int(rng.integers(1, 5))))
            assert np.linalg.norm(m[perm.indices]) == pytest.approx(np.linalg.norm(m))

    def test_inverse_roundtrip_on_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            perm = Permutation(rng.permutation(n))
            m = rng.standard_normal((n, 3))
            inv = Permutation(np.argsort(perm.indices))
            assert np.array_equal(m[perm.indices][inv.indices], m)
            assert np.array_equal(m[inv.indices][perm.indices], m)


@st.composite
def permutation_and_matrix(draw):
    n = draw(st.integers(1, 30))
    perm = Permutation(np.array(draw(st.permutations(range(n)))))
    other = Permutation(np.array(draw(st.permutations(range(n)))))
    mat = draw(hnp.arrays(np.float64, (n, draw(st.integers(1, 4))), elements=st.floats(-1e150, 1e150)))
    return perm, other, mat


class TestPermutationAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(permutation_and_matrix())
    def test_inverse_undoes_apply(self, case):
        perm, _, mat = case
        inv = Permutation(np.argsort(perm.indices))
        assert np.array_equal(mat[perm.indices][inv.indices], mat)
        assert np.array_equal(mat[inv.indices][perm.indices], mat)
        assert Permutation(np.argsort(inv.indices)) == perm

    @settings(max_examples=100, deadline=None)
    @given(permutation_and_matrix())
    def test_composition_is_sequential_application(self, case):
        # Applying perm then other takes row i from perm(other(i)).
        perm, other, mat = case
        composed = Permutation(perm.indices[other.indices])
        assert np.array_equal(mat[composed.indices], mat[perm.indices][other.indices])

    @settings(max_examples=100, deadline=None)
    @given(permutation_and_matrix())
    def test_frobenius_norm_is_kept_exactly(self, case):
        # fsum rounds the exact sum once, so it does not depend on the row order.
        perm, _, mat = case
        moved = mat[perm.indices]
        assert math.fsum((moved * moved).ravel()) == math.fsum((mat * mat).ravel())


class TestPermutationSampling:
    def test_zero_weight_is_identity(self):
        assert sample_permutation_with_hamming_weight(5, 0, seed=0) == Permutation(np.arange(5))

    def test_weight_two_is_a_transposition(self):
        perm = sample_permutation_with_hamming_weight(5, 2, seed=0)
        assert hamming_distance(perm, Permutation(np.arange(5))) == 2
        assert perm == Permutation(np.argsort(perm.indices))

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
        residual = inst.y - (inst.x @ b)[inst.perm_true.indices]
        assert np.all(residual == 0.0)

    def test_same_seed_is_bit_identical(self):
        b = build_canonical_signal(4, 3, 1.0)
        a = synthesize_instance(25, 4, 3, 8, UNIFORM, b, 0.3, seed=9)
        c = synthesize_instance(25, 4, 3, 8, UNIFORM, b, 0.3, seed=9)
        assert np.array_equal(a.x, c.x)
        assert np.array_equal(a.y, c.y)
        assert a.perm_true == c.perm_true

    @pytest.mark.parametrize("scale,sigma", [(1e308, 0.0), (1.0, 1e308)])
    def test_overflowing_observation_is_rejected_without_warning(self, scale, sigma):
        # Either X B or the noise term leaves the double range for |entries| above ~1.8.
        b = build_canonical_signal(2, 2, scale)
        with pytest.raises(ValueError, match=r"^observation Y = P X B \+ W overflows float64$"):
            synthesize_instance(50, 2, 2, 0, GAUSSIAN, b, sigma, seed=1)

    def test_exact_displacement_count(self):
        b = build_canonical_signal(3, 3, 1.0)
        inst = synthesize_instance(40, 3, 3, 12, GAUSSIAN, b, 1.0, seed=2)
        assert hamming_distance(inst.perm_true, Permutation(np.arange(40))) == 12

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

    def test_nan_sigma_rejected(self):
        # nan < 0 is False, so a sign test alone once returned the noiseless Y.
        with pytest.raises(ValueError, match=r"^sigma must be >= 0, got nan$"):
            synthesize_instance(10, 2, 2, 0, GAUSSIAN, np.ones((2, 2)), math.nan, seed=0)


class TestPublicSurface:
    REMOVED = {
        "estimators": ["reduce_known_direction"],
        "lap": ["BRUTE_FORCE_MAX_N", "assignment_objective", "lap_brute_force"],
        "metrics": ["operator_norm"],
        "model": ["apply_permutation"],
    }

    def test_every_exported_name_resolves_once(self):
        assert len(set(shufflereg.__all__)) == len(shufflereg.__all__)
        for name in shufflereg.__all__:
            assert hasattr(shufflereg, name), name
        namespace = {}
        exec("from shufflereg import *", namespace)
        assert set(shufflereg.__all__) <= namespace.keys()

    # Only synthesize_instance and tests call the samplers, so they are model's names alone.
    # read_permutation stays exported: it is the reader of the documented permutation format.
    MODEL_ONLY = ["sample_design_matrix", "sample_permutation_with_hamming_weight"]

    def test_samplers_are_not_top_level_names(self):
        for name in self.MODEL_ONLY:
            assert name not in shufflereg.__all__
            assert not hasattr(shufflereg, name), name
            assert callable(getattr(shufflereg.model, name)), f"model.{name}"

    def test_removed_names_are_not_exported(self):
        for module, names in self.REMOVED.items():
            for name in names:
                assert name not in shufflereg.__all__
                assert not hasattr(shufflereg, name), name
                assert not hasattr(getattr(shufflereg, module), name), f"{module}.{name}"
        assert not hasattr(Permutation, "identity")
        assert not hasattr(Permutation, "inverse")
