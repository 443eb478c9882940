import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shufflereg import blas, instrument
from shufflereg.estimators import (
    RankDeficiencyError,
    alternating_minimization,
    build_onestep_cost,
    least_squares_signal,
    one_step_estimate,
    oracle_permutation_estimate,
)
from shufflereg.metrics import hamming_distance, relative_signal_error, sigma_for_snr
from shufflereg.model import (
    DistributionKind,
    Permutation,
    build_canonical_signal,
    sample_design_matrix,
    synthesize_instance,
)

from oracles import lap_brute_force

GAUSSIAN = DistributionKind.GAUSSIAN


class TestBuildOnestepCost:
    def test_all_ones_rank_one(self):
        # y y^T and x x^T are both the all-ones 2x2 matrix; their product is
        # the constant matrix with entries y_i (y^T x) x_j = 2.
        left, right = build_onestep_cost([[1.0], [1.0]], [[1.0], [1.0]])
        assert np.array_equal(left @ right.T, 2.0 * np.ones((2, 2)))

    def test_scalar_case(self):
        left, right = build_onestep_cost([[2.0]], [[3.0]])
        cost = left @ right.T
        assert cost.shape == (1, 1)
        assert cost[0, 0] == pytest.approx(3.0**2 * 2.0**2)

    @pytest.mark.parametrize("n,p,m", [(5, 2, 3), (4, 3, 20), (30, 1, 1), (6, 6, 6)])
    def test_matches_dense_product(self, n, p, m):
        # (4, 3, 20) is a shape where (Y Y^T)(X X^T) needs fewer flops.
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal((n, p))
            y = rng.standard_normal((n, m))
            dense = (y @ y.T) @ (x @ x.T)
            scale = np.abs(dense).max()
            left, right = build_onestep_cost(x, y)
            assert left.shape == right.shape == (n, m)
            assert np.abs(left @ right.T - dense).max() <= 1e-12 * scale

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            build_onestep_cost(np.ones((3, 2)), np.ones((4, 2)))


class TestOneStepEstimate:
    def test_noiseless_single_column_recovers_permutation(self):
        for seed in range(20):
            inst = synthesize_instance(200, 1, 1, 50, GAUSSIAN, [[1.0]], 0.0, seed)
            result = one_step_estimate(inst.x, inst.y)
            assert result.perm_hat == inst.perm_true
            assert result.iterations == 1

    def test_two_column_single_observation_fails_badly(self):
        # Diagonal signal direction with two columns and one observation:
        # the proxy direction error scrambles the row matching almost
        # completely even without noise.
        inst = synthesize_instance(
            1000, 2, 1, 250, GAUSSIAN, [[1000.0], [1000.0]], 0.0, seed=0
        )
        result = one_step_estimate(inst.x, inst.y)
        assert hamming_distance(result.perm_hat, inst.perm_true) >= 700

    def test_identity_instance_is_brute_force_argmax(self):
        # n <= 7 so the full permutation set is enumerable.
        inst = synthesize_instance(
            7, 3, 3, 0, GAUSSIAN, build_canonical_signal(3, 3, 1.0), 0.0, seed=4
        )
        ident = Permutation(np.arange(7))
        assert inst.perm_true == ident
        left, right = build_onestep_cost(inst.x, inst.y)
        assert lap_brute_force(left @ right.T).perm == ident
        result = one_step_estimate(inst.x, inst.y)
        assert result.perm_hat == ident
        assert relative_signal_error(result.b_hat, inst.b_true) <= 1e-8

    def test_consistency_when_permutation_recovered(self):
        for seed in range(5):
            b = build_canonical_signal(8, 8, 2.0)
            inst = synthesize_instance(150, 8, 8, 40, GAUSSIAN, b, 0.0, seed)
            result = one_step_estimate(inst.x, inst.y)
            if result.perm_hat == inst.perm_true:
                assert relative_signal_error(result.b_hat, inst.b_true) <= 1e-8

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            b = build_canonical_signal(3, 2, 1.0)
            inst = synthesize_instance(30, 3, 2, 10, GAUSSIAN, b, 0.2, seed)
            base = one_step_estimate(inst.x, inst.y).perm_hat
            for alpha in (0.5, 3.0, 100.0):
                for gamma in (0.5, 3.0, 100.0):
                    scaled = one_step_estimate(alpha * inst.x, gamma * inst.y)
                    assert scaled.perm_hat == base

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="n >= p"):
            one_step_estimate(np.ones((2, 3)), np.ones((2, 1)))

    @pytest.mark.parametrize(
        "call",
        [
            build_onestep_cost,
            one_step_estimate,
            lambda x, y: oracle_permutation_estimate(x, y, np.ones((3, 1))),
            lambda x, y: least_squares_signal(x, y, Permutation(np.arange(2))),
            alternating_minimization,
        ],
        ids=["cost", "one_step", "oracle", "least_squares", "alt_min"],
    )
    def test_underdetermined_is_one_message_everywhere(self, call):
        with pytest.raises(ValueError, match=r"^estimation needs n >= p, got n=2, p=3$"):
            call(np.ones((2, 3)), np.ones((2, 1)))

    def test_rank_deficiency_reported_with_condition(self):
        x = np.ones((6, 2))  # duplicated column directions
        y = np.ones((6, 1))
        with pytest.raises(RankDeficiencyError, match="condition"):
            one_step_estimate(x, y)

    def test_exactly_one_assignment_and_one_ls_solve(self):
        inst = synthesize_instance(
            60, 4, 4, 10, GAUSSIAN, build_canonical_signal(4, 4, 1.0), 0.1, seed=1
        )
        before = instrument.snapshot()
        one_step_estimate(inst.x, inst.y)
        delta = instrument.delta_since(before)
        assert delta == {"lap_solve": 1, "ls_solve": 1}


MEMORY_PROBE = textwrap.dedent(
    """
    import resource
    import numpy as np
    from shufflereg.estimators import one_step_estimate

    n, p = 2000, 20
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, p))
    y = x[rng.permutation(n)] @ rng.standard_normal((p, p))
    one_step_estimate(x[:100], y[:100])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    one_step_estimate(x, y)
    growth_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    print(1024 * growth_kib / (8 * n * n))
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="the probe reads ru_maxrss in KiB, as Linux reports it")
def test_one_step_peak_memory_is_one_dense_cost():
    # ru_maxrss is a process-wide high-water mark, so the probe runs alone in a
    # fresh interpreter after a small warm-up call. Holding the cost and its
    # negated copy at once would read about 2.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 1.5


class TestObjectiveEquivalence:
    def test_inner_product_argmax_equals_residual_argmin(self):
        # Relaxation identity: || Y - P X (X^T Y) ||_F is minimized exactly
        # where <P, Y Y^T X X^T> is maximized, because row permutations
        # preserve the Frobenius norm. Both sides brute-forced with the shared
        # lexicographic tie rule.
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            x = rng.standard_normal((n, p))
            y = rng.standard_normal((n, m))
            left, right = build_onestep_cost(x, y)
            argmax_perm = lap_brute_force(left @ right.T).perm
            proxy_rows = x @ (x.T @ y)
            distances = ((y[:, None, :] - proxy_rows[None, :, :]) ** 2).sum(axis=2)
            argmin_perm = lap_brute_force(-distances).perm
            assert argmax_perm == argmin_perm


class TestOraclePermutationEstimate:
    def test_objective_at_estimate_dominates_truth(self):
        inst = synthesize_instance(
            40, 3, 3, 10, GAUSSIAN, build_canonical_signal(3, 3, 1.0), 0.0, seed=2
        )
        cost = inst.y @ (inst.x @ inst.b_true).T
        perm_hat = oracle_permutation_estimate(inst.x, inst.y, inst.b_true).perm_hat
        obj_hat = float(np.sum(cost[np.arange(40), perm_hat.indices]))
        obj_true = float(np.sum(cost[np.arange(40), inst.perm_true.indices]))
        assert obj_hat >= obj_true

    def test_invariant_to_positive_signal_scaling(self):
        b = build_canonical_signal(4, 3, 1.0)
        inst = synthesize_instance(50, 4, 3, 12, GAUSSIAN, b, 0.5, seed=3)
        base = oracle_permutation_estimate(inst.x, inst.y, b).perm_hat
        for alpha in (0.5, 2.0, 1e4):
            assert oracle_permutation_estimate(inst.x, inst.y, alpha * b).perm_hat == base

    def test_oracle_recovers_at_least_as_often_as_one_step(self):
        # Paired Monte-Carlo comparison: the oracle sees the true signal, the
        # one-step estimator only its cross-correlation proxy.
        b = build_canonical_signal(10, 10, 1.0)
        sigma = float(np.sqrt(np.sum(b * b) / (10 * 1.0)))  # SNR = 1
        oracle_hits = onestep_hits = 0
        for seed in range(100):
            inst = synthesize_instance(300, 10, 10, 75, GAUSSIAN, b, sigma, seed)
            oracle_hits += oracle_permutation_estimate(inst.x, inst.y, b).perm_hat == inst.perm_true
            onestep_hits += one_step_estimate(inst.x, inst.y).perm_hat == inst.perm_true
        assert oracle_hits >= onestep_hits

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^signal has 3 rows but x has 2 columns$"):
            oracle_permutation_estimate(np.ones((4, 2)), np.ones((4, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize(
        "b,message",
        [
            (np.ones((2, 2)), "signal has 2 rows but x has 3 columns"),
            (np.ones((3, 1)), "signal has 1 columns but y has 2"),
            (np.ones(3), "signal must be 2-D, got ndim=1"),
            (np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]]), "signal contains non-finite entries"),
            (np.full((3, 2), np.inf), "signal contains non-finite entries"),
        ],
        ids=["rows", "columns", "vector", "nan", "inf"],
    )
    def test_bad_signal_is_refused(self, b, message):
        inst = synthesize_instance(
            20, 3, 2, 6, GAUSSIAN, build_canonical_signal(3, 2, 1.0), 0.1, seed=4
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle_permutation_estimate(inst.x, inst.y, b)


class TestLeastSquaresSignal:
    def test_identity_design_returns_observation(self):
        y = np.arange(6, dtype=float).reshape(3, 2)
        b_hat = least_squares_signal(np.eye(3), y, Permutation(np.arange(3)))
        assert np.allclose(b_hat, y, atol=1e-14)

    def test_noiseless_true_permutation_recovers_signal(self):
        for seed in range(5):
            b = build_canonical_signal(5, 4, 1.3)
            inst = synthesize_instance(80, 5, 4, 20, GAUSSIAN, b, 0.0, seed)
            b_hat = least_squares_signal(inst.x, inst.y, inst.perm_true)
            assert relative_signal_error(b_hat, b) <= 1e-10

    def test_shift_linearity(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 2))
        c = rng.standard_normal((4, 2))
        ident = Permutation(np.arange(30))
        base = least_squares_signal(x, y, ident)
        shifted = least_squares_signal(x, y + x @ c, ident)
        assert np.allclose(shifted, base + c, atol=1e-10)

    def test_rank_deficient_design_rejected(self):
        x = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficiencyError):
            least_squares_signal(x, np.ones((5, 1)), Permutation(np.arange(5)))

    def test_zero_design_rejected_with_infinite_condition(self):
        with pytest.raises(RankDeficiencyError, match=r"\(condition estimate inf, cutoff 1\.0e\+10\)$"):
            least_squares_signal(np.zeros((5, 2)), np.ones((5, 1)), Permutation(np.arange(5)))

    @pytest.mark.parametrize("n,p,m", [(64, 8, 8), (500, 50, 50)])
    def test_is_numpys_lstsq_byte_for_byte(self, n, p, m):
        inst = synthesize_instance(
            n, p, m, n // 4, GAUSSIAN, build_canonical_signal(p, m, 1.0), 0.5, seed=3
        )
        aligned = inst.y[np.argsort(inst.perm_true.indices)]
        with blas.single_threaded():
            expected = np.linalg.lstsq(inst.x, aligned, rcond=None)[0]
        b_hat = least_squares_signal(inst.x, inst.y, inst.perm_true)
        assert b_hat.tobytes() == expected.tobytes()

    def test_condition_estimate_reads_the_lstsq_singular_values(self, monkeypatch):
        # The third column repeats the first up to 1e-13: condition about 1e13, past the cutoff.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        x[:, 2] = x[:, 0] + 1e-13 * rng.standard_normal(40)
        calls = []
        real = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        with pytest.raises(RankDeficiencyError) as error:
            least_squares_signal(x, np.ones((40, 1)), Permutation(np.arange(40)))
        assert len(calls) == 1
        svals = calls[0][3]
        assert str(error.value) == (
            "design matrix is numerically rank deficient "
            f"(condition estimate {svals[0] / svals[-1]:.3e}, cutoff 1.0e+10)"
        )

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1))
    def test_alignment_is_the_inverse_permutation_byte_for_byte(self, data, n, seed):
        perm = Permutation(np.array(data.draw(st.permutations(range(n)))))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal((n, 2))
        aligned = y[np.argsort(perm.indices)]
        expected = least_squares_signal(x, aligned, Permutation(np.arange(n)))
        assert least_squares_signal(x, y, perm).tobytes() == expected.tobytes()


class TestAlternatingMinimization:
    @pytest.mark.parametrize("iters", [0, 5])
    def test_one_assignment_and_one_ls_solve_per_iteration(self, iters):
        inst = synthesize_instance(
            60, 4, 4, 10, GAUSSIAN, build_canonical_signal(4, 4, 1.0), 0.1, seed=1
        )
        before = instrument.snapshot()
        alternating_minimization(inst.x, inst.y, max_iters=iters, stop_on_repeat=False)
        delta = instrument.delta_since(before)
        assert delta == {"lap_solve": iters + 1, "ls_solve": iters + 1}

    def test_residual_trace_non_increasing(self):
        for seed in range(5):
            b = build_canonical_signal(4, 2, 1.0)
            inst = synthesize_instance(60, 4, 2, 20, GAUSSIAN, b, 1.0, seed)
            result = alternating_minimization(inst.x, inst.y, max_iters=8)
            residuals = [rec.residual for rec in result.trace]
            assert all(a >= c - 1e-9 * max(1.0, a) for a, c in zip(residuals, residuals[1:]))

    def test_default_init_matches_one_step(self):
        b = build_canonical_signal(3, 2, 1.0)
        inst = synthesize_instance(40, 3, 2, 10, GAUSSIAN, b, 0.5, seed=5)
        one_step = one_step_estimate(inst.x, inst.y)
        alt = alternating_minimization(inst.x, inst.y, max_iters=4)
        assert alt.trace[0].perm == one_step.perm_hat

    @pytest.mark.parametrize(
        "dist,n,p,m",
        [
            (DistributionKind.RADEMACHER, 120, 6, 1),
            (DistributionKind.RADEMACHER, 200, 10, 4),
            (GAUSSIAN, 40, 3, 5),
        ],
    )
    def test_iteration_zero_is_the_one_step_estimate_bit_for_bit(self, dist, n, p, m):
        # All three match on the one cost Y (X X^T Y)^T. Above n = 64 a Rademacher
        # cost has exactly tied optima, and scipy's choice among them follows the
        # cost's bits, so a second rounding of the same cost could pick another one.
        b = build_canonical_signal(p, m, 1.0)
        sigma = sigma_for_snr(b, m, 3.0)
        for seed in range(10):
            inst = synthesize_instance(n, p, m, n // 2, dist, b, sigma, seed)
            one_step = one_step_estimate(inst.x, inst.y)
            alt = alternating_minimization(inst.x, inst.y, max_iters=0)
            with blas.single_threaded():
                oracle = oracle_permutation_estimate(inst.x, inst.y, inst.x.T @ inst.y)
            for est in (alt, oracle):
                assert est.perm_hat == one_step.perm_hat
                assert est.b_hat.tobytes() == one_step.b_hat.tobytes()
                assert np.float64(est.objective).tobytes() == np.float64(one_step.objective).tobytes()

    def test_trace_bookkeeping_without_early_stop(self):
        b = build_canonical_signal(3, 2, 1.0)
        inst = synthesize_instance(30, 3, 2, 8, GAUSSIAN, b, 0.3, seed=6)
        result = alternating_minimization(
            inst.x, inst.y, max_iters=6, ref_perm=inst.perm_true, stop_on_repeat=False
        )
        assert result.iterations == 7
        assert [rec.iteration for rec in result.trace] == list(range(7))
        assert all(rec.hamming is not None for rec in result.trace)

    def test_hamming_absent_without_reference(self):
        b = build_canonical_signal(3, 2, 1.0)
        inst = synthesize_instance(30, 3, 2, 8, GAUSSIAN, b, 0.3, seed=6)
        result = alternating_minimization(inst.x, inst.y, max_iters=2)
        assert all(rec.hamming is None for rec in result.trace)

    @settings(max_examples=40, deadline=None)
    @given(
        dist=st.sampled_from([GAUSSIAN, DistributionKind.RADEMACHER]),
        n=st.integers(8, 24),
        p=st.integers(1, 3),
        m=st.integers(1, 3),
        sigma=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_iteration_is_the_oracle_from_the_previous_estimate(
        self, dist, n, p, m, sigma, seed
    ):
        inst = synthesize_instance(n, p, m, n // 2, dist, build_canonical_signal(p, m, 1.0), sigma, seed)
        assume(np.linalg.matrix_rank(inst.x) == p)
        iters = 3
        # Iteration 0 is the oracle from X^T Y; iteration t the oracle from iteration t-1's b_hat.
        b = inst.x.T @ inst.y
        oracles = []
        while len(oracles) <= iters and np.abs(inst.x @ b).max() >= np.finfo(np.float64).tiny:
            oracles.append(oracle_permutation_estimate(inst.x, inst.y, b))
            b = oracles[-1].b_hat
        if len(oracles) <= iters:
            # Orthogonal +-1 data can give an exactly zero X D at iteration len(oracles): the
            # oracle refuses it, and so does every run that reaches that iteration.
            zero = "matching direction X D is zero or below about 2.2e-308"
            with pytest.raises(ValueError, match=zero):
                oracle_permutation_estimate(inst.x, inst.y, b)
            for stop in (len(oracles), iters):
                with pytest.raises(ValueError, match=zero):
                    alternating_minimization(inst.x, inst.y, max_iters=stop, stop_on_repeat=False)
        else:
            trace = alternating_minimization(inst.x, inst.y, max_iters=iters, stop_on_repeat=False).trace
        for t, oracle in enumerate(oracles):
            # The run stopped after iteration t ends with that iteration's estimate.
            upto = alternating_minimization(inst.x, inst.y, max_iters=t, stop_on_repeat=False)
            if len(oracles) <= iters:
                trace = upto.trace
            assert upto.trace == trace[: t + 1]
            assert trace[t].perm.indices.tobytes() == oracle.perm_hat.indices.tobytes()
            assert upto.perm_hat.indices.tobytes() == oracle.perm_hat.indices.tobytes()
            assert upto.b_hat.tobytes() == oracle.b_hat.tobytes()
            assert upto.objective == oracle.objective
            residual = np.linalg.norm(inst.y - (inst.x @ oracle.b_hat)[oracle.perm_hat.indices])
            assert trace[t].residual == float(residual)

    def test_start_is_not_an_argument(self):
        # The start is always X^T Y: a B passed third is a TypeError, never read as max_iters.
        x, y, b = np.ones((20, 3)), np.ones((20, 2)), np.ones((3, 2))
        with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
            alternating_minimization(x, y, b)
        with pytest.raises(TypeError, match="unexpected keyword argument 'init_b'"):
            alternating_minimization(x, y, init_b=b)
