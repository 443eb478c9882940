"""Metamorphic tests: exact symmetries of the model, checked without an oracle.

One-step's cost Y Y^T X X^T does not change under X -> X Q or Y -> Y R for
orthogonal Q and R, and then B_hat maps to Q^T B_hat or B_hat R. Under
X -> X Q each fit X B_hat of alternating minimization stays the same, so its
permutations do, and ``solve`` writes the same permutation file. The oracle's
cost Y (X B)^T relabels exactly under row permutations t of X and u of Y
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 2018). The designs are continuous, so
the optimum is unique and a symmetry may not move it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflereg.cli import main
from shufflereg.estimators import (
    alternating_minimization,
    one_step_estimate,
    oracle_permutation_estimate,
)
from shufflereg.matrixio import write_matrix
from shufflereg.metrics import sigma_for_snr
from shufflereg.model import DistributionKind, build_canonical_signal, synthesize_instance


@st.composite
def instances(draw):
    """(X, Y, B, rng): a Gaussian instance with a quarter of its rows shuffled."""
    n, p, m = draw(st.sampled_from([(40, 3, 5), (200, 10, 4)]))
    snr = draw(st.sampled_from([0.5, 3.0, 30.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    b = build_canonical_signal(p, m, 1.0)
    sigma = sigma_for_snr(b, m, snr)
    inst = synthesize_instance(n, p, m, n // 4, DistributionKind.GAUSSIAN, b, sigma, seed)
    return inst.x, inst.y, b, np.random.default_rng(seed)


def orthogonal(rng, k):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q


def assert_close(actual, expected):
    assert np.max(np.abs(actual - expected)) <= 1e-9 * np.max(np.abs(expected))


@settings(max_examples=50, deadline=None)
@given(instances())
def test_oracle_relabels_under_row_permutations(case):
    x, y, b, rng = case
    t, u = rng.permutation(x.shape[0]), rng.permutation(x.shape[0])
    base = oracle_permutation_estimate(x, y, b)
    moved = oracle_permutation_estimate(x[t], y[u], b)
    # Row i of the new cost is row u[i] of the old one, and column j is column t[j].
    assert np.array_equal(moved.perm_hat.indices, np.argsort(t)[base.perm_hat.indices[u]])
    # The same entries, correctly rounded in any order.
    assert moved.objective == base.objective
    # The matched pairs are the same rows, so least squares fits the same B.
    assert_close(moved.b_hat, base.b_hat)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_one_step_is_unchanged_by_rotating_the_design(case):
    x, y, _, rng = case
    q = orthogonal(rng, x.shape[1])
    base, rotated = one_step_estimate(x, y), one_step_estimate(x @ q, y)
    assert rotated.perm_hat == base.perm_hat
    assert_close(q @ rotated.b_hat, base.b_hat)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_one_step_is_unchanged_by_rotating_the_observations(case):
    x, y, _, rng = case
    r = orthogonal(rng, y.shape[1])
    base, rotated = one_step_estimate(x, y), one_step_estimate(x, y @ r)
    assert rotated.perm_hat == base.perm_hat
    assert_close(rotated.b_hat, base.b_hat @ r)


@settings(max_examples=50, deadline=None)
@given(instances())
def test_alternating_minimization_is_unchanged_by_rotating_the_design(case):
    x, y, _, rng = case
    q = orthogonal(rng, x.shape[1])
    base = alternating_minimization(x, y, max_iters=5)
    rotated = alternating_minimization(x @ q, y, max_iters=5)
    # Each fit X B_hat, the next iteration's matching direction, is the same up to roundoff.
    assert [r.perm for r in rotated.trace] == [r.perm for r in base.trace]
    assert_close(q @ rotated.b_hat, base.b_hat)


@pytest.mark.parametrize("seed", range(4))
def test_solve_writes_the_same_permutation_file_for_a_rotated_design(tmp_path, seed):
    inst = synthesize_instance(
        60, 4, 3, 15, DistributionKind.GAUSSIAN, build_canonical_signal(4, 3, 1.0), 0.3, seed
    )
    q = orthogonal(np.random.default_rng(seed), 4)
    write_matrix(inst.y, tmp_path / "y.txt")
    for name, x in (("x", inst.x), ("xq", inst.x @ q)):
        write_matrix(x, tmp_path / f"{name}.txt")
        args = ["solve", "--x", str(tmp_path / f"{name}.txt"), "--y", str(tmp_path / "y.txt"),
                "--out-perm", str(tmp_path / f"{name}_perm.txt"),
                "--out-b", str(tmp_path / f"{name}_b.txt")]
        assert main(args) == 0
    assert (tmp_path / "xq_perm.txt").read_bytes() == (tmp_path / "x_perm.txt").read_bytes()
