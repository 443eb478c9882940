"""Metamorphic tests: exact symmetries of the model, checked without an oracle.

One-step's cost Y Y^T X X^T does not change under X -> X Q or Y -> Y R for
orthogonal Q and R, and then B_hat maps to Q^T B_hat or B_hat R. The oracle's
cost Y (X B)^T relabels exactly under row permutations t of X and u of Y
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Computing Surveys 2018). The designs are continuous, so
the optimum is unique and a symmetry may not move it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflereg.estimators import one_step_estimate, oracle_permutation_estimate
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
