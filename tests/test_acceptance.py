"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import math
import time
from dataclasses import replace

import numpy as np

from shufflereg import instrument
from shufflereg.estimators import (
    build_onestep_cost,
    least_squares_signal,
    one_step_estimate,
)
from shufflereg.experiments import (
    ExperimentConfig,
    format_csv,
    reproduce_failure_demo,
    run_sweep,
)
from shufflereg.lap import lap_maximize
from shufflereg.metrics import (
    NOISELESS,
    RegimeLabel,
    classify_regime,
    relative_signal_error,
    stable_rank,
)
from shufflereg.model import (
    DistributionKind,
    build_canonical_signal,
    synthesize_instance,
)

from oracles import dense, lap_brute_force

GAUSSIAN = DistributionKind.GAUSSIAN
RADEMACHER = DistributionKind.RADEMACHER


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_c01_lap_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(200):
        cost = rng.standard_normal((6, 6))
        if lap_maximize(*dense(cost)).objective != lap_brute_force(cost).objective:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "LAP exactness vs brute force",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}/200, elapsed={elapsed:.2f}s (limit 5s)",
    )


def test_c02_warmup_single_column_recovery():
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        inst = synthesize_instance(200, 1, 1, 50, GAUSSIAN, [[1.0]], 0.0, seed)
        hits += one_step_estimate(inst.x, inst.y).perm_hat == inst.perm_true
    elapsed = time.perf_counter() - start
    rate = hits / 100.0
    report(
        2,
        "noiseless single-column recovery",
        rate >= 0.99 and elapsed < 30.0,
        f"rate={rate:.2f} (need >= 0.99), elapsed={elapsed:.1f}s (limit 30s)",
    )


def test_c03_two_column_failure_and_stagnation():
    start = time.perf_counter()
    trace = reproduce_failure_demo(1000, 100, seed=0)
    elapsed = time.perf_counter() - start
    first, last = trace[0].hamming, trace[100].hamming
    report(
        3,
        "two-column failure case",
        first >= 700 and last >= 500 and elapsed < 120.0,
        f"one-step hamming={first} (need >= 700), after 100 iterations={last} "
        f"(need >= 500), elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_c04_medium_regime_transition():
    start = time.perf_counter()
    config = ExperimentConfig(
        n=500,
        p=50,
        m=50,
        h=50,
        dist=GAUSSIAN,
        snr_grid=(0.01, 0.1, 1.0, 10.0, NOISELESS),
        trials=50,
        master_seed=404,
    )
    # Stable rank 50 at n = 500 is medium: the easy band starts at (log 500)^4, about 1 492.
    assert classify_regime(stable_rank(config.signal_matrix()), config.n) is RegimeLabel.MEDIUM
    result = run_sweep(config)
    elapsed = time.perf_counter() - start
    rates = [row.recovery_rate for row in result.rows]
    t = config.trials
    monotone = all(
        b >= a - 3 * math.sqrt(a * (1 - a) / t + b * (1 - b) / t)
        for a, b in zip(rates, rates[1:])
    )
    report(
        4,
        "recovery transition along the SNR grid",
        rates[-1] == 1.0 and rates[0] <= 0.2 and monotone and elapsed < 600.0,
        f"rates={rates} (noiseless must be 1.0, first <= 0.2, non-decreasing "
        f"within 3 binomial SE), elapsed={elapsed:.1f}s (limit 600s)",
    )


def test_c05_rademacher_vs_gaussian():
    start = time.perf_counter()
    base = ExperimentConfig(
        n=500,
        p=50,
        m=2,
        h=50,
        dist=RADEMACHER,
        snr_grid=(1e6,),
        trials=50,
        master_seed=505,
    )
    rate_rademacher = run_sweep(base).rows[0].recovery_rate
    rate_gaussian = run_sweep(replace(base, dist=GAUSSIAN)).rows[0].recovery_rate
    elapsed = time.perf_counter() - start
    report(
        5,
        "Rademacher design fails at low diversity",
        rate_rademacher < 0.5 and rate_rademacher <= rate_gaussian and elapsed < 300.0,
        f"rademacher={rate_rademacher:.2f} (need < 0.5 and <= gaussian), "
        f"gaussian={rate_gaussian:.2f}, elapsed={elapsed:.1f}s (limit 300s)",
    )


def test_c06_cross_correlation_mean_identity():
    start = time.perf_counter()
    n, p, m, h, seeds = 200, 5, 5, 50, 2000
    b = build_canonical_signal(p, m, 1.0)
    samples = np.empty((seeds, p, m))
    for seed in range(seeds):
        inst = synthesize_instance(n, p, m, h, GAUSSIAN, b, 1.0, seed)
        samples[seed] = inst.x.T @ inst.y
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(seeds)
    deviations = np.abs(mean - (n - h) * b) / se
    elapsed = time.perf_counter() - start
    worst = float(deviations.max())
    report(
        6,
        "cross-correlation mean identity",
        worst <= 5.0 and elapsed < 120.0,
        f"max |mean - (n-h)B| = {worst:.2f} standard errors (need <= 5), "
        f"elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_c07_known_permutation_least_squares_exactness():
    worst = 0.0
    for seed in range(50):
        b = build_canonical_signal(8, 4, 1.5)
        inst = synthesize_instance(120, 8, 4, 30, GAUSSIAN, b, 0.0, seed)
        b_hat = least_squares_signal(inst.x, inst.y, inst.perm_true)
        worst = max(worst, relative_signal_error(b_hat, b))
    report(
        7,
        "least squares with the true permutation",
        worst <= 1e-10,
        f"max relative error over 50 noiseless seeds = {worst:.3e} (need <= 1e-10)",
    )


def test_c08_objective_equivalence():
    rng = np.random.default_rng(808)
    disagreements = 0
    for _ in range(100):
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
        disagreements += argmax_perm != argmin_perm
    report(
        8,
        "inner-product argmax equals residual argmin",
        disagreements == 0,
        f"disagreements={disagreements}/100 brute-forced instances (need 0)",
    )


def test_c09_scaling_invariance():
    changed = 0
    b = build_canonical_signal(4, 3, 1.0)
    for seed in range(50):
        inst = synthesize_instance(40, 4, 3, 10, GAUSSIAN, b, 0.3, seed)
        baseline = one_step_estimate(inst.x, inst.y).perm_hat
        for alpha in (0.5, 3.0, 100.0):
            for gamma in (0.5, 3.0, 100.0):
                scaled = one_step_estimate(alpha * inst.x, gamma * inst.y).perm_hat
                changed += scaled != baseline
    report(
        9,
        "invariance to positive rescaling of inputs",
        changed == 0,
        f"changed permutations={changed} over 50 instances x 9 scale pairs (need 0)",
    )


def test_c10_sweep_determinism_across_workers():
    config = ExperimentConfig(
        n=120,
        p=10,
        m=10,
        h=20,
        dist=GAUSSIAN,
        snr_grid=(0.5, 5.0, NOISELESS),
        trials=16,
        master_seed=1010,
    )
    outputs = {
        workers: [
            format_csv(run_sweep(replace(config, workers=workers)))
            for _ in range(2)
        ]
        for workers in (1, 8)
    }
    all_equal = len({csv for pair in outputs.values() for csv in pair}) == 1
    report(
        10,
        "byte-identical CSV at 1 and 8 workers",
        all_equal,
        "4 runs (2 at each worker count) produced "
        + ("identical bytes" if all_equal else "DIFFERING bytes"),
    )


def test_c11_cost_budget():
    b = build_canonical_signal(6, 6, 1.0)
    inst = synthesize_instance(150, 6, 6, 30, GAUSSIAN, b, 0.5, seed=3)
    before = instrument.snapshot()
    one_step_estimate(inst.x, inst.y)
    delta = instrument.delta_since(before)
    one_each = delta == {"lap_solve": 1, "ls_solve": 1}

    rng = np.random.default_rng(1111)
    medians = {}
    for n in (200, 400):
        times = []
        for _ in range(7):
            factors = dense(rng.standard_normal((n, n)))
            start = time.perf_counter()
            lap_maximize(*factors)
            times.append(time.perf_counter() - start)
        medians[n] = float(np.median(times))
    ratio = medians[400] / medians[200]
    report(
        11,
        "one assignment + one least-squares solve; cubic-ish scaling",
        one_each and ratio <= 10.0,
        f"counter delta={delta} (need exactly one of each), median runtime "
        f"ratio n=400/n=200 = {ratio:.1f} (need <= 10)",
    )
