"""Scalar diagnostics: Hamming distance, stable rank, SNR and its inverse
``sigma_for_snr``, log-det ratio, relative signal error, and difficulty-regime
classification.

SNR is defined as ||B||_F^2 / (m * sigma^2), so the noiseless case (sigma = 0)
is SNR = +inf. It is the float ``NOISELESS``, which equals, hashes and orders
as ``math.inf`` and differs only in its repr, ``noiseless``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import blas
from .model import Permutation, require_finite, require_matrix


class NoiselessMarker(float):
    """The SNR at sigma = 0: +inf as a float, written ``noiseless`` by repr."""

    def __repr__(self) -> str:
        return "noiseless"

    def __reduce__(self) -> str:
        # copy and pickle return the module-level singleton, so `is NOISELESS` survives them.
        return "NOISELESS"


NOISELESS = NoiselessMarker(math.inf)


def hamming_distance(a: Permutation, b: Permutation) -> int:
    """Number of positions where the two index maps disagree."""
    if len(a) != len(b):
        raise ValueError(f"permutation lengths differ: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.indices != b.indices))


@blas.single_threaded()
def _gram_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Squared singular values, ascending: eigenvalues of the smaller of B^T B and B B^T.

    OpenBLAS runs at one thread here, so the values do not depend on the core count.
    """
    side = arr.T @ arr if arr.shape[1] <= arr.shape[0] else arr @ arr.T
    return np.clip(np.linalg.eigvalsh(side), 0.0, None)


def _power_of_two_scale(arr: np.ndarray) -> float:
    """The power of two just above the largest |entry|, capped at 2**1023; dividing by it is exact."""
    return math.ldexp(1.0, min(math.frexp(float(np.abs(arr).max()))[1], 1023))


def _sum_of_squares(arr: np.ndarray) -> tuple[float, int]:
    """(total, exponent) with sum of squared entries = total * 2**exponent.

    The squares are taken over ``_power_of_two_scale``, so they stay in range;
    the rescale is exact, so total * 2**exponent equals the plain sum to the
    bit wherever that sum and its terms are normal doubles.
    """
    scale = _power_of_two_scale(arr)
    scaled = arr / scale
    return float(np.sum(scaled * scaled)), 2 * (math.frexp(scale)[1] - 1)


def _ldexp_finite(value: float, exponent: int, what: str) -> float:
    """value * 2**exponent, rounded as IEEE underflow rounds; ValueError when it overflows."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise ValueError(f"{what} overflows double precision (above about 1.8e308)") from None


def frobenius_norm(arr: np.ndarray, what: str) -> float:
    """||arr||_F over ``_power_of_two_scale``, so no square overflows.

    The rescale is exact, so the value is the plain norm's to the bit
    wherever that norm and its squares are normal doubles. ValueError naming
    ``what`` when the norm itself overflows.
    """
    scale = _power_of_two_scale(arr)
    return require_finite(
        lambda: scale * float(np.linalg.norm(arr / scale)), f"{what} overflows float64"
    )


def operator_norm(b) -> float:
    """Largest singular value, as the root of the top Gram eigenvalue.

    Dividing by a power of two first is exact and keeps the squares in range.
    """
    arr = require_matrix(b, "b")
    scale = _power_of_two_scale(arr)
    return scale * math.sqrt(float(_gram_eigenvalues(arr / scale)[-1]))


def stable_rank(b) -> float:
    """||B||_F^2 / ||B||_op^2. Lies in [1, rank(B)] for nonzero B.

    The ratio is taken on B over a power of two, as in ``operator_norm``.
    """
    arr = require_matrix(b, "b")
    scaled = arr / _power_of_two_scale(arr)
    fro_sq = float(np.sum(scaled * scaled))
    if fro_sq == 0.0:
        raise ValueError("stable rank is undefined for the zero matrix")
    op = operator_norm(scaled)
    # The norms of a rank-one B agree, and rounding can leave their ratio an ulp below 1.
    return max(1.0, fro_sq / (op * op))


def snr(b, m: int, sigma: float) -> float:
    """||B||_F^2 / (m * sigma^2); returns NOISELESS when sigma = 0.

    B and sigma are split into mantissa and power of two, so the squares
    cannot over- or underflow: the value is bit-identical to the direct
    formula where that formula stays in range, a value below the double
    range rounds toward 0, and one above it raises ValueError.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    arr = require_matrix(b, "b")
    if sigma == 0:
        return NOISELESS
    total, exponent = _sum_of_squares(arr)
    mantissa, sigma_exponent = math.frexp(sigma)
    try:
        denominator = m * mantissa * mantissa
    except OverflowError:  # m itself is past the double range
        raise ValueError(f"m of about 1e{math.log10(m):.0f} overflows double precision") from None
    return _ldexp_finite(total / denominator, exponent - 2 * sigma_exponent, f"snr at sigma={sigma:g}")


def sigma_for_snr(b, m: int, target_snr: float) -> float:
    """Noise level that realizes ``target_snr`` = ||B||_F^2 / (m sigma^2); inverse of ``snr``."""
    if not target_snr > 0:
        raise ValueError(f"target snr must be positive, got {target_snr}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    arr = require_matrix(b, "b")
    total, exponent = _sum_of_squares(arr)
    if total == 0.0:
        raise ValueError("signal must be nonzero")
    # sqrt(total * 2**e / (m * snr)) with the even part of the exponent taken
    # out of the root: exact, so the result is the direct formula's wherever
    # that formula stays in range.
    mantissa, snr_exponent = math.frexp(target_snr)
    half, odd = divmod(exponent - snr_exponent, 2)
    what = f"noise level for snr {target_snr:g}"
    sigma = _ldexp_finite(math.sqrt(math.ldexp(total / (m * mantissa), odd)), half, what)
    if sigma == 0.0 and math.isfinite(target_snr):
        raise ValueError(f"{what} underflows double precision (below about 5e-324)")
    return sigma


def logdet_ratio(b, sigma: float, n: int) -> float:
    """logdet(I + B^T B / sigma^2) / log n via eigenvalues of the Gram matrix."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0 for the log-det ratio, got {sigma}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    arr = require_matrix(b, "b")
    ratios = require_finite(
        lambda: _gram_eigenvalues(arr) / (sigma * sigma),
        f"B^T B / sigma^2 overflows double precision at sigma={sigma:g}; "
        "the log-det ratio depends only on B / sigma, so rescale both",
    )
    return float(np.sum(np.log1p(ratios)) / math.log(n))


def minimax_logdet_threshold(n: int) -> float:
    """(log n! - 2) / n, computed through log-gamma so it is stable for large n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    try:
        return (math.lgamma(n + 1) - 2.0) / n
    except OverflowError:
        raise ValueError(
            f"log n! overflows double precision at n of about 1e{math.log10(n):.0f}"
        ) from None


class RegimeLabel(Enum):
    UNKNOWN = "unknown"
    HARD = "hard"
    MEDIUM = "medium"
    EASY = "easy"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegimeThresholds:
    """Boundaries of the difficulty regimes (natural log, left-closed above).

    Easy:    srank >= c2 * (log n)^4
    Medium:  c1 * log n <= srank < c2 * (log n)^4
    Hard:    c0 <= srank < c1 * log n
    Unknown: srank < c0
    """

    c0: float = 2.0
    c1: float = 1.0
    c2: float = 1.0


DEFAULT_REGIME_THRESHOLDS = RegimeThresholds()


def classify_regime(
    srank: float,
    n: int,
    thresholds: RegimeThresholds = DEFAULT_REGIME_THRESHOLDS,
) -> RegimeLabel:
    if srank < 1:
        raise ValueError(f"stable rank is always >= 1, got {srank}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    log_n = math.log(n)
    if srank >= thresholds.c2 * log_n**4:
        return RegimeLabel.EASY
    if srank >= thresholds.c1 * log_n:
        return RegimeLabel.MEDIUM
    if srank >= thresholds.c0:
        return RegimeLabel.HARD
    return RegimeLabel.UNKNOWN


@blas.single_threaded()
def relative_signal_error(b_hat, b_true) -> float:
    """||B_hat - B_true||_F / ||B_true||_F, each norm over a power of two so no square overflows.

    B_hat - B_true overflows only where an entry reaches 2**1023; both are
    halved first then, which is exact for entries that large, so the
    difference is taken over a power of two as well. ValueError when the
    ratio itself overflows.
    """
    hat = require_matrix(b_hat, "b_hat")
    true = require_matrix(b_true, "b_true")
    if hat.shape != true.shape:
        raise ValueError(f"shape mismatch: {hat.shape} vs {true.shape}")
    half = 2.0 if max(np.abs(hat).max(), np.abs(true).max()) >= 2.0**1023 else 1.0
    diff = hat / half - true / half
    diff_scale, true_scale = _power_of_two_scale(diff), _power_of_two_scale(true)
    denom = float(np.linalg.norm(true / true_scale))
    if denom == 0.0:
        raise ValueError("b_true must be nonzero")
    return require_finite(
        lambda: float(np.linalg.norm(diff / diff_scale)) / denom * (diff_scale / true_scale * half),
        "relative signal error ||B_hat - B_true||_F / ||B_true||_F overflows float64",
    )
