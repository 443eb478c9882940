"""Scalar diagnostics: Hamming distance, stable rank, SNR, log-det ratio,
relative signal error, and difficulty-regime classification.

SNR is defined as ||B||_F^2 / (m * sigma^2). The noiseless case (sigma = 0) is
represented by the distinguished ``NOISELESS`` marker, which compares greater
than any finite value, rather than by an infinite float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Permutation, require_matrix


class NoiselessMarker:
    """Singleton standing in for sigma = 0; larger than every finite SNR."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "noiseless"

    def __float__(self) -> float:
        return math.inf

    def __eq__(self, other) -> bool:
        return isinstance(other, NoiselessMarker)

    def __hash__(self) -> int:
        return hash("noiseless-marker")

    def __gt__(self, other) -> bool:
        return not isinstance(other, NoiselessMarker)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, NoiselessMarker)


NOISELESS = NoiselessMarker()


def hamming_distance(a: Permutation, b: Permutation) -> int:
    """Number of positions where the two index maps disagree."""
    if len(a) != len(b):
        raise ValueError(f"permutation lengths differ: {len(a)} vs {len(b)}")
    return int(np.count_nonzero(a.indices != b.indices))


def _gram_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Squared singular values, ascending: eigenvalues of the smaller of B^T B and B B^T."""
    side = arr.T @ arr if arr.shape[1] <= arr.shape[0] else arr @ arr.T
    return np.clip(np.linalg.eigvalsh(side), 0.0, None)


def _power_of_two_scale(arr: np.ndarray) -> float:
    """The power of two just above the largest |entry|; dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(float(np.abs(arr).max()))[1])


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
    return fro_sq / (op * op)


def snr(b, m: int, sigma: float) -> float | NoiselessMarker:
    """||B||_F^2 / (m * sigma^2); returns NOISELESS when sigma = 0."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    arr = require_matrix(b, "b")
    if sigma == 0:
        return NOISELESS
    return float(np.sum(arr * arr)) / (m * sigma * sigma)


def logdet_ratio(b, sigma: float, n: int) -> float:
    """logdet(I + B^T B / sigma^2) / log n via eigenvalues of the Gram matrix."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0 for the log-det ratio, got {sigma}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    arr = require_matrix(b, "b")
    with np.errstate(all="ignore"):
        ratios = _gram_eigenvalues(arr) / (sigma * sigma)
    if not np.all(np.isfinite(ratios)):
        raise ValueError(
            f"B^T B / sigma^2 overflows double precision at sigma={sigma:g}; "
            "the log-det ratio depends only on B / sigma, so rescale both"
        )
    return float(np.sum(np.log1p(ratios)) / math.log(n))


def minimax_logdet_threshold(n: int) -> float:
    """(log n! - 2) / n, computed through log-gamma so it is stable for large n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return (math.lgamma(n + 1) - 2.0) / n


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


def relative_signal_error(b_hat, b_true) -> float:
    """||B_hat - B_true||_F / ||B_true||_F."""
    hat = require_matrix(b_hat, "b_hat")
    true = require_matrix(b_true, "b_true")
    if hat.shape != true.shape:
        raise ValueError(f"shape mismatch: {hat.shape} vs {true.shape}")
    denom = float(np.linalg.norm(true))
    if denom == 0.0:
        raise ValueError("b_true must be nonzero")
    return float(np.linalg.norm(hat - true)) / denom
