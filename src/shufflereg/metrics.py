"""Scalar diagnostics: Hamming distance, stable rank, SNR and its inverse
``sigma_for_snr``, log-det ratio, relative signal error, and difficulty-regime
classification.

SNR is defined as ||B||_F^2 / (m * sigma^2), so the noiseless case (sigma = 0)
is SNR = +inf. It is the float ``NOISELESS``, which equals, hashes and orders
as ``math.inf`` and differs only in its repr, ``noiseless``.

One scaling rule serves every metric of a matrix: it squares B / 2**e, never
B. ``_mantissa`` picks 2**e, the power of two just above max|B| (capped at
2**1023), so the division is exact and no square overflows; ``_ldexp_finite``
puts the power of two back and raises a ValueError naming the quantity when
the result passes the double range. Where the direct formula stays in range,
``frobenius_norm``, ``snr`` and ``sigma_for_snr`` equal it to the bit.
"""

from __future__ import annotations

import math
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
def _singular_values(arr: np.ndarray) -> np.ndarray:
    """Singular values, descending; those at or below numpy's rank cut max(p, m) * eps * s_1 read 0.

    OpenBLAS runs at one thread here, so the values do not depend on the core count.
    """
    svals = np.linalg.svd(arr, compute_uv=False)
    svals[svals <= max(arr.shape) * np.finfo(np.float64).eps * svals[0]] = 0.0
    return svals


def _mantissa(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """(arr / 2**e, e), with 2**e the power of two just above max|arr|, capped at 2**1023."""
    exponent = min(math.frexp(float(np.abs(arr).max()))[1], 1023)
    return arr / math.ldexp(1.0, exponent), exponent


_OVERFLOWS = "overflows double precision (above about 1.8e308)"


def _ldexp_finite(value, exponent: int, message: str):
    """value * 2**exponent, a float or an array, rounded as IEEE underflow rounds, or ValueError."""
    result = require_finite(lambda: np.ldexp(value, exponent), message)
    return float(result) if np.ndim(result) == 0 else result


def frobenius_norm(arr: np.ndarray, what: str) -> float:
    """||arr||_F by the scaling rule; ValueError naming ``what`` when the norm overflows."""
    scaled, exponent = _mantissa(arr)
    return _ldexp_finite(float(np.linalg.norm(scaled)), exponent, f"{what} overflows float64")


def stable_rank(b) -> float:
    """sum_i s_i^2 / s_1^2 over the singular values of ``_mantissa(B)``; in [1, rank(B)]."""
    squares = _singular_values(_mantissa(require_matrix(b, "b"))[0]) ** 2
    if squares[0] == 0.0:
        raise ValueError("stable rank is undefined for the zero matrix")
    return float(np.sum(squares) / squares[0])


def _times_count(m: int, value: float) -> float:
    """m * value for the column count m, or ValueError when m itself is past the double range."""
    try:
        return m * value
    except OverflowError:
        raise ValueError(f"m of about 1e{math.log10(m):.0f} overflows double precision") from None


def snr(b, sigma: float) -> float:
    """||B||_F^2 / (m * sigma^2), with m the column count of B; NOISELESS when sigma = 0.

    B and sigma are split into mantissa and power of two, so a value below
    the double range rounds toward 0 and one above it raises ValueError.
    """
    if not sigma >= 0:  # nan fails every comparison, so test for the valid range
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    scaled, exponent = _mantissa(require_matrix(b, "b"))
    if sigma == 0:
        return NOISELESS
    total = float(np.sum(scaled * scaled))
    mantissa, sigma_exponent = math.frexp(sigma)
    denominator = scaled.shape[1] * mantissa * mantissa
    what = f"snr at sigma={sigma:g} {_OVERFLOWS}"
    return _ldexp_finite(total / denominator, 2 * (exponent - sigma_exponent), what)


def sigma_for_snr(b, m: int, target_snr: float) -> float:
    """Noise level that realizes ``target_snr`` = ||B||_F^2 / (m sigma^2); inverse of ``snr``."""
    if not target_snr > 0:
        raise ValueError(f"target snr must be positive, got {target_snr}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    scaled, exponent = _mantissa(require_matrix(b, "b"))
    total = float(np.sum(scaled * scaled))
    if total == 0.0:
        raise ValueError("signal must be nonzero")
    # sqrt(total * 2**(2e) / (m * snr)) with the even part of the exponent taken out of the root.
    mantissa, snr_exponent = math.frexp(target_snr)
    half, odd = divmod(2 * exponent - snr_exponent, 2)
    what = f"noise level for snr {target_snr:g}"
    root = math.sqrt(math.ldexp(total / _times_count(m, mantissa), odd))
    sigma = _ldexp_finite(root, half, f"{what} {_OVERFLOWS}")
    if sigma == 0.0 and math.isfinite(target_snr):
        raise ValueError(f"{what} underflows double precision (below about 5e-324)")
    return sigma


def logdet_ratio(b, sigma: float, n: int) -> float:
    """sum_i log1p(s_i^2 / sigma^2) / log n = logdet(I + B^T B / sigma^2) / log n.

    The s_i come from ``_singular_values`` of ``_mantissa(B)``, so B counts only its rank.
    ValueError only when a singular value of B / sigma passes about 1.3e154.
    """
    if not sigma > 0:  # nan fails every comparison, so test for the valid range
        raise ValueError(f"sigma must be > 0 for the log-det ratio, got {sigma}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    scaled, exponent = _mantissa(require_matrix(b, "b"))
    mantissa, sigma_exponent = math.frexp(sigma)
    ratios = _ldexp_finite(
        _singular_values(scaled) ** 2 / (mantissa * mantissa),
        2 * (exponent - sigma_exponent),
        f"log-det ratio at sigma={sigma:g}: a singular value of B / sigma passes about 1.3e154 "
        "and its square overflows double precision",
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


def classify_regime(srank: float, n: int) -> RegimeLabel:
    """Difficulty regime of a signal with stable rank ``srank`` at n rows.

    With c0 = 2, c1 = 1, c2 = 1 and the natural log, each band left-closed:

    Easy:    srank >= c2 * (log n)^4
    Medium:  c1 * log n <= srank < c2 * (log n)^4
    Hard:    c0 <= srank < c1 * log n
    Unknown: srank < c0, or log n < c0 (n <= 7), where c1 * log n < c0
             empties the hard band and the bands fall out of order
    """
    if srank < 1:
        raise ValueError(f"stable rank is always >= 1, got {srank}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    log_n = math.log(n)
    if log_n < 2.0:
        return RegimeLabel.UNKNOWN
    if srank >= log_n**4:
        return RegimeLabel.EASY
    if srank >= log_n:
        return RegimeLabel.MEDIUM
    if srank >= 2.0:
        return RegimeLabel.HARD
    return RegimeLabel.UNKNOWN


@blas.single_threaded()
def relative_signal_error(b_hat, b_true) -> float:
    """||B_hat - B_true||_F / ||B_true||_F, each norm by the scaling rule.

    B_hat - B_true overflows only where an entry reaches 2**1023; both are
    halved first then, which is exact for entries that large, so the
    difference is taken over a power of two as well. ValueError when the
    ratio itself overflows.
    """
    hat = require_matrix(b_hat, "b_hat")
    true = require_matrix(b_true, "b_true")
    if hat.shape != true.shape:
        raise ValueError(f"shape mismatch: {hat.shape} vs {true.shape}")
    halved = max(np.abs(hat).max(), np.abs(true).max()) >= 2.0**1023
    diff, diff_exponent = _mantissa(hat / 2.0 - true / 2.0 if halved else hat - true)
    true_scaled, true_exponent = _mantissa(true)
    denom = float(np.linalg.norm(true_scaled))
    if denom == 0.0:
        raise ValueError("b_true must be nonzero")
    return _ldexp_finite(
        float(np.linalg.norm(diff)) / denom,
        diff_exponent - true_exponent + halved,
        "relative signal error ||B_hat - B_true||_F / ||B_true||_F overflows float64",
    )
