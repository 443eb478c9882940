"""Domain types and random synthesis for row-shuffled linear models.

The observation model is ``Y = P X B + W`` where ``X`` is an n-by-p design,
``B`` a p-by-m signal, ``W`` i.i.d. Gaussian noise, and ``P`` an unknown row
permutation. Matrices are plain float64 numpy arrays in row-major order.

Row-action convention (shared by every module): applying a permutation ``pi``
to a matrix ``M`` produces a matrix whose row ``i`` equals row ``pi(i)`` of
``M``, the row gather ``M[perm.indices]``. With this convention row ``i`` of
``Y`` is generated from row ``pi(i)`` of ``X``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import blas
from .rng import generator


class DistributionKind(Enum):
    """Entry distribution of the design matrix (each entry i.i.d.)."""

    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    RADEMACHER = "rademacher"

    @classmethod
    def from_name(cls, name: str) -> "DistributionKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise ValueError(f"unknown distribution {name!r}; expected one of: {valid}") from None

    def __str__(self) -> str:
        return self.value


def require_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array; raise ValueError otherwise."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not _all_finite(arr):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr)


def _all_finite(arr: np.ndarray) -> bool:
    # NaN propagates through min and max, so two scalars replace an n x n mask; the
    # ufunc reductions and math.isfinite skip the method and numpy-scalar overheads.
    return math.isfinite(np.minimum.reduce(arr, axis=None)) and math.isfinite(
        np.maximum.reduce(arr, axis=None)
    )


def require_finite(compute: Callable, message: str):
    """``compute()``, a float or a float array; ValueError(message) unless it is finite.

    The overflow rule of every numpy computation in the library: its value
    is finite or this ValueError, never numpy's RuntimeWarning or a silent
    inf. numpy's overflow, invalid and divide-by-zero warnings are off inside
    ``compute``, since a value they would flag is non-finite and raises here;
    underflow keeps the caller's setting.

    This is the library's only finiteness test and error-state switch;
    ``require_matrix`` shares its array test, ``_all_finite``, without the switch.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = compute()
    if not (math.isfinite(value) if isinstance(value, float) else _all_finite(value)):
        raise ValueError(message)
    return value


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on {0, ..., n-1} stored as an index map ``indices[i] = pi(i)``."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("permutation must be a non-empty 1-D index array")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"permutation indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64)
        n = idx.size
        seen = np.zeros(n, dtype=bool)
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError("permutation indices out of range")
        seen[idx] = True
        if not seen.all():
            raise ValueError("permutation indices are not a bijection")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return bool(np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:
        return hash(self.indices.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({self.indices.tolist()!r})"


def sample_design_matrix(n: int, p: int, dist: DistributionKind, seed: int) -> np.ndarray:
    """Draw an n-by-p design with i.i.d. entries from ``dist``; deterministic for a fixed seed."""
    if n < 1 or p < 1:
        raise ValueError(f"design dimensions must be positive, got n={n}, p={p}")
    rng = generator(seed, "design")
    if dist is DistributionKind.GAUSSIAN:
        x = rng.standard_normal((n, p))
    elif dist is DistributionKind.UNIFORM:
        x = rng.uniform(-1.0, 1.0, size=(n, p))
    elif dist is DistributionKind.RADEMACHER:
        x = rng.integers(0, 2, size=(n, p)).astype(np.float64) * 2.0 - 1.0
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown distribution {dist!r}")
    return x


def sample_permutation_with_hamming_weight(n: int, h: int, seed: int) -> Permutation:
    """Uniform permutation of {0..n-1} with exactly ``h`` displaced points.

    The displaced set is a uniform h-subset and its restriction is a uniform
    derangement obtained by rejection sampling (expected < e retries). ``h = 1``
    is impossible (a single displaced point has nowhere to go) and rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if h < 0 or h > n:
        raise ValueError(f"h must lie in [0, {n}], got {h}")
    if h == 1:
        raise ValueError("no permutation has exactly one displaced point")
    indices = np.arange(n, dtype=np.int64)
    if h == 0:
        return Permutation(indices)
    rng = generator(seed, "perm")
    subset = np.sort(rng.choice(n, size=h, replace=False))
    while True:
        d = rng.permutation(h)
        if not np.any(d == np.arange(h)):
            break
    indices[subset] = subset[d]
    return Permutation(indices)


def build_canonical_signal(p: int, m: int, scale: float) -> np.ndarray:
    """p-by-m signal whose column i is scale * e_i for i < min(m, p), zero beyond.

    All nonzero singular values equal ``scale``, so the stable rank is exactly
    min(m, p) and the squared Frobenius norm is scale^2 * min(m, p).
    """
    if p < 1 or m < 1:
        raise ValueError(f"signal dimensions must be positive, got p={p}, m={m}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    b = np.zeros((p, m), dtype=np.float64)
    k = min(p, m)
    b[np.arange(k), np.arange(k)] = scale
    return b


@dataclass(frozen=True)
class ProblemInstance:
    """A synthesized (X, B, P, Y) bundle."""

    x: np.ndarray
    b_true: np.ndarray
    perm_true: Permutation
    y: np.ndarray


@blas.single_threaded()
def synthesize_instance(
    n: int,
    p: int,
    m: int,
    h: int,
    dist: DistributionKind,
    b_true,
    sigma: float,
    seed: int,
) -> ProblemInstance:
    """Build one observation Y = P X B + W from independent sub-streams of ``seed``.

    ``sigma = 0`` yields exactly Y = P X B. The design, permutation, and noise
    draws use the sub-stream tags "design", "perm", and "noise", so each is
    reproducible in isolation. Raises ValueError when Y overflows float64.
    """
    b = require_matrix(b_true, "b_true")
    if b.shape != (p, m):
        raise ValueError(f"b_true has shape {b.shape}, expected ({p}, {m})")
    if not sigma >= 0:  # nan fails every comparison, so test for the valid range
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    x = sample_design_matrix(n, p, dist, seed)
    perm = sample_permutation_with_hamming_weight(n, h, seed)

    def observe() -> np.ndarray:
        y = (x @ b)[perm.indices]
        if sigma > 0:
            y = y + sigma * generator(seed, "noise").standard_normal((n, m))
        return y

    y = require_finite(observe, "observation Y = P X B + W overflows float64")
    return ProblemInstance(x=x, b_true=b, perm_true=perm, y=y)
