"""Deterministic seed derivation and random-generator construction.

Every sampler in this package is a pure function of (dimensions, parameters,
seed). Sub-streams for logically independent draws (design matrix, permutation,
noise) are derived from one instance seed with string tags, and per-trial seeds
in experiment sweeps are derived from (master_seed, grid_index, trial_index),
so each draw is individually reproducible without replaying anything else.

The mixing function is part of the external reproducibility contract:

    state = splitmix64(master mod 2^64)
    for part in parts:
        state = splitmix64(state XOR enc(part))

where ``splitmix64`` is the standard SplitMix64 finalizer and ``enc`` is the
identity (mod 2^64) for integers and FNV-1a 64 for strings. The resulting
64-bit value keys a Philox counter-based generator.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# Memoized: the sub-stream tags are a handful of fixed strings, hashed once per trial each.
@functools.lru_cache(maxsize=256)
def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def derive_seed(master: int, *parts: int | str) -> int:
    """Mix ``master`` and ``parts`` into a 64-bit sub-stream seed.

    Integers are folded mod 2^64; strings are hashed with FNV-1a 64. The
    function is its own specification: identical inputs give identical seeds
    on every platform and release.
    """
    state = _splitmix64(master & _MASK64)
    for part in parts:
        if isinstance(part, str):
            enc = _fnv1a64(part)
        else:
            enc = int(part) & _MASK64
        state = _splitmix64(state ^ enc)
    return state


def generator(master: int, *parts: int | str) -> np.random.Generator:
    """Counter-based generator keyed by ``derive_seed(master, *parts)``."""
    return np.random.Generator(np.random.Philox(key=derive_seed(master, *parts)))
