"""Deterministic seed trees and cheap scalar uniforms for the samplers.

Every stochastic operation in the package takes an explicit ``seed`` which may
be an integer, a ``numpy.random.SeedSequence`` or a ready ``Generator``.  Seeds
are combined into streams by hashing, never by wall clock, so a campaign is a
pure function of (config, master seed).
"""
from __future__ import annotations

import hashlib

import numpy as np

Seed = "int | np.random.SeedSequence | np.random.Generator"


def seed_sequence(*entropy) -> np.random.SeedSequence:
    """Build a SeedSequence from a mix of ints and strings (order matters).

    Strings are folded in through sha256 so that e.g. an experiment kind or a
    config hash can key a stream; the result is stable across processes.
    """
    words: list[int] = []
    for item in entropy:
        if isinstance(item, (int, np.integer)):
            words.append(int(item) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(item, str):
            digest = hashlib.sha256(item.encode("utf-8")).digest()
            words.extend(
                int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
            )
        else:
            raise TypeError(f"cannot fold {type(item).__name__} into a seed")
    return np.random.SeedSequence(words)


def as_generator(seed) -> np.random.Generator:
    """Coerce int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(np.random.SeedSequence(int(seed)))
    raise TypeError(f"bad seed of type {type(seed).__name__}")


def spawn(seed, n: int):
    """Split a seed into ``n`` independent child streams.

    Pure for a SeedSequence: the children a first ``seed.spawn(n)`` returns,
    however often ``seed`` was spawned before.
    """
    if isinstance(seed, np.random.SeedSequence):
        key, size = seed.spawn_key, seed.pool_size
        return [np.random.SeedSequence(seed.entropy, spawn_key=(*key, i), pool_size=size) for i in range(n)]
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed)).spawn(n)
    if isinstance(seed, np.random.Generator):
        return seed.spawn(n)
    raise TypeError(f"cannot spawn from {type(seed).__name__}")


# uniforms drawn per block by UniformBlocks
_BLOCK = 8192


class UniformBlocks:
    """Scalar uniforms served from pre-drawn blocks of a Generator.

    Chains consume millions of single uniforms; drawing them in blocks and
    converting once to Python floats is roughly 5x faster than per-call
    ``Generator.random()``.
    """

    __slots__ = ("_rng", "_buf", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(_BLOCK).tolist()
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i == _BLOCK:
            self._buf = self._rng.random(_BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]

    def next_index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        i = int(self.next() * n)
        return n - 1 if i >= n else i
