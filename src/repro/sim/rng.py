"""Deterministic random source for the simulation.

A thin wrapper over :class:`random.Random` so every stochastic choice in
the reproduction (workload jitter, app complexity draws, GC burst traces)
flows through one seeded stream and runs are exactly repeatable.
"""

from __future__ import annotations

import random
import struct
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")

#: The Mersenne Twister state as ``random.Random.getstate()`` gives it
#: (624 32-bit words plus the position index), as little-endian 4-byte
#: words.  ``struct``'s standard sizes fix the width on every platform,
#: unlike ``array("I")``, whose item size is the C ``unsigned int``'s.
_MT_STATE = struct.Struct("<625I")


class DeterministicRng:
    """Seeded random stream used by workloads and app-corpus generators."""

    def __init__(self, seed: int = 0x5EED):
        self.seed = seed
        self._random = random.Random(seed)

    def __reduce__(self):
        """Pickle the generator state as 2.5 KB of bytes.

        A stock ``random.Random`` pickles as 625 boxed ints and, on
        load, first seeds itself from ``os.urandom`` only to have that
        state overwritten; snapshots restore one of these per system.
        """
        version, words, gauss_next = self._random.getstate()
        return _restore, (self.seed, version, _MT_STATE.pack(*words),
                          gauss_next)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        return self._random.sample(list(items), k)

    def shuffle(self, items: list[T]) -> list[T]:
        out = list(items)
        self._random.shuffle(out)
        return out

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def jitter(self, value: float, fraction: float) -> float:
        """Return ``value`` perturbed by up to ±``fraction`` of itself."""
        return value * (1.0 + self._random.uniform(-fraction, fraction))

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible sub-stream for ``label``.

        Uses a *stable* label hash (CRC32), not Python's built-in
        ``hash()`` — the latter is salted per process, which would make
        corpus draws differ between runs of the same seed.
        """
        label_hash = zlib.crc32(label.encode("utf-8"))
        sub_seed = (self.seed * 1_000_003 + label_hash) & 0x7FFF_FFFF
        return DeterministicRng(sub_seed)


def _restore(
    seed: int, version: int, words: bytes, gauss_next: float | None
) -> DeterministicRng:
    """Rebuild a pickled :class:`DeterministicRng` without seeding it."""
    generator = random.Random.__new__(random.Random)
    generator.setstate((version, _MT_STATE.unpack(words), gauss_next))
    rng = DeterministicRng.__new__(DeterministicRng)
    rng.seed = seed
    rng._random = generator
    return rng
