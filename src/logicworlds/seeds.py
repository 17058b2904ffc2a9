"""Deterministic sub-seed derivation.

Every random decision in the pipeline descends from a ``random.Random``
seeded through ``derive_seed``, so worlds and instances can be generated
independently (and in parallel) while staying byte-reproducible. Most
draw from it directly; world-graph growth draws from a second generator
seeded once with the first 64-bit draw of its ``TAG_WORLDGRAPH`` stream.

The mixing function is a SplitMix64 fold: starting from 0, each integer
part is XORed in and passed through the SplitMix64 finalizer. The scheme
is stable across platforms and Python versions and is part of the
on-disk reproducibility contract (see README, "Determinism and seed derivation").
"""

import random

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Mix integer parts into a 64-bit sub-seed.

    Negative parts are folded into 64 bits two's-complement style so the
    result only depends on the low 64 bits of each part.
    """
    h = 0
    for part in parts:
        h = _splitmix64(h ^ (part & _MASK64))
    return h


def rng_for(*parts: int) -> random.Random:
    """A fresh ``random.Random`` seeded from the mixed parts."""
    return random.Random(derive_seed(*parts))


# Domain tags keeping independent rng streams from colliding.
TAG_ALPHABET = 1
TAG_RULES = 2
TAG_PARTITION = 3
TAG_WORLDGRAPH = 4
TAG_INSTANCE = 6
