"""Deterministic seed derivation.

A single master seed drives all randomness.  Component streams are derived
by seeding numpy's ``SeedSequence`` with the tuple
``(master_seed, crc32(tag), *indices)``, so per-component and per-trial
generators are independent, reproducible, and safe to create in any order.
A tester trial reads all of its rounds from one such stream.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 64) - 1


def derive_rng(master_seed: int | None, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the stream named by ``tag`` (plus optional indices)."""
    entropy = [
        0 if master_seed is None else int(master_seed) & _MASK,
        zlib.crc32(tag.encode("utf-8")),
    ]
    entropy.extend(int(i) & _MASK for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(master_seed: int | None, tag: str, *indices: int) -> int:
    """A plain integer seed for APIs that take one."""
    return int(derive_rng(master_seed, tag, *indices).integers(0, 2**63 - 1))
