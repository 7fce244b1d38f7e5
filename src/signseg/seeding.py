"""Deterministic seed derivation.

Every random decision in the package flows from one integer seed plus a
purpose key, so reruns with the same seed are bit-identical and consumers
of unrelated streams (data, init, shuffling, ...) never collide.
"""
from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*keys) -> int:
    """Map a tuple of ints/strings to a stable 64-bit seed.

    Uses SHA-256 rather than hash() so the value is identical across
    interpreter runs and platforms. A numpy integer keys as the equal int,
    whose repr does not change with the numpy version.
    """
    payload = "\x1f".join(repr(int(k) if isinstance(k, np.integer) else k) for k in keys).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def derive_rng(*keys) -> np.random.Generator:
    """Generator seeded by derive_seed(*keys)."""
    return np.random.default_rng(derive_seed(*keys))
