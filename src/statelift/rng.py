"""Seeded random number generation.

All randomized operations in the package draw from numpy's Philox bit
generator: it is counter-based, so (seed -> stream) is fixed across platforms
and substreams for parallel workers can be derived by counter jumps
(``Generator.bit_generator.jumped``).  Passing the same seed twice always
reproduces the same values bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintViolation


def _entropy(seed):
    if isinstance(seed, (int, np.integer)) and seed < 0:  # numpy's own error names no argument
        raise ConstraintViolation(f"seed must be nonnegative, got {seed}")
    return seed


def philox_rng(seed) -> np.random.Generator:
    """Return a Philox-backed Generator; Generator inputs pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(_entropy(seed)))


def spawn_seeds(seed: int, n: int) -> list:
    """Derive n independent child seeds from one master seed (deterministic)."""
    return np.random.SeedSequence(_entropy(seed)).spawn(n)
