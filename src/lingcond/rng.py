"""Deterministic random-stream derivation.

All randomness in the package flows through counter-based Philox generators
keyed by ``SeedSequence([seed, purpose, *context])``. The purpose constants
below keep streams for distinct uses (model generation, noise sampling, ICA
restarts) independent even when they share a user-facing seed, so any
(seed, context) pair maps to the same data on every platform and run.
"""

import numpy as np

from .exceptions import integer

PURPOSE_SCM = 1
PURPOSE_SAMPLE = 2
PURPOSE_ICA = 3

# ``quantize`` counts a float stream key in steps of one millionth
_RESOLUTION = 1e-6


def _seed_sequence(keys) -> np.random.SeedSequence:
    keys = [integer(k, "stream key") for k in keys]
    if any(k < 0 for k in keys):
        raise ValueError(f"stream keys must be non-negative integers, got {keys}")
    return np.random.SeedSequence(keys)


def stream(*keys: int) -> np.random.Generator:
    """Return a Generator for the stream identified by the integer keys."""
    if not keys:
        raise ValueError("at least one key is required")
    return np.random.Generator(np.random.Philox(_seed_sequence(keys)))


def derive_seed(*keys: int) -> int:
    """Collapse integer keys into a single 32-bit seed (for record keeping)."""
    return int(_seed_sequence(keys).generate_state(1)[0])


def quantize(value: float) -> int:
    """Map a non-negative float (e.g. an edge density) to a stable integer key."""
    if value < 0:
        raise ValueError("only non-negative values can be used as stream keys")
    return int(round(value / _RESOLUTION))
