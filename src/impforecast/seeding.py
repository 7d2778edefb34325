"""Deterministic per-task seed derivation.

Every stochastic task in the pipeline (one fit of one candidate on one
channel) gets its own seed mixed from the master seed, so a fit's
randomness does not depend on which other fits run before it or with it.
"""

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *tokens: int) -> int:
    """Fold integer tokens into ``master`` with splitmix64 chaining."""
    h = master & _MASK
    for t in tokens:
        h = _splitmix64(h ^ (int(t) & _MASK))
    return h


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``_splitmix64`` of every element of a uint64 array."""
    x = x + np.uint64(0x9E3779B97F4A7C15)  # uint64 arithmetic wraps mod 2**64
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))
