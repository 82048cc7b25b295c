"""Seeded counter-based random streams shared by the simulator and the trainer.

Every random draw of a run comes from a Philox generator keyed by the run's
seed and a tag naming the draw, so runs are bit-reproducible and one draw
can change without reshuffling another.
"""

from __future__ import annotations

import numpy as np


def _check_seed(seed) -> None:
    """The seed is one 64-bit word of the Philox key, so it must be an
    integer in [0, 2**64); reducing any other value would silently alias
    another seed's streams."""
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _philox(seed: int, tag: int) -> np.random.Generator:
    """The stream keyed by (seed, tag)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))
