"""Deterministic, named random streams.

Every random quantity in a run (bath frequencies, bath energies, phase
angles, sampling times) is drawn from its own stream so that changing
one parameter never shifts the draws of another.  Streams are keyed by
(seed, stream_id) through numpy's SeedSequence, which is stable across
platforms and numpy versions for a given bit generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy imports it lazily; loaded with the package, not inside a run
import numpy.random

# purpose codes; bath index k uses stream_id = purpose + STREAM_STRIDE * k
FREQUENCIES = 0
ENERGIES = 1
PHASES = 2
SAMPLING_TIMES = 3

STREAM_STRIDE = 16


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be non-negative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def substream(seed: int, purpose: int, index: int = 0) -> RngStream:
    """Stream for one purpose attached to one bath (or other indexed object)."""
    return RngStream(seed=seed, stream_id=purpose + STREAM_STRIDE * index)
