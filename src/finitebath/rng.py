"""Deterministic, named random streams.

Every random quantity in a run (bath frequencies, bath energies, phase
angles, sampling times) is drawn from its own stream so that changing
one parameter never shifts the draws of another.  ``substream`` is the
one way to draw: it returns the ``np.random.Generator`` of the stream
keyed by (seed, purpose + STREAM_STRIDE * index) through numpy's
SeedSequence, which is stable across platforms and numpy versions for a
given bit generator, and which refuses a negative seed or stream id.
"""

from __future__ import annotations

import numpy as np
# numpy imports it lazily; loaded with the package, not inside a run
import numpy.random

# purpose codes; bath index k uses stream_id = purpose + STREAM_STRIDE * k
FREQUENCIES = 0
ENERGIES = 1
PHASES = 2
SAMPLING_TIMES = 3

STREAM_STRIDE = 16


def substream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator for one purpose attached to one bath (or other indexed object)."""
    ss = np.random.SeedSequence(seed, spawn_key=(purpose + STREAM_STRIDE * index,))
    return np.random.Generator(np.random.PCG64(ss))
