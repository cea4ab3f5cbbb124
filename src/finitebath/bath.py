"""Drawing concrete bath realizations from a statistical description.

Each draw takes a generator from ``rng.substream``.  Frequencies come
from the band distribution by inverse CDF, energies are Boltzmann
distributed by E = -T ln(1 - u) (exponential with mean T), and each
oscillator is placed uniformly on its energy shell:

    q_n = sqrt(2 E_n / (m w_n^2)) cos(phi),  p_n = sqrt(2 m E_n) sin(phi)

with phi uniform on [0, 2 pi).  Using inverse CDFs everywhere makes the
draws monotone functions of the underlying uniforms, so e.g. doubling T
exactly doubles every energy drawn with the same seed.
"""

from __future__ import annotations

import numpy as np

from .model import BathRealization, BathSpec
from .rng import ENERGIES, FREQUENCIES, PHASES, substream


def realize_bath(bath: BathSpec, seed: int, bath_index: int = 0) -> BathRealization:
    """Draw one full bath realization from three independent substreams.

    bath_index separates the streams of bath 1 and bath 2 in two bath
    runs; identical (bath, seed, bath_index) always reproduce the same
    realization bit for bit.
    """
    freqs = bath.dos.ppf(substream(seed, FREQUENCIES, bath_index).random(bath.size))
    u = substream(seed, ENERGIES, bath_index).random(bath.size)
    energies = -bath.temperature * np.log1p(-u)
    phases = substream(seed, PHASES, bath_index).uniform(0.0, 2.0 * np.pi, bath.size)

    amp_q = np.sqrt(2.0 * energies / (bath.mass * freqs**2))
    amp_p = np.sqrt(2.0 * bath.mass * energies)
    return BathRealization(frequencies=freqs, positions=amp_q * np.cos(phases),
                           momenta=amp_p * np.sin(phases), m=bath.mass)


def pairwise_cancelled(real: BathRealization) -> BathRealization:
    """Copy of a realization with oscillator 2j+1 mirroring 2j.

    Positions and momenta of each odd oscillator are set to minus those
    of the preceding even one (frequencies must match, so this is meant
    for degenerate baths), which makes sum q and sum p exactly zero.
    The collective bath coordinate then starts exactly at rest, which is
    what clean periodic energy exchange experiments need.
    """
    n = real.size
    if n % 2 != 0:
        raise ValueError(f"pairwise cancellation needs an even bath size, got {n}")
    freqs = real.frequencies.copy()
    if not np.all(freqs == freqs[0]):
        raise ValueError("pairwise cancellation is only meaningful for a degenerate bath")
    q = real.positions.copy()
    p = real.momenta.copy()
    q[1::2] = -q[0::2]
    p[1::2] = -p[0::2]
    return BathRealization(frequencies=freqs, positions=q, momenta=p, m=real.m)
