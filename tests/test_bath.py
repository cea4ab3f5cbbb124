"""Bath realization draws: distributions, determinism, symmetrization."""

import numpy as np
import pytest
from scipy import stats as sp_stats

from finitebath.bath import (
    pairwise_cancelled,
    realize_bath,
    sample_energies,
    sample_frequencies,
)
from finitebath.model import BathSpec, DensityOfStates, oscillator_energies
from finitebath.rng import RngStream


def test_realize_bath_is_deterministic(small_bath):
    a = realize_bath(small_bath, seed=4)
    b = realize_bath(small_bath, seed=4)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.momenta, b.momenta)
    assert realize_bath(small_bath, seed=5).frequencies[0] != a.frequencies[0]


def test_realize_bath_respects_band(small_bath):
    real = realize_bath(small_bath, seed=1)
    assert real.size == small_bath.size
    assert np.all(real.frequencies >= small_bath.dos.omega_ir)
    assert np.all(real.frequencies <= small_bath.dos.omega_uv)
    assert np.all(real.energies >= 0.0)
    # stored energies match the phase-space point by construction
    np.testing.assert_allclose(
        real.energies,
        oscillator_energies(real.positions, real.momenta,
                            real.frequencies, real.m),
        rtol=1e-12)


def test_realization_energies_derive_from_its_phase_space(small_bath):
    real = realize_bath(small_bath, seed=4)
    np.testing.assert_array_equal(
        real.energies,
        oscillator_energies(real.positions, real.momenta, real.frequencies, real.m))


def test_bath_index_separates_draws(small_bath):
    a = realize_bath(small_bath, seed=4, bath_index=0)
    b = realize_bath(small_bath, seed=4, bath_index=1)
    assert not np.array_equal(a.frequencies, b.frequencies)
    assert not np.array_equal(a.energies, b.energies)


def test_doubling_temperature_doubles_energies(band):
    """Inverse CDF draws are monotone in T: same seed, exact factor 2."""
    cold = BathSpec(size=200, mass=0.01, temperature=3.0, dos=band)
    hot = BathSpec(size=200, mass=0.01, temperature=6.0, dos=band)
    e_cold = realize_bath(cold, seed=9).energies
    e_hot = realize_bath(hot, seed=9).energies
    np.testing.assert_allclose(e_hot, 2.0 * e_cold, rtol=1e-12)


@pytest.mark.parametrize("family", ["uniform", "inverse_square", "square"])
def test_frequency_draws_follow_the_band_distribution(family):
    dos = DensityOfStates(family, 0.2, 1.0)
    bath = BathSpec(size=4000, mass=0.01, temperature=5.0, dos=dos)
    freqs = sample_frequencies(bath, RngStream(seed=12).generator())
    stat = sp_stats.kstest(freqs, dos.cdf)
    assert stat.pvalue > 0.01


def test_energy_draws_are_boltzmann(small_bath):
    bath = BathSpec(size=4000, mass=0.01, temperature=5.0, dos=small_bath.dos)
    energies = sample_energies(bath, RngStream(seed=13).generator())
    stat = sp_stats.kstest(energies, sp_stats.expon(scale=5.0).cdf)
    assert stat.pvalue > 0.01
    assert np.mean(energies) == pytest.approx(5.0, rel=0.05)


# -- symmetrized initial conditions ------------------------------------


def _degenerate_bath(n=8):
    dos = DensityOfStates("uniform", 1.0, 1.0)
    return BathSpec(size=n, mass=0.01, temperature=2.0, dos=dos)


def _collective(real):
    """Sums (sum q_n, sum p_n) of a realization."""
    return float(np.sum(real.positions)), float(np.sum(real.momenta))


def test_pairwise_cancelled_zeroes_collective_coordinates():
    real = realize_bath(_degenerate_bath(), seed=2)
    sq, sp_ = _collective(real)
    assert sq != 0.0 and sp_ != 0.0
    cancelled = pairwise_cancelled(real)
    assert _collective(cancelled) == (0.0, 0.0)
    np.testing.assert_array_equal(cancelled.positions[1::2],
                                  -cancelled.positions[0::2])
    np.testing.assert_array_equal(cancelled.energies[1::2],
                                  cancelled.energies[0::2])


def test_pairwise_cancelled_needs_even_degenerate_bath(small_bath):
    odd = realize_bath(_degenerate_bath(n=7), seed=2)
    with pytest.raises(ValueError, match="even"):
        pairwise_cancelled(odd)
    banded = realize_bath(small_bath, seed=2)
    with pytest.raises(ValueError, match="degenerate"):
        pairwise_cancelled(banded)
