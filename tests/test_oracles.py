"""Closed-form references: kernel, Langevin limit, exchange splitting and
arcsine law, and the two temperature mixture."""

import numpy as np
import pytest

from finitebath.bath import realize_bath
from finitebath.experiments import exchange_splitting
from finitebath.model import BathSpec, DensityOfStates, TestParticleSpec
from finitebath.oracles import (
    arcsine_cdf,
    arcsine_distribution_check,
    effective_temperature,
    langevin_friction,
    langevin_reference,
    memory_kernel,
    mixture_distribution,
)
from finitebath.propagator import build_multi_coupling_matrix, diagonalize


# -- memory kernel ------------------------------------------------------


def test_kernel_at_zero_lag_is_the_spring_sum():
    w = np.array([0.3, 0.7, 1.0])
    m = 0.02
    out = memory_kernel(w, m, 0.0)
    assert out == pytest.approx(float(np.sum(m * w**2)), rel=1e-14)


def test_kernel_hand_value_and_shape():
    w = np.array([2.0])
    tau = np.array([0.0, 0.5, 1.0])
    out = memory_kernel(w, 0.5, tau)
    np.testing.assert_allclose(out, 2.0 * np.cos(2.0 * tau), rtol=1e-14)
    assert out.shape == (3,)


# -- Markovian limit ----------------------------------------------------


def test_friction_rate_from_the_density_of_states():
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    bath = BathSpec(size=400, mass=0.01, temperature=5.0,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    gamma = langevin_friction(tp, bath, 0.5)
    assert gamma == pytest.approx(np.pi * 0.01 * 0.25 / 2.0 * 400 * 1.25,
                                  rel=1e-12)
    assert langevin_friction(tp, bath, 2.0) == 0.0


def test_langevin_reference_equilibrates_to_the_bath_temperature():
    tp = TestParticleSpec(mass=1.0, omega=1.0)
    times, energies = langevin_reference(
        tp, gamma=1.0, temperature=2.0, t_final=60.0, dt=1e-3,
        rng=np.random.default_rng(21), n_paths=16, sample_stride=100)
    late = energies[:, times > 20.0]
    assert np.mean(late) == pytest.approx(2.0, rel=0.15)


def test_langevin_reference_decays_without_noise():
    tp = TestParticleSpec(mass=1.0, omega=1.0, q0=1.0, p0=0.0)
    times, energies = langevin_reference(
        tp, gamma=2.0, temperature=0.0, t_final=10.0, dt=1e-3,
        rng=np.random.default_rng(0), sample_stride=1000)
    assert energies.shape == (1, 10)
    assert energies[0, -1] < 1e-6


def test_langevin_reference_validation():
    tp = TestParticleSpec()
    with pytest.raises(ValueError, match="positive"):
        langevin_reference(tp, 1.0, 1.0, t_final=1.0, dt=0.0,
                           rng=np.random.default_rng(0))


# -- zero bandwidth exchange --------------------------------------------


def test_exchange_splitting_matches_the_microscopic_modes():
    n, xi, omega_r = 6, 0.04, 1.3
    m = xi / n
    tp = TestParticleSpec(mass=1.0, omega=omega_r * np.sqrt(1.0 - xi))
    cm = build_multi_coupling_matrix(tp, [(m, np.full(n, omega_r), True)])
    prop = diagonalize(cm, np.zeros(cm.dim))
    nu = np.sort(prop.nu)
    assert nu[0] == pytest.approx(omega_r * np.sqrt(1.0 - np.sqrt(xi)), rel=1e-12)
    assert nu[-1] == pytest.approx(omega_r * np.sqrt(1.0 + np.sqrt(xi)), rel=1e-12)
    np.testing.assert_allclose(nu[1:-1], omega_r, rtol=1e-12)
    assert exchange_splitting(omega_r, xi) == pytest.approx(nu[-1] - nu[0],
                                                           rel=1e-12)


def test_exchange_splitting_domain():
    with pytest.raises(ValueError, match="0 < xi < 1"):
        exchange_splitting(1.0, 0.0)
    with pytest.raises(ValueError, match="0 < xi < 1"):
        exchange_splitting(1.0, 1.0)


def test_arcsine_cdf_endpoints_and_median():
    assert arcsine_cdf(0.0, 4.0) == 0.0
    assert arcsine_cdf(4.0, 4.0) == pytest.approx(1.0)
    assert arcsine_cdf(2.0, 4.0) == pytest.approx(0.5)


def test_arcsine_check_accepts_true_arcsine_samples():
    rng = np.random.default_rng(1)
    e0 = 7.0
    samples = e0 * np.sin(np.pi * rng.uniform(size=3000)) ** 2
    d, p = arcsine_distribution_check(samples, e0)
    assert d < 0.05
    assert p > 0.01


def test_arcsine_check_rejects_out_of_band_samples():
    with pytest.raises(ValueError, match="outside"):
        arcsine_distribution_check(np.array([0.5, 1.5]), 1.0)


# -- two temperature mixture --------------------------------------------


def test_mixture_density_is_normalized():
    e = np.linspace(0.0, 200.0, 20001)
    rho = mixture_distribution(e, 5.0, 10.0)
    assert rho[0] == pytest.approx(0.15, rel=1e-12)
    assert np.trapezoid(rho, e) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ValueError, match="positive"):
        mixture_distribution(e, 0.0, 10.0)


def test_effective_temperature_at_zero_energy_is_the_mean():
    assert effective_temperature(0.0, 5.0, 10.0) == 7.5
    assert effective_temperature(0.0, 3.0, 4.0) == 3.5


def test_effective_temperature_solves_the_defining_equation():
    for e in (0.1, 0.5, 1.0, 3.0):
        t = effective_temperature(e, 5.0, 10.0, rel_tol=1e-13)
        target = 0.5 * (5.0 * np.exp(-e / 5.0) + 10.0 * np.exp(-e / 10.0))
        residual = abs(t * np.exp(-e / t) - target) / target
        assert residual < 1e-10
        assert 7.5 <= t <= 10.0


def test_effective_temperature_is_symmetric_and_monotone():
    assert effective_temperature(0.7, 5.0, 10.0) == pytest.approx(
        effective_temperature(0.7, 10.0, 5.0), rel=1e-9)
    ts = [effective_temperature(e, 5.0, 10.0) for e in (0.1, 0.5, 2.0, 10.0, 40.0)]
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_effective_temperature_equal_baths_is_trivial():
    assert effective_temperature(2.0, 4.0, 4.0) == pytest.approx(4.0, rel=1e-9)


def test_effective_temperature_validation():
    with pytest.raises(ValueError, match="positive"):
        effective_temperature(1.0, -5.0, 10.0)
    with pytest.raises(ValueError, match=">= 0"):
        effective_temperature(-1.0, 5.0, 10.0)
