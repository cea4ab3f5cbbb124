"""Closed-form references: kernel, Langevin limit, exchange splitting and
arcsine law, and the two temperature mixture."""

import numpy as np
import pytest
from scipy.linalg import expm

from finitebath.bath import realize_bath
from finitebath.experiments import exchange_splitting
from finitebath.model import BathSpec, DensityOfStates, TestParticleSpec
from finitebath.oracles import (
    arcsine_cdf,
    arcsine_distribution_check,
    effective_temperature,
    langevin_friction,
    langevin_energy,
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


def _second_moments_energy(gamma, omega, temperature, t):
    """<E(t)> from rest by expm of the moment system on (<x^2>, <xy>, <y^2>, 1).

    dx = Omega y dt and dy = -(gamma y + Omega x) dt + sqrt(2 gamma T) dW
    in x = sqrt(M) Omega Q and y = P / sqrt(M); E = (x^2 + y^2) / 2.
    """
    a = np.array([[0.0, 2.0 * omega, 0.0, 0.0],
                  [-omega, -gamma, omega, 0.0],
                  [0.0, -2.0 * omega, -2.0 * gamma, 2.0 * gamma * temperature],
                  [0.0, 0.0, 0.0, 0.0]])
    moments = np.array([expm(a * x)[:, 3] for x in t])
    return 0.5 * (moments[:, 0] + moments[:, 2])


def test_langevin_reference_equilibrates_to_the_bath_temperature():
    t = np.linspace(0.0, 60.0, 601)
    energies = langevin_energy(1.0, 1.0, 2.0, t)
    assert energies[0] == 0.0
    assert np.all((energies >= 0.0) & (energies <= 2.0))
    assert np.max(np.abs(energies[t >= 40.0] - 2.0)) <= 1e-12 * 2.0


def test_langevin_reference_decays_without_noise():
    """At Omega = 0 only the momentum is damped: its deficit from T/2 decays as e^{-2 gamma t}."""
    t = np.linspace(0.0, 20.0, 201)
    for gamma in (0.05, 1.0, 7.0):
        np.testing.assert_allclose(langevin_energy(gamma, 0.0, 3.0, t),
                                   1.5 * -np.expm1(-2.0 * gamma * t), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("omega", [0.0, 1e-300, 0.5, 3.0])
def test_langevin_energy_without_friction_stays_zero(omega):
    """gamma = 0 takes the noise away, so a particle at rest stays at rest."""
    energies = langevin_energy(0.0, omega, 4.0, np.linspace(0.0, 100.0, 101))
    assert np.all(energies == 0.0)


@pytest.mark.parametrize("gamma, omega", [(2.0, 1.0), (0.3, 1.7), (6.0, 0.8)],
                         ids=["critical", "under-damped", "over-damped"])
def test_langevin_energy_matches_the_second_moment_system(gamma, omega):
    t = np.linspace(0.0, 50.0, 101)
    temperature = 3.0
    np.testing.assert_allclose(langevin_energy(gamma, omega, temperature, t),
                               _second_moments_energy(gamma, omega, temperature, t),
                               rtol=0.0, atol=1e-13 * temperature)


def test_langevin_reference_validation():
    """A phase Omega t or a decay gamma t beyond the doubles is refused."""
    with pytest.raises(ValueError, match="omega"):
        langevin_energy(1.0, 10.0, 1.0, [0.0, 1e308])
    with pytest.raises(ValueError, match="gamma"):
        langevin_energy(1e10, 0.0, 1.0, [0.0, 1e300])


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
