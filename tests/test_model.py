"""Density of states families, spec validation and state layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath.model import (
    MAX_BATH_SIZE,
    BathRealization,
    BathSpec,
    DensityOfStates,
    SystemState,
    TestParticleSpec,
    bare_energy,
    initial_state,
    oscillator_energies,
    total_energy,
)

FAMILIES = ("uniform", "inverse_square", "square")


# -- density of states -------------------------------------------------


def test_dos_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown density of states"):
        DensityOfStates("triangular", 0.2, 1.0)


def test_dos_rejects_inverted_band():
    with pytest.raises(ValueError, match="omega_ir <= omega_uv"):
        DensityOfStates("uniform", 1.0, 0.2)
    with pytest.raises(ValueError, match="omega_ir <= omega_uv"):
        DensityOfStates("uniform", 0.0, 1.0)


def _moments(dos):
    """(median, mean, mean square) of a band from its ppf and pdf."""
    grid = np.linspace(dos.omega_ir, dos.omega_uv, 200001)
    density = dos.pdf(grid)
    return (float(dos.ppf(0.5)), np.trapezoid(grid * density, grid),
            np.trapezoid(grid**2 * density, grid))


def test_uniform_moments():
    median, mean, mean_square = _moments(DensityOfStates("uniform", 0.2, 1.0))
    assert median == pytest.approx(0.6, rel=1e-15)
    assert mean == pytest.approx(0.6, rel=1e-9)
    # <w^2> = (b^3 - a^3) / (3 (b - a))
    assert mean_square == pytest.approx(0.992 / 2.4, rel=1e-9)


def test_inverse_square_moments():
    median, mean, mean_square = _moments(DensityOfStates("inverse_square", 0.2, 1.0))
    # median solves (1/a - 1/m) = (1/a - 1/b)/2, i.e. m = 2ab/(a+b)
    assert median == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert mean == pytest.approx(np.log(5.0) / 4.0, rel=1e-9)
    # the 1/w^2 weight makes <w^2> collapse to the product of the edges
    assert mean_square == pytest.approx(0.2, rel=1e-9)


def test_square_moments():
    median, mean, mean_square = _moments(DensityOfStates("square", 0.2, 1.0))
    assert median == pytest.approx(np.cbrt(0.504), rel=1e-14)
    assert mean == pytest.approx(0.75 * (1 - 0.2**4) / (1 - 0.2**3), rel=1e-9)
    assert mean_square == pytest.approx(0.6 * (1 - 0.2**5) / (1 - 0.2**3),
                                        rel=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_normalized_and_banded(family):
    dos = DensityOfStates(family, 0.2, 1.0)
    grid = np.linspace(0.2, 1.0, 20001)
    integral = np.trapezoid(dos.pdf(grid), grid)
    assert integral == pytest.approx(1.0, rel=1e-6)
    assert dos.pdf(np.array([0.1, 1.1])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("family", FAMILIES)
@given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=50, deadline=None)
def test_ppf_cdf_roundtrip(family, u):
    dos = DensityOfStates(family, 0.2, 1.0)
    w = float(dos.ppf(u))
    assert 0.2 <= w <= 1.0
    assert float(dos.cdf(w)) == pytest.approx(u, abs=1e-12)


# the per-family closed forms the single power-law formula replaced
def _closed_ppf(family, a, b, u):
    if family == "uniform":
        return a + u * (b - a)
    if family == "square":
        return np.cbrt(a**3 + u * (b**3 - a**3))
    return 1.0 / (1.0 / a - u * (1.0 / a - 1.0 / b))


def _closed_cdf(family, a, b, w):
    if family == "uniform":
        c = (w - a) / (b - a)
    elif family == "square":
        c = (w**3 - a**3) / (b**3 - a**3)
    else:
        c = (1.0 / a - 1.0 / w) / (1.0 / a - 1.0 / b)
    return np.clip(c, 0.0, 1.0)


def _closed_pdf(family, a, b, w):
    if family == "uniform":
        d = np.full_like(w, 1.0 / (b - a))
    elif family == "square":
        d = 3.0 * w**2 / (b**3 - a**3)
    else:
        d = 1.0 / (w**2 * (1.0 / a - 1.0 / b))
    return np.where((w >= a) & (w <= b), d, 0.0)


BANDS = ((0.2, 1.0), (0.05, 3.0), (0.999, 1.001))


def _band_forms(family, a, b):
    """(power-law form, closed form) of ppf, cdf and pdf on 1e5 points."""
    dos = DensityOfStates(family, a, b)
    u = np.random.default_rng(7).random(100_000)
    w = np.linspace(0.5 * a, 1.5 * b, 100_001)
    return [(dos.ppf(u), _closed_ppf(family, a, b, u)),
            (dos.cdf(w), _closed_cdf(family, a, b, w)),
            (dos.pdf(w), _closed_pdf(family, a, b, w))]


@pytest.mark.parametrize("family", ("uniform", "inverse_square"))
@pytest.mark.parametrize("a, b", BANDS)
def test_power_law_band_is_the_closed_form_bit_for_bit(family, a, b):
    for new, old in _band_forms(family, a, b):
        np.testing.assert_array_equal(new, old)
    # a scalar draw rounds as an array draw does
    dos = DensityOfStates(family, a, b)
    assert dos.ppf(0.3) == _closed_ppf(family, a, b, 0.3)


@pytest.mark.parametrize("a, b", BANDS)
def test_power_law_square_band_is_the_closed_form_to_a_few_ulp(a, b):
    for new, old in _band_forms("square", a, b):
        np.testing.assert_array_max_ulp(new, old, maxulp=4)


def test_degenerate_band():
    dos = DensityOfStates("uniform", 0.7, 0.7)
    assert dos.degenerate
    assert np.all(dos.ppf(np.linspace(0, 0.99, 7)) == 0.7)
    assert dos.cdf(0.7) == 1.0 and dos.cdf(0.69) == 0.0
    with pytest.raises(ValueError, match="zero bandwidth"):
        dos.pdf(0.7)


# -- particle and bath specs -------------------------------------------


def test_particle_spec_validation():
    with pytest.raises(ValueError, match="mass must be positive"):
        TestParticleSpec(mass=0.0)
    with pytest.raises(ValueError, match="frequency must be >= 0"):
        TestParticleSpec(omega=-1.0)


def test_particle_initial_energy():
    tp = TestParticleSpec(mass=2.0, omega=3.0, q0=1.0, p0=2.0)
    # P^2/2M + M Omega^2 Q^2 / 2 = 4/4 + 2*9/2
    assert bare_energy(tp.q0, tp.p0, tp) == pytest.approx(10.0, rel=1e-15)


def test_bath_spec_validation():
    with pytest.raises(ValueError, match="size"):
        BathSpec(size=0)
    BathSpec(size=MAX_BATH_SIZE)
    for size in (MAX_BATH_SIZE + 1, 10**308):
        with pytest.raises(ValueError, match="^size must be between 1 and MAX_BATH_SIZE"):
            BathSpec(size=size)
    with pytest.raises(ValueError, match="mass"):
        BathSpec(mass=-0.01)
    with pytest.raises(ValueError, match="temperature"):
        BathSpec(temperature=0.0)
    # a subnormal temperature's energies are too small to bin
    for t in (5e-324, np.finfo(float).tiny / 2, np.nan):
        with pytest.raises(ValueError, match="temperature must be positive and a normal float"):
            BathSpec(temperature=t)
    BathSpec(temperature=np.finfo(float).tiny)


def test_oscillator_energies_vectorized():
    w = np.array([0.5, 1.0, 2.0])
    q = np.array([1.0, -2.0, 0.3])
    p = np.array([0.1, 0.0, -1.0])
    m = 0.4
    expected = [p[i] ** 2 / (2 * m) + 0.5 * m * w[i] ** 2 * q[i] ** 2
                for i in range(3)]
    np.testing.assert_allclose(oscillator_energies(q, p, w, m), expected,
                               rtol=1e-15)


def test_bare_energy_keeps_its_closed_form_bits():
    # the histogrammed energy, now the oscillator energy of the particle
    tp = TestParticleSpec(mass=1.7, omega=0.3)
    rng = np.random.default_rng(3)
    q, p = rng.normal(size=1000), rng.normal(size=1000)
    np.testing.assert_array_equal(
        bare_energy(q, p, tp),
        p * p / (2.0 * tp.mass) + 0.5 * tp.mass * tp.omega**2 * q * q)


def test_bath_realization_checks_lengths_and_mass():
    w, q = np.array([1.0, 2.0]), np.array([1.0, 0.5])
    with pytest.raises(ValueError, match="momenta has length 1"):
        BathRealization(frequencies=w, positions=q, momenta=np.zeros(1), m=0.1)
    with pytest.raises(ValueError, match="mass must be positive"):
        BathRealization(frequencies=w, positions=q, momenta=q, m=0.0)


# -- state layout ------------------------------------------------------


@given(sizes=st.lists(st.integers(min_value=1, max_value=6),
                      min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=50, deadline=None)
def test_state_vector_roundtrip(sizes, data):
    dim = 2 + 2 * sum(sizes)
    vec = np.array(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=dim, max_size=dim)))
    state = SystemState.from_vector(vec, sizes, time=1.5)
    np.testing.assert_array_equal(state.as_vector(), vec)
    assert state.time == 1.5
    assert [len(q) for q in state.bath_q] == sizes


def test_initial_state_places_the_particle_and_every_draw():
    tp = TestParticleSpec(mass=1.0, omega=0.5, q0=0.25, p0=-1.5)
    reals = [BathRealization(frequencies=np.full(n, 1.0), positions=np.arange(n) + 1.0,
                             momenta=-np.arange(n) - 1.0, m=0.1) for n in (2, 3)]
    state = initial_state(tp, reals)
    assert (state.time, state.test_q, state.test_p) == (0.0, 0.25, -1.5)
    np.testing.assert_array_equal(
        state.as_vector(),
        [0.25, -1.5, 1.0, -1.0, 2.0, -2.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0])


def test_state_vector_rejects_wrong_length():
    with pytest.raises(ValueError, match="expected"):
        SystemState.from_vector(np.zeros(5), [2])


def test_state_rejects_ragged_blocks():
    with pytest.raises(ValueError, match="positions but"):
        SystemState(time=0.0, test_q=0.0, test_p=0.0,
                    bath_q=(np.zeros(2),), bath_p=(np.zeros(3),))


# -- energies ----------------------------------------------------------


def test_bare_energy_excludes_interaction():
    tp = TestParticleSpec(mass=1.0, omega=1.0)
    assert bare_energy(2.0, 0.0, tp) == pytest.approx(2.0)
    assert bare_energy(0.0, 2.0, tp) == pytest.approx(2.0)


def test_total_energy_anchor_follows_activity():
    tp = TestParticleSpec(mass=1.0, omega=1.0)
    w = np.array([1.0])
    real = BathRealization(frequencies=w,
                           positions=np.array([0.0]), momenta=np.array([0.0]),
                           m=1.0)
    state = SystemState(time=0.0, test_q=2.0, test_p=0.0,
                        bath_q=(np.array([0.0]),), bath_p=(np.array([0.0]),))
    # particle 1/2 * 4 = 2; engaged spring adds 1/2 * (0 - 2)^2 = 2
    assert total_energy(state, tp, [(real, True)]) == pytest.approx(4.0)
    assert total_energy(state, tp, [(real, False)]) == pytest.approx(2.0)
    assert bare_energy(state.test_q, state.test_p, tp) == pytest.approx(2.0)


def test_total_energy_checks_bath_count():
    tp = TestParticleSpec()
    state = SystemState(time=0.0, test_q=0.0, test_p=1.0,
                        bath_q=(np.zeros(2),), bath_p=(np.zeros(2),))
    with pytest.raises(ValueError, match="baths but"):
        total_energy(state, tp, [])
