"""Coupling description, drift matrix and the normal-mode propagator."""

import numpy as np
import pytest

from finitebath.bath import realize_bath
from finitebath.model import (BathSpec, SystemState, TestParticleSpec,
                              total_energy)
from finitebath.propagator import (
    EigensolverError,
    build_multi_coupling_matrix,
    diagonalize,
    drift_matrix,
    full_state,
    mode_residual,
)
from finitebath.switched import SwitchSchedule, SwitchedPropagator, TwoBathSystem


def _initial_vector(tp, real):
    return SystemState(time=0.0, test_q=tp.q0, test_p=tp.p0,
                       bath_q=(real.positions,),
                       bath_p=(real.momenta,)).as_vector()


def _one_bath(tp, frequencies, m):
    return build_multi_coupling_matrix(tp, [(m, frequencies, True)])


def test_single_oscillator_drift_matrix_by_hand():
    tp = TestParticleSpec(mass=2.0, omega=3.0)
    m, w = 0.5, 1.5
    k = m * w * w
    expected = np.array([
        [0.0, 1.0 / 2.0, 0.0, 0.0],
        [-2.0 * 9.0 - k, 0.0, k, 0.0],
        [0.0, 0.0, 0.0, 1.0 / m],
        [k, 0.0, -k, 0.0],
    ])
    cm = _one_bath(tp, np.array([w]), m)
    np.testing.assert_allclose(drift_matrix(cm), expected, rtol=1e-15)
    assert cm.bath_sizes == (1,)
    assert cm.dim == 4


def test_partial_coupling_matrices_superpose():
    """Engaged-1 plus engaged-2 minus free equals engaged-both."""
    tp = TestParticleSpec(mass=1.0, omega=0.7)
    f1 = np.array([0.4, 0.9])
    f2 = np.array([2.1, 2.6, 3.0])
    both = build_multi_coupling_matrix(tp, [(0.01, f1, True), (0.02, f2, True)])
    only1 = build_multi_coupling_matrix(tp, [(0.01, f1, True), (0.02, f2, False)])
    only2 = build_multi_coupling_matrix(tp, [(0.01, f1, False), (0.02, f2, True)])
    free = build_multi_coupling_matrix(tp, [(0.01, f1, False), (0.02, f2, False)])
    a = {name: drift_matrix(cm) for name, cm in
         (("both", both), ("only1", only1), ("only2", only2), ("free", free))}
    np.testing.assert_allclose(a["only1"] + a["only2"] - a["free"],
                               a["both"], rtol=1e-12, atol=1e-15)


def test_static_renormalization_only_stiffens_the_particle():
    tp = TestParticleSpec(mass=1.0, omega=0.7)
    f1 = np.array([0.4, 0.9])
    f2 = np.array([2.1, 2.6])
    switched = build_multi_coupling_matrix(tp, [(0.01, f1, True), (0.02, f2, False)])
    static = build_multi_coupling_matrix(tp, [(0.01, f1, True), (0.02, f2, False)],
                                         static_renorm=True)
    diff = drift_matrix(static) - drift_matrix(switched)
    spring2 = float(np.sum(0.02 * f2**2))
    assert diff[1, 0] == pytest.approx(-spring2, rel=1e-15)
    diff[1, 0] = 0.0
    assert np.all(diff == 0.0)


def test_symmetric_pair_normal_modes():
    """M = m = Omega = omega = 1 gives nu^2 = (3 +- sqrt(5)) / 2."""
    tp = TestParticleSpec(mass=1.0, omega=1.0)
    cm = _one_bath(tp, np.array([1.0]), 1.0)
    prop = diagonalize(cm, np.array([1.0, 0.0, 0.0, 0.0]))
    nu2 = np.sort(prop.nu**2)
    expected = np.array([(3.0 - np.sqrt(5.0)) / 2.0,
                         (3.0 + np.sqrt(5.0)) / 2.0])
    np.testing.assert_allclose(nu2, expected, rtol=1e-12)


def test_normal_modes_solve_the_stiffness_problem(small_bath, particle):
    real = realize_bath(small_bath, seed=3)
    cm = _one_bath(particle, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(particle, real))
    assert mode_residual(prop) < 1e-9
    u = prop.modes
    np.testing.assert_allclose(u.T @ (prop.mass[:, None] * u), np.eye(len(u)),
                               atol=1e-9)


def test_energy_is_conserved_along_the_flow(band, particle):
    bath = BathSpec(size=30, mass=0.01, temperature=5.0, dos=band)
    real = realize_bath(bath, seed=6)
    cm = _one_bath(particle, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(particle, real))
    e0 = total_energy(full_state(prop, 0.0), particle, [(real, True)])
    for t in (1.0, 17.3, 60.0, 200.0):
        e = total_energy(full_state(prop, t), particle, [(real, True)])
        assert abs(e - e0) / e0 < 1e-10


def test_observation_starts_at_the_initial_condition(small_bath, particle):
    real = realize_bath(small_bath, seed=3)
    tp = TestParticleSpec(mass=1.0, omega=0.5, q0=0.3, p0=-0.7)
    cm = _one_bath(tp, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(tp, real))
    q, p = prop.sample_test_particle([0.0])
    assert q[0] == pytest.approx(0.3, abs=1e-12)
    assert p[0] == pytest.approx(-0.7, abs=1e-12)


def test_vectorized_sampling_matches_pointwise(small_bath, particle):
    real = realize_bath(small_bath, seed=8)
    cm = _one_bath(particle, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(particle, real))
    times = np.array([0.0, 0.7, 3.1, 12.9, 55.0])
    q, p = prop.sample_test_particle(times)
    for i, t in enumerate(times):
        state = full_state(prop, float(t))
        assert q[i] == pytest.approx(state.test_q, abs=1e-10)
        assert p[i] == pytest.approx(state.test_p, abs=1e-10)


def test_spectral_propagator_agrees_with_stepping(band):
    bath = BathSpec(size=8, mass=0.01, temperature=5.0, dos=band)
    real = realize_bath(bath, seed=2)
    tp = TestParticleSpec(mass=1.0, omega=0.5, q0=1.0, p0=0.0)
    cm = _one_bath(tp, real.frequencies, real.m)
    v0 = _initial_vector(tp, real)
    eig = diagonalize(cm, v0)
    # continuous contact: both switch phases engage the one bath
    system = TwoBathSystem(tp=tp, bath1=(bath, real), bath2=None, a1=cm, a2=cm)
    times = np.array([1.0, 5.0])
    rk4 = SwitchedPropagator(system, SwitchSchedule(step_size=1e-3)).run(
        v0, times, engine="dense")
    q_e, p_e = eig.sample_test_particle(rk4.times)
    np.testing.assert_allclose(rk4.q, q_e, rtol=0.0, atol=1e-7)
    np.testing.assert_allclose(rk4.p, p_e, rtol=0.0, atol=1e-7)


def test_zero_frequency_mode_is_rejected(band):
    """Omega = 0 plus an engaged bath leaves a free translation mode."""
    bath = BathSpec(size=3, mass=0.01, temperature=5.0, dos=band)
    real = realize_bath(bath, seed=1)
    tp = TestParticleSpec(mass=1.0, omega=0.0)
    cm = _one_bath(tp, real.frequencies, real.m)
    with pytest.raises(EigensolverError, match="zero frequency mode"):
        diagonalize(cm, _initial_vector(tp, real))


def test_initial_vector_shape_is_checked(small_bath, particle):
    real = realize_bath(small_bath, seed=1)
    cm = _one_bath(particle, real.frequencies, real.m)
    with pytest.raises(ValueError, match="initial state has shape"):
        diagonalize(cm, np.zeros(cm.dim - 1))


def test_bath_frequencies_must_be_positive(particle):
    with pytest.raises(ValueError, match="positive"):
        _one_bath(particle, np.array([0.5, -0.1]), 0.01)
