"""Coupling description, drift matrix and the normal-mode propagator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import propagator
from finitebath.bath import realize_bath
from finitebath.model import (BathSpec, SystemState, TestParticleSpec,
                              total_energy)
from finitebath.propagator import (
    EigensolverError,
    build_multi_coupling_matrix,
    diagonalize,
    drift_matrix,
    full_state,
    max_mode_frequency,
    mode_residual,
)
from finitebath.switched import SwitchSchedule, TwoBathSystem


def _initial_vector(tp, real):
    return SystemState(time=0.0, test_q=tp.q0, test_p=tp.p0,
                       bath_q=(real.positions,),
                       bath_p=(real.momenta,)).as_vector()


def _one_bath(tp, frequencies, m):
    return build_multi_coupling_matrix(tp, [(m, frequencies, True)])


def _mode_matrix(prop):
    """The dense mass-orthonormal mode matrix U, gathered from the shape blocks."""
    n = len(prop.nu)
    v = np.zeros((n, n))
    for cols, block in propagator._mode_blocks(prop.shapes):
        v[np.ix_(prop.shapes.coord, cols)] = block
    return v / np.sqrt(prop.cm.mass)[:, None]


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
    v0 = _initial_vector(particle, real)
    prop = diagonalize(cm, v0)
    assert mode_residual(prop) < 1e-9
    u = _mode_matrix(prop)
    np.testing.assert_allclose(u.T @ (prop.cm.mass[:, None] * u), np.eye(len(u)),
                               atol=1e-9)
    np.testing.assert_array_equal(prop.u0, u[0])
    np.testing.assert_allclose(prop.coef_cos, u.T @ (prop.cm.mass * v0[0::2]),
                               rtol=0.0, atol=1e-12 * np.max(np.abs(prop.coef_cos)))
    np.testing.assert_allclose(prop.coef_sin, u.T @ v0[1::2],
                               rtol=0.0, atol=1e-12 * np.max(np.abs(prop.coef_sin)))


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


def test_vectorized_sampling_matches_pointwise(small_bath, particle, monkeypatch):
    real = realize_bath(small_bath, seed=8)
    cm = _one_bath(particle, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(particle, real))
    times = np.array([0.0, 0.7, 3.1, 12.9, 55.0])
    whole = prop.sample_test_particle(times)
    # two samples per table: every chunk boundary and a short last chunk
    monkeypatch.setattr(propagator, "SAMPLE_CHUNK", 2 * len(prop.nu))
    chunked = prop.sample_test_particle(times)
    for q, p in (whole, chunked):
        for i, t in enumerate(times):
            state = full_state(prop, float(t))
            assert q[i] == pytest.approx(state.test_q, abs=1e-10)
            assert p[i] == pytest.approx(state.test_p, abs=1e-10)


def test_spectral_propagator_agrees_with_stepping(band, step_literally):
    bath = BathSpec(size=8, mass=0.01, temperature=5.0, dos=band)
    real = realize_bath(bath, seed=2)
    tp = TestParticleSpec(mass=1.0, omega=0.5, q0=1.0, p0=0.0)
    cm = _one_bath(tp, real.frequencies, real.m)
    v0 = _initial_vector(tp, real)
    eig = diagonalize(cm, v0)
    # continuous contact: both switch phases engage the one bath
    system = TwoBathSystem(tp=tp, realizations=(real,), a1=cm, a2=cm)
    times = np.array([1.0, 5.0])
    rk4 = step_literally(system, SwitchSchedule(step_size=1e-3), v0, [1000, 5000])
    q_e, p_e = eig.sample_test_particle(times)
    np.testing.assert_allclose(rk4[:, 0], q_e, rtol=0.0, atol=1e-7)
    np.testing.assert_allclose(rk4[:, 1], p_e, rtol=0.0, atol=1e-7)


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


# -- the secular solver against a dense eigh oracle ----------------------


def _dense_stiffness(tp, baths, static):
    """Masses and stiffness K of (m, frequencies, active) baths, entry by entry."""
    n = 1 + sum(len(freqs) for _, freqs, _ in baths)
    mass = np.empty(n)
    mass[0] = tp.mass
    k = np.zeros((n, n))
    k[0, 0] = tp.mass * tp.omega**2
    j = 1
    for m, freqs, active in baths:
        for w in freqs:
            mass[j] = m
            k[j, j] = m * w * w
            if active or static:
                k[0, 0] += m * w * w
            if active:
                k[0, j] = k[j, 0] = -m * w * w
            j += 1
    return mass, k


def _eigh_samples(mass, k, v0, times):
    """Eigenvalues and (Q, P) at the times from a dense eigh factorization."""
    s = 1.0 / np.sqrt(mass)
    lam, vec = np.linalg.eigh(k * np.outer(s, s))
    modes = vec * s[:, None]
    nu = np.sqrt(lam)
    a, b = modes.T @ (mass * v0[0::2]), modes.T @ v0[1::2]
    c, sn = np.cos(np.outer(times, nu)), np.sin(np.outer(times, nu))
    q = (c * a + sn * (b / nu)) @ modes[0]
    p = mass[0] * ((c * b - sn * (a * nu)) @ modes[0])
    return lam, (q, p)


@st.composite
def coupled_systems(draw):
    """A contact phase, the (tp, baths, static) that define it, and a random initial state."""
    kind = draw(st.sampled_from(
        ["random", "equal", "clusters", "inactive", "single"]))
    tp = TestParticleSpec(mass=draw(st.floats(0.5, 2.0)),
                          omega=draw(st.floats(0.05, 3.0)))
    m = draw(st.floats(1e-4, 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    static = False
    if kind == "random":
        baths = [(m, rng.uniform(0.1, 2.0, draw(st.integers(1, 40))), True)]
    elif kind == "equal":
        baths = [(m, np.full(draw(st.integers(2, 40)), rng.uniform(0.1, 2.0)), True)]
    elif kind == "clusters":
        # groups of frequencies 1e-13 apart
        size = draw(st.integers(2, 5))
        base = np.repeat(rng.uniform(0.1, 2.0, draw(st.integers(1, 8))), size)
        offsets = np.tile(np.arange(size) * 1e-13, len(base) // size)
        baths = [(m, base + offsets, True)]
    elif kind == "inactive":
        static = draw(st.booleans())
        baths = [(m, rng.uniform(0.1, 2.0, draw(st.integers(1, 20))),
                  draw(st.booleans())),
                 (draw(st.floats(1e-4, 0.05)),
                  rng.uniform(0.1, 2.0, draw(st.integers(1, 20))), False)]
    else:
        baths = [(m, rng.uniform(0.1, 2.0, 1), True)]
    cm = build_multi_coupling_matrix(tp, baths, static_renorm=static)
    return cm, (tp, baths, static), rng.normal(size=cm.dim)


@given(system=coupled_systems())
@settings(max_examples=60, deadline=None)
def test_secular_modes_match_dense_eigh(system):
    cm, defined, v0 = system
    mass, k = _dense_stiffness(*defined)
    # the drift matrix derived from the arrowhead is K interleaved: 1 / M_i
    # at (2i, 2i + 1), -K at the (odd, even) entries.  The oracle adds the
    # corner one spring at a time, up to one rounding of max|K| per spring
    a = np.zeros((cm.dim, cm.dim))
    a[0::2, 1::2] = np.diag(1.0 / mass)
    a[1::2, 0::2] = -k
    np.testing.assert_allclose(drift_matrix(cm), a, rtol=0.0,
                               atol=len(mass) * np.finfo(float).eps * np.max(np.abs(k)))
    times = np.linspace(0.0, 50.0, 64)
    lam, ref = _eigh_samples(mass, k, v0, times)
    prop = diagonalize(cm, v0)
    np.testing.assert_allclose(prop.nu**2, lam, rtol=0.0, atol=1e-12 * lam[-1])
    assert max_mode_frequency(cm) == pytest.approx(np.sqrt(lam[-1]), rel=1e-12)
    u = _mode_matrix(prop)
    np.testing.assert_allclose(u.T @ (prop.cm.mass[:, None] * u), np.eye(len(u)),
                               rtol=0.0, atol=1e-12)
    assert mode_residual(prop) < 1e-12
    for _, freqs, active in defined[1]:
        if not active:      # a free oscillator is a mode at its own frequency
            assert np.all(np.isin(freqs, prop.nu))
    for got, want in zip(prop.sample_test_particle(times), ref):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-10 * np.max(np.abs(want)))


def test_slow_mode_keeps_full_relative_accuracy():
    """One oscillator: the product of the two eigenvalues is Omega^2 w^2."""
    tp = TestParticleSpec(mass=1.0, omega=1e-3)
    cm = _one_bath(tp, np.array([1.0]), 1.0)
    nu2 = diagonalize(cm, np.zeros(cm.dim)).nu**2
    assert nu2[0] * nu2[1] == pytest.approx(1e-6, rel=1e-14)


def test_eigen_path_does_not_call_eigh(monkeypatch, small_bath, particle):
    def refuse(*args, **kwargs):
        raise AssertionError("the normal modes must not come from eigh")

    monkeypatch.setattr(propagator.np.linalg, "eigh", refuse)
    real = realize_bath(small_bath, seed=4)
    cm = _one_bath(particle, real.frequencies, real.m)
    prop = diagonalize(cm, _initial_vector(particle, real))
    assert mode_residual(prop) < 1e-12
    assert max_mode_frequency(cm) == pytest.approx(prop.nu[-1], rel=1e-12)
    # bath masses 1e-6 of the particle's: the residual must not scale with m/M
    light = _one_bath(TestParticleSpec(mass=1.0, omega=1.0),
                      np.geomspace(1e-3, 1e3, 40), 1e-6)
    assert mode_residual(diagonalize(light, np.ones(light.dim))) < 1e-12


def _failing_dlasd4(i, d, z):
    return np.ones_like(d), 1.0, np.ones_like(d), 1


def test_secular_solver_failure_is_an_eigensolver_error(monkeypatch, small_bath, particle):
    monkeypatch.setattr(propagator, "dlasd4", _failing_dlasd4)
    real = realize_bath(small_bath, seed=4)
    cm = _one_bath(particle, real.frequencies, real.m)
    with pytest.raises(EigensolverError, match="dlasd4 failed"):
        diagonalize(cm, _initial_vector(particle, real))
    with pytest.raises(EigensolverError, match="dlasd4 failed"):
        max_mode_frequency(cm)


def test_loewner_vectors_stay_orthogonal_when_the_roots_carry_error():
    """Roots off by 1e-9 of their offsets still give orthonormal modes."""
    tp = TestParticleSpec(mass=1.0, omega=0.6)
    freqs = np.repeat(np.linspace(0.3, 0.9, 8), 2) + np.tile([0.0, 1e-10], 8)
    cm = _one_bath(tp, freqs, 0.01)
    df = propagator._deflate(cm)
    n = len(df.poles)
    assert n == 1 + len(freqs)              # nothing deflates
    origin, tau = propagator._secular_roots(df.poles, df.weights, np.arange(n))
    tau = tau * (1.0 + 1e-9 * np.random.default_rng(0).uniform(-1.0, 1.0, n))
    _, sh = propagator._mode_shapes(cm, df, origin, tau)
    shapes = np.concatenate([block.copy() for _, block in propagator._mode_blocks(sh)],
                            axis=1)
    np.testing.assert_allclose(shapes.T @ shapes, np.eye(n), rtol=0.0, atol=1e-13)


def test_mode_blocks_do_not_depend_on_the_block_size(monkeypatch):
    """Blocks of two modes give the one-block amplitudes and state.

    The bath mixes clusters of equal frequencies (Helmert vectors spanning
    blocks) with a free bath (unit vectors).
    """
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    rng = np.random.default_rng(5)
    clustered = np.repeat(rng.uniform(0.3, 0.9, 4), 5)
    cm = build_multi_coupling_matrix(tp, [(0.01, clustered, True),
                                          (0.02, rng.uniform(0.2, 1.0, 7), False)])
    v0 = rng.normal(size=cm.dim)
    whole = diagonalize(cm, v0)
    monkeypatch.setattr(propagator, "SHAPE_BLOCK", 2)
    blocks = diagonalize(cm, v0)
    np.testing.assert_array_equal(blocks.nu, whole.nu)
    for got, want in ((blocks.u0, whole.u0),
                      (blocks.coef_cos, whole.coef_cos), (blocks.coef_sin, whole.coef_sin),
                      (full_state(blocks, 7.3).as_vector(),
                       full_state(whole, 7.3).as_vector())):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))
    assert mode_residual(blocks) < 1e-12


def test_factorization_never_holds_a_mode_matrix(band):
    """diagonalize plus full_state at N = 2000 stay far below one (N+1)^2 array."""
    bath = BathSpec(size=2000, mass=2e-3, temperature=5.0, dos=band)
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    real = realize_bath(bath, seed=1)
    cm = _one_bath(tp, real.frequencies, real.m)
    v0 = _initial_vector(tp, real)
    tracemalloc.start()
    try:
        full_state(diagonalize(cm, v0), 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (bath.size + 1) ** 2 / 4
