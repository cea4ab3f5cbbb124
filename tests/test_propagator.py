"""Coupling description, its dense drift matrix (the test reference) and the normal-mode propagator."""

import functools
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import propagator, transform, workers
from finitebath.bath import realize_bath
from finitebath.cli import EXIT_OK, main
from finitebath.experiments import ENERGY_DRIFT_TOL
from finitebath.model import (BathRealization, BathSpec, DensityOfStates, SystemState,
                              TestParticleSpec, total_energy)
from finitebath.propagator import (
    EigensolverError,
    build_multi_coupling_matrix,
    factorization_fits,
    factorization_resolves,
    diagonalize,
    flow_factors,
    max_mode_frequency,
    mode_residual,
    mode_vector,
    rk4_factors,
    rk4_mode_factors,
)
from finitebath.switched import SwitchSchedule, TwoBathSystem

from conftest import drift_matrix, full_state


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


def test_a_deflated_oscillator_keeps_its_spring_on_the_particle():
    # an oscillator 1e100 times as heavy as the particle: its border
    # z = -sqrt(m/M) w^2 = -8.1e49 lies below the deflation tolerance of the
    # corner alpha = Omega^2 + (m/M) w^2 = 8.1e99, so it is a mode on its own,
    # while its spring (m/M) w^2 stays in the corner and pins the particle:
    # the top mode is sqrt(alpha), as the dense stiffness has it
    cm = _one_bath(TestParticleSpec(mass=1.0, omega=0.5), np.array([0.9]), 1e100)
    assert propagator._deflate(cm).free.tolist() == [0]
    top = np.linalg.eigvalsh(np.array([[cm.alpha, cm.z[0]], [cm.z[0], cm.d[0]]]))[-1]
    assert max_mode_frequency(cm) == pytest.approx(np.sqrt(top), rel=1e-15)


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
    monkeypatch.setattr(transform, "SAMPLE_CHUNK", 2 * len(prop.nu))
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


def test_secular_solver_failure_is_an_eigensolver_error(failing_dlasd4, small_bath, particle):
    real = realize_bath(small_bath, seed=4)
    cm = _one_bath(particle, real.frequencies, real.m)
    with pytest.raises(EigensolverError, match="dlasd4 failed"):
        diagonalize(cm, _initial_vector(particle, real))
    with pytest.raises(EigensolverError, match="dlasd4 failed"):
        max_mode_frequency(cm)


def _large_bath(size=4000):
    real = realize_bath(BathSpec(size=size, mass=0.4 / size), seed=3)
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    return _one_bath(tp, real.frequencies, real.m), _initial_vector(tp, real)


def test_the_shape_pass_gives_the_same_bits_on_any_number_of_cpus(monkeypatch):
    """diagonalize's one pass over the shapes has bits that depend on N alone.

    The bath (N = 960: 760 lone oscillators, 20 clusters of 5 equal
    frequencies and a free bath of 100) has 35 blocks of every kind, so
    the pass runs across secular, free and Helmert blocks.
    On 1, 2 and 3 CPUs the projections, u_k[0] and the final state keep
    their bytes, and the state lies within 8 eps of its largest entry of
    a plain serial sum over the blocks.
    """
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    rng = np.random.default_rng(11)
    coupled = np.r_[rng.uniform(0.2, 1.0, 760), np.repeat(rng.uniform(0.3, 0.9, 20), 5)]
    cm = build_multi_coupling_matrix(tp, [(1e-3, coupled, True),
                                          (2e-3, rng.uniform(0.2, 1.0, 100), False)])
    v0 = rng.normal(size=cm.dim)
    final = functools.partial(flow_factors, t=123.4)

    def factor(cpus):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        prop = diagonalize(cm, v0, final=final)
        return prop, [prop.coef_cos, prop.coef_sin, prop.u0, prop.final_state.as_vector()]

    prop, want = factor(1)
    for cpus in (2, 3):
        assert [a.tobytes() for a in factor(cpus)[1]] == [a.tobytes() for a in want]
    kinds = {kind if isinstance(kind, str) else "helmert"
             for kind, *_ in propagator._blocks(prop.shapes)}
    assert kinds == {"secular", "free", "helmert"}
    c, s, _ = final(prop.nu)
    serial = np.zeros((len(prop.nu), 2))
    for cols, block in propagator._mode_blocks(prop.shapes):
        serial += block @ propagator._state_rows(prop.coef_cos[cols], prop.coef_sin[cols],
                                                 prop.nu[cols], c[cols], s[cols])
    root_m = np.sqrt(cm.mass)[prop.shapes.coord]
    state = want[3].reshape(-1, 2)[prop.shapes.coord]
    reference = np.stack([serial[:, 0] / root_m, serial[:, 1] * root_m], axis=1)
    assert np.max(np.abs(state - reference)) <= 8 * np.finfo(float).eps * np.max(np.abs(reference))


def test_a_failure_in_a_later_worker_names_the_lowest_failing_root(monkeypatch):
    """Two roots fail, 2500 and 3500, then 1500 and 3500: the error names the lower one.

    FAR_FIELD_ROOTS is pinned out of reach, so that dlasd4 takes every
    root of the 4001, in order.
    """
    cm, v0 = _large_bath()
    real_dlasd4 = propagator.dlasd4
    monkeypatch.setattr(propagator, "FAR_FIELD_ROOTS", np.iinfo(np.int64).max)
    for failing in ((2500, 3500), (1500, 3500)):
        def failing_at(n, i, d, z, delta, rho, sigma, work, info):
            real_dlasd4(n, i, d, z, delta, rho, sigma, work, info)
            if workers.dlasd4_int.from_address(i).value - 1 in failing:
                workers.dlasd4_int.from_address(info).value = 2

        monkeypatch.setattr(propagator, "dlasd4", failing_at)
        with pytest.raises(EigensolverError, match=rf"secular root {failing[0]} \(info = 2\)"):
            diagonalize(cm, v0)


def test_the_secular_roots_do_not_depend_on_the_frequency_scale():
    """Baths scaled from 1e-10 to 1e30 factor, with the modes of the unscaled bath.

    Each bath has 6 oscillators at w_max, which merge into one pole, and
    6 drawn in [w_max / 2, w_max]; Omega = 0.9 w_max and sum N m / M =
    0.5.  With unscaled poles dlasd4 failed on 62 of these 123 baths, all
    from 1e8 up.
    """
    rng = np.random.default_rng(11)
    for _ in range(3):
        shape = np.r_[np.ones(6), rng.uniform(0.5, 1.0, 6)]
        unit = diagonalize(_one_bath(TestParticleSpec(omega=0.9), shape, 0.5 / 12),
                           np.ones(2 + 2 * len(shape)))
        for w_max in 10.0 ** np.arange(-10, 31):
            cm = _one_bath(TestParticleSpec(omega=0.9 * w_max), w_max * shape, 0.5 / 12)
            prop = diagonalize(cm, np.ones(cm.dim))
            np.testing.assert_allclose(prop.nu / w_max, unit.nu, rtol=1e-13, atol=0.0)
            assert mode_residual(prop) < 1e-13


def test_the_far_field_roots_scale_with_a_power_of_two_bit_for_bit():
    """Frequencies times 2^40 and 2^-40 give the roots and modes times 2^40 and 2^-40, to the bit.

    1500 oscillators, so that the in-band roots go through the far field;
    Omega scales with them and sum N m / M = 0.4.
    """
    shape = np.random.default_rng(12).uniform(0.2, 1.0, 1500)
    unit = _one_bath(TestParticleSpec(omega=0.5), shape, 0.4 / 1500)
    df = propagator._deflate(unit)
    assert len(df.poles) >= propagator.FAR_FIELD_ROOTS
    origin, tau = propagator._secular_roots(df.poles, df.weights, np.arange(len(df.poles)))
    nu = diagonalize(unit, np.ones(unit.dim)).nu
    for scale in (2.0**40, 2.0**-40):
        cm = _one_bath(TestParticleSpec(omega=0.5 * scale), scale * shape, 0.4 / 1500)
        df = propagator._deflate(cm)
        got = propagator._secular_roots(df.poles, df.weights, np.arange(len(df.poles)))
        np.testing.assert_array_equal(got[0], origin)
        np.testing.assert_array_equal(got[1], scale * tau)
        np.testing.assert_array_equal(diagonalize(cm, np.ones(cm.dim)).nu, scale * nu)


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


@pytest.mark.parametrize("block", [propagator.SHAPE_BLOCK, 3])
def test_final_state_of_the_projection_sweep_is_bit_identical(monkeypatch, block):
    """diagonalize's final state is the separate pass's, to the last bit.

    For the exact flow that pass is full_state; for RK4 it is the mode
    form with the factors rho^n cos n phi and rho^n sin n phi, summed by
    mode_vector.  The bath has a free oscillator block and merged
    clusters, so every kind of shape block takes part, and blocks of
    three modes split each kind.
    """
    monkeypatch.setattr(propagator, "SHAPE_BLOCK", block)
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    rng = np.random.default_rng(8)
    clustered = np.r_[np.repeat(rng.uniform(0.3, 0.9, 3), 4), rng.uniform(0.2, 1.0, 9)]
    cm = build_multi_coupling_matrix(tp, [(0.01, clustered, True),
                                          (0.02, rng.uniform(0.2, 1.0, 7), False)])
    v0 = rng.normal(size=cm.dim)
    t = 123.4
    exact = diagonalize(cm, v0, final=lambda nu: flow_factors(nu, t))
    want = full_state(diagonalize(cm, v0), t)
    assert exact.final_state.time == want.time == t
    np.testing.assert_array_equal(exact.final_state.as_vector(), want.as_vector())

    step, h = 1234, 0.05
    rk4 = diagonalize(cm, v0, final=lambda nu: rk4_factors(nu, step, h))
    phi, log_rho = rk4_mode_factors(rk4.nu, h)
    decay = np.exp(step * log_rho)
    c, s = decay * np.cos(step * phi), decay * np.sin(step * phi)
    a, b, nu = rk4.coef_cos, rk4.coef_sin, rk4.nu
    np.testing.assert_array_equal(rk4.final_state.as_vector(),
                                  mode_vector(rk4, a * c + b * s / nu, b * c - a * nu * s))
    assert rk4.final_state.time == step * h


@pytest.mark.parametrize("coupling", [0.5, 30.0])
def test_a_merged_cluster_at_the_largest_admitted_frequency_stays_finite(coupling):
    """factorization_fits admits w and refuses 1 % more; a degenerate bath at w overflows nowhere.

    A merged cluster forms the largest products, sums of (m / M) w^6 for
    its pole and its Helmert frequencies.
    """
    edge = (math.log(np.finfo(float).max) - math.log(coupling)) / 6.0
    w = 0.999 * math.exp(edge)
    assert factorization_fits(coupling, w) and not factorization_fits(coupling, 1.01 * w)
    tp = TestParticleSpec(mass=1.0, omega=0.9 * w)
    cm = build_multi_coupling_matrix(tp, [(coupling / 12, np.full(12, w), True)])
    v0 = np.random.default_rng(3).normal(size=cm.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prop = diagonalize(cm, v0, final=lambda nu: flow_factors(nu, 1.0 / w))
    assert np.all(np.isfinite(prop.nu)) and np.all(np.isfinite(prop.final_state.as_vector()))


@pytest.mark.parametrize("ratio", [1e-6, 0.3])
def test_a_bath_at_the_smallest_admitted_frequency_stays_exact(ratio):
    """factorization_resolves admits w and refuses 1 % less; baths from w on solve their arrowhead.

    The smallest products are per oscillator, (m / M) w^6 for a merged
    cluster: a degenerate bath at w and a spread one from w to 3 w keep
    a residual at rounding, with no warning.  A bath too light to couple
    is admitted at any frequency: its oscillators are modes on their own.
    """
    edge = (math.log(np.finfo(float).tiny) - math.log(ratio)) / 6.0
    w = 1.001 * math.exp(edge)
    assert factorization_resolves(ratio, w) and not factorization_resolves(ratio, 0.99 * w)
    light = 16.0 * np.finfo(float).eps ** 2
    assert factorization_resolves(light, 1e-150) and not factorization_resolves(1.01 * light, 1e-150)
    for m, freqs in ((ratio, np.full(12, w)), (ratio, w * np.linspace(1.0, 3.0, 12)),
                     (light, 1e-150 * np.linspace(1.0, 3.0, 12))):
        tp = TestParticleSpec(mass=1.0, omega=2.0 * freqs[0])
        cm = build_multi_coupling_matrix(tp, [(m, freqs, True)])
        v0 = np.random.default_rng(3).normal(size=cm.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prop = diagonalize(cm, v0, final=lambda nu: flow_factors(nu, 1.0 / freqs[0]))
        assert np.all(np.isfinite(prop.final_state.as_vector()))
        if m == light:
            assert len(propagator._deflate(cm).members) == 0
        else:
            assert mode_residual(prop) <= 1e-14


def test_the_residual_of_a_bath_too_light_to_couple_at_1e_150_is_finite():
    """40 oscillators from 1e-150 to 3e-150, m / M = 16 eps^2, Omega = 2e-150, P(0) = 1e-150.

    Every square of the arrowhead's entries underflows, so its norm did
    too, and mode_residual divided 0 by 0.  It scales the entries by a
    power of two first: the residual is at rounding, with no warning.
    """
    light = 16.0 * np.finfo(float).eps ** 2
    cm = build_multi_coupling_matrix(TestParticleSpec(mass=1.0, omega=2e-150),
                                     [(light, np.linspace(1e-150, 3e-150, 40), True)])
    v0 = np.zeros(cm.dim)
    v0[1] = 1e-150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = mode_residual(diagonalize(cm, v0))
    assert residual <= 1e-14


@pytest.mark.parametrize("mass", [1e-6, 1e-3, 1.0, 1e6, 1e9, 1e12, 1e14])
def test_normal_modes_stay_exact_in_baths_of_any_mass(mass):
    """Every admitted bath of 2 to 60 oscillators over four bands and three Omega.

    The modes solve their arrowhead to rounding, and the flow keeps the
    total energy to ENERGY_DRIFT_TOL.  In a heavy bath alpha exceeds the
    band by orders; when deflation merged poles within 8 eps alpha rather
    than within their own rounding, 45 of these 336 cases failed.
    """
    for size, (lo, hi), omega in itertools.product(
            (2, 7, 30, 60), ((0.2, 1.0), (0.05, 2.0), (0.01, 10.0), (0.5, 0.5)),
            (0.01, 0.5, 5.0)):
        if not factorization_fits(size * mass, hi):
            continue
        bath = BathSpec(size=size, mass=mass, temperature=5.0,
                        dos=DensityOfStates("uniform", lo, hi))
        tp = TestParticleSpec(mass=1.0, omega=omega)
        real = realize_bath(bath, seed=1)
        prop = diagonalize(_one_bath(tp, real.frequencies, real.m), _initial_vector(tp, real))
        assert mode_residual(prop) <= 1e-14, (size, lo, hi, omega)
        e0 = total_energy(full_state(prop, 0.0), tp, [(real, True)])
        e1 = total_energy(full_state(prop, 1234.5), tp, [(real, True)])
        assert abs(e1 - e0) <= ENERGY_DRIFT_TOL * e0, (size, lo, hi, omega)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect 11: _deflate frees a coupled oscillator of a heavy, "
                          "wide-band bath")
def test_a_heavy_bath_of_2000_with_a_wide_band_keeps_its_energy(tmp_path):
    """A bath of 2000 oscillators of mass 1e12 over [1e-4, 1] at Omega = 0.5, seed 1.

    It exits 3 with "NumericalError: total energy drifted from
    10306.7704724 to 10306.7774736".  _deflate frees every oscillator
    with |z| <= 8 eps max(alpha, max d); in a heavy bath alpha lies far
    above the band, so a low oscillator whose spring is far from
    negligible is freed, keeps its bare pole, and the bound state it
    would form with the particle below the band is lost.  The normwise
    mode_residual cannot see it; the end-point energy check does.
    """
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_size=2000", "--set", "bath1_mass=1e12",
                 "--set", "bath1_omega_ir=1e-4", "--set", "omega_grid=[0.5]",
                 "--set", "seeds=[1]", "--set", "n_samples=200", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["failures"] == []


def test_poles_a_few_ulps_apart_stay_apart_in_a_heavy_bath():
    """Oscillators at 1 and 1, 10 and 100 ulps above it, in a bath of mass 1e12.

    Poles whose d differ by more than 8 eps of the larger stay apart, so
    the pair 1 ulp apart merges and the others do not: dlasd4 then sees
    poles 20 and 200 ulps apart, and Loewner's z divides by those gaps.
    Merged within 8 eps alpha instead, all four became one pole and the
    energy drifted by 2.9e-12 relative by t = 1234.5.
    """
    w = 1.0 + np.array([0.0, 1.0, 10.0, 100.0]) * np.finfo(float).eps
    real = BathRealization(frequencies=w, positions=np.array([0.3, -0.2, 0.1, 0.4]) * 1e-6,
                           momenta=np.array([0.5, 0.4, -0.6, 0.2]) * 1e6, m=1e12)
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    prop = diagonalize(_one_bath(tp, w, real.m), _initial_vector(tp, real))
    assert mode_residual(prop) <= 2e-15
    e0 = total_energy(full_state(prop, 0.0), tp, [(real, True)])
    e1 = total_energy(full_state(prop, 1234.5), tp, [(real, True)])
    assert abs(e1 - e0) <= 2e-14 * e0
    np.testing.assert_array_equal(propagator._deflate(prop.cm).starts, [0, 2, 3])


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
