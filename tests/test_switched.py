"""Square wave bath switching: schedule, RK4 maps, the period map and mode engines.

Literal stepping (the step_literally fixture) is the reference throughout,
and the dense period map (conftest.dense_floquet) where a run is long.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from finitebath import switched, transform
from finitebath.bath import pairwise_cancelled, realize_bath
from finitebath.model import (BathSpec, DensityOfStates, SystemState, TestParticleSpec,
                              total_energy)
from finitebath.propagator import (RK4_STABILITY_LIMIT, EigensolverError,
                                   NumericalError, build_multi_coupling_matrix,
                                   diagonalize, max_mode_frequency, rk4_mode_factors)
from finitebath.rng import SAMPLING_TIMES, substream
from finitebath.stats import SamplingPlan, make_sampling_times
from finitebath.switched import (
    SwitchSchedule,
    SwitchedPropagator,
    TwoBathSystem,
    build_switched_matrices,
    default_step_size,
)

from conftest import dense_floquet, drift_matrix, rk4_update_matrix, step_maps

SPEC1 = BathSpec(size=4, mass=0.01, temperature=5.0,
                 dos=DensityOfStates("uniform", 0.2, 1.0))
SPEC2 = BathSpec(size=3, mass=0.02, temperature=5.0,
                 dos=DensityOfStates("uniform", 2.0, 3.0))


def _tiny_system(renormalization="switched", seed=5):
    tp = TestParticleSpec(mass=1.0, omega=0.5, q0=0.4, p0=0.0)
    real1 = realize_bath(SPEC1, seed=seed, bath_index=0)
    real2 = realize_bath(SPEC2, seed=seed, bath_index=1)
    return build_switched_matrices(tp, real1, real2, renormalization=renormalization)


def rk4_step(a: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of v' = A v, the reference for the update map."""
    k1 = h * (a @ v)
    k2 = h * (a @ (v + 0.5 * k1))
    k3 = h * (a @ (v + 0.5 * k2))
    k4 = h * (a @ (v + k3))
    out = v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    if not np.all(np.isfinite(out)):
        raise NumericalError("RK4 step produced non-finite values; reduce the step size")
    return out


def switched_energy(system: TwoBathSystem, state, bath1_active: bool,
                    renormalization: str = "switched") -> float:
    """Instantaneous Hamiltonian under the renormalization the system was built with.

    Under static renormalization a disengaged bath still contributes its
    spring sum times Q^2/2 to the particle potential.
    """
    reals = system.realizations
    flags = [bath1_active, not bath1_active]
    h = total_energy(state, system.tp, list(zip(reals, flags)))
    if renormalization == "static":
        for real, active in zip(reals, flags):
            if not active:
                spring = float(np.sum(real.m * real.frequencies**2))
                h += 0.5 * spring * state.test_q**2
    return h


def _run(system, sched, times, **kwargs):
    prop = SwitchedPropagator(system, sched)
    return prop.run(system.initial_vector(), times, **kwargs)


def _stepped(step_literally, system, sched, res):
    """Literal stepping to res's samples and its final state: (Q, P, final vector)."""
    final_step = int(round(res.final_state.time / sched.step_size))
    states = step_literally(system, sched, system.initial_vector(),
                            np.r_[res.steps, final_step])
    return states[:-1, 0], states[:-1, 1], states[-1]


def _dense(monkeypatch):
    """Make every SwitchedPropagator sample the dense period map (conftest.dense_floquet)."""
    monkeypatch.setattr(SwitchedPropagator, "_build_floquet",
                        lambda self, last: dense_floquet(self.system, self.schedule))


# -- schedule ----------------------------------------------------------


def test_schedule_alternates_in_blocks_of_delta_t():
    sched = SwitchSchedule(delta_t_steps=2, step_size=0.01)
    assert sched.period_steps == 4
    system = _tiny_system()
    u1, u2 = step_maps(system, sched)
    prop = SwitchedPropagator(system, sched)
    v = system.initial_vector()
    for s, u in enumerate((u1, u1, u2, u2, u1, u1), start=1):
        v = u @ v
        got = prop.run(system.initial_vector(), [0.0], t_final=s * 0.01).final_state
        np.testing.assert_allclose(got.as_vector(), v, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(v)))


def test_schedule_validation():
    with pytest.raises(ValueError, match="delta_t_steps"):
        SwitchSchedule(delta_t_steps=0)
    with pytest.raises(ValueError, match="step_size"):
        SwitchSchedule(step_size=0.0)


def test_a_period_beyond_the_table_cap_is_refused_up_front():
    system = _tiny_system()
    fits = switched.MAX_PERIOD_ENTRIES // (2 * system.dim)
    SwitchedPropagator(system, SwitchSchedule(delta_t_steps=fits))
    with pytest.raises(ValueError, match=f"delta_t_steps = {fits + 1}: a period"):
        SwitchedPropagator(system, SwitchSchedule(delta_t_steps=fits + 1))


def test_default_step_size_resolves_the_fastest_period():
    tp = TestParticleSpec(mass=1.0, omega=0.5)
    h = default_step_size(build_multi_coupling_matrix(
        tp, [(0.01, np.array([1.0, 2.0]), True), (0.01, np.array([0.5]), False)]))
    assert h == pytest.approx(2.0 * np.pi / 2.0 / 50.0)
    stiff = TestParticleSpec(mass=1.0, omega=10.0)
    h = default_step_size(build_multi_coupling_matrix(stiff, [(0.01, np.array([1.0]), True)]))
    assert h == pytest.approx(2.0 * np.pi / 10.0 / 50.0)
    # a heavy bath pushes the top mode so far above the band that the
    # bare step is unstable; then the step resolves that mode instead
    heavy = build_multi_coupling_matrix(tp, [(5.0, np.linspace(0.2, 1.0, 400), True)])
    nu_max = max_mode_frequency(heavy)
    assert 2.0 * np.pi / 50.0 * nu_max > RK4_STABILITY_LIMIT
    assert default_step_size(heavy) == pytest.approx(2.0 * np.pi / nu_max / 50.0, rel=1e-15)


# -- RK4 ---------------------------------------------------------------


def test_update_matrix_is_one_rk4_step():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    v = rng.normal(size=4)
    u = rk4_update_matrix(a, 0.05)
    np.testing.assert_allclose(u @ v, rk4_step(a, v, 0.05), rtol=1e-12)


def test_rk4_converges_at_fourth_order():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])   # unit oscillator
    v0 = np.array([1.0, 0.0])
    exact = np.array([np.cos(1.0), -np.sin(1.0)])

    def err(n_steps):
        u = rk4_update_matrix(a, 1.0 / n_steps)
        v = v0.copy()
        for _ in range(n_steps):
            v = u @ v
        return np.linalg.norm(v - exact)

    ratio = err(50) / err(100)
    assert 12.0 < ratio < 20.0


def test_rk4_step_flags_overflow():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            rk4_step(a, np.array([1.0, 0.0]), 1e200)


def test_rk4_stability_limit_matches_the_update_map():
    system = _tiny_system()
    nu_max = max(max_mode_frequency(system.a1), max_mode_frequency(system.a2))
    limit = RK4_STABILITY_LIMIT / nu_max

    def radius(h):
        return max(np.max(np.abs(np.linalg.eigvals(rk4_update_matrix(drift_matrix(a), h))))
                   for a in (system.a1, system.a2))

    assert radius(0.99 * limit) <= 1.0 + 1e-12
    assert radius(1.01 * limit) > 1.0
    SwitchedPropagator(system, SwitchSchedule(step_size=0.99 * limit))
    with pytest.raises(NumericalError, match="nu_max"):
        SwitchedPropagator(system, SwitchSchedule(step_size=1.01 * limit))


def test_rk4_map_is_built_once_per_distinct_phase(monkeypatch):
    # no run forms a dense update map: a continuous run steps its phase
    # through its normal modes, and each switched run factors phase 1's
    # modes once, phase 2's step being a correction of rank <= 8 to theirs
    calls = []

    def counting(cm, *args, **kwargs):
        calls.append(cm)
        return diagonalize(cm, *args, **kwargs)

    monkeypatch.setattr(switched, "diagonalize", counting)
    system = _tiny_system()
    continuous = dataclasses.replace(system, a2=system.a1)
    prop = SwitchedPropagator(continuous, SwitchSchedule(step_size=0.02))
    assert prop.run(continuous.initial_vector(), [0.5, 1.0]).engine == "modes"
    assert calls == [system.a1]
    switched_prop = SwitchedPropagator(system, SwitchSchedule(step_size=0.02))
    assert calls == [system.a1]
    for _ in range(2):
        switched_prop.run(system.initial_vector(), [0.5])
    assert calls == [system.a1] * 3
    assert not hasattr(switched, "drift_matrix") and not hasattr(switched, "rk4_update_matrix")


# -- system construction ----------------------------------------------


def test_unknown_renormalization_is_rejected():
    tp = TestParticleSpec()
    real1 = realize_bath(SPEC1, seed=1, bath_index=0)
    real2 = realize_bath(SPEC2, seed=1, bath_index=1)
    with pytest.raises(ValueError, match="unknown renormalization"):
        build_switched_matrices(tp, real1, real2, renormalization="half")


def test_single_bath_system_has_one_realization():
    tp = TestParticleSpec()
    real = realize_bath(SPEC1, seed=1)
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    system = TwoBathSystem(tp=tp, realizations=(real,), a1=cm, a2=cm)
    assert system.dim == 2 + 2 * 4
    assert len(system.realizations) == 1
    # switched contact is only built for a pair of baths
    with pytest.raises(ValueError, match="second bath"):
        build_switched_matrices(tp, real, None)


def test_static_mode_shifts_energy_by_the_idle_spring_sum():
    sys_sw = _tiny_system("switched")
    sys_st = _tiny_system("static")
    state = SystemState(time=0.0, test_q=0.7, test_p=0.2,
                        bath_q=tuple(r.positions for r in sys_sw.realizations),
                        bath_p=tuple(r.momenta for r in sys_sw.realizations))
    real2 = sys_sw.realizations[1]
    k2 = float(np.sum(real2.m * real2.frequencies**2))
    d = (switched_energy(sys_st, state, bath1_active=True, renormalization="static")
         - switched_energy(sys_sw, state, bath1_active=True))
    assert d == pytest.approx(0.5 * k2 * 0.7**2, rel=1e-12)


# -- running -----------------------------------------------------------


def test_identical_matrices_reduce_to_the_continuous_run():
    system = _tiny_system()
    # equal phases held as distinct objects are switched contact to the engine
    degenerate = dataclasses.replace(system, a2=dataclasses.replace(system.a1))
    sched = SwitchSchedule(delta_t_steps=5, step_size=0.02)
    times = np.linspace(0.0, 50.0, 40)
    res = _run(degenerate, sched, times, t_final=50.0)
    assert res.engine == "floquet"
    eig = diagonalize(system.a1, system.initial_vector())
    q_ref, p_ref = eig.sample_test_particle(res.times)
    np.testing.assert_allclose(res.q, q_ref, atol=1e-6)
    np.testing.assert_allclose(res.p, p_ref, atol=1e-6)


def test_period_map_engine_matches_literal_stepping(monkeypatch, step_literally):
    # 1500 steps: however short, a switched run goes through the period map
    system = _tiny_system()
    sched = SwitchSchedule(delta_t_steps=3, step_size=0.02)
    times = np.linspace(0.0, 30.0, 23)
    floq = _run(system, sched, times, t_final=30.0)
    assert floq.n_steps == 1500
    q, p, final = _stepped(step_literally, system, sched, floq)
    # two samples per table: every chunk boundary and a short last chunk
    monkeypatch.setattr(transform, "SAMPLE_CHUNK", 2 * system.dim)
    chunked = _run(system, sched, times, t_final=30.0)
    for res in (floq, chunked):
        assert res.engine == "floquet"
        np.testing.assert_allclose(res.q, q, atol=1e-9)
        np.testing.assert_allclose(res.p, p, atol=1e-9)
        np.testing.assert_allclose(res.final_state.as_vector(), final, atol=1e-9)
    np.testing.assert_allclose(chunked.q, floq.q, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(chunked.p, floq.p, rtol=0.0, atol=1e-14)


def test_period_map_engine_samples_in_bounded_memory():
    # 2 x 100 oscillators (dim 402), 2e4 samples over 1e7 steps.  Factoring the
    # period map peaks near 10 MB (a few real and complex 402^2 arrays); the
    # sampling holds 4 MB plus 3 SAMPLE_CHUNK doubles of tables (6 MB), and
    # the run peaked at 11 MB.  Complex (modes x samples) tables of 4e6
    # entries took it to 132 MB; 30 MB is under a quarter of that
    spec = BathSpec(size=100, mass=0.01, temperature=7.5,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    tp = TestParticleSpec(mass=1.0, omega=0.55)
    system = build_switched_matrices(tp, realize_bath(spec, seed=2, bath_index=0),
                                     realize_bath(spec, seed=2, bath_index=1),
                                     renormalization="static")
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=1e-2))
    v0 = system.initial_vector()
    tracemalloc.start()
    try:
        res = prop.run(v0, np.linspace(0.0, 1e5, 20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.engine == "floquet" and np.all(np.isfinite(res.q))
    assert peak <= 30e6


def test_period_map_engine_drift_stays_at_its_measured_level(step_literally):
    # 2 x 20 oscillators at 2e4 steps: literal stepping is 4.4e-13 of |v| away
    # from repeated squaring of the period map, the period map engine 5.1e-13.
    # The first bound is 9x its measurement; the second was set for a dense
    # eig factorization of the period map, whose phase error put it 2.2e-9
    # away
    spec = BathSpec(size=20, mass=0.01, temperature=7.5,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    tp = TestParticleSpec(mass=1.0, omega=0.55)
    system = build_switched_matrices(tp, realize_bath(spec, seed=2, bath_index=0),
                                     realize_bath(spec, seed=2, bath_index=1),
                                     renormalization="static")
    sched = SwitchSchedule(delta_t_steps=1, step_size=1e-3)
    prop = SwitchedPropagator(system, sched)
    v0 = system.initial_vector()
    n_steps = 20_000
    floquet = prop.run(v0, [20.0])
    assert floquet.n_steps == n_steps
    stepped = step_literally(system, sched, v0, [n_steps])[0]
    u1, u2 = step_maps(system, sched)
    u, k, ref = u2 @ u1, n_steps // 2, v0
    while k:
        if k & 1:
            ref = u @ ref
        u, k = u @ u, k >> 1
    norm = np.linalg.norm(ref)
    assert np.linalg.norm(stepped - ref) <= 4e-12 * norm
    assert np.linalg.norm(floquet.final_state.as_vector() - ref) <= 3e-8 * norm


def test_failed_period_map_raises_numerical_error(monkeypatch):
    system = _tiny_system()
    sched = SwitchSchedule(delta_t_steps=3, step_size=0.02)
    times = np.linspace(0.0, 30.0, 23)
    prop = SwitchedPropagator(system, sched)
    assert prop.run(system.initial_vector(), times).engine == "floquet"
    monkeypatch.setattr(SwitchedPropagator, "QUALITY_TOL", -1.0)   # every residual fails
    with pytest.raises(NumericalError, match=r"residual \d\.\d\de-\d+ exceeds -1"):
        prop.run(system.initial_vector(), times)


def _study_system(size, mass, seed=2):
    """Two equal uniform baths in static renormalization at Omega = 0.55."""
    spec = BathSpec(size=size, mass=mass, temperature=7.5,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    tp = TestParticleSpec(mass=1.0, omega=0.55)
    return build_switched_matrices(tp, realize_bath(spec, seed=seed, bath_index=0),
                                   realize_bath(spec, seed=seed, bath_index=1),
                                   renormalization="static")


def _structured_outcomes(monkeypatch):
    """Record, per period map factored, whether the structured route delivered it."""
    outcomes, factor = [], switched._ModalPeriodMap.floquet

    def spy(self, sigma, quality_tol):
        fl = factor(self, sigma, quality_tol)
        outcomes.append(fl is not None)
        return fl

    monkeypatch.setattr(switched._ModalPeriodMap, "floquet", spy)
    return outcomes


def test_structured_period_map_is_at_least_as_accurate_as_dense_eig(monkeypatch):
    # 2 x 20 oscillators, h = 1e-3, one step per half period, against repeated
    # squaring of u2 u1.  Final state error relative to |v| at 1e4 and 2.5e7
    # periods: structured 5.1e-13 and 9.0e-10, dense eig 2.2e-9 and 2.8e-6;
    # Q alone: structured 6.5e-15 and 1.7e-11.  Each bound is about 10x the
    # structured route's final state measurement
    system = _study_system(20, 0.01)
    sched = SwitchSchedule(delta_t_steps=1, step_size=1e-3)
    v0 = system.initial_vector()
    outcomes = _structured_outcomes(monkeypatch)
    structured = SwitchedPropagator(system, sched)
    with monkeypatch.context() as m:
        _dense(m)
        dense = SwitchedPropagator(system, sched)
        dense_runs = {k: dense.run(v0, [2e-3 * k]) for k in (10_000, 25_000_000)}
    u1, u2 = step_maps(system, sched)
    u = u2 @ u1
    for periods, bound in ((10_000, 5e-12), (25_000_000, 1e-8)):
        k, power, ref = periods, u, v0
        while k:
            if k & 1:
                ref = power @ ref
            power, k = power @ power, k >> 1
        norm = np.linalg.norm(ref)
        got = structured.run(v0, [2e-3 * periods])
        assert got.n_steps == 2 * periods
        err = np.linalg.norm(got.final_state.as_vector() - ref) / norm
        err_dense = np.linalg.norm(dense_runs[periods].final_state.as_vector() - ref) / norm
        assert err <= bound and err <= err_dense
        assert abs(got.q[0] - ref[0]) <= bound * norm
    assert outcomes == [True, True]


def test_structured_and_dense_routes_agree(monkeypatch, step_literally):
    # 2 x 20 oscillators, three steps per half period: samples at every step of
    # the period and a final state five steps into a period.  Against literal
    # stepping, relative to the largest entry, the structured route's samples
    # are 2.6e-13 and its final state 9.2e-13 away, the dense reference's
    # 3.6e-11 and 3.8e-10.  Each tolerance is about 10x the larger of the two
    system = _study_system(20, 0.01)
    sched = SwitchSchedule(delta_t_steps=3, step_size=1e-2)
    v0 = system.initial_vector()
    times = np.linspace(0.0, 300.0, 97) + 0.013
    outcomes = _structured_outcomes(monkeypatch)
    prop = SwitchedPropagator(system, sched)
    structured = prop.run(v0, times, t_final=300.05)
    stepped = _stepped(step_literally, system, sched, structured)
    assert set(np.unique(structured.steps % sched.period_steps)) == set(range(6))
    fl = prop._build_floquet(structured.n_steps)
    assert outcomes == [True, True]
    with monkeypatch.context() as m:
        _dense(m)
        dense = SwitchedPropagator(system, sched).run(v0, times, t_final=300.05)
    assert outcomes == [True, True]
    for res, tol in ((structured, 1e-11), (dense, 4e-9)):
        for got, want in zip((res.q, res.p, res.final_state.as_vector()), stepped):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * np.max(np.abs(want)))
    # the structured roots are the period map's multipliers
    u1, u2 = step_maps(system, sched)
    mu = np.linalg.eigvals(np.linalg.matrix_power(u2, 3) @ np.linalg.matrix_power(u1, 3))
    log_mu = switched._ModalPeriodMap.log_mu(switched._ModalPeriodMap(system, sched).roots())
    np.testing.assert_allclose(np.sort_complex(np.exp(log_mu)),
                               np.sort_complex(mu), rtol=0.0, atol=1e-13)
    # one per conjugate pair
    assert fl["log_mu"].shape == (system.dim // 2,)
    pairs = np.exp(np.r_[fl["log_mu"], fl["log_mu"].conj()])
    np.testing.assert_allclose(np.sort_complex(pairs), np.sort_complex(mu), rtol=0.0, atol=1e-13)


def test_period_map_rows_are_row_products_of_the_step_maps(step_literally):
    # 2 x 20 oscillators, 100 steps per half period: the prefix rows, Lam^r up
    # to the switch and (row U2^(r-d)) Lam^d after it in phase 1's modes,
    # over five periods, and a final state 50 steps past the switch.  Against
    # literal stepping, relative to the largest entry, samples and final
    # state are 2.1e-14 away; the tolerance is about 40x that
    system = _study_system(20, 0.01)
    sched = SwitchSchedule(delta_t_steps=100, step_size=1e-2)
    times = np.linspace(0.0, 10.0, 97) + 0.013
    res = _run(system, sched, times, t_final=9.5)
    assert res.engine == "floquet"
    assert np.any(res.steps % sched.period_steps > sched.delta_t_steps)
    for got, want in zip((res.q, res.p, res.final_state.as_vector()),
                         _stepped(step_literally, system, sched, res)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def _decoupled_system(case, size):
    """2 x size oscillators with modes that no contact phase couples.

    A degenerate bath 2 in [0.6, 0.6], which phase 1 leaves free: only its
    combination along the coupling moves.  Bath 1 there with pairwise
    cancelled amplitudes.  Or two equal contact phases held as distinct
    objects, which couple no mode at all.
    """
    spec = BathSpec(size=size, mass=0.2 / size, temperature=7.5,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    point = dataclasses.replace(spec, dos=DensityOfStates("uniform", 0.6, 0.6))
    cancel = case == "cancelled_bath1"
    real1 = realize_bath(point if cancel else spec, seed=2, bath_index=0)
    real2 = realize_bath(point if case == "degenerate_bath2" else spec, seed=2, bath_index=1)
    system = build_switched_matrices(
        TestParticleSpec(mass=1.0, omega=0.55),
        pairwise_cancelled(real1) if cancel else real1, real2, renormalization="static")
    if case == "equal_phases":
        system = dataclasses.replace(system, a2=dataclasses.replace(system.a1))
    return system


@pytest.mark.parametrize("case", ["degenerate_bath2", "cancelled_bath1", "equal_phases"])
def test_decoupled_modes_keep_their_poles(monkeypatch, step_literally, case):
    # 2 x 20 oscillators: 19 modes that neither contact phase couples (all
    # 41 for equal phases) keep their poles and unit vectors, and the other
    # roots run the Aberth iteration around them.  Against literal stepping
    # over 5000 steps, relative to the largest entry, samples and final state
    # are at most 1.8e-13 away.  At 2 x 200 (dim 802) factoring the period
    # map peaked at 3.5 to 5.4 dim^2 bytes, below one real dim x dim array
    sched = SwitchSchedule(delta_t_steps=3, step_size=1e-2)
    system = _decoupled_system(case, 20)
    outcomes = _structured_outcomes(monkeypatch)
    res = _run(system, sched, np.linspace(0.0, 50.0, 40))
    assert outcomes == [True] and res.engine == "floquet"
    fixed = switched._ModalPeriodMap(system, sched).fixed
    assert np.sum(fixed) == (41 if case == "equal_phases" else 19)
    for got, want in zip((res.q, res.p, res.final_state.as_vector()),
                         _stepped(step_literally, system, sched, res)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * np.max(np.abs(want)))
    large = _decoupled_system(case, 200)
    prop = SwitchedPropagator(large, sched)
    tracemalloc.start()
    try:
        fl = prop._build_floquet(res.n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * large.dim**2
    assert fl["rows01"].shape == (2 * sched.delta_t_steps, 2, large.dim // 2)


def test_structured_residual_measures_the_root_error():
    # shifting every root by delta moves each eigenpair's residual by about
    # delta |s|: measured 13 delta for delta = 1e-12 and 1e-9, 24 delta at 1e-6
    system = _study_system(20, 0.01)
    modal = switched._ModalPeriodMap(system, SwitchSchedule(delta_t_steps=1, step_size=1e-3))
    roots = modal.roots()[:system.dim // 2]
    assert modal.floquet(roots, SwitchedPropagator.QUALITY_TOL) is not None
    assert modal.residual() < 1e-16
    assert modal.floquet(roots + 1e-9, SwitchedPropagator.QUALITY_TOL) is not None
    assert 1e-9 < modal.residual() < 1e-7
    with pytest.raises(NumericalError, match=r"period map factorization residual \d\.\d\de-0\d exceeds 1e-07"):
        modal.floquet(roots + 1e-6, SwitchedPropagator.QUALITY_TOL)


def test_structured_period_map_factors_in_linear_memory():
    # 2 x 200 oscillators (dim 802): a dense u1 u2 product and its complex
    # eigenvectors would be 5.1 and 10.3 MB, and factoring them by eig peaked
    # at 36 MB.  The period map holds pieces of PERIOD_PIECE roots by dim
    # and peaked at 3.4 MB, below one real dim x dim array
    system = _study_system(200, 1e-3)
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=1e-3))
    tracemalloc.start()
    try:
        fl = prop._build_floquet(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * system.dim**2
    assert fl["rows01"].shape == (2, 2, system.dim // 2)


def test_period_tables_are_built_in_place():
    # 2 x 100 oscillators (dim 402), a half period of 1000 steps: the step
    # prefix rows take 32 B per period step and coordinate (25.7 MB), and
    # their products with one eigenvector per conjugate pair half as much.
    # Built in place, factoring peaked at 1.76 times the rows; stacked from
    # a list of per-step rows, with each product doubled by its
    # conjugate, it peaked at 3.08 times
    system = _study_system(100, 2e-3)
    sched = SwitchSchedule(delta_t_steps=1000, step_size=1e-3)
    prop = SwitchedPropagator(system, sched)
    tracemalloc.start()
    try:
        fl = prop._build_floquet(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 32 * sched.period_steps * system.dim
    assert fl["rows01"].shape == (sched.period_steps, 2, system.dim // 2)


def test_eigenvector_products_form_no_period_sized_temporary():
    # 2 x 20 oscillators (dim 82, 41 roots, one piece), a half period of
    # 3000 steps: the products of the step-prefix rows with the right
    # eigenvectors are written into rows01 slab by slab.  Formed over the
    # whole period at once, their temporary was as large as rows01 itself,
    # and factoring peaked at 2.07 times the rows; slab by slab, 1.58 times
    system = _study_system(20, 0.01)
    sched = SwitchSchedule(delta_t_steps=3000, step_size=1e-3)
    prop = SwitchedPropagator(system, sched)
    tracemalloc.start()
    try:
        fl = prop._build_floquet(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 32 * sched.period_steps * system.dim
    assert fl["rows01"].shape == (sched.period_steps, 2, system.dim // 2)


def test_parametrically_unstable_schedule_raises_numerical_error():
    """A resonant half period makes the run a numerical failure, not a temperature.

    At h = 0.02 the tiny system's period map is most unstable for half
    periods of about 50 steps (switching frequency pi): its largest
    multiplier grows by e^0.33 per period, so 20 periods grow e^6.6.
    """
    system = _tiny_system()
    sched = SwitchSchedule(delta_t_steps=50, step_size=0.02)
    prop = SwitchedPropagator(system, sched)
    u1, u2 = step_maps(system, sched)
    period_map = np.linalg.matrix_power(u2, 50) @ np.linalg.matrix_power(u1, 50)
    assert np.max(np.abs(np.linalg.eigvals(period_map))) > 1.3
    times = np.linspace(0.0, 40.0, 30)
    with pytest.raises(NumericalError, match="parametrically unstable"):
        prop.run(system.initial_vector(), times)
    # a stable schedule of the same system, run as long, grows far below the bound
    stable = SwitchedPropagator(system, SwitchSchedule(delta_t_steps=3, step_size=0.02))
    assert stable.run(system.initial_vector(), times).engine == "floquet"


def _frustration_point(omega, seed, plan, schedule):
    """A switched point of scripts/two_bath_frustration.json's baths: (propagator, v0, times)."""
    spec = BathSpec(size=200, mass=1e-3, temperature=7.5,
                    dos=DensityOfStates("uniform", 0.2, 1.0))
    system = build_switched_matrices(TestParticleSpec(mass=1.0, omega=omega),
                                     realize_bath(spec, seed, 0), realize_bath(spec, seed, 1),
                                     renormalization="static")
    times = make_sampling_times(plan, substream(seed, SAMPLING_TIMES).generator())
    return SwitchedPropagator(system, schedule), system.initial_vector(), times


def test_a_real_multiplier_stops_the_structured_roots_at_once():
    """A real pair of multipliers is found on the real axis, and the run is refused.

    The resonant schedule of the study config at h = 0.02 and half periods
    of 250 steps (Omega = 0.55, seed 1, 200 samples 1.5 apart; rank 20,
    dim 802) has a real pair near -1, -1.00188 and -0.99812 by dense eig.
    Its root bounces across the real axis; stopped at its second crossing,
    the pair is found on the axis, where det S(sigma) changes sign across
    each root, and held while the other roots converge.  The largest
    multiplier is complex, |mu| = 1.00708, and grows by e^0.206 over the
    run.  A run too short for that growth to pass e^GROWTH_TOL (50 steps)
    is refused for the real pair itself, which the sampler cannot take.
    Factoring peaked at 13.8 dim^2 bytes, 5.1 MB of it the r^2 products W
    of the period map's rank-20 factors.
    """
    prop, v0, times = _frustration_point(
        0.55, 1, SamplingPlan(mean_interval=1.5, n_samples=200),
        SwitchSchedule(delta_t_steps=250, step_size=0.02))
    modal = switched._ModalPeriodMap(prop.system, prop.schedule)
    every = modal.roots()
    n = len(every) // 2
    real = every[n:] != every[:n].conj()
    pair = np.sort(np.r_[every[:n][real], every[n:][real]])
    assert np.sum(real) == 1 and np.all(pair.imag == 0.0)
    np.testing.assert_allclose(1.0 + pair.real, [-1.00188, -0.99812], rtol=0.0, atol=1e-5)
    x, _, w, t = modal._factors
    for root in pair.real:
        g = 1.0 / (t - np.array([root - 1e-4, root + 1e-4])[:, None])
        det = np.linalg.det(np.eye(x.shape[1]) + (g @ w).reshape(2, *x.shape[1:] * 2))
        assert np.max(np.abs(det.imag)) <= 1e-12 * np.max(np.abs(det))
        assert det[0].real * det[1].real < 0.0
    mu = np.exp(modal.log_mu(every))
    assert np.abs(mu[np.argmax(np.abs(mu))]) == pytest.approx(1.00708, abs=1e-5)
    assert np.abs(mu[np.argmax(np.abs(mu))].imag) > 0.05
    with pytest.raises(NumericalError, match=r"grows by e\^0.206 over"):
        prop.run(v0, times)
    with pytest.raises(NumericalError, match=r"real period map multipliers -1.00188, -0.998119"):
        prop.run(v0, [1.0])
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="parametrically unstable"):
            prop._build_floquet(int(np.rint(times.max() / 0.02)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * prop.system.dim**2


def test_twobath_benchmark_points_stay_on_the_structured_route():
    # the twobath_floquet points of workload seeds 0 and 5 (physics seeds 1, 2
    # and 11, 12), 2000 samples 25 apart after a warmup of 1000
    plan = SamplingPlan(mean_interval=25.0, n_samples=2000, warmup=1000.0)
    for seed in (1, 2, 11, 12):
        for omega in (0.35, 0.55, 0.75):
            prop, v0, times = _frustration_point(omega, seed, plan, SwitchSchedule(step_size=1e-3))
            assert prop.run(v0, times).engine == "floquet"


def test_sample_times_snap_to_the_nearest_step():
    system = _tiny_system()
    sched = SwitchSchedule(delta_t_steps=1, step_size=0.02)
    times = np.pi * np.arange(1, 5) / 7.0
    res = _run(system, sched, times, t_final=2.0)
    assert res.max_snap_distance <= 0.5 * sched.step_size + 1e-15
    np.testing.assert_allclose(res.times, res.steps * sched.step_size, rtol=1e-15)


def test_energy_is_conserved_inside_contact_windows():
    system = _tiny_system()
    h = 0.02
    prop = SwitchedPropagator(system, SwitchSchedule(delta_t_steps=3, step_size=h))
    states = [prop.run(system.initial_vector(), [0.0], t_final=s * h).final_state
              for s in range(5)]
    assert [s.time for s in states] == [s * h for s in range(5)]
    # steps 0..3 sit on one bath-1 trajectory
    e1 = [switched_energy(system, s, bath1_active=True) for s in states[:4]]
    np.testing.assert_allclose(e1, e1[0], rtol=1e-7)
    # the transition 3 -> 4 runs under bath 2
    e2 = [switched_energy(system, s, bath1_active=False) for s in states[3:5]]
    assert e2[1] == pytest.approx(e2[0], rel=1e-7)
    # and the bath-1 energy does change across the switch
    e1_after = switched_energy(system, states[4], bath1_active=True)
    assert abs(e1_after - e1[0]) > 1e-9


def test_runs_are_deterministic():
    system = _tiny_system()
    sched = SwitchSchedule(delta_t_steps=2, step_size=0.02)
    times = np.linspace(0.0, 10.0, 11)
    a = _run(system, sched, times, t_final=10.0)
    b = _run(system, sched, times, t_final=10.0)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)


def test_initial_vector_shape_is_checked():
    system = _tiny_system()
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=0.02))
    with pytest.raises(ValueError, match="initial vector has shape"):
        prop.run(np.zeros(3), [0.0])


# -- continuous contact through the normal modes ------------------------

WIDE = BathSpec(size=30, mass=0.01, temperature=5.0,
                dos=DensityOfStates("uniform", 0.2, 1.0))
DEGENERATE = BathSpec(size=30, mass=0.01, temperature=5.0,
                      dos=DensityOfStates("uniform", 0.6, 0.6))


def _continuous_system(omega, bath, cancel=False):
    tp = TestParticleSpec(mass=1.0, omega=omega, q0=0.4, p0=-0.3)
    real = realize_bath(bath, seed=3)
    if cancel:
        real = pairwise_cancelled(real)
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    return TwoBathSystem(tp=tp, realizations=(real,), a1=cm, a2=cm)


@pytest.mark.parametrize("omega,bath,cancel,courant", [
    (0.01, WIDE, False, 0.05),
    (0.5, WIDE, False, 0.05),
    (5.0, WIDE, False, 0.05),
    (0.5, DEGENERATE, True, 0.05),
    (0.5, WIDE, False, 0.99),
], ids=["slow", "in_band", "stiff", "deflated", "stability_edge"])
def test_rk4_modes_match_literal_stepping(omega, bath, cancel, courant, step_literally):
    system = _continuous_system(omega, bath, cancel)
    nu_max = max_mode_frequency(system.a1)
    h = courant * RK4_STABILITY_LIMIT / nu_max
    v0 = system.initial_vector()
    # unsorted, two pairs snapping to one step each, t_final past them all
    times = h * np.array([3000.4, 17.2, 2999.6, 0.0, 1234.0, 17.0])
    t_final = 4000.0 * h
    sched = SwitchSchedule(step_size=h)
    prop = SwitchedPropagator(system, sched)
    modes = prop.run(v0, times, t_final=t_final)
    assert modes.engine == "modes" and modes.n_steps == 4000
    np.testing.assert_array_equal(modes.steps, [3000, 17, 3000, 0, 1234, 17])
    assert modes.max_snap_distance == pytest.approx(0.4 * h, rel=1e-9)
    q, p, final = _stepped(step_literally, system, sched, modes)
    for got, want in ((modes.q, q), (modes.p, p)):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-10 * np.max(np.abs(want)))
    assert modes.final_state.time == 4000 * h
    np.testing.assert_allclose(modes.final_state.as_vector(), final, rtol=0.0,
                               atol=1e-10 * np.max(np.abs(final)))
    # the reconstructed state at every observed step
    steps = np.unique(modes.steps)
    for step, vd in zip(steps, step_literally(system, sched, v0, steps)):
        vm = prop.run(v0, [0.0], t_final=step * h).final_state.as_vector()
        np.testing.assert_allclose(vm, vd, rtol=0.0, atol=1e-10 * np.max(np.abs(vd)))
    eig = diagonalize(system.a1, v0)
    if cancel:
        assert np.sum(eig.u0 == 0.0) >= bath.size - 1
    if courant > 0.5:
        # RK4's damping of the fastest mode is part of what is compared
        _, log_rho = rk4_mode_factors(eig.nu, h)
        assert np.exp(3000 * log_rho.min()) < 1e-3


def test_rk4_amplification_factor_is_one_step_of_the_polynomial():
    theta = np.array([1e-4, 0.1, 1.0, 2.0, 0.99 * RK4_STABILITY_LIMIT])
    phi, log_rho = rk4_mode_factors(theta, 1.0)
    z = 1j * theta
    r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    np.testing.assert_allclose(np.exp(log_rho + 1j * phi), r, rtol=1e-14)
    # log rho keeps its relative accuracy where 1 - |R| underflows
    assert log_rho[0] == pytest.approx(-(1e-4) ** 6 / 144.0, rel=1e-12)
    # a step beyond the stability limit of the fastest mode is refused
    with pytest.raises(NumericalError, match="nu_max"):
        rk4_mode_factors(theta, 1.02)


def test_continuous_zero_mode_is_rejected():
    system = _continuous_system(0.0, WIDE)
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=0.05))
    with pytest.raises(EigensolverError, match="zero frequency mode"):
        prop.run(system.initial_vector(), [1.0, 2.0])


def test_log_mu_of_a_multiplier_below_sqrt_eps_is_finite():
    """RK4 damps a mode with h nu = 1 by about e^-24 a period.

    Its root sigma = -1 + 1.2e-11 i rounded log1p's argument
    2 Re sigma + |sigma|^2 to -1, and log |mu| to -inf; a multiplier that
    rounds to 0 takes the smallest normal double.  A root near the unit
    circle keeps the log1p form.
    """
    sigma = np.array([-1.0 + 1.2e-11j, -1.0 + 0.0j, 0.01 + 0.2j])
    log_mu = switched._ModalPeriodMap.log_mu(sigma)
    assert np.all(np.isfinite(log_mu))
    assert log_mu[0].real == pytest.approx(np.log(abs(1.0 + sigma[0])), rel=1e-15)
    assert log_mu[0].imag == pytest.approx(np.pi / 2, rel=1e-15)
    assert log_mu[1].real == np.log(np.finfo(float).tiny)
    near = sigma[2:]
    assert log_mu[2] == (0.5 * np.log1p(2.0 * near.real + np.abs(near) ** 2)
                         + 1j * np.arctan2(near.imag, 1.0 + near.real))
