"""Every sampler's type-3 transform against the direct mode sum.

The oracle is transform.mode_sums over every mode: for the exact and
the RK4 sampler with the coefficient rows (u0 a, u0 b / nu) for Q and
(u0 b, -u0 a nu) for P / M, for the period map, which keeps one root of
each conjugate pair, with the rows of c = rows01[r] v' and of conj c
over both members of each pair.  The transform's
gridding error is at most NUFFT_TOL sum_k |A_k - i B_k|, and a decay
e^{x d}, gridded as the imaginary part -d of each frequency, raises it
by at most e^{DECAY_GROWTH y} with y = X max|d| on the grid's half span
X, against sum_k |A_k - i B_k| e^{d_k x_c} at the span's centre x_c.
Both sums also carry the rounding of the phases x theta, eps max|x
theta| of the same sum at most, which is added to every bound against
the oracle.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from finitebath import switched, transform
from finitebath.bath import pairwise_cancelled, realize_bath
from finitebath.experiments import exchange_splitting
from finitebath.model import (BathSpec, DensityOfStates, SystemState, TestParticleSpec,
                              initial_state)
from finitebath.propagator import build_multi_coupling_matrix, diagonalize, rk4_mode_factors
from finitebath.rng import SAMPLING_TIMES, substream
from finitebath.stats import SamplingPlan, make_sampling_times
from finitebath.switched import (SwitchSchedule, SwitchedPropagator,
                                 build_switched_matrices, default_step_size)
from finitebath.transform import (DECAY_GROWTH, MAX_GRID_DECAY, NUFFT_TOL, banded_sums,
                                  gridded_sums, mode_sums)

from conftest import dense_floquet

BAND = DensityOfStates("uniform", 0.2, 1.0)
# the sampling plans of sweep_n400 (X = 2e4), of the twobath-alone curves
# (X = 2.5e4), and one of twice that span (X = 5e4)
SWEEP = SamplingPlan(mean_interval=10.0, n_samples=4000, warmup=500.0)
ALONE = SamplingPlan(mean_interval=25.0, n_samples=2000, warmup=1000.0)
LONG = SamplingPlan(mean_interval=25.0, n_samples=4000, warmup=0.0)


def _prop(n, omega, seed=1, m=None):
    """One bath of n oscillators with m n = 0.4, as in the benchmark baths."""
    bath = BathSpec(size=n, mass=0.4 / n if m is None else m, temperature=5.0, dos=BAND)
    real = realize_bath(bath, seed)
    tp = TestParticleSpec(mass=1.0, omega=omega)
    v0 = SystemState(time=0.0, test_q=0.0, test_p=0.0, bath_q=(real.positions,),
                     bath_p=(real.momenta,)).as_vector()
    return diagonalize(build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)]),
                       v0)


def _times(plan, seed=1):
    return make_sampling_times(plan, substream(seed, SAMPLING_TIMES))


def _rows(prop):
    u0, a, b, nu = prop.u0, prop.coef_cos, prop.coef_sin, prop.nu
    return [(u0 * a, u0 * b / nu), (u0 * b, -(u0 * a * nu))]


def _bounds(rows, nu, t):
    """Per row: (NUFFT_TOL + eps max|nu t|) sum_k |A_k - i B_k|."""
    floor = np.finfo(float).eps * np.max(np.abs(nu), initial=0.0) * np.max(np.abs(t))
    return [(NUFFT_TOL + floor) * np.sum(np.hypot(a, b)) for a, b in rows]


def _check_sampler(prop, t):
    """sample_test_particle against the oracle within the bounds."""
    rows = _rows(prop)
    want = mode_sums(t, prop.nu, None, rows)
    q, p = prop.sample_test_particle(t)
    gridded = (prop.nu >= prop.cm.w.min()) & (prop.nu <= prop.cm.w.max())
    for got, ref, bound in zip((q, p / prop.cm.tp.mass), want,
                               _bounds(rows, prop.nu[gridded], t)):
        assert np.max(np.abs(got - ref), initial=0.0) <= bound


@pytest.mark.parametrize("omega", [0.01, 0.5, 5.0, 10.0])
@pytest.mark.parametrize("n", [40, 400, 4000])
def test_sampler_matches_the_direct_sum_on_the_sweep_plan(n, omega):
    _check_sampler(_prop(n, omega), _times(SWEEP))


@pytest.mark.parametrize("omega", [0.01, 0.5, 5.0, 10.0])
@pytest.mark.parametrize("plan", [ALONE, LONG], ids=["alone", "long"])
def test_sampler_matches_the_direct_sum_on_long_spans(plan, omega):
    _check_sampler(_prop(400, omega, seed=2), _times(plan, seed=2))


def test_transform_is_within_its_tolerance_of_the_true_sum():
    """A long double evaluation of the same sum, phases exact to ~1e-19."""
    prop = _prop(400, 0.5)
    t = _times(SWEEP)
    rows = _rows(prop)
    got = gridded_sums(t, prop.nu, rows)
    phase = np.outer(t.astype(np.longdouble), prop.nu.astype(np.longdouble))
    cos, sin = np.cos(phase), np.sin(phase)
    for row, (a, b), bound in zip(got, rows, _bounds(rows, prop.nu, [0.0])):
        true = cos @ a.astype(np.longdouble) + sin @ b.astype(np.longdouble)
        assert float(np.max(np.abs(row - true))) <= bound


def test_only_the_out_of_band_modes_are_summed_directly(monkeypatch):
    """On the sweep_n400 inputs mode_sums sees at most the two outer roots."""
    seen = []

    def recording(x, theta, *args, **kwargs):
        seen.append(len(theta))
        return mode_sums(x, theta, *args, **kwargs)

    t = _times(SWEEP)
    props = [_prop(400, omega, m=1e-3) for omega in (0.01, 0.5, 2.0, 10.0)]
    monkeypatch.setattr(transform, "mode_sums", recording)
    samples = [prop.sample_test_particle(t) for prop in props]
    monkeypatch.undo()
    assert len(seen) == len(props) and max(seen) <= 2
    for prop, (q, p) in zip(props, samples):
        np.testing.assert_array_equal(prop.sample_test_particle(t), (q, p))
        _check_sampler(prop, t)


def _exchange_system(n=100, xi=0.01, omega_r=1.0, e0=10.0, seed=3):
    """run_degenerate_exchange's pairwise-cancelled bath at resonance."""
    m = xi / n
    bath = BathSpec(size=n, mass=m, temperature=1.0,
                    dos=DensityOfStates("uniform", omega_r, omega_r))
    real = pairwise_cancelled(realize_bath(bath, seed, 0))
    tp = TestParticleSpec(mass=1.0, omega=omega_r * np.sqrt(1.0 - xi),
                          p0=float(np.sqrt(2.0 * e0)))
    v0 = SystemState(time=0.0, test_q=0.0, test_p=tp.p0, bath_q=(real.positions,),
                     bath_p=(real.momenta,)).as_vector()
    return diagonalize(build_multi_coupling_matrix(tp, [(m, real.frequencies, True)]), v0)


def test_degenerate_exchange_samples_match_the_direct_sum():
    """The exchange's uniform grid and its arcsine check's random times."""
    prop = _exchange_system()
    t_beat = 2.0 * np.pi / exchange_splitting(1.0, 0.01)
    grid = np.linspace(0.0, 16 * t_beat, 8192)
    ks = np.sort(substream(3, SAMPLING_TIMES).uniform(0.0, 200.0 * t_beat, 4000))
    rows = _rows(prop)
    live = prop.u0 != 0.0
    for t in (grid, ks):
        _check_sampler(prop, t)
        # the two coupled modes straddle the zero-width band; grid them anyway
        got = gridded_sums(t, prop.nu[live], [(a[live], b[live]) for a, b in rows])
        for row, ref, bound in zip(got, mode_sums(t, prop.nu, None, rows),
                                   _bounds(rows, prop.nu, t)):
            assert np.max(np.abs(row - ref)) <= bound


# -- edge cases: the transform itself and the sampler ---------------------


def _check_transform(t, nu, rows):
    got = gridded_sums(t, nu, rows)
    want = mode_sums(t, nu, None, rows)
    assert got.shape == want.shape
    for row, ref, bound in zip(got, want, _bounds(rows, nu, t)):
        assert np.max(np.abs(row - ref)) <= bound


def test_transform_handles_one_time_and_a_zero_span():
    prop = _prop(400, 0.5)
    rows = _rows(prop)
    for t in ([0.0], [7.5], [1234.5], np.full(50, 3e4)):
        _check_transform(np.asarray(t), prop.nu, rows)
        _check_sampler(prop, np.asarray(t))


def test_transform_handles_unsorted_and_repeated_times():
    prop = _prop(400, 0.5)
    rows = _rows(prop)
    t = _times(SWEEP)
    shuffled = np.random.default_rng(4).permutation(np.r_[t, t[::7], t[:3]])
    _check_transform(shuffled, prop.nu, rows)
    _check_sampler(prop, shuffled)
    order = np.argsort(shuffled, kind="stable")
    q_sorted, _ = prop.sample_test_particle(shuffled[order])
    q, _ = prop.sample_test_particle(shuffled)
    assert np.max(np.abs(q[order] - q_sorted)) <= 2 * _bounds(rows[:1], prop.nu, t)[0]


def test_transform_handles_one_mode_and_a_zero_width_band():
    rng = np.random.default_rng(2)
    t = np.sort(rng.uniform(0.0, 4e4, 3000))
    one = [(np.array([0.3]), np.array([-1.2]))]
    _check_transform(t, np.array([0.7]), one)
    _check_transform(t, np.array([0.7, 0.7]), [(np.r_[a, a], np.r_[b, b]) for a, b in one])


def test_sampler_with_no_mode_inside_the_band():
    """One oscillator: its two roots lie below and above the single pole."""
    prop = _prop(1, 0.5, m=0.01)
    (w,) = prop.cm.w
    assert prop.nu[0] < w < prop.nu[1] and len(prop.nu) == 2
    _check_sampler(prop, _times(SWEEP))
    _check_sampler(prop, np.array([0.0]))


def test_sampler_takes_a_scalar_or_a_list():
    prop = _prop(40, 0.5)
    q, p = prop.sample_test_particle(12.5)
    assert q.shape == p.shape == (1,)
    t = list(_times(SWEEP)[:500])
    q_list, p_list = prop.sample_test_particle(t)
    q_arr, p_arr = prop.sample_test_particle(np.array(t))
    np.testing.assert_array_equal(q_list, q_arr)
    np.testing.assert_array_equal(p_list, p_arr)
    _check_sampler(prop, np.array(t))


def test_only_an_oversized_grid_is_summed_directly():
    rng = np.random.default_rng(3)
    nu = rng.uniform(0.2, 1.0, 400)
    assert transform.grid_fits(np.array([5.0]), nu)
    assert transform.grid_fits(np.arange(64.0), nu[:5])
    assert transform.grid_fits(_times(SWEEP), nu)
    assert not transform.grid_fits(np.array([]), nu)
    assert not transform.grid_fits(np.array([5.0]), nu[:0])
    # a span whose FFT would hold 5e8 points
    assert not transform.grid_fits(np.linspace(0.0, 1e9, 4000), nu)


# -- bounded memory -----------------------------------------------------------


def test_transform_buffers_do_not_depend_on_the_chunk_size(monkeypatch):
    """Buffers of a few modes and times: chunk boundaries and short last chunks.

    Spreading adds its terms in one order whatever the chunk, and each
    time is gathered on its own, so the bytes do not change.
    """
    prop = _prop(400, 0.5)
    rows = _rows(prop)
    t = _times(SWEEP)
    whole = gridded_sums(t, prop.nu, rows)
    monkeypatch.setattr(transform, "GRID_CHUNK", 7 * transform._WIDTH)
    np.testing.assert_array_equal(gridded_sums(t, prop.nu, rows), whole)
    _check_sampler(prop, t)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transform_samples_in_bounded_memory():
    """N = 4000 and 4000 times: no more than the direct sum's tables (6 MB)."""
    prop = _prop(4000, 0.5)
    t = _times(SWEEP)
    rows = _rows(prop)
    fast = _peak(lambda: prop.sample_test_particle(t))
    direct = _peak(lambda: mode_sums(t, prop.nu, None, rows))
    assert 5e6 < direct < 7e6
    assert fast <= direct


def test_transform_memory_just_below_the_grid_cap():
    """The longest span that is still gridded: FFT rows of 8.4 MB at most."""
    prop = _prop(400, 0.5)
    t = np.linspace(0.0, 2.4e5, 4000)
    assert transform._grid(t, prop.nu).n_fft == transform._MAX_FFT
    assert not transform.grid_fits(np.linspace(0.0, 2.5e5, 4000), prop.nu)
    assert _peak(lambda: prop.sample_test_particle(t)) < 1e7
    _check_sampler(prop, t)


# -- the RK4 and the period-map samplers ----------------------------------
#
# Their decays e^{x d} are gridded as the imaginary parts of the
# frequencies, theta - i d, in one transform per pair of rows.  The
# inputs are those of two benchmark workloads: rk4_dense (one bath of
# 400 at m = 1e-3, 4000 samples 0.5 apart, the default RK4 step) and
# twobath_floquet (2 x 200 at m = 1e-3, static renormalization, h = 1e-3,
# 2000 samples 25 apart after a warmup of 1000).

RK4_PLAN = SamplingPlan(mean_interval=0.5, n_samples=4000)
TWOBATH_PLAN = SamplingPlan(mean_interval=25.0, n_samples=2000, warmup=1000.0)


def _decay_bounds(rows, theta, log_decay, x):
    """Per row: the transform's bound with decay, plus the phases' rounding.

    (NUFFT_TOL e^{DECAY_GROWTH y} + eps max|theta x|) sum_k |A_k - i B_k|
    e^{d_k x_c}, with y = X max|d| and x_c, X the centre and half span of
    the grid over x.
    """
    grid = transform._grid(x, theta)
    growth = np.exp(DECAY_GROWTH * grid.half_span * np.max(np.abs(log_decay)))
    floor = np.finfo(float).eps * np.max(np.abs(theta)) * np.max(np.abs(x))
    weight = np.exp(log_decay * grid.t_c)
    return [(NUFFT_TOL * growth + floor) * np.sum(np.hypot(a, b) * weight) for a, b in rows]


def _rk4_inputs(omega, seed=1):
    """(prop, steps, h) of one rk4_dense point."""
    bath = BathSpec(size=400, mass=1e-3, temperature=5.0, dos=BAND)
    real = realize_bath(bath, seed)
    tp = TestParticleSpec(mass=1.0, omega=omega)
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    h = default_step_size(cm)
    steps = np.rint(_times(RK4_PLAN, seed) / h)
    return diagonalize(cm, initial_state(tp, (real,)).as_vector()), steps, h


@pytest.mark.parametrize("omega", [0.01, 0.5, 10.0])
def test_rk4_sampler_matches_the_direct_sum(omega):
    prop, steps, h = _rk4_inputs(omega)
    phi, log_rho = rk4_mode_factors(prop.nu, h)
    rows = _rows(prop)
    want = mode_sums(steps, phi, log_rho, rows)
    q, p = prop.sample_rk4(steps, h)
    for got, ref, bound in zip((q, p / prop.cm.tp.mass), want,
                               _decay_bounds(rows, phi, log_rho, steps)):
        assert np.max(np.abs(got - ref)) <= bound


def _twobath_system(omega, seed):
    spec = BathSpec(size=200, mass=1e-3, temperature=7.5, dos=BAND)
    return build_switched_matrices(TestParticleSpec(mass=1.0, omega=omega),
                                   realize_bath(spec, seed, 0), realize_bath(spec, seed, 1),
                                   renormalization="static")


def _twobath_run(monkeypatch, omega=0.55, seed=2):
    """One twobath_floquet point: its run result, period map data and v'."""
    system = _twobath_system(omega, seed)
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=1e-3))
    built, build = [], SwitchedPropagator._build_floquet

    def keep(self, last):
        built.append(build(self, last))
        return built[-1]

    v0 = system.initial_vector()
    with monkeypatch.context() as patch:
        patch.setattr(SwitchedPropagator, "_build_floquet", keep)
        res = prop.run(v0, _times(TWOBATH_PLAN, seed))
    (fl,) = built
    return res, fl, fl["amplitudes"](v0)


@pytest.mark.parametrize("dense", [False, True], ids=["structured", "dense"])
def test_period_map_sampler_matches_the_direct_sum(monkeypatch, dense):
    """The period map sampler against the direct sum over both halves of each pair.

    On the structured factorization, and on the dense reference
    (conftest.dense_floquet), whose multipliers eig orders differently.
    """
    outcomes, factor = [], switched._ModalPeriodMap.floquet

    def recording(self, sigma, quality_tol):
        fl = factor(self, sigma, quality_tol)
        outcomes.append(fl is not None)
        return fl

    monkeypatch.setattr(switched._ModalPeriodMap, "floquet", recording)
    if dense:
        monkeypatch.setattr(SwitchedPropagator, "_build_floquet",
                            lambda self, last: dense_floquet(self.system, self.schedule))
    res, fl, vprime = _twobath_run(monkeypatch)
    assert outcomes == ([] if dense else [True])
    # fl holds one root per conjugate pair: the oracle takes both halves
    log_mu = np.r_[fl["log_mu"], fl["log_mu"].conj()]
    ks, rs = np.divmod(res.steps, fl["period"])
    for r in np.unique(rs):
        at = rs == r
        c = fl["rows01"][r] * vprime
        c = np.c_[c, c.conj()]
        rows = [(c.real[i], -c.imag[i]) for i in (0, 1)]
        want = mode_sums(ks[at], log_mu.imag, log_mu.real, rows)
        for got, ref, bound in zip((res.q[at], res.p[at]), want,
                                   _decay_bounds(rows, log_mu.imag, log_mu.real, ks[at])):
            assert np.max(np.abs(got - ref)) <= bound


def _recording_mode_sums(monkeypatch):
    """Record how many modes each mode_sums call sums directly."""
    seen = []

    def recording(x, theta, *args, **kwargs):
        seen.append(len(theta))
        return mode_sums(x, theta, *args, **kwargs)

    monkeypatch.setattr(transform, "mode_sums", recording)
    return seen


def test_rk4_and_period_map_sum_only_out_of_band_modes_directly(monkeypatch):
    """On the rk4_dense and twobath_floquet inputs mode_sums sees at most 2 modes a call."""
    inputs = [_rk4_inputs(omega) for omega in (0.3, 0.5, 0.7)]
    seen = _recording_mode_sums(monkeypatch)
    for prop, steps, h in inputs:
        prop.sample_rk4(steps, h)
    assert len(seen) == len(inputs) and max(seen) <= 2
    for omega, seed in ((0.35, 1), (0.55, 2), (0.75, 11)):
        system = _twobath_system(omega, seed)
        seen = _recording_mode_sums(monkeypatch)
        SwitchedPropagator(system, SwitchSchedule(step_size=1e-3)).run(
            system.initial_vector(), _times(TWOBATH_PLAN, seed))
        # one call per residue class of the period (2 steps)
        assert len(seen) == 2 and max(seen) <= 2


def _recording_gridded_sums(monkeypatch):
    """Record (rows, complex frequencies) of each gridded_sums call."""
    seen = []

    def recording(x, nu, rows):
        seen.append((len(rows), np.iscomplexobj(nu)))
        return gridded_sums(x, nu, rows)

    monkeypatch.setattr(transform, "gridded_sums", recording)
    return seen


def test_every_sampler_grids_one_pair_of_rows_per_call(monkeypatch):
    """One transform of the (Q, P / M) pair: per RK4 call and per residue class of the period map.

    The RK4 and the period-map samplers grid their decays as complex
    frequencies, the exact sampler real ones.
    """
    inputs = [_rk4_inputs(omega) for omega in (0.3, 0.5, 0.7)]
    for prop, steps, h in inputs:
        seen = _recording_gridded_sums(monkeypatch)
        prop.sample_rk4(steps, h)
        assert seen == [(2, True)]
    seen = _recording_gridded_sums(monkeypatch)
    _prop(400, 0.5).sample_test_particle(_times(SWEEP))
    assert seen == [(2, False)]
    system = _twobath_system(0.55, 2)
    seen = _recording_gridded_sums(monkeypatch)
    SwitchedPropagator(system, SwitchSchedule(step_size=1e-3)).run(
        system.initial_vector(), _times(TWOBATH_PLAN, 2))
    # one call per residue class of the period (2 steps)
    assert seen == [(2, True)] * 2


def test_the_admissible_decay_follows_from_the_tolerance(monkeypatch):
    """A decay is gridded up to y = X max|d| = log 2 / (1 + cut / a), summed directly beyond.

    The kernel's a and cut follow from NUFFT_TOL, and at that y the
    gridding error may at most double.  A scan of 400 modes, 4000 times
    and decays of either sign up to that y stays within the stated
    bound of mode_sums; banded_sums grids every mode just below it and
    none just beyond it.
    """
    digits = np.log(1.0 / NUFFT_TOL)
    a = np.sqrt(2.0 * digits / 9.0)
    cut = np.sqrt(2.0 * digits + a * a)
    assert DECAY_GROWTH == pytest.approx(1.0 + cut / a, rel=1e-14)
    assert MAX_GRID_DECAY == pytest.approx(np.log(2.0) / DECAY_GROWTH, rel=1e-14)
    assert np.exp(DECAY_GROWTH * MAX_GRID_DECAY) == pytest.approx(2.0, rel=1e-14)
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.2, 1.0, 400)
    x = np.sort(rng.uniform(1000.0, 9000.0, 4000))
    rows = [(rng.standard_normal(400), rng.standard_normal(400)) for _ in range(2)]
    half_span = transform._grid(x, theta).half_span
    shape = rng.uniform(-1.0, 1.0, 400)
    shape /= np.max(np.abs(shape))
    for y in (1e-6, 1e-3, 0.05, 0.1, MAX_GRID_DECAY):
        d = y / half_span * shape
        got = gridded_sums(x, theta - 1j * d, rows)
        for row, ref, bound in zip(got, mode_sums(x, theta, d, rows),
                                   _decay_bounds(rows, theta, d, x)):
            assert np.max(np.abs(row - ref)) <= bound
    for y, direct in ((MAX_GRID_DECAY * (1.0 - 1e-9), 0), (MAX_GRID_DECAY * (1.0 + 1e-9), 400)):
        d = y / half_span * shape
        seen = _recording_mode_sums(monkeypatch)
        got = banded_sums(x, theta, d, rows, theta)
        assert seen == [direct]
        for row, ref, bound in zip(got, mode_sums(x, theta, d, rows),
                                   _decay_bounds(rows, theta, d, x)):
            assert np.max(np.abs(row - ref)) <= bound


def test_rk4_sampler_memory_stays_below_the_direct_sum():
    prop, steps, h = _rk4_inputs(0.5)
    phi, log_rho = rk4_mode_factors(prop.nu, h)
    rows = _rows(prop)
    fast = _peak(lambda: prop.sample_rk4(steps, h))
    direct = _peak(lambda: mode_sums(steps, phi, log_rho, rows))
    assert fast <= direct


def test_period_map_sampler_memory_stays_below_the_direct_sum(monkeypatch):
    """The whole switched run, against the same run with every mode summed directly."""
    system = _twobath_system(0.55, 2)
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=1e-3))
    v0, t = system.initial_vector(), _times(TWOBATH_PLAN, 2)
    fast = _peak(lambda: prop.run(v0, t))
    monkeypatch.setattr(transform, "grid_fits", lambda *args: False)
    direct = _peak(lambda: prop.run(v0, t))
    assert fast <= direct


def test_concurrent_samplers_give_their_one_thread_bytes():
    """Two threads sample two systems at once, each with the (Q, P) bytes it gets alone.

    Both transforms use the module's FFT buffer, which its lock lends to
    one at a time.  The systems' grids differ in length (N = 400 over
    the sweep's span, N = 100 over the two-bath alone curves'), so rows
    that one thread overwrote in the other's would show.  Each thread
    samples ten times, with the interpreter switching threads every
    microsecond.
    """
    props = [_prop(400, 0.5), _prop(100, 0.7, seed=2)]
    times = [_times(SWEEP), _times(ALONE, seed=2)]
    want = [[a.tobytes() for a in prop.sample_test_particle(t)]
            for prop, t in zip(props, times)]
    got = [[], []]
    start = threading.Barrier(2)

    def sample(j):
        start.wait()
        for _ in range(10):
            got[j].append([a.tobytes() for a in props[j].sample_test_particle(times[j])])

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=sample, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want[0]] * 10, [want[1]] * 10]
