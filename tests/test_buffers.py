"""The hot loops reuse their buffers: page faults of repeated calls, and reuse that changes nothing.

A temporary that an O(N^2) pass allocates per block, or the transform
per call, is often handed back to the kernel by glibc when it is freed,
and the next block or call page-faults and zeroes it again.  The passes
allocate their buffers once per call and the transform keeps its FFT
rows from call to call, so a repeated call takes few minor faults.  Each
bound is on the third call in one process; the values quoted were
measured on a 2-core AMD EPYC with BLAS on one thread.
"""

import contextvars
import resource
import threading
import tracemalloc
from functools import partial

import numpy as np

from finitebath import propagator, switched, transform, workers
from finitebath.bath import realize_bath
from finitebath.config import build_sweep_spec, check_config
from finitebath.experiments import run_two_bath_point
from finitebath.model import BathSpec, DensityOfStates, TestParticleSpec, initial_state
from finitebath.propagator import build_multi_coupling_matrix, diagonalize, flow_factors
from finitebath.rng import SAMPLING_TIMES, substream
from finitebath.stats import SamplingPlan, make_sampling_times
from finitebath.switched import (SwitchSchedule, SwitchedPropagator, TwoBathSystem,
                                 build_switched_matrices, default_step_size)

from conftest import full_state

BAND = DensityOfStates("uniform", 0.2, 1.0)
# the sampling plan of sweep_n400, and a short one
SWEEP = SamplingPlan(mean_interval=10.0, n_samples=4000, warmup=500.0)
QUICK = SamplingPlan(mean_interval=2.0, n_samples=400, warmup=100.0)
# the twobath_floquet workload's config
TWOBATH = {"bath1_size": 200, "bath1_mass": 1e-3, "bath1_temperature": 7.5,
           "bath2_size": 200, "bath2_mass": 1e-3, "bath2_temperature": 7.5,
           "renormalization": "static", "step_size": 1e-3,
           "mean_interval": 25.0, "n_samples": 2000, "warmup": 1000.0,
           "n_bins": 20, "span_factor": 5.0, "omega_grid": [0.55]}


def _faults_of_third_call(call):
    for _ in range(2):
        call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _bath(n, mass, seed=1, bath_index=0):
    return realize_bath(BathSpec(size=n, mass=mass, temperature=5.0, dos=BAND),
                        seed, bath_index)


def _phase(n, mass, omega=0.5, seed=1):
    """One bath in contact: its CouplingMatrix and initial state vector."""
    real = _bath(n, mass, seed)
    tp = TestParticleSpec(mass=1.0, omega=omega)
    return (build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)]),
            initial_state(tp, (real,)).as_vector())


def _times(plan, seed=1):
    return make_sampling_times(plan, substream(seed, SAMPLING_TIMES).generator())


# -- minor faults of a repeated call ----------------------------------------


def _dense(monkeypatch):
    """Keep diagonalize on the dense path at any size: N = 4000 takes the far-field sums."""
    monkeypatch.setattr(propagator, "FAR_FIELD_ROOTS", np.iinfo(np.int64).max)


def test_repeated_factorization_takes_few_page_faults(monkeypatch):
    """diagonalize at N = 4000 (point_n4000's bath) on two CPUs, dense path: under 2,000 faults.

    Measured 41,890-41,922 when Loewner's z and the shape blocks allocated
    their (64 x N) temporaries per block, 0 with the buffers reused.  The
    roots, z and the shape pass run on two threads.
    """
    _dense(monkeypatch)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    cm, v0 = _phase(4000, 1e-4)
    assert _faults_of_third_call(lambda: diagonalize(cm, v0)) < 2_000


def test_repeated_far_field_factorization_takes_few_page_faults(monkeypatch):
    """diagonalize at N = 4000 on two CPUs, by the far-field sums: under 2,000 faults.

    Measured 2,045 when the near field allocated its temporaries per
    chunk, and 5 with seven buffers allocated once per call.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    cm, v0 = _phase(4000, 1e-4)
    assert len(cm.w) + 1 >= propagator.FAR_FIELD_ROOTS
    assert _faults_of_third_call(lambda: diagonalize(cm, v0)) < 2_000


def _peaks_on_one_and_two_cpus(monkeypatch, cm, v0):
    """diagonalize's tracemalloc peaks with a final state, on one CPU and on two."""
    final = partial(flow_factors, t=4.5e4)
    peaks = []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            diagonalize(cm, v0, final=final)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_a_factorization_on_two_cpus_holds_one_cpus_peak(monkeypatch):
    """diagonalize at N = 4000, a final state, dense path: two CPUs add at most the group sums.

    The tracemalloc peak on two CPUs may exceed that on one by at most
    the SWEEP_GROUPS partial sums of the shape pass plus 10 % of them.
    Loewner's z sets both peaks, 6.54 and 6.61 MB: each of the shape
    pass's two ranges holds a block of 64 modes and a factor scratch of
    FACTOR_ROWS rows, 2.3 MB.  A full-height scratch per range took the
    two-CPU peak to 9.9 MB.
    """
    _dense(monkeypatch)
    cm, v0 = _phase(4000, 1e-4)
    peaks = _peaks_on_one_and_two_cpus(monkeypatch, cm, v0)
    partials = propagator.SWEEP_GROUPS * (cm.dim // 2) * 2 * 8
    assert peaks[1] - peaks[0] <= 1.1 * partials


def test_a_far_field_factorization_on_two_cpus_holds_one_cpus_peak(monkeypatch):
    """The same at N = 4000 by the far-field sums, below the dense path's one-CPU peak.

    Both peaks were 4.0 MB.  With the pass's block buffers 64 modes wide
    for its two blocks of one mode, the two-CPU peak was 1.9 MB higher.
    """
    cm, v0 = _phase(4000, 1e-4)
    peaks = _peaks_on_one_and_two_cpus(monkeypatch, cm, v0)
    partials = propagator.SWEEP_GROUPS * (cm.dim // 2) * 2 * 8
    assert peaks[1] - peaks[0] <= 1.1 * partials
    _dense(monkeypatch)
    assert max(peaks) < _peaks_on_one_and_two_cpus(monkeypatch, cm, v0)[0]


def test_repeated_exact_sampling_takes_few_page_faults():
    """sample_test_particle at N = 400 on sweep_n400's 4,000 times: under 600 faults.

    Measured 1,602-1,604 with fresh FFT rows and 2 MB gathering buffers
    per call, 480 with them reused; pocketfft's own scratch of each call
    sets that floor (0 once a larger freed block has raised glibc's mmap
    threshold).
    """
    cm, v0 = _phase(400, 1e-3)
    prop, t = diagonalize(cm, v0), _times(SWEEP)
    assert _faults_of_third_call(lambda: prop.sample_test_particle(t)) < 600


def test_repeated_two_bath_point_takes_few_page_faults():
    """run_two_bath_point on twobath_floquet's 2 x 200 baths, Omega = 0.55, seed 2: under 1,500.

    Measured 5,388-5,798 with the Aberth and transform temporaries
    allocated per block and per call, 1,009-1,059 with them reused: most
    of those are the first touch of the period map's work buffers and
    pocketfft's scratch.
    """
    spec = build_sweep_spec(check_config(TWOBATH))
    assert _faults_of_third_call(lambda: run_two_bath_point(0.55, spec, 2)) < 1_500


def test_a_period_map_on_a_point_thread_holds_one_piece_of_buffers(monkeypatch):
    """The period map's two work buffers hold PERIOD_PIECE = 32 roots by dim, and it starts no thread.

    At 2 x 100 oscillators (dim 202, 101 roots) with BLAS on one thread
    and two CPUs, the map holds one piece in a sweep's point worker
    (point_thread set) and outside one alike.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    system = build_switched_matrices(TestParticleSpec(mass=1.0, omega=0.55),
                                     _bath(100, 1e-2, 2, 0), _bath(100, 1e-2, 2, 1),
                                     renormalization="static")

    def refuse(self):
        raise AssertionError("the period map started a thread")

    def buffers(point_thread):
        workers.point_thread.set(point_thread)
        modal = switched._ModalPeriodMap(system, SwitchSchedule(step_size=1e-2))
        modal.floquet(modal.roots()[:system.dim // 2], 1e-7)["amplitudes"](system.initial_vector())
        return modal._work.shape

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert switched.PERIOD_PIECE == 32
    with workers.blas_on_one_thread():
        assert contextvars.copy_context().run(buffers, True) == (2, 32 * system.dim)
        assert contextvars.copy_context().run(buffers, False) == (2, 32 * system.dim)


# -- reuse changes no result ------------------------------------------------


def _exact_point(n, plan):
    cm, v0 = _phase(n, 0.4 / n)
    prop = diagonalize(cm, v0)
    t = _times(plan)
    q, p = prop.sample_test_particle(t)
    return [prop.nu, prop.u0, prop.coef_cos, prop.coef_sin, q, p,
            full_state(prop, float(t[-1])).as_vector()]


def _run(prop, v0, t):
    res = prop.run(v0, t)
    return [res.times, res.steps, res.q, res.p, res.final_state.as_vector()]


def _rk4_point():
    cm, v0 = _phase(100, 4e-3, omega=0.7)
    system = TwoBathSystem(tp=cm.tp, realizations=(_bath(100, 4e-3),), a1=cm, a2=cm)
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=default_step_size(cm)))
    return _run(prop, v0, _times(SamplingPlan(mean_interval=0.5, n_samples=1000)))


def _switched_point():
    tp = TestParticleSpec(mass=1.0, omega=0.55)
    system = build_switched_matrices(tp, _bath(100, 1e-2, 2, 0), _bath(100, 1e-2, 2, 1),
                                     renormalization="static")
    prop = SwitchedPropagator(system, SwitchSchedule(step_size=1e-2))
    return _run(prop, system.initial_vector(), _times(QUICK, seed=2))


POINTS = {"exact_400": lambda: _exact_point(400, SWEEP),
          "exact_40": lambda: _exact_point(40, QUICK),
          "rk4": _rk4_point, "switched": _switched_point}


def test_interleaved_points_reproduce_their_first_results(monkeypatch):
    """Each point, run after the others, returns the bytes it returned first.

    The points reuse the transform's FFT buffer at other sizes in between,
    and no returned array shares memory with a buffer that outlives the
    call: the FFT buffer and the work buffers of the period maps.  Nor
    does the transform's own result.
    """
    maps, floquet = [], switched._ModalPeriodMap.floquet
    monkeypatch.setattr(switched._ModalPeriodMap, "floquet",
                        lambda self, *args: maps.append(self) or floquet(self, *args))
    transforms, gridded_sums = [], transform.gridded_sums

    def checked(*args):
        out = gridded_sums(*args)
        transforms.append(np.shares_memory(out, transform._fft_buffer))
        return out

    monkeypatch.setattr(transform, "gridded_sums", checked)
    first, again = {}, {}
    for results in (first, again):
        for name, point in POINTS.items():
            maps.clear()
            results[name] = point()
            buffers = [transform._fft_buffer] + [m._work for m in maps if "_work" in vars(m)]
            assert not any(np.shares_memory(a, b) for a in results[name] for b in buffers)
        if results is first:
            assert len(transform._fft_buffer) and maps
    assert transforms and not any(transforms)
    for name in POINTS:
        assert [a.tobytes() for a in again[name]] == [a.tobytes() for a in first[name]], name

