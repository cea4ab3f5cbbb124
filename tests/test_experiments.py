"""Sweep drivers, curve reduction and the degenerate exchange experiment."""

import contextlib
import dataclasses
import io
import json
import pickle
import sys
import threading
import time

import numpy as np
import pytest

from finitebath.experiments import (
    SweepSpec,
    exchange_splitting,
    peak_location,
    run_degenerate_exchange,
    run_single_bath_point,
    run_sweep,
    run_two_bath_point,
    run_two_bath_sweep,
    smoothed_curve,
)
from finitebath import cli, experiments, propagator, switched
from finitebath.model import BathSpec, DensityOfStates, bare_energy
from finitebath.stats import SamplingPlan

BAND = DensityOfStates("uniform", 0.2, 1.0)
QUICK_PLAN = SamplingPlan(mean_interval=2.0, n_samples=400, warmup=100.0)


def _quick_spec(**kwargs):
    defaults = dict(
        omega_grid=(0.5,),
        bath1=BathSpec(size=150, mass=0.01, temperature=5.0, dos=BAND),
        seeds=(1,),
        plan=QUICK_PLAN,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# -- curve reduction ---------------------------------------------------


def test_smoothing_hand_case():
    np.testing.assert_allclose(smoothed_curve([1.0, 4.0, 2.0, 8.0]),
                               [2.5, 7.0 / 3.0, 14.0 / 3.0, 5.0], rtol=1e-12)


def test_smoothing_skips_gaps():
    out = smoothed_curve([1.0, np.nan, 3.0])
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0], rtol=1e-12)
    assert np.all(np.isnan(smoothed_curve([np.nan, np.nan])))


def test_peak_location_uses_the_smoothed_curve():
    omegas = [0.1, 0.2, 0.3, 0.4]
    assert peak_location(omegas, [1.0, 4.0, 2.0, 8.0]) == pytest.approx(0.4)
    # the raw argmax (index 1) loses to the smoothed shoulder around it
    assert peak_location(omegas, [1.0, 5.0, 4.5, 4.4]) == pytest.approx(0.3)
    # a row without a temperature is no peak, though its neighbour smooths it to 4
    assert peak_location(omegas, [1.0, 2.0, 4.0, np.nan]) == pytest.approx(0.3)
    with pytest.raises(ValueError, match="no finite values"):
        peak_location(omegas, [np.nan] * 4)


# -- sweep spec --------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="omega_grid"):
        _quick_spec(omega_grid=())
    with pytest.raises(ValueError, match="positive"):
        _quick_spec(omega_grid=(0.5, -1.0))
    with pytest.raises(ValueError, match="seed"):
        _quick_spec(seeds=())
    with pytest.raises(ValueError, match="initial_energy"):
        _quick_spec(initial_energy=-1.0)
    with pytest.raises(ValueError, match="unknown propagator"):
        _quick_spec(propagator="verlet")
    with pytest.raises(ValueError, match="unknown renormalization"):
        _quick_spec(renormalization="half")


def test_spec_puts_the_initial_energy_in_the_momentum():
    spec = _quick_spec(tp_mass=2.0, initial_energy=8.0)
    tp = spec.test_particle(0.5)
    assert tp.q0 == 0.0
    assert tp.p0 == pytest.approx(np.sqrt(32.0))
    assert bare_energy(tp.q0, tp.p0, tp) == pytest.approx(8.0)


# -- single bath points ------------------------------------------------


def test_single_point_is_deterministic_and_thermal():
    spec = _quick_spec()
    a = run_single_bath_point(0.5, spec, seed=1)
    b = run_single_bath_point(0.5, spec, seed=1)
    assert a.fit is not None
    assert a.fit.temperature == b.fit.temperature
    assert 3.0 < a.fit.temperature < 8.0
    assert a.hist.total_samples == 400
    assert len(a.bath_final) == 1
    assert a.bath_final[0] is not None
    assert 3.0 < a.bath_final[0].temperature < 8.0


def test_rk4_point_agrees_with_the_spectral_point():
    spec = _quick_spec(
        bath1=BathSpec(size=40, mass=0.01, temperature=5.0, dos=BAND),
        plan=SamplingPlan(mean_interval=1.0, n_samples=150, warmup=20.0))
    eig = run_single_bath_point(0.5, spec, seed=2)
    rk4 = run_single_bath_point(0.5, _quick_spec(
        bath1=spec.bath1, plan=spec.plan, propagator="rk4"), seed=2)
    # sample times snap to the step grid, so agreement is statistical
    assert rk4.mean_energy == pytest.approx(eig.mean_energy, rel=0.05)
    assert rk4.n_steps > 0


def test_energy_drift_on_the_eigen_path_is_a_numerical_error(monkeypatch):
    """Frequencies 0.1 % off move the final state, which the energy check reads.

    They are corrupted where the projection sweep reads them to build
    that state, inside diagonalize.
    """
    exact = propagator._mode_shapes

    def corrupted(*args):
        nu, shapes = exact(*args)
        return nu * 1.001, shapes

    monkeypatch.setattr(propagator, "_mode_shapes", corrupted)
    with pytest.raises(propagator.NumericalError, match="energy drifted"):
        run_single_bath_point(0.5, _quick_spec(), 1)


@pytest.mark.parametrize("kind", ["eigen", "rk4"])
def test_a_single_bath_point_sweeps_the_mode_shapes_once(monkeypatch, kind):
    """The projection sweep builds the final state: one pass over the shapes per point."""
    sweeps = []
    blocks = propagator._mode_blocks

    def spy(shapes):
        sweeps.append(len(shapes.cols))
        return blocks(shapes)

    monkeypatch.setattr(propagator, "_mode_blocks", spy)
    spec = _quick_spec(bath1=BathSpec(size=40, mass=0.01, temperature=5.0, dos=BAND),
                       plan=SamplingPlan(mean_interval=1.0, n_samples=150, warmup=20.0),
                       propagator=kind)
    run_single_bath_point(0.5, spec, seed=2)
    assert len(sweeps) == 1


# -- two bath points ---------------------------------------------------


def test_two_bath_point_requires_a_second_bath():
    with pytest.raises(ValueError, match="bath2"):
        run_two_bath_point(0.5, _quick_spec(), seed=1)


def test_two_bath_point_runs_and_reports_both_baths():
    small = BathSpec(size=60, mass=0.01, temperature=5.0, dos=BAND)
    spec = _quick_spec(
        bath1=small, bath2=small,
        plan=SamplingPlan(mean_interval=1.5, n_samples=200, warmup=50.0))
    point = run_two_bath_point(0.4, spec, seed=1)
    assert len(point.bath_final) == 2
    assert point.bath_final == (None, None)   # 60 oscillators: too few to fit
    assert point.mean_energy > 0.0
    static = run_two_bath_point(
        0.4, _quick_spec(bath1=small, bath2=small, plan=spec.plan,
                         renormalization="static"), seed=1)
    assert static.mean_energy != point.mean_energy


# -- sweeps ------------------------------------------------------------


def test_sweep_covers_the_grid_and_flags_the_decoupled_regime():
    spec = _quick_spec(omega_grid=(0.5, 10.0), seeds=(1, 2))
    curve = run_sweep(spec)
    assert curve.omegas.shape == (2,)
    assert len(curve.bath_initial) == 1
    assert 3.0 < curve.temperature[0] < 8.0
    # decoupled: either no thermal fit at all or a freezing temperature
    assert np.isnan(curve.temperature[1]) or curve.temperature[1] < 1.5
    t_init, s_init = curve.bath_initial[0]
    assert 4.0 < t_init < 6.5
    assert s_init > 0.0


def test_two_bath_sweep_produces_alone_curves():
    small = BathSpec(size=60, mass=0.01, temperature=5.0, dos=BAND)
    spec = _quick_spec(
        omega_grid=(0.4,), bath1=small, bath2=small, seeds=(1, 2),
        plan=SamplingPlan(mean_interval=1.5, n_samples=200, warmup=50.0))
    res = run_two_bath_sweep(spec)
    assert len(res.combined.bath_initial) == 2
    assert len(res.alone) == 2
    for curve in res.alone:
        assert len(curve.bath_initial) == 1
        assert curve.omegas.shape == (1,)
    with pytest.raises(ValueError, match="bath2"):
        run_two_bath_sweep(_quick_spec())


# -- points on threads -------------------------------------------------

# a kicked particle at omega = 5 keeps a narrow energy: all three seeds fail their fit
THREADED = ["sweep", "--set", "bath1_size=40", "--set", "bath1_mass=0.01",
            "--set", "omega_grid=[0.3,0.5,5.0]", "--set", "initial_energy=10",
            "--set", "n_samples=400", "--set", "seeds=[1,2,3]"]


# 2 x 30 oscillators in switched contact; omega = 5 fails its fits
TWOBATH = ["twobath", "--set", "bath1_size=30", "--set", "bath2_size=30",
           "--set", "bath1_mass=0.01", "--set", "bath2_mass=0.01",
           "--set", "omega_grid=[0.4,0.55,5.0]", "--set", "initial_energy=10",
           "--set", "n_samples=200", "--set", "seeds=[1,2,3]"]


def _runner(fail, run=run_single_bath_point):
    """run, except at the (omega, seed) points of fail: (kind, message)."""
    def runner(omega, spec, seed, **kwargs):
        if (omega, seed) in fail:
            kind, message = fail[omega, seed]
            raise kind(message)
        return run(omega, spec, seed, **kwargs)
    return runner


def _threaded_run(tmp_path, monkeypatch, cpus, argv, sweep, csv):
    """argv on `cpus` point threads: (what cli's `sweep` returned, csv's bytes, manifest)."""
    monkeypatch.setattr(experiments, "usable_cpus", lambda: cpus)
    results, run = [], getattr(cli, sweep)
    monkeypatch.setattr(cli, sweep, lambda spec: results.append(run(spec)) or results[-1])
    out = tmp_path / str(cpus)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("started", "finished", "environment"):
        del manifest[key]
    [result] = results
    return result, (out / csv).read_bytes(), manifest


def _threaded_sweep(tmp_path, monkeypatch, cpus, fail):
    """THREADED on `cpus` point threads: (pickled curve, curve CSV, manifest)."""
    monkeypatch.setattr(experiments, "run_single_bath_point", _runner(fail))
    curve, *files = _threaded_run(tmp_path, monkeypatch, cpus, THREADED, "run_sweep", "curve.csv")
    assert curve.workers == min(cpus, 9)
    return (pickle.dumps(dataclasses.replace(curve, workers=1)), *files)


def test_threaded_points_give_the_serial_curve_failures_and_files(tmp_path, monkeypatch):
    """On 1, 2 and 3 point threads a sweep keeps every byte, failures in grid order.

    Omega = 5 fails its fits; the point (0.5, 2) raises NumericalError.
    The interpreter switches threads every microsecond, and no thread
    outlives the sweep.
    """
    threads, interval = threading.active_count(), sys.getswitchinterval()
    fail = {(0.5, 2): (propagator.NumericalError, "forced")}
    try:
        sys.setswitchinterval(1e-6)
        runs = [_threaded_sweep(tmp_path, monkeypatch, cpus, fail) for cpus in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert [entry[:2] for entry in runs[0][2]["failures"]] == [[0.5, 2], [5.0, 1], [5.0, 2],
                                                               [5.0, 3]]
    assert runs[0][2]["failures"][0][2] == "NumericalError: forced"


def test_a_sweep_prints_and_records_a_peak_its_curve_measured(tmp_path):
    """THREADED: all three seeds fail their fits at omega = 5, so the peak is at 0.3 or 0.5."""
    out = tmp_path / "run"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(THREADED + ["--out", str(out)]) == 0
    peak = json.loads((out / "manifest.json").read_text())["peaks"]["curve.csv"]
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    temperature = {float(row.split(",")[0]): float(row.split(",")[1]) for row in rows}
    assert np.isnan(temperature[5.0]) and np.isfinite(temperature[peak])
    assert f"curve.csv: peak at omega = {peak:g}" in printed.getvalue()


def test_threaded_switched_points_give_the_serial_curve_failures_and_files(tmp_path,
                                                                          monkeypatch):
    """On 1, 2 and 3 point threads a two-bath sweep's combined curve keeps every byte.

    The switched points run beside each other, each period map in one
    piece of buffers.  Omega = 5 fails its fits and the switched point
    (0.55, 2) raises NumericalError: both are recorded in grid order.
    The interpreter switches threads every microsecond, and no thread
    outlives the sweep.
    """
    threads, interval = threading.active_count(), sys.getswitchinterval()
    monkeypatch.setattr(experiments, "run_two_bath_point",
                        _runner({(0.55, 2): (propagator.NumericalError, "forced")},
                                run_two_bath_point))
    runs = []
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 2, 3):
            result, *files = _threaded_run(tmp_path, monkeypatch, cpus, TWOBATH,
                                           "run_two_bath_sweep", "curve_combined.csv")
            assert result.combined.workers == min(cpus, 9)
            runs.append((pickle.dumps(dataclasses.replace(result.combined, workers=1)), *files))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert runs[1] == runs[0] and runs[2] == runs[0]
    combined = [entry for entry in runs[0][2]["failures"] if "alone" not in entry[2]]
    assert [entry[:2] for entry in combined] == [[0.55, 2], [5.0, 1], [5.0, 2], [5.0, 3]]
    assert combined[0][2] == "NumericalError: forced"


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_any_other_exception_ends_the_sweep_with_the_first_in_grid_order(tmp_path, monkeypatch,
                                                                          cpus):
    threads = threading.active_count()
    fail = {(0.5, 2): (propagator.NumericalError, "recorded"),
            (0.5, 3): (ValueError, "first"), (5.0, 1): (ValueError, "second")}
    with pytest.raises(ValueError, match="first"):
        _threaded_sweep(tmp_path, monkeypatch, cpus, fail)
    assert threading.active_count() == threads


def _grid_of_nine():
    return _quick_spec(omega_grid=(0.3, 0.5, 0.7), seeds=(1, 2, 3),
                       bath1=BathSpec(size=20, mass=0.02, temperature=5.0, dos=BAND),
                       plan=SamplingPlan(mean_interval=1.0, n_samples=100))


def test_no_point_starts_after_a_failure_or_an_interrupt(monkeypatch):
    """After a raising point, or KeyboardInterrupt on the calling thread, no thread takes another.

    Every other point waits until the failing one has raised, and 50 ms
    more, so the failure is recorded while the one point in flight
    beside it runs.
    """
    monkeypatch.setattr(experiments, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    for error, fails_on in ((ValueError, lambda omega, seed: (omega, seed) == (0.3, 1)),
                            (KeyboardInterrupt,
                             lambda omega, seed: threading.current_thread() is threading.main_thread())):
        started, raised = [], threading.Event()

        def runner(omega, spec, seed):
            started.append((omega, seed))
            if fails_on(omega, seed):
                raised.set()
                raise error("stop")
            assert raised.wait(timeout=10.0)
            time.sleep(0.05)
            return run_single_bath_point(omega, spec, seed)

        with pytest.raises(error, match="stop"):
            experiments._sweep(_grid_of_nine(), runner, [])
        assert 1 <= len(started) <= 2, (error, started)
        assert threading.active_count() == threads


def test_a_one_point_run_threads_inside_its_point(monkeypatch):
    """Only a run with one point gives its factorization worker threads; on point threads it has one."""
    for module in (experiments, propagator):
        monkeypatch.setattr(module, "usable_cpus", lambda: 2)
    budgets = []

    def runner(omega, spec, seed):
        budgets.append(propagator._workers(600))
        return run_single_bath_point(omega, spec, seed)

    one = dataclasses.replace(_grid_of_nine(), omega_grid=(0.5,), seeds=(1,))
    assert experiments._sweep(one, runner, []).workers == 1
    assert budgets == [2]
    budgets.clear()
    assert experiments._sweep(_grid_of_nine(), runner, []).workers == 2
    assert budgets == [1] * 9


# -- initial energy ----------------------------------------------------


def test_decoupled_particle_keeps_its_initial_energy():
    spec = _quick_spec(
        bath1=BathSpec(size=100, mass=0.001, temperature=5.0, dos=BAND),
        seeds=(1, 2, 3),
        plan=SamplingPlan(mean_interval=1.0, n_samples=200, warmup=10.0))
    kicked = dataclasses.replace(spec, initial_energy=0.5)
    mean = np.mean([run_single_bath_point(50.0, kicked, s).mean_energy
                    for s in spec.seeds])
    assert 0.35 < mean < 0.55


# -- degenerate exchange -----------------------------------------------


def test_degenerate_exchange_beats_at_the_splitting():
    res = run_degenerate_exchange(n=8, xi=0.04, omega_r=1.0, e0=10.0,
                                  n_periods=32, n_grid=4096,
                                  n_ks_samples=500)
    dnu = exchange_splitting(1.0, 0.04)
    assert res.exchange_frequency == pytest.approx(dnu, rel=1e-12)
    assert res.dominant_frequency == pytest.approx(dnu, rel=0.05)
    assert res.secondary_ratio < 0.3
    assert res.e0 == pytest.approx(10.0)
    assert np.min(res.energies) > -1e-9
    assert np.max(res.energies) > 8.5
    assert np.max(res.energies) < 10.0 * 1.2
    assert res.ks_energies.shape == (500,)


def test_degenerate_exchange_trace_does_not_depend_on_the_seed():
    """Pairwise cancellation leaves the bath's collective coordinate at rest."""
    a, b = (run_degenerate_exchange(n=20, n_periods=4, n_grid=1024,
                                    n_ks_samples=100, seed=seed) for seed in (0, 7))
    assert a.seed == 0 and b.seed == 7
    assert np.max(np.abs(a.energies - b.energies)) <= 1e-12 * a.e0
    # the sample times of the arcsine check do follow the seed
    assert not np.array_equal(a.ks_energies, b.ks_energies)


def test_eigen_path_builds_no_drift_matrix():
    # the dense drift matrix is a test reference (conftest); no module of the
    # program can build it
    for module in (propagator, switched):
        assert not hasattr(module, "drift_matrix")
    point = run_single_bath_point(0.5, _quick_spec(propagator="eigen"), 1)
    assert point.fit is not None
    res = run_degenerate_exchange(n=8, xi=0.04, n_periods=4, n_grid=512,
                                  n_ks_samples=100)
    assert res.ks_energies.shape == (100,)
