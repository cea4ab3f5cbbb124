"""Sweep drivers, curve reduction and the degenerate exchange experiment."""

import contextlib
import dataclasses
import io
import json
import os
import pickle
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from finitebath.experiments import (
    PointResult,
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
from finitebath import cli, experiments, propagator, switched, workers
from finitebath.model import BathSpec, DensityOfStates, bare_energy
from finitebath.stats import FitError, SamplingPlan

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
    """The projection sweep builds the final state: each mode's shape is built once per point."""
    built = []
    blocks = propagator._mode_blocks

    def spy(shapes, *args):
        for cols, block in blocks(shapes, *args):
            built.extend(cols.tolist())
            yield cols, block

    monkeypatch.setattr(propagator, "_mode_blocks", spy)
    spec = _quick_spec(bath1=BathSpec(size=40, mass=0.01, temperature=5.0, dos=BAND),
                       plan=SamplingPlan(mean_interval=1.0, n_samples=150, warmup=20.0),
                       propagator=kind)
    run_single_bath_point(0.5, spec, seed=2)
    assert sorted(built) == list(range(41))


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


def test_each_contact_phase_finds_its_fastest_mode_once(monkeypatch):
    """The derived step and the RK4 stability check share one top secular root per phase."""
    found = []
    top = propagator.max_mode_frequency
    monkeypatch.setattr(propagator, "max_mode_frequency", lambda cm: found.append(cm) or top(cm))
    small = BathSpec(size=60, mass=0.01, temperature=5.0, dos=BAND)
    plan = SamplingPlan(mean_interval=1.5, n_samples=200, warmup=50.0)
    point = run_single_bath_point(0.4, _quick_spec(bath1=small, plan=plan, propagator="rk4"), 1)
    assert point.n_steps > 0 and len(found) == 1
    found.clear()
    point = run_two_bath_point(0.4, _quick_spec(bath1=small, bath2=small, plan=plan), 1)
    assert point.n_steps > 0 and len(found) == 2 and found[0] is not found[1]


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


def test_a_curve_keeps_one_result_per_point_in_grid_order(monkeypatch):
    """An RK4 sweep whose point (0.5, 2) raises and whose point (0.7, 1) fails its fit.

    Every point ends in one PointResult, in grid order then seed order.
    A failure holds its error; the point that stepped to its end and then
    failed its fit keeps its histogram and its RK4 step.  points and
    failures are the fitted and the failed points, each in that order.
    """
    run = experiments.run_single_bath_point

    def unfit(hist):
        raise FitError("forced fit failure")

    def runner(omega, spec, seed, **kwargs):
        if (omega, seed) == (0.5, 2):
            raise propagator.NumericalError("forced")
        if (omega, seed) != (0.7, 1):
            return run(omega, spec, seed, **kwargs)
        # the patch holds for this point alone, in whichever worker process runs it
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "fit_temperature", unfit)
            return run(omega, spec, seed, **kwargs)

    monkeypatch.setattr(experiments, "run_single_bath_point", runner)
    curve = run_sweep(_quick_spec(
        omega_grid=(0.3, 0.5, 0.7), seeds=(1, 2), propagator="rk4",
        bath1=BathSpec(size=40, mass=0.01, temperature=5.0, dos=BAND),
        plan=SamplingPlan(mean_interval=1.0, n_samples=150, warmup=20.0)))
    assert all(isinstance(pt, PointResult) for pt in curve.outcomes)
    assert [(pt.omega, pt.seed) for pt in curve.outcomes] == [
        (0.3, 1), (0.3, 2), (0.5, 1), (0.5, 2), (0.7, 1), (0.7, 2)]
    raised, failed = curve.outcomes[3], curve.outcomes[4]
    assert isinstance(raised.error, propagator.NumericalError)
    assert str(raised) == "NumericalError: forced"
    assert raised.fit is None and raised.hist is None and np.isnan(raised.mean_energy)
    assert raised.step_size is None and raised.n_steps == 0 and raised.bath_final == ()
    assert str(failed) == "FitError: forced fit failure"
    assert failed.fit is None and failed.hist is not None
    assert failed.step_size > 0.0 and failed.n_steps > 0
    assert [id(pt) for pt in curve.failures] == [id(raised), id(failed)]
    assert [id(pt) for pt in curve.points] == [id(curve.outcomes[i]) for i in (0, 1, 2, 5)]
    assert all(pt.fit is not None and pt.error is None and pt.step_size > 0.0
               for pt in curve.points)


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


# -- points on worker processes ----------------------------------------

# a kicked particle at omega = 5 keeps a narrow energy: all three seeds fail their fit
SWEEP = ["sweep", "--set", "bath1_size=40", "--set", "bath1_mass=0.01",
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


def _no_child_remains():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _curve_bytes(curve):
    """A curve's fields but its workers, each pickled on its own and its points one by one.

    A pickle of the whole curve also records which objects its points
    share, such as one dtype, and points sent back by a worker process
    share none.
    """
    return [[pickle.dumps(pt) for pt in curve.outcomes] if f.name == "outcomes"
            else pickle.dumps(getattr(curve, f.name))
            for f in dataclasses.fields(curve) if f.name != "workers"]


def _run_on_cpus(tmp_path, monkeypatch, cpus, argv, sweep):
    """argv as if on `cpus` CPUs: (what cli's `sweep` returned, its files, manifest)."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    results, run = [], getattr(cli, sweep)
    monkeypatch.setattr(cli, sweep, lambda spec: results.append(run(spec)) or results[-1])
    out = tmp_path / str(cpus)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    for key in ("started", "finished", "environment"):
        del manifest[key]
    [result] = results
    return result, files, manifest


def _sweep_on_cpus(tmp_path, monkeypatch, cpus, fail):
    """SWEEP as if on `cpus` CPUs: (the curve's bytes, its files, manifest)."""
    monkeypatch.setattr(experiments, "run_single_bath_point", _runner(fail))
    curve, *files = _run_on_cpus(tmp_path, monkeypatch, cpus, SWEEP, "run_sweep")
    assert curve.workers == min(cpus, 9)
    return (_curve_bytes(curve), *files)


def test_threaded_points_give_the_serial_curve_failures_and_files(tmp_path, monkeypatch):
    """On 1, 2 and 3 point workers a sweep keeps every byte, failures in grid order.

    Omega = 5 fails its fits; the point (0.5, 2) raises NumericalError.
    The points come back from the worker processes, and no thread or
    process outlives the sweep.
    """
    threads = threading.active_count()
    fail = {(0.5, 2): (propagator.NumericalError, "forced")}
    runs = [_sweep_on_cpus(tmp_path, monkeypatch, cpus, fail) for cpus in (1, 2, 3)]
    assert threading.active_count() == threads
    _no_child_remains()
    assert sorted(runs[0][1]) == ["curve.csv"]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert [entry[:2] for entry in runs[0][2]["failures"]] == [[0.5, 2], [5.0, 1], [5.0, 2],
                                                               [5.0, 3]]
    assert runs[0][2]["failures"][0][2] == "NumericalError: forced"


def test_a_sweep_prints_and_records_a_peak_its_curve_measured(tmp_path):
    """SWEEP: all three seeds fail their fits at omega = 5, so the peak is at 0.3 or 0.5."""
    out = tmp_path / "run"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(SWEEP + ["--out", str(out)]) == 0
    peak = json.loads((out / "manifest.json").read_text())["peaks"]["curve.csv"]
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    temperature = {float(row.split(",")[0]): float(row.split(",")[1]) for row in rows}
    assert np.isnan(temperature[5.0]) and np.isfinite(temperature[peak])
    assert f"curve.csv: peak at omega = {peak:g}" in printed.getvalue()


def test_threaded_switched_points_give_the_serial_curve_failures_and_files(tmp_path,
                                                                          monkeypatch):
    """On 1, 2 and 3 point workers a two-bath sweep keeps every byte.

    The switched points run beside each other, each period map in one
    piece of buffers.  Omega = 5 fails its fits and the switched point
    (0.55, 2) raises NumericalError: both are recorded in grid order.
    The three curves' files keep their bytes too, and no thread or
    process outlives the sweep.
    """
    threads = threading.active_count()
    monkeypatch.setattr(experiments, "run_two_bath_point",
                        _runner({(0.55, 2): (propagator.NumericalError, "forced")},
                                run_two_bath_point))
    runs = []
    for cpus in (1, 2, 3):
        result, *files = _run_on_cpus(tmp_path, monkeypatch, cpus, TWOBATH,
                                      "run_two_bath_sweep")
        assert [curve.workers for curve in (result.combined, *result.alone)] == [min(cpus, 9)] * 3
        runs.append((_curve_bytes(result.combined), *files))
    assert threading.active_count() == threads
    _no_child_remains()
    assert sorted(runs[0][1]) == ["curve_bath1_alone.csv", "curve_bath2_alone.csv",
                                  "curve_combined.csv"]
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
        _sweep_on_cpus(tmp_path, monkeypatch, cpus, fail)
    assert threading.active_count() == threads
    _no_child_remains()


def _grid_of_nine():
    return _quick_spec(omega_grid=(0.3, 0.5, 0.7), seeds=(1, 2, 3),
                       bath1=BathSpec(size=20, mass=0.02, temperature=5.0, dos=BAND),
                       plan=SamplingPlan(mean_interval=1.0, n_samples=100))


def test_no_point_starts_after_a_failure_or_an_interrupt(tmp_path, monkeypatch):
    """After a raising point, or KeyboardInterrupt in the calling process, no worker takes another.

    Every other point waits until the failing one has raised, and 50 ms
    more, so the failure is recorded while the one point in flight
    beside it runs.  The workers are processes, so each point notes its
    start, and the failing one its raise, in a file.  No child process
    is left after either.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    threads, caller = threading.active_count(), os.getpid()
    for error, fails_on in ((ValueError, lambda omega, seed: (omega, seed) == (0.3, 1)),
                            (KeyboardInterrupt, lambda omega, seed: os.getpid() == caller)):
        started = tmp_path / f"{error.__name__}.started"
        raised = tmp_path / f"{error.__name__}.raised"

        def runner(omega, spec, seed):
            with open(started, "a") as fh:
                fh.write(f"{omega} {seed}\n")
            if fails_on(omega, seed):
                raised.touch()
                raise error("stop")
            deadline = time.monotonic() + 10.0
            while not raised.exists():
                assert time.monotonic() < deadline
                time.sleep(1e-3)
            time.sleep(0.05)
            return run_single_bath_point(omega, spec, seed)

        with pytest.raises(error, match="stop"):
            experiments._sweep(_grid_of_nine(), runner, [])
        points = started.read_text().splitlines()
        assert 1 <= len(points) <= 2, (error, points)
        assert threading.active_count() == threads
        _no_child_remains()


def test_a_one_point_run_threads_inside_its_point(monkeypatch):
    """Only a run with one point gives its factorization worker threads; in point workers it has one.

    Each point returns, as its n_steps, the threads that a factorization
    of 600 roots would get there.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)

    def runner(omega, spec, seed):
        return dataclasses.replace(run_single_bath_point(omega, spec, seed),
                                   n_steps=workers.threads_for(600))

    one = dataclasses.replace(_grid_of_nine(), omega_grid=(0.5,), seeds=(1,))
    curve = experiments._sweep(one, runner, [])
    assert curve.workers == 1
    assert [pt.n_steps for pt in curve.outcomes] == [2]
    curve = experiments._sweep(_grid_of_nine(), runner, [])
    assert curve.workers == 2
    assert [pt.n_steps for pt in curve.outcomes] == [1] * 9


def test_a_points_warnings_reach_the_caller_in_grid_order(monkeypatch):
    """Each point warns; on 3 workers the caller records every warning, in grid order.

    Category, message, file and line are those of the warning the point
    raised, whichever process ran it.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)

    def runner(omega, spec, seed):
        warnings.warn(f"point {omega} {seed}", UserWarning)
        return run_single_bath_point(omega, spec, seed)

    line = runner.__code__.co_firstlineno + 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert experiments._sweep(_grid_of_nine(), runner, []).workers == 3
    assert [str(w.message) for w in caught] == [f"point {omega} {seed}"
                                               for omega in (0.3, 0.5, 0.7)
                                               for seed in (1, 2, 3)]
    assert {(w.category, w.filename, w.lineno) for w in caught} == {(UserWarning, __file__, line)}
    _no_child_remains()


def test_a_worker_killed_by_a_signal_ends_the_sweep_naming_its_points(monkeypatch):
    """A child that dies in its point is a ChildProcessError naming the signal and the point.

    The calling process runs its points slowly, so the child takes one.
    """
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    caller = os.getpid()

    def runner(omega, spec, seed):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.02)
        return run_single_bath_point(omega, spec, seed)

    with pytest.raises(ChildProcessError,
                       match=r"killed by signal 9 \(Killed\) before it returned \[\(0\.\d, \d\)\]"):
        experiments._sweep(_grid_of_nine(), runner, [])
    _no_child_remains()


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
