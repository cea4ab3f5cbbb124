"""Composed experiments: thermalization curves and the degenerate exchange.

A sweep point is one (particle frequency, seed) pair: draw the baths,
propagate, sample the particle energy at random times, fit a
temperature.  Curves aggregate the per-seed fits by inverse variance.
A failing point (non-thermal fit, diverged run) is recorded and the
sweep continues; a grid point with no surviving seed reports NaN.
_sweep is the one loop over (omega, seed) points: the single-bath and
switched curves, each bath alone, and the CLI's one-frequency run all
go through it.

The points are independent, and a point's bits do not depend on what
ran before it.  So a sweep runs its points on up to one thread per CPU,
which take them in turn (_in_turns); the results are collected in grid
order, so every curve, failure and file keeps its bytes.  A point
thread does not thread inside its point (propagator.point_thread): there
a switched point's period map holds the work buffers of one thread, one
piece of 32 roots, and the samplers share the one FFT buffer under its
lock.  Only a single-bath RK4 sweep runs its points in order on the
calling thread: on two threads its points of a few ms gained nothing
and raised the rk4_dense benchmark's peak memory by 4.2 %.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .bath import realize_bath
from .model import (BathSpec, DensityOfStates, SystemState, TestParticleSpec,
                    bare_energy, initial_state, oscillator_energies, total_energy)
from .propagator import (NumericalError, build_multi_coupling_matrix,
                         diagonalize, factorization_fits, flow_factors,
                         point_thread, usable_cpus)
from .rng import SAMPLING_TIMES, substream
from .stats import (DEFAULT_N_BINS, DEFAULT_SPAN_FACTOR, EnergyHistogram,
                    FitError, SamplingPlan, TemperatureFit, aggregate_seeds,
                    check_bin_count, fit_energy_samples, fit_temperature,
                    make_sampling_times, span_histogram)
from .switched import (SwitchSchedule, SwitchedPropagator, TwoBathSystem,
                       build_switched_matrices, default_step_size)

@dataclass(frozen=True)
class SweepSpec:
    """Everything one thermalization sweep depends on."""

    omega_grid: tuple
    bath1: BathSpec = field(default_factory=BathSpec)
    bath2: BathSpec | None = None
    tp_mass: float = 1.0
    initial_energy: float = 0.0
    seeds: tuple = tuple(range(1, 16))
    plan: SamplingPlan = field(default_factory=SamplingPlan)
    n_bins: int = DEFAULT_N_BINS
    span_factor: float = DEFAULT_SPAN_FACTOR
    propagator: str = "eigen"        # "eigen" or "rk4" (RK4 steps, sampled through the modes)
    delta_t_steps: int = 1
    # None: 50 steps per period of the largest bare frequency, or of the
    # fastest normal mode where the bare step is unstable (default_step_size)
    step_size: float | None = None
    renormalization: str = "switched"   # two-bath stiffness bookkeeping

    def __post_init__(self):
        if len(self.omega_grid) == 0:
            raise ValueError("omega_grid must not be empty")
        if not all(0.0 < w < np.inf for w in self.omega_grid):
            raise ValueError("sweep frequencies must be finite and positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            # a repeated seed is the same fit again, not an independent one
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.initial_energy < 0.0:
            raise ValueError(f"initial_energy must be >= 0, got {self.initial_energy}")
        if self.propagator not in ("eigen", "rk4"):
            raise ValueError(f"unknown propagator {self.propagator!r}")
        if self.renormalization not in ("switched", "static"):
            raise ValueError(f"unknown renormalization {self.renormalization!r}")
        if self.span_factor <= 0.0:
            raise ValueError(f"span_factor must be positive, got {self.span_factor}")
        # the checks the histogram, the particle and the schedule make at run
        # time; an unset step size is derived per point, positive by construction
        check_bin_count(self.n_bins)
        TestParticleSpec(mass=self.tp_mass)
        schedule = SwitchSchedule(delta_t_steps=self.delta_t_steps,
                                  step_size=1.0 if self.step_size is None else self.step_size)
        if self.bath2 is not None:
            schedule.check_period_fits(2 * (1 + self.bath1.size + self.bath2.size))
        baths = [b for b in (self.bath1, self.bath2) if b is not None]
        coupling = sum(b.size * b.mass for b in baths) / self.tp_mass
        w_max = max(b.dos.omega_uv for b in baths)
        if not factorization_fits(coupling, w_max):
            raise ValueError(f"omega_uv={w_max:g} with N m / M = {coupling:g} over the baths "
                             "overflows the normal modes, which form up to "
                             "(N m / M) omega_uv^6")

    def test_particle(self, omega: float) -> TestParticleSpec:
        """Initial energy is placed entirely in the momentum."""
        p0 = float(np.sqrt(2.0 * self.tp_mass * self.initial_energy))
        return TestParticleSpec(mass=self.tp_mass, omega=omega, q0=0.0, p0=p0)


@dataclass(frozen=True)
class PointResult:
    """One (omega, seed) simulation reduced to its statistics.

    The energies are bare particle energies.  ``fit`` is None when their
    distribution is not Boltzmann-like (e.g. the decoupled high-frequency
    regime, where it is a narrow Gaussian); the histogram and mean are
    still recorded so the regime remains identifiable.
    """

    omega: float
    seed: int
    fit: TemperatureFit | None
    hist: EnergyHistogram
    mean_energy: float
    bath_final: tuple        # per bath TemperatureFit or None (too small to fit)
    max_snap_distance: float
    n_steps: int
    fit_error: FitError | None = None
    step_size: float | None = None     # the RK4 step; None for normal modes


# Bath blocks hold only N ~ 200 energies.  The log-count fit drops empty
# bins, which biases T upward on sparse tails; coarse bins keep every bin
# populated and the residual bias identical between initial and final fits.
BATH_FIT_BINS = 12
BATH_FIT_SPAN = 5.0


def _fit_bath_block(energies) -> TemperatureFit | None:
    if len(energies) < 100:
        return None
    try:
        fit, _ = fit_energy_samples(energies, n_bins=BATH_FIT_BINS,
                                    span_factor=BATH_FIT_SPAN)
        return fit
    except (FitError, ValueError):
        return None


def _reduce_samples(spec, omega, seed, q, p, reals, final_state,
                    max_snap=0.0, n_steps=0, step_size=None) -> PointResult:
    energies = bare_energy(q, p, spec.test_particle(omega))
    hist = span_histogram(energies, spec.n_bins, spec.span_factor)
    try:
        fit, fit_error = fit_temperature(hist), None
    except FitError as err:
        fit, fit_error = None, err
    bath_final = tuple(
        _fit_bath_block(oscillator_energies(bq, bp, real.frequencies, real.m))
        for real, bq, bp in zip(reals, final_state.bath_q, final_state.bath_p))
    return PointResult(omega=omega, seed=seed, fit=fit, hist=hist,
                       mean_energy=float(np.mean(energies)),
                       bath_final=bath_final, max_snap_distance=max_snap,
                       n_steps=n_steps, fit_error=fit_error, step_size=step_size)


# The normal-mode flow conserves the Hamiltonian exactly; what remains
# is roundoff, orders of magnitude below this bound.
ENERGY_DRIFT_TOL = 1e-8


def _check_energy_drift(initial: SystemState, final: SystemState,
                       tp: TestParticleSpec, real) -> None:
    """Raise NumericalError if the total Hamiltonian moved between two states."""
    h0 = total_energy(initial, tp, [(real, True)])
    h1 = total_energy(final, tp, [(real, True)])
    if not abs(h1 - h0) <= ENERGY_DRIFT_TOL * abs(h0):   # NaN fails too
        raise NumericalError(
            f"total energy drifted from {h0:.12g} to {h1:.12g} by t={final.time:g}, "
            f"more than {ENERGY_DRIFT_TOL:g} relative")


def run_single_bath_point(omega: float, spec: SweepSpec, seed: int,
                          bath_index: int = 0) -> PointResult:
    """One continuous contact run with spec.bath1: exact normal modes (or RK4).

    bath_index picks the bath's random streams, so a two-bath spec's
    second bath alone is spec.bath1 = bath2 drawn with bath_index 1.  On
    the normal-mode path the total Hamiltonian at the last sample time
    must match its initial value (NumericalError otherwise).
    """
    tp = spec.test_particle(omega)
    real = realize_bath(spec.bath1, seed, bath_index)
    times = make_sampling_times(
        spec.plan, substream(seed, SAMPLING_TIMES).generator())
    state0 = initial_state(tp, (real,))
    v0 = state0.as_vector()
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    if spec.propagator == "eigen":
        prop = diagonalize(cm, v0, final=partial(flow_factors, t=float(times[-1])))
        q, p = prop.sample_test_particle(times)
        _check_energy_drift(state0, prop.final_state, tp, real)
        return _reduce_samples(spec, omega, seed, q, p, (real,), prop.final_state)
    # continuous RK4: both switch phases use the engaged bath
    system = TwoBathSystem(tp=tp, realizations=(real,), a1=cm, a2=cm)
    dt = spec.step_size or default_step_size(cm)
    res = SwitchedPropagator(system, SwitchSchedule(step_size=dt)).run(v0, times)
    return _reduce_samples(spec, omega, seed, res.q, res.p, (real,), res.final_state,
                           max_snap=res.max_snap_distance, n_steps=res.n_steps,
                           step_size=dt)


def run_two_bath_point(omega: float, spec: SweepSpec, seed: int) -> PointResult:
    """One switched contact run with both baths."""
    if spec.bath2 is None:
        raise ValueError("two bath point needs bath2 in the spec")
    tp = spec.test_particle(omega)
    r1 = realize_bath(spec.bath1, seed, 0)
    r2 = realize_bath(spec.bath2, seed, 1)
    system = build_switched_matrices(tp, r1, r2, renormalization=spec.renormalization)
    dt = spec.step_size or default_step_size(system.a1, system.a2)
    schedule = SwitchSchedule(delta_t_steps=spec.delta_t_steps, step_size=dt)
    times = make_sampling_times(
        spec.plan, substream(seed, SAMPLING_TIMES).generator())
    res = SwitchedPropagator(system, schedule).run(system.initial_vector(), times)
    return _reduce_samples(spec, omega, seed, res.q, res.p, (r1, r2), res.final_state,
                           max_snap=res.max_snap_distance, n_steps=res.n_steps,
                           step_size=dt)


@dataclass(frozen=True)
class PointFailure:
    """Why one (omega, seed) point produced no temperature.

    ``error`` is the exception the run raised or the fit failure it
    recorded; its class tells numerical failures from fit failures.
    ``step_size`` is the RK4 step of a run that stepped to its end and
    then failed its fit (None otherwise).
    """

    omega: float
    seed: int
    error: Exception
    step_size: float | None = None

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


@dataclass(frozen=True)
class ThermalizationCurve:
    """Aggregated sweep output, one row per grid frequency."""

    omegas: np.ndarray
    temperature: np.ndarray
    sigma: np.ndarray
    goodness: np.ndarray
    overflow_fraction: np.ndarray
    bath_initial: tuple     # per bath (temperature, sigma), seed aggregated
    bath_final: tuple       # per bath (temperatures[nw], sigmas[nw])
    failures: tuple         # PointFailure per failed (omega, seed)
    points: tuple           # fitted PointResults, grid order then seed order
    spec: SweepSpec
    workers: int = 1        # threads that ran the points


def _attempt(runner, spec: SweepSpec, omega: float, seed: int):
    """One point: its PointResult if it fitted a temperature, else its PointFailure."""
    try:
        point = runner(omega, spec, seed)
    except (FitError, NumericalError) as err:
        return PointFailure(omega, seed, err)
    if point.fit is None:
        return PointFailure(omega, seed, point.fit_error, point.step_size)
    return point


def _in_turns(task, n, workers) -> list:
    """[task(i) for i in range(n)], on `workers` threads that take the i in turn.

    The calling thread is one of them.  Each runs in a copy of the
    caller's context, with point_thread set when there are several, so
    that a task does not thread inside itself.  A thread that cannot
    start (RuntimeError) leaves its share to the others.  Once a task
    raises, no thread takes another i; all threads are joined before
    this returns, also when the calling thread is interrupted, and the
    exception of the lowest i is raised, the one a loop in order would
    have raised.
    """
    results, errors = [None] * n, {}
    order, lock, stop = iter(range(n)), threading.Lock(), threading.Event()

    def take():
        with lock:
            return None if stop.is_set() else next(order, None)

    def run():
        point_thread.set(workers > 1)
        for i in iter(take, None):
            try:
                results[i] = task(i)
            except BaseException as exc:    # raised below, on the calling thread
                errors[i] = exc
                stop.set()

    threads = []
    try:
        for _ in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
            try:
                thread.start()
            except RuntimeError:
                break
            threads.append(thread)
        contextvars.copy_context().run(run)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _sweep(spec: SweepSpec, runner, baths) -> ThermalizationCurve:
    """Run every (omega, seed) point of the spec and aggregate in grid order.

    runner(omega, spec, seed) returns a PointResult.  baths holds one
    (BathSpec, bath_index) pair per bath the runner draws; their initial
    fits are made on the same per-seed draws.  The points run on up to
    one thread per CPU (_in_turns), except those of a single-bath RK4
    sweep, which run in order on the calling thread.
    """
    omegas = np.asarray(spec.omega_grid, dtype=float)
    nw, ns = len(omegas), len(spec.seeds)
    temperature, sigma, goodness, overflow = (np.full(nw, np.nan) for _ in range(4))
    final = [(np.full(nw, np.nan), np.full(nw, np.nan)) for _ in baths]
    grid = [(float(w), seed) for w in spec.omega_grid for seed in spec.seeds]
    workers = 1
    if spec.bath2 is not None or spec.propagator == "eigen":
        workers = min(usable_cpus(), len(grid))
    outcomes = _in_turns(lambda i: _attempt(runner, spec, *grid[i]), len(grid), workers)
    points, failures = [], []
    for i in range(nw):
        row = outcomes[i * ns:(i + 1) * ns]
        failures += [pt for pt in row if isinstance(pt, PointFailure)]
        fitted = [pt for pt in row if isinstance(pt, PointResult)]
        points.extend(fitted)
        if not fitted:
            continue
        fits = [pt.fit for pt in fitted]
        temperature[i], sigma[i] = aggregate_seeds(fits)
        goodness[i] = float(np.mean([f.goodness for f in fits]))
        overflow[i] = float(np.mean([pt.hist.overflow_fraction for pt in fitted]))
        for b, (final_t, final_s) in enumerate(final):
            finals = [pt.bath_final[b] for pt in fitted if pt.bath_final[b] is not None]
            if finals:
                final_t[i], final_s[i] = aggregate_seeds(finals)

    bath_initial = []
    for bath, index in baths:
        per_seed = [_fit_bath_block(realize_bath(bath, s, index).energies)
                    for s in spec.seeds]
        per_seed = [f for f in per_seed if f is not None]
        bath_initial.append(aggregate_seeds(per_seed) if per_seed else (np.nan, np.nan))

    return ThermalizationCurve(
        omegas=omegas, temperature=temperature, sigma=sigma, goodness=goodness,
        overflow_fraction=overflow, bath_initial=tuple(bath_initial),
        bath_final=tuple(final), failures=tuple(failures), points=tuple(points),
        spec=spec, workers=workers)


def run_sweep(spec: SweepSpec) -> ThermalizationCurve:
    """Thermalization curve over the frequency grid of the spec."""
    if spec.bath2 is None:
        return _sweep(spec, run_single_bath_point, [(spec.bath1, 0)])
    return _sweep(spec, run_two_bath_point, [(spec.bath1, 0), (spec.bath2, 1)])


@dataclass(frozen=True)
class TwoBathSweepResult:
    """Switched curve plus each bath acting alone on the same draws."""

    combined: ThermalizationCurve
    alone: tuple   # (bath 1 alone, bath 2 alone) ThermalizationCurves


def run_two_bath_sweep(spec: SweepSpec) -> TwoBathSweepResult:
    """Switched sweep, each bath alone for comparison, bath checks included.

    The alone curves reuse exactly the same bath draws (same seeds and
    per-bath streams) with continuous contact and the exact propagator.
    """
    if spec.bath2 is None:
        raise ValueError("two bath sweep needs bath2 in the spec")
    combined = run_sweep(spec)
    curves = []
    for idx, bath in enumerate((spec.bath1, spec.bath2)):
        aspec = replace(spec, bath1=bath, bath2=None, propagator="eigen")
        curves.append(_sweep(aspec, partial(run_single_bath_point, bath_index=idx),
                             [(bath, idx)]))
    return TwoBathSweepResult(combined=combined, alone=tuple(curves))


def smoothed_curve(values) -> np.ndarray:
    """3-point moving average with shrinking windows at the edges."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(len(values)):
        window = values[max(0, i - 1):i + 2]
        out[i] = np.nanmean(window) if np.any(np.isfinite(window)) else np.nan
    return out


def peak_location(omegas, temperatures) -> float:
    """Frequency of the curve maximum after 3-point smoothing, among the rows with a temperature.

    A row without one gets a smoothed value from its neighbours, but no
    peak: the peak names a frequency the curve has measured.
    """
    omegas = np.asarray(omegas, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    sm = np.where(np.isfinite(temperatures), smoothed_curve(temperatures), np.nan)
    if not np.any(np.isfinite(sm)):
        raise ValueError("curve has no finite values; cannot locate a peak")
    return float(omegas[np.nanargmax(sm)])


@dataclass(frozen=True)
class DegenerateExchange:
    """Microscopic run against a zero-bandwidth bath at resonance.

    With pairwise-cancelled initial conditions only the symmetric bath
    mode couples to the particle, so the particle energy beats between
    0 and e0 at the splitting of the two resonant normal modes,
    omega_r (sqrt(1 + sqrt(xi)) - sqrt(1 - sqrt(xi))).
    """

    times: np.ndarray
    energies: np.ndarray           # on the uniform grid
    e0: float
    exchange_frequency: float      # predicted splitting
    dominant_frequency: float      # FFT argmax (DC excluded)
    secondary_ratio: float         # next line amplitude / dominant
    ks_energies: np.ndarray        # randomly timed samples for the arcsine test
    seed: int                      # of the bath draw and the sample times


def exchange_splitting(omega_r: float, xi: float) -> float:
    """Normal-mode splitting of particle + symmetric mode at resonance."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"resonant coupling needs 0 < xi < 1, got {xi}")
    s = np.sqrt(xi)
    return float(omega_r * (np.sqrt(1.0 + s) - np.sqrt(1.0 - s)))


def run_degenerate_exchange(n: int = 100, xi: float = 0.01,
                            omega_r: float = 1.0, e0: float = 10.0, seed: int = 3,
                            n_periods: int = 16, n_grid: int = 8192,
                            n_ks_samples: int = 4000) -> DegenerateExchange:
    """Kick the particle with e0 against a degenerate bath at resonance.

    The particle frequency is set to omega_r sqrt(1 - xi) so that its
    renormalized frequency matches the bath line exactly.  The bath is
    drawn at temperature 1; pairwise cancellation leaves its collective
    coordinate at rest whatever the temperature, so the trace does not
    depend on the seed (to rounding).  The seed picks the bath draw and
    the randomly timed samples of the arcsine test.  Out-of-range
    inputs, an omega_r whose normal modes would overflow, and a xi so
    small that the splitting is below 1e4 eps of omega_r, are a
    ValueError before the bath is built.
    """
    from .bath import pairwise_cancelled

    if n < 1 or n_periods < 1:
        raise ValueError(f"need n >= 1 and n_periods >= 1, got n={n}, "
                         f"n_periods={n_periods}")
    if not (0.0 < e0 < np.inf and 0.0 < omega_r < np.inf):
        raise ValueError(f"e0 and omega_r must be finite and positive, got "
                         f"e0={e0}, omega_r={omega_r}")
    dnu = exchange_splitting(omega_r, xi)
    if not factorization_fits(xi, omega_r):
        raise ValueError(f"omega_r={omega_r:g} overflows the normal modes of the degenerate "
                         "bath, which form up to xi omega_r^6")
    # sqrt(1 +- sqrt(xi)) each round to about eps, so the predicted splitting
    # carries an error near eps omega_r: at 1e4 eps omega_r that is 1e-4 of
    # it, the accuracy to which the trace's FFT line finds it
    if not dnu >= 1e4 * np.finfo(float).eps * omega_r:
        raise ValueError(f"xi={xi:g} splits the resonance by {dnu / omega_r:.3g} "
                         "of omega_r, below the 1e4 eps double precision resolves")
    m = xi / float(n)                       # test particle mass is 1
    omega = omega_r * np.sqrt(1.0 - xi)
    dos = DensityOfStates("uniform", omega_r, omega_r)
    bath = BathSpec(size=n, mass=m, temperature=1.0, dos=dos)
    real = pairwise_cancelled(realize_bath(bath, seed, 0))
    tp = TestParticleSpec(mass=1.0, omega=omega, q0=0.0,
                          p0=float(np.sqrt(2.0 * e0)))
    v0 = initial_state(tp, (real,)).as_vector()
    prop = diagonalize(build_multi_coupling_matrix(tp, [(m, real.frequencies, True)]), v0)

    t_beat = 2.0 * np.pi / dnu
    times = np.linspace(0.0, n_periods * t_beat, n_grid)
    q, p = prop.sample_test_particle(times)
    energies = bare_energy(q, p, tp)

    centered = (energies - energies.mean()) * np.hanning(n_grid)
    amplitude = np.abs(np.fft.rfft(centered))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(n_grid, d=times[1] - times[0])
    search = amplitude.copy()
    search[:3] = 0.0                        # DC leakage
    k = int(np.argmax(search))
    search[max(0, k - 5):k + 6] = 0.0
    k2 = int(np.argmax(search))

    ks_times = np.sort(substream(seed, SAMPLING_TIMES).generator().uniform(
        0.0, 200.0 * t_beat, n_ks_samples))
    ks_q, ks_p = prop.sample_test_particle(ks_times)

    return DegenerateExchange(
        times=times, energies=energies, e0=e0, exchange_frequency=dnu,
        dominant_frequency=float(freqs[k]),
        secondary_ratio=float(amplitude[k2] / amplitude[k]),
        ks_energies=bare_energy(ks_q, ks_p, tp), seed=seed)
