"""Composed experiments: thermalization curves and the degenerate exchange.

A sweep point is one (particle frequency, seed) pair: draw the baths,
propagate, sample the particle energy at random times, fit a
temperature.  Curves aggregate the per-seed fits by inverse variance.
Every point ends in one PointResult: a failing point (non-thermal fit,
diverged run) holds its error and the sweep continues; a grid point
with no surviving seed reports NaN.  A curve keeps its points' results
in grid order, then seed order.  _sweep is the one loop over (omega,
seed) points: the single-bath and switched curves, each bath alone,
and the CLI's one-frequency run all go through it.  Both RK4 point
kinds, single-bath continuous contact and switched contact, run
through _run_rk4.

The points are independent, and a point's bits do not depend on what
ran before it.  So a sweep runs its points on up to one process per
CPU, the calling process and children forked for the sweep, which take
them in turn (workers.in_processes); the results come back pickled
and are collected in grid order, so every curve, failure, warning and
file keeps its bytes.  Processes, not threads: the GIL held two point
threads to 1.2-1.35 times one on two CPUs.  A worker does not thread
inside its point (workers.point_thread); a switched point's period
map never threads, and its work buffers hold one piece of 32 roots.
Where the process may not fork (workers.may_fork: not Linux, or
another Python thread alive), the points run in order on the calling
thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .bath import realize_bath
from .model import (MAX_BATH_SIZE, BathSpec, DensityOfStates, SystemState, TestParticleSpec,
                    bare_energy, initial_state, oscillator_energies, total_energy)
from .propagator import (NumericalError, build_multi_coupling_matrix, diagonalize,
                         factorization_fits, flow_factors)
from .rng import SAMPLING_TIMES, substream
from .stats import (DEFAULT_N_BINS, DEFAULT_SPAN_FACTOR, EnergyHistogram,
                    FitError, SamplingPlan, TemperatureFit, aggregate_seeds,
                    check_bin_count, fit_energy_samples, fit_temperature,
                    make_sampling_times, span_histogram)
from .switched import (SwitchSchedule, SwitchedPropagator, TwoBathSystem,
                       build_switched_matrices, default_step_size)
from .workers import in_processes, processes_for, threads_for

# switching does work on the particle: over 768 switched runs (2 x 5 and
# 2 x 30 oscillators, Omega 1e-3 to 50, delta_t_steps 1 to 2000, h 1e-3
# to 0.5, both renormalizations) its largest sampled energy reached 3.0
# times the initial total energy, and a bath's free energies 1.3 times
ENERGY_HEADROOM = 64.0


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
        # the particle's energy P^2 / 2M + M Omega^2 Q^2 / 2 forms 2M and M Omega^2
        top = max(self.omega_grid)
        if not (np.isfinite(2.0 * self.tp_mass) and np.isfinite(self.tp_mass * top * top)):
            raise ValueError(f"mass={self.tp_mass!r} overflows the particle's 2 M or its "
                             f"stiffness M omega^2 at omega={top:g}")
        if not np.isfinite(2.0 * self.tp_mass * self.initial_energy):
            raise ValueError(f"initial_energy={self.initial_energy!r} with mass={self.tp_mass!r} "
                             "overflows the particle's squared momentum 2 M E")
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
        # a Boltzmann draw -T ln(1 - u), u < 1 a double, stays below 37 T, so
        # no draw's total energy H exceeds initial_energy + 37 N T over the
        # baths.  A run sums n_samples bare particle energies, each below H.
        # A bath fit sums a bath's free energies: below 2 H from its springs,
        # plus what the particle carries when the baths move with it in the
        # collective mode, held by the particle's spring M Omega^2 alone,
        # 2 H (N m / (M + sum N m)) (omega_uv / Omega)^2
        energy = self.initial_energy + 37.0 * sum(b.size * b.temperature for b in baths)
        w = min(self.omega_grid)
        sums = max([self.plan.n_samples] + [
            2.0 + 2.0 * (b.size * b.mass / self.tp_mass / (1.0 + coupling))
            * (b.dos.omega_uv / w) * (b.dos.omega_uv / w) for b in baths])
        if not np.isfinite(ENERGY_HEADROOM * energy):
            raise ValueError(f"the energy bound initial_energy + 37 N T over the baths, "
                             f"{energy:g}, overflows with a headroom of {ENERGY_HEADROOM:g}")
        if not np.isfinite(sums):
            raise ValueError(f"omega={w:g} lies so far below omega_uv that a bath fit's "
                             "factor (omega_uv / omega)^2 overflows")
        if not np.isfinite(ENERGY_HEADROOM * energy * sums):
            raise ValueError(f"the energy bound initial_energy + 37 N T over the baths, "
                             f"{energy:g}, times the sums over {sums:g} sampled or oscillator "
                             f"energies at omega={w:g} overflows with a headroom of "
                             f"{ENERGY_HEADROOM:g}")

    def test_particle(self, omega: float) -> TestParticleSpec:
        """Initial energy is placed entirely in the momentum."""
        p0 = float(np.sqrt(2.0 * self.tp_mass * self.initial_energy))
        return TestParticleSpec(mass=self.tp_mass, omega=omega, q0=0.0, p0=p0)


@dataclass(frozen=True)
class PointResult:
    """One (omega, seed) simulation: its statistics, or why it has none.

    The energies are bare particle energies.  ``fit`` is None when the
    point has no temperature, and ``error`` says why.  It is the fit's
    FitError when their distribution is not Boltzmann-like (e.g. the
    decoupled high-frequency regime, where it is a narrow Gaussian); the
    histogram and mean are still recorded so the regime remains
    identifiable.  Or it is the FitError or NumericalError the run
    raised, and the statistics keep their defaults: no histogram, a NaN
    mean, no bath fits, no steps.  ``step_size`` is the RK4 step of a
    run that stepped to its end (None for normal modes).
    """

    omega: float
    seed: int
    fit: TemperatureFit | None = None
    hist: EnergyHistogram | None = None
    mean_energy: float = np.nan
    bath_final: tuple = ()   # per bath TemperatureFit or None (too small to fit)
    max_snap_distance: float = 0.0
    n_steps: int = 0
    error: Exception | None = None
    step_size: float | None = None

    def __str__(self) -> str:
        return f"{type(self.error).__name__}: {self.error}"


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


def _reduce_samples(spec, omega, seed, q, p, reals, final_state, **run) -> PointResult:
    """A run reduced to its PointResult; run is an RK4 run's snap distance, steps and step."""
    energies = bare_energy(q, p, spec.test_particle(omega))
    hist = span_histogram(energies, spec.n_bins, spec.span_factor)
    try:
        fit, error = fit_temperature(hist), None
    except FitError as err:
        fit, error = None, err
    bath_final = tuple(
        _fit_bath_block(oscillator_energies(bq, bp, real.frequencies, real.m))
        for real, bq, bp in zip(reals, final_state.bath_q, final_state.bath_p))
    return PointResult(omega=omega, seed=seed, fit=fit, hist=hist,
                       mean_energy=float(np.mean(energies)), bath_final=bath_final,
                       error=error, **run)


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


def _sample_times(spec: SweepSpec, seed: int) -> np.ndarray:
    return make_sampling_times(spec.plan, substream(seed, SAMPLING_TIMES).generator())


def _run_rk4(spec: SweepSpec, omega: float, seed: int, system: TwoBathSystem) -> PointResult:
    """RK4 run of the system's contact schedule from its draws, reduced to a PointResult.

    An unset step is derived from each distinct contact phase once:
    continuous contact (a2 is a1) has one.
    """
    phases = (system.a1,) if system.a2 is system.a1 else (system.a1, system.a2)
    dt = spec.step_size or default_step_size(*phases)
    schedule = SwitchSchedule(delta_t_steps=spec.delta_t_steps, step_size=dt)
    res = SwitchedPropagator(system, schedule).run(system.initial_vector(),
                                                   _sample_times(spec, seed))
    return _reduce_samples(spec, omega, seed, res.q, res.p, system.realizations,
                           res.final_state, max_snap_distance=res.max_snap_distance,
                           n_steps=res.n_steps, step_size=dt)


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
    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    if spec.propagator == "rk4":
        # continuous RK4: both switch phases use the engaged bath
        return _run_rk4(spec, omega, seed,
                        TwoBathSystem(tp=tp, realizations=(real,), a1=cm, a2=cm))
    times = _sample_times(spec, seed)
    state0 = initial_state(tp, (real,))
    prop = diagonalize(cm, state0.as_vector(), final=partial(flow_factors, t=float(times[-1])))
    q, p = prop.sample_test_particle(times)
    _check_energy_drift(state0, prop.final_state, tp, real)
    return _reduce_samples(spec, omega, seed, q, p, (real,), prop.final_state)


def run_two_bath_point(omega: float, spec: SweepSpec, seed: int) -> PointResult:
    """One switched contact run with both baths."""
    if spec.bath2 is None:
        raise ValueError("two bath point needs bath2 in the spec")
    tp = spec.test_particle(omega)
    r1 = realize_bath(spec.bath1, seed, 0)
    r2 = realize_bath(spec.bath2, seed, 1)
    return _run_rk4(spec, omega, seed,
                    build_switched_matrices(tp, r1, r2, renormalization=spec.renormalization))


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
    outcomes: tuple         # PointResult per (omega, seed), grid order then seed order
    workers: int = 1        # processes that ran the points
    factor_workers: int = 1  # most threads one point's factorization ran on

    @property
    def points(self) -> tuple:
        """The points that fitted a temperature, in grid order."""
        return tuple(pt for pt in self.outcomes if pt.fit is not None)

    @property
    def failures(self) -> tuple:
        """The points without a temperature, in grid order."""
        return tuple(pt for pt in self.outcomes if pt.fit is None)


def _attempt(runner, spec: SweepSpec, omega: float, seed: int) -> PointResult:
    """One point's PointResult; a run that raises a FitError or NumericalError holds it."""
    try:
        return runner(omega, spec, seed)
    except (FitError, NumericalError) as err:
        return PointResult(omega, seed, error=err)


def _sweep(spec: SweepSpec, runner, baths) -> ThermalizationCurve:
    """Run every (omega, seed) point of the spec and aggregate in grid order.

    runner(omega, spec, seed) returns a PointResult.  baths holds one
    (BathSpec, bath_index) pair per bath the runner draws; their initial
    fits are made on the same per-seed draws.  The points run on up to
    one process per CPU (in_processes, processes_for), except where the
    process may not fork, which runs them in order on the calling thread.
    The curve records the processes of the points and the threads of one
    point's factorization.
    """
    omegas = np.asarray(spec.omega_grid, dtype=float)
    nw, ns = len(omegas), len(spec.seeds)
    temperature, sigma, goodness, overflow = (np.full(nw, np.nan) for _ in range(4))
    final = [(np.full(nw, np.nan), np.full(nw, np.nan)) for _ in baths]
    grid = [(float(w), seed) for w in spec.omega_grid for seed in spec.seeds]
    workers = processes_for(len(grid))
    outcomes = in_processes(lambda point: _attempt(runner, spec, *point), grid, workers)
    # a point's factorization threads its roots, Loewner's z and its shape
    # pass (threads_for) only outside the point workers
    modes = 1 + sum(bath.size for bath, _ in baths)
    factor_workers = 1 if workers > 1 else threads_for(modes)
    for i in range(nw):
        fitted = [pt for pt in outcomes[i * ns:(i + 1) * ns] if pt.fit is not None]
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
        bath_final=tuple(final), outcomes=tuple(outcomes),
        workers=workers, factor_workers=factor_workers)


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


EXCHANGE_GRID = 8192     # points of run_degenerate_exchange's energy trace


def check_exchange(n: int, xi: float, omega_r: float, e0: float, n_periods: int,
                   n_grid: int = EXCHANGE_GRID) -> float:
    """The splitting of run_degenerate_exchange's inputs, ValueError if out of range.

    Out of range are a bath size beyond MAX_BATH_SIZE or an odd one
    (pairwise cancellation), an e0 below eps of the bath's temperature
    or so large that the trace's sums overflow, an omega_r whose normal
    modes would overflow or underflow, and a xi so small that the
    splitting is below 1e4 eps of omega_r.
    """
    if not (1 <= n <= MAX_BATH_SIZE and n_periods >= 1):
        raise ValueError(f"need 1 <= n <= MAX_BATH_SIZE = {MAX_BATH_SIZE} and n_periods >= 1, "
                         f"got n={n}, n_periods={n_periods}")
    if n % 2 != 0:
        raise ValueError(f"pairwise cancellation needs an even bath size, got {n}")
    if not (0.0 < e0 < np.inf and 0.0 < omega_r < np.inf):
        raise ValueError(f"e0 and omega_r must be finite and positive, got "
                         f"e0={e0}, omega_r={omega_r}")
    # the bath, at temperature 1, reaches the particle's energy at rounding
    # level, which lifted the samples of kicks from 1e-32 to 1e-20 (by size
    # and xi) to e0 or above; and the trace sums n_grid energies up to e0
    lo, hi = np.finfo(float).eps, np.finfo(float).max / n_grid
    if not lo <= e0 <= hi:
        raise ValueError(f"e0={e0:g} lies outside [{lo:.3g}, {hi:.3g}]: below, the bath's "
                         "temperature 1 swamps the particle's energy at rounding level; "
                         "above, the trace's sums overflow")
    dnu = exchange_splitting(omega_r, xi)
    if not factorization_fits(xi, omega_r):
        raise ValueError(f"omega_r={omega_r:g} overflows the normal modes of the degenerate "
                         "bath, which form up to xi omega_r^6")
    if not np.log(xi) + 6.0 * np.log(omega_r) >= np.log(np.finfo(float).tiny):
        raise ValueError(f"omega_r={omega_r:g} underflows the normal modes of the degenerate "
                         "bath, which form xi omega_r^6")
    # sqrt(1 +- sqrt(xi)) each round to about eps, so the predicted splitting
    # carries an error near eps omega_r: at 1e4 eps omega_r that is 1e-4 of
    # it, the accuracy to which the trace's FFT line finds it
    if not dnu >= 1e4 * np.finfo(float).eps * omega_r:
        raise ValueError(f"xi={xi:g} splits the resonance by {dnu / omega_r:.3g} "
                         "of omega_r, below the 1e4 eps double precision resolves")
    return dnu


def run_degenerate_exchange(n: int = 100, xi: float = 0.01,
                            omega_r: float = 1.0, e0: float = 10.0, seed: int = 3,
                            n_periods: int = 16, n_grid: int = EXCHANGE_GRID,
                            n_ks_samples: int = 4000) -> DegenerateExchange:
    """Kick the particle with e0 against a degenerate bath at resonance.

    The particle frequency is set to omega_r sqrt(1 - xi) so that its
    renormalized frequency matches the bath line exactly.  The bath is
    drawn at temperature 1; pairwise cancellation leaves its collective
    coordinate at rest whatever the temperature, so the trace does not
    depend on the seed (to rounding).  The seed picks the bath draw and
    the randomly timed samples of the arcsine test.  Inputs that
    check_exchange refuses are a ValueError before the bath is built.
    """
    from .bath import pairwise_cancelled

    dnu = check_exchange(n, xi, omega_r, e0, n_periods, n_grid)
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
