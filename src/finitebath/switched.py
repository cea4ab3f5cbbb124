"""Alternating contact with two baths, integrated by classical RK4.

The coupling is switched as a square wave: bath 1 is engaged during
step blocks [2k dT, (2k+1) dT) and bath 2 during the complementary
blocks.  Two drift matrices A1 and A2 of the same dimension describe
the two contact phases; during its off phase a bath evolves freely and
exerts no force on the particle.

Switching happens only on step boundaries, and observations are snapped
to the nearest completed step (distance <= dt/2, reported).

Because the system is linear, one classical RK4 step equals multiplying
by R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.  Long runs exploit
that: the map over one full switching period is diagonalized once per
run, after which any sample time costs O(N) instead of stepping there.
A factorization whose residual looks degraded is a NumericalError:
stepping a long run literally instead would take hours.  So is a
parametrically resonant schedule, one whose period map has a multiplier
|mu| > 1 that grows by more than e^GROWTH_TOL over the run: its samples
would be fitted as an enormous temperature.  With the period map
S diag(mu) S^-1 and v' = S^-1 v0, the particle after k periods and r
more steps is Re sum_j c_j mu_j^k, c = (rows 0 and 1 of the first r
steps' map) S times v'.  propagator.mode_sums evaluates these sums, the
same chunked real tables that sample the normal modes, with
theta = arg mu and d = log |mu|; their imaginary parts must cancel to
1e-9 of sum_j |c_j| |mu_j|^k.

Continuous contact (both phases the same matrix) needs no period map.
R(hA) has the normal modes of the exact flow, and one step multiplies
mode k by R(i h nu_k) = rho_k e^{i phi_k}, so n steps are sampled in
closed form through the secular-equation modes: phases n phi_k and
amplitudes rho_k^n, RK4's own small damping included.  That is what
"auto" does for every continuous system; like the exact propagator it
rejects a zero frequency mode (Omega = 0), which only the stepping
engine, requested by name, can run.

A step beyond RK4's stability limit, h nu_max > 2 sqrt(2) for the
fastest normal mode of either contact phase, is rejected up front: the
run would otherwise grow by orders of magnitude without overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemState, TestParticleSpec, initial_state
from .propagator import (RK4_STABILITY_LIMIT, CouplingMatrix, NumericalError,
                         build_multi_coupling_matrix, check_rk4_stability,
                         diagonalize, drift_matrix, max_mode_frequency,
                         mode_sums, rk4_full_state)


@dataclass(frozen=True)
class SwitchSchedule:
    """Square wave contact schedule in units of RK4 steps."""

    delta_t_steps: int = 1
    step_size: float = 0.02

    def __post_init__(self):
        if self.delta_t_steps < 1:
            raise ValueError(f"delta_t_steps must be >= 1, got {self.delta_t_steps}")
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")

    @property
    def period_steps(self) -> int:
        return 2 * self.delta_t_steps

    def bath1_active(self, step: int) -> bool:
        """Whether bath 1 is engaged during step index `step`."""
        return (step // self.delta_t_steps) % 2 == 0


STEPS_PER_PERIOD = 50


def default_step_size(*phases: CouplingMatrix) -> float:
    """2 pi / (STEPS_PER_PERIOD w), w the largest bare frequency unless RK4 is unstable there.

    w is the largest of the bath frequencies and the particle's Omega:
    a stiff particle that RK4 does not resolve would be damped
    artificially over long runs.  These are bare frequencies, not normal
    modes.  The top root of the secular equation lies above the highest
    bath frequency, so the fastest normal mode gets fewer than
    STEPS_PER_PERIOD steps per period, and against a heavy bath that
    step would exceed RK4's stability limit (check_rk4_stability).  Only
    then is w the fastest normal mode nu_max of the contact phases, which
    all share one particle and one set of baths; a step that is stable
    under the bare rule is kept.
    """
    w = max(float(np.max(phases[0].w)), phases[0].tp.omega)
    nu_max = max(max_mode_frequency(cm) for cm in phases)
    if 2.0 * np.pi / w / STEPS_PER_PERIOD * nu_max > RK4_STABILITY_LIMIT:
        w = nu_max
    return 2.0 * np.pi / w / STEPS_PER_PERIOD


@dataclass(frozen=True)
class TwoBathSystem:
    """Test particle plus its bath realizations and both contact phases.

    With one realization the system is one bath in continuous contact, a1
    and a2 both describing the engaged bath; switched contact has two, a1
    engaging bath 1 and a2 bath 2.  The renormalization is already in
    each phase's corner alpha0: under "switched" renormalization a
    disengaged bath's spring sum leaves the particle stiffness together
    with its linear coupling, under "static" every bath's spring sum
    stays in both phases so only the linear coupling alternates.
    """

    tp: TestParticleSpec
    realizations: tuple    # BathRealization per bath, bath 1 first
    a1: CouplingMatrix
    a2: CouplingMatrix

    @property
    def dim(self) -> int:
        return self.a1.dim

    def initial_vector(self) -> np.ndarray:
        return initial_state(self.tp, self.realizations).as_vector()


def build_switched_matrices(tp: TestParticleSpec, real1, real2,
                            renormalization: str = "switched") -> TwoBathSystem:
    """Build A1 (bath 1 engaged) and A2 (bath 2 engaged) from two realizations."""
    if renormalization not in ("switched", "static"):
        raise ValueError(f"unknown renormalization {renormalization!r}")
    if real2 is None:
        raise ValueError("switched contact needs a second bath")
    static = renormalization == "static"
    a1 = build_multi_coupling_matrix(
        tp, [(real1.m, real1.frequencies, True), (real2.m, real2.frequencies, False)],
        static_renorm=static)
    a2 = build_multi_coupling_matrix(
        tp, [(real1.m, real1.frequencies, False), (real2.m, real2.frequencies, True)],
        static_renorm=static)
    return TwoBathSystem(tp=tp, realizations=(real1, real2), a1=a1, a2=a2)


def rk4_update_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """The linear map of one classical RK4 step, I + hA + ... + (hA)^4/24."""
    eye = np.eye(a.shape[0])
    ha = h * a
    u = eye + ha / 4.0
    u = eye + (ha / 3.0) @ u
    u = eye + (ha / 2.0) @ u
    return eye + ha @ u


@dataclass
class SwitchedRunResult:
    """Samples and bookkeeping from one switched run."""

    times: np.ndarray          # snapped sample times
    steps: np.ndarray          # step indices the samples were snapped to
    q: np.ndarray
    p: np.ndarray
    final_state: SystemState
    max_snap_distance: float
    n_steps: int
    engine: str


class SwitchedPropagator:
    """Propagates one TwoBathSystem under one schedule.

    The object owns only the step maps, so one instance can serve many
    initial conditions of the same system; the period map is factorized
    by each run that uses it.  A continuous system (a2 is a1) is
    sampled through its normal modes and builds its step map only when
    a stepping engine is requested by name.
    """

    # steps beyond which the period map factorization pays for itself
    FLOQUET_THRESHOLD = 20_000
    QUALITY_TOL = 1e-7
    # largest log-amplitude growth of a period-map mode over a run.  RK4
    # damps every mode of a stable schedule; eig rounding leaves at most
    # 1.3e-6 over the 5e7 steps of the study's two-bath points
    GROWTH_TOL = 1e-3

    def __init__(self, system: TwoBathSystem, schedule: SwitchSchedule):
        self.system = system
        self.schedule = schedule
        self.continuous = system.a2 is system.a1
        for cm in (system.a1,) if self.continuous else (system.a1, system.a2):
            check_rk4_stability(schedule.step_size, max_mode_frequency(cm))
        self.u1 = self.u2 = None
        if not self.continuous:
            self._build_step_maps()

    def _build_step_maps(self):
        h = self.schedule.step_size
        self.u1 = rk4_update_matrix(drift_matrix(self.system.a1), h)
        self.u2 = (self.u1 if self.continuous
                   else rk4_update_matrix(drift_matrix(self.system.a2), h))

    def step_matrix(self, step: int) -> np.ndarray:
        return self.u1 if self.schedule.bath1_active(step) else self.u2

    # -- literal stepping ------------------------------------------------

    def _run_dense(self, v0, steps_wanted, final_step):
        wanted = {}
        for i, s in enumerate(steps_wanted):
            wanted.setdefault(int(s), []).append(i)
        q = np.empty(len(steps_wanted))
        p = np.empty(len(steps_wanted))
        v = v0.copy()
        last = max(final_step, max(wanted) if wanted else 0)
        final_v = v.copy() if final_step == 0 else None
        for idx in wanted.get(0, []):
            q[idx], p[idx] = v[0], v[1]
        for s in range(1, last + 1):
            v = self.step_matrix(s - 1) @ v
            if s % 4096 == 0 and not np.all(np.isfinite(v)):
                raise NumericalError(f"switched run diverged by step {s}")
            for idx in wanted.get(s, []):
                q[idx], p[idx] = v[0], v[1]
            if s == final_step:
                final_v = v.copy()
        if not np.all(np.isfinite(v)):
            raise NumericalError("switched run diverged")
        return q, p, final_v

    # -- normal modes of a continuous system -----------------------------

    def _run_modes(self, v0, steps_wanted, final_step):
        prop = diagonalize(self.system.a1, v0)
        h = self.schedule.step_size
        q, p = prop.sample_rk4(steps_wanted, h)
        return q, p, rk4_full_state(prop, final_step, h).as_vector()

    # -- period map spectral engine --------------------------------------

    def _build_floquet(self):
        # prefix r is the map of steps 0..r-1; prefix 0 is the identity
        prefix_rows = [np.eye(2, self.system.dim)]
        u_period = self.step_matrix(0)
        for r in range(1, self.schedule.period_steps):
            prefix_rows.append(u_period[0:2].copy())
            u_period = self.step_matrix(r) @ u_period
        mu, s_mat = np.linalg.eig(u_period)
        res = np.linalg.norm(u_period @ s_mat - s_mat * mu[None, :])
        rel = res / max(np.linalg.norm(u_period), 1e-300)
        if not rel <= self.QUALITY_TOL:      # NaN fails too
            raise NumericalError(
                f"period map factorization residual {rel:.2e} exceeds "
                f"{self.QUALITY_TOL:g}")
        return {"log_mu": np.log(mu), "s": s_mat, "rows01": np.stack(prefix_rows) @ s_mat,
                "period": self.schedule.period_steps}

    def _run_floquet(self, v0, steps_wanted, final_step):
        fl = self._build_floquet()
        last = max(int(np.max(steps_wanted, initial=0)), final_step)
        growth = last / fl["period"] * float(np.max(fl["log_mu"].real))
        if not growth <= self.GROWTH_TOL:      # NaN fails too
            raise NumericalError(
                f"switching schedule is parametrically unstable: a period map "
                f"mode grows by e^{growth:.3g} over {last} steps, more than "
                f"e^{self.GROWTH_TOL:g}")
        vprime0 = np.linalg.solve(fl["s"], v0.astype(complex))
        q, p = np.empty((2, len(steps_wanted)))
        ks, rs = np.divmod(steps_wanted, fl["period"])
        for r in np.unique(rs):
            at = rs == r
            # (Q, P) after k periods and r steps are Re sum_j c_j mu_j^k with
            # c = rows01[r] v'; the imaginary parts must cancel to rounding
            # against their scale sum_j |c_j| |mu_j|^k
            c = fl["rows01"][r] * vprime0
            sums = mode_sums(ks[at], fl["log_mu"].imag, fl["log_mu"].real,
                             [(c.real[i], -c.imag[i]) for i in (0, 1)]
                             + [(c.imag[i], c.real[i]) for i in (0, 1)],
                             decay_rows=np.abs(c))
            if np.any(np.abs(sums[2:4]) > 1e-9 * np.maximum(sums[4:], 1e-300)):
                raise NumericalError(
                    "imaginary residue in period map observation exceeds "
                    "1e-9 of the modal amplitude")
            q[at], p[at] = sums[0], sums[1]
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise NumericalError("switched run diverged")
        return q, p, self._state_floquet(fl, vprime0, final_step)

    def _state_floquet(self, fl, vprime0, step):
        k, r = divmod(int(step), fl["period"])
        w = np.exp(fl["log_mu"] * k) * vprime0
        v = fl["s"] @ w
        scale = np.abs(fl["s"]) @ np.abs(w)
        if np.any(np.abs(v.imag) > 1e-7 * np.maximum(scale, 1e-300)):
            raise NumericalError("imaginary residue in reconstructed state")
        v = v.real
        for j in range(r):
            v = self.step_matrix(k * fl["period"] + j) @ v
        return v

    # -- entry point -----------------------------------------------------

    def run(self, v0, sample_times, t_final=None,
            engine: str = "auto") -> SwitchedRunResult:
        """Sample the test particle from v0 and return the state at t_final.

        Identical inputs reproduce identical output arrays.  Sample times
        snap to the nearest step.  The period map engine drifts from the
        stepped trajectory: the dense eig of the period map gives each
        multiplier a phase error of about 1e-12 per period, so the error
        grows linearly with run length.  For 2 x 200 oscillators
        (the baths of scripts/two_bath_frustration.json at seed 2: m =
        1e-3, static renormalization, h = 1e-3, Omega = 0.55) its state
        differs from repeated squaring of the period map by 7.2e-8,
        2.8e-6 and 3.5e-5 of |v| after 2e4, 2e6 and 5e7 steps, while
        literal stepping agrees with that reference to 4e-13 at 2e4
        steps.  Which figure within that scale a run shows depends on
        rounding: an ulp changed in one drift matrix entry moves the
        samples of a 5e7 step run by 2e-5 to 3e-5 of the largest sample.
        That is far below the sampling noise of a fitted temperature.

        "auto" samples a continuous system through its normal modes
        (reported as engine "modes"; EigensolverError for a zero mode)
        and picks the period map or stepping for a switched one by run
        length.  A period map that factorizes with a residual above
        QUALITY_TOL, or whose fastest growing mode grows by more than
        e^GROWTH_TOL over the run (a parametrically resonant schedule),
        is a NumericalError.  The period map is sampled through
        propagator.mode_sums, so beyond its dense matrices a run holds
        one set of SAMPLE_CHUNK tables however many samples it takes.
        t_final defaults to the last (snapped) sample time.
        """
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (self.system.dim,):
            raise ValueError(f"initial vector has shape {v0.shape}, "
                             f"expected ({self.system.dim},)")
        sample_times = np.atleast_1d(np.asarray(sample_times, dtype=float))
        h = self.schedule.step_size
        steps = np.rint(sample_times / h).astype(np.int64)
        snapped = steps * h
        max_snap = float(np.max(np.abs(snapped - sample_times))) if len(steps) else 0.0
        if t_final is None:
            t_final = float(snapped.max()) if len(steps) else 0.0
        final_step = int(np.rint(t_final / h))
        last = max(int(steps.max()) if len(steps) else 0, final_step)

        if engine == "auto" and self.continuous:
            q, p, final_v = self._run_modes(v0, steps, final_step)
            used = "modes"
        else:
            if engine == "auto":
                engine = "floquet" if last > self.FLOQUET_THRESHOLD else "dense"
            if engine not in ("floquet", "dense"):
                raise ValueError(f"unknown engine {engine!r}")
            if self.u1 is None:
                self._build_step_maps()
            if engine == "floquet":
                q, p, final_v = self._run_floquet(v0, steps, final_step)
            else:
                q, p, final_v = self._run_dense(v0, steps, final_step)
            used = engine

        final_state = SystemState.from_vector(
            final_v, self.system.a1.bath_sizes, time=final_step * h)
        return SwitchedRunResult(times=snapped, steps=steps, q=q, p=p,
                                 final_state=final_state, max_snap_distance=max_snap,
                                 n_steps=last, engine=used)
