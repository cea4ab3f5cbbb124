"""Closed-form references the microscopic simulation is checked against.

These are small, independent implementations of the analytic limits of
the model: the memory kernel of the generalized Langevin form, the
Markovian Langevin reference, the arcsine law of energies sampled from
the zero bandwidth exchange, and the two temperature mixture with its
effective temperature.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BathSpec, TestParticleSpec, bare_energy


def memory_kernel(frequencies, m: float, tau) -> np.ndarray:
    """Gamma(tau) = sum_n m w_n^2 cos(w_n tau)."""
    frequencies = np.asarray(frequencies, dtype=float)
    tau = np.asarray(tau, dtype=float)
    spring = m * frequencies**2
    return np.cos(np.multiply.outer(tau, frequencies)) @ spring


def langevin_friction(tp: TestParticleSpec, bath: BathSpec, omega: float) -> float:
    """Markovian friction rate gamma = pi m w^2 / (2 M) * dN/dw at w = omega."""
    dn_domega = bath.size * float(bath.dos.pdf(omega))
    return np.pi * bath.mass * omega**2 / (2.0 * tp.mass) * dn_domega


# the squares of a run's steps reach a few times their equipartition
# scale, in Gaussian tails that the largest runs (1e8 draws) take to about
# 6 sigma
EQUIPARTITION_HEADROOM = 1e3


def langevin_reference(tp: TestParticleSpec, gamma: float, temperature: float,
                       t_final: float, dt: float, rng: np.random.Generator,
                       n_paths: int = 1, sample_stride: int = 1):
    """Euler-Maruyama integration of the Markovian limit.

        dQ = P/M dt
        dP = -(gamma P + M Omega^2 Q) dt + sqrt(2 M gamma T) dW

    The noise amplitude uses the particle mass M, which is what makes
    the stationary state satisfy <P^2> = M T (equipartition at T).
    Returns (times, energies) with energies of shape (n_paths, n_times).
    dt must be well below both 1/gamma and 1/Omega; Euler-Maruyama's
    energy bias scales like Omega^2 dt / (2 gamma).  A step with
    gamma dt >= 1 or Omega^2 dt >= gamma is a ValueError: in the latter
    the bias reaches 1/2 and one step multiplies the phase-space area by
    1 - gamma dt + Omega^2 dt^2 >= 1, so the scheme no longer damps and
    the energy can grow until it overflows.  So is a temperature whose
    noise term 2 M gamma T dt overflows or, at T > 0, underflows to a
    subnormal, and one whose equipartition scales overflow with
    EQUIPARTITION_HEADROOM: P^2 ~ M T, (P/M)^2 ~ T/M and Q^2 ~ T/(M
    Omega^2), or T t_final/(M gamma) while Q diffuses.
    """
    if dt <= 0.0 or t_final <= 0.0:
        raise ValueError("dt and t_final must be positive")
    if not (gamma * dt < 1.0 and tp.omega**2 * dt < gamma):
        raise ValueError(f"dt={dt:g} is too long for the Euler-Maruyama step at "
                         f"gamma={gamma:g}, Omega={tp.omega:g}: it needs gamma*dt < 1 "
                         f"and Omega^2*dt < gamma")
    m = tp.mass
    noise = 2.0 * m * gamma * temperature * dt
    # Q^2 / (P/M)^2 ~ 1 / Omega^2, or t_final / gamma while Q diffuses
    spread = max(1.0, min(1.0 / tp.omega**2 if tp.omega**2 > 0.0 else math.inf, t_final / gamma))
    scales = (temperature * m, temperature / m * spread)
    if not (math.isfinite(noise) and (noise >= np.finfo(float).tiny or temperature == 0.0)
            and all(math.isfinite(EQUIPARTITION_HEADROOM * x) for x in scales)):
        raise ValueError(f"temperature={temperature:g} takes the noise term 2 M gamma T dt "
                         f"= {noise:g} or the squares M T, T/M and T/(M Omega^2) of the "
                         f"steps beyond the normal doubles at M={m:g}, gamma={gamma:g}, "
                         f"Omega={tp.omega:g}, dt={dt:g}")
    n_steps = int(round(t_final / dt))
    q = np.full(n_paths, tp.q0, dtype=float)
    p = np.full(n_paths, tp.p0, dtype=float)
    noise_amp = np.sqrt(noise)
    k = m * tp.omega**2
    steps = np.arange(sample_stride, n_steps + 1, sample_stride)
    energies = np.empty((len(steps), n_paths))
    for step in range(1, n_steps + 1):
        dq = (p / m) * dt
        dp = -(gamma * p + k * q) * dt + noise_amp * rng.standard_normal(n_paths)
        q = q + dq
        p = p + dp
        if step % sample_stride == 0:
            energies[step // sample_stride - 1] = bare_energy(q, p, tp)
    return steps * dt, energies.T


def arcsine_cdf(e, e0: float) -> np.ndarray:
    """CDF of the sampled energy of a sinusoidally exchanging particle."""
    e = np.asarray(e, dtype=float)
    return 2.0 / np.pi * np.arcsin(np.sqrt(np.clip(e / e0, 0.0, 1.0)))


def arcsine_distribution_check(samples, e0: float) -> tuple[float, float]:
    """KS statistic and p-value of samples against the arcsine law on (0, e0).

    Samples outside the open interval cannot come from the law and are
    rejected up front with their count.
    """
    samples = np.asarray(samples, dtype=float)
    outside = int(np.sum((samples <= 0.0) | (samples >= e0)))
    if outside:
        raise ValueError(
            f"{outside} of {samples.size} samples lie outside (0, {e0}); "
            "they cannot follow the arcsine exchange law")
    # imported here, its only use: scipy.stats roughly doubles the time and
    # memory of importing the command line interface
    from scipy import stats as sp_stats

    result = sp_stats.kstest(samples, lambda e: arcsine_cdf(e, e0))
    return float(result.statistic), float(result.pvalue)


def _check_temperatures(t1: float, t2: float) -> None:
    """ValueError unless both temperatures are positive with a finite density scale 1/T."""
    if not (t1 > 0.0 and t2 > 0.0 and math.isfinite(1.0 / t1) and math.isfinite(1.0 / t2)):
        raise ValueError("temperatures must be positive with a finite 1/T")


def mixture_distribution(e, t1: float, t2: float) -> np.ndarray:
    """Equal weight mixture of two Boltzmann densities, normalized."""
    _check_temperatures(t1, t2)
    e = np.asarray(e, dtype=float)
    # an E / T beyond the doubles is a Boltzmann factor of exactly 0
    with np.errstate(over="ignore"):
        return 0.5 * (np.exp(-e / t1) / t1 + np.exp(-e / t2) / t2)


def effective_temperature(e: float, t1: float, t2: float,
                          rel_tol: float = 1e-10) -> float:
    """Solve T e^{-E/T} = (T1 e^{-E/T1} + T2 e^{-E/T2}) / 2 for T.

    The left side is strictly increasing in T, so the root is unique and
    bisection on [min(T1,T2)/2, 2 max(T1,T2)] always converges.  At
    E = 0 the answer is exactly the arithmetic mean.  Every half is
    taken before its sum, which rounds alike and cannot overflow.
    """
    _check_temperatures(t1, t2)
    if e < 0.0:
        raise ValueError(f"energy must be >= 0, got {e}")
    if e == 0.0:
        return 0.5 * t1 + 0.5 * t2
    lo = 0.5 * min(t1, t2)
    hi = min(2.0 * max(t1, t2), np.finfo(float).max)
    # an E / T beyond the doubles is a Boltzmann factor of exactly 0
    with np.errstate(over="ignore"):
        target = 0.5 * t1 * np.exp(-e / t1) + 0.5 * t2 * np.exp(-e / t2)

        def f(t):
            return t * np.exp(-e / t) - target

        flo, fhi = f(lo), f(hi)
        if flo > 0.0 or fhi < 0.0:
            raise RuntimeError("bisection bracket does not contain the root; "
                               "this contradicts monotonicity and should not occur")
        while (hi - lo) > rel_tol * hi:
            mid = 0.5 * lo + 0.5 * hi
            if f(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
    return 0.5 * lo + 0.5 * hi
