"""Closed-form references the microscopic simulation is checked against.

These are small, independent implementations of the analytic limits of
the model: the memory kernel of the generalized Langevin form, the exact
mean energy of the Markovian Langevin limit, the arcsine law of energies
sampled from the zero bandwidth exchange, and the two temperature
mixture with its effective temperature.
"""

from __future__ import annotations

import math

import numpy as np

from .model import BathSpec, TestParticleSpec


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


def langevin_energy(gamma: float, omega: float, temperature: float, t) -> np.ndarray:
    """Exact mean energy <E(t)> of the Markovian limit, from rest at t = 0.

        dQ = P/M dt
        dP = -(gamma P + M Omega^2 Q) dt + sqrt(2 M gamma T) dW

    In x = sqrt(M) Omega Q and y = P / sqrt(M) the equation holds no M,
    and the Gibbs covariance T I solves its Lyapunov equation, so
    <E(t)> = T (1 - |e^{At}|_F^2 / 2) with A = [[0, Omega], [-Omega,
    -gamma]].  With kappa^2 = gamma^2/4 - Omega^2 and s = sinh(kappa t)
    / kappa (sin over an imaginary kappa, t at kappa = 0) that is
    T (1 - e^{-gamma t} - (gamma s e^{-gamma t/2})^2 / 2).  Overdamped,
    e^{-gamma t/2} is folded into the exponentials of the slow rate
    Omega^2 / (gamma/2 + kappa) and of 2 kappa, so no factor overflows.
    Since A + A^T <= 0 the energy lies in [0, T].  A phase Omega t or a
    decay gamma t beyond the doubles is a ValueError.
    """
    t = np.asarray(t, dtype=float)
    t_max = float(np.max(t, initial=0.0))
    for name, rate in (("omega", omega), ("gamma", gamma)):
        if not math.isfinite(rate * t_max):
            raise ValueError(f"{name} * t = {rate:g} * {t_max:g} is not a finite double")
    half = 0.5 * gamma
    if half > omega:
        # sqrt of each factor: their product can overflow or underflow
        kappa = math.sqrt(half - omega) * math.sqrt(half + omega)
        slow = omega**2 / (half + kappa)
        u = half / kappa * np.exp(-slow * t) * -np.expm1(-2.0 * (kappa * t))
    elif half < omega:
        w = math.sqrt(omega - half) * math.sqrt(omega + half)
        u = gamma * np.exp(-half * t) * np.sin(w * t) / w
    else:
        u = gamma * t * np.exp(-half * t)
    return temperature * (-np.expm1(-gamma * t) - 0.5 * u**2)


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
