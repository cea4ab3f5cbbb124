"""Random-time sampling, energy histograms and temperature fits.

The particle temperature is extracted the same way a bath temperature
is: histogram the sampled energies on [0, e_max], take the log of the
nonempty counts and fit a weighted straight line, weights w_i = N_i
(Poisson errors of ln N_i).  T = -1/slope, with the error propagated
from the slope variance.  Overflow above e_max is counted but excluded
from the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitError(RuntimeError):
    """The histogram could not be reduced to a temperature."""


class NonThermalDistributionError(FitError):
    """Fitted slope was non-negative, i.e. not a decaying exponential."""

    def __init__(self, slope: float):
        self.slope = slope
        super().__init__(
            f"log-histogram slope {slope:.6g} is non-negative; the sampled "
            "distribution is not thermal"
        )

    def __reduce__(self):
        # pickle and copy rebuild it from its slope, not from its message
        return type(self), (self.slope,)


@dataclass(frozen=True)
class SamplingPlan:
    """Random observation times: gaps uniform on (0, 2 tau), so mean tau."""

    mean_interval: float = 10.0
    n_samples: int = 4000
    warmup: float = 0.0

    def __post_init__(self):
        if self.mean_interval <= 0.0:
            raise ValueError(f"mean_interval must be positive, got {self.mean_interval}")
        if self.n_samples < 100:
            raise ValueError(f"need at least 100 samples for a fit, got {self.n_samples}")
        if self.warmup < 0.0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        # the gaps are drawn on (0, 2 tau), so the last time is below this bound
        if not np.isfinite(self.warmup + 2.0 * self.mean_interval * self.n_samples):
            raise ValueError(f"warmup {self.warmup:g} plus {self.n_samples} gaps of up to "
                             f"2 x mean_interval {self.mean_interval:g} overflow the "
                             "sample times")


def make_sampling_times(plan: SamplingPlan, rng: np.random.Generator) -> np.ndarray:
    """Strictly increasing sample times starting after the warmup."""
    gaps = rng.uniform(0.0, 2.0 * plan.mean_interval, plan.n_samples)
    return plan.warmup + np.cumsum(gaps)


@dataclass(frozen=True)
class EnergyHistogram:
    """Equal width histogram on [0, e_max] plus an overflow tally."""

    bin_edges: np.ndarray
    counts: np.ndarray
    overflow: int
    total_samples: int

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def e_max(self) -> float:
        return float(self.bin_edges[-1])

    @property
    def overflow_fraction(self) -> float:
        return self.overflow / self.total_samples


def check_bin_count(n_bins: int) -> None:
    if n_bins < 5:
        raise ValueError(f"need at least 5 bins, got {n_bins}")


def build_histogram(energies, n_bins: int, e_max: float) -> EnergyHistogram:
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("cannot histogram an empty energy sample")
    if np.any(energies < 0.0):
        raise ValueError(f"{int(np.sum(energies < 0))} sampled energies are negative")
    if not np.any(energies > 0.0):
        raise FitError("all sampled energies are zero; nothing to fit")
    check_bin_count(n_bins)
    if e_max <= 0.0:
        raise ValueError(f"e_max must be positive, got {e_max}")
    counts, edges = np.histogram(energies, bins=n_bins, range=(0.0, e_max))
    overflow = int(energies.size - counts.sum())
    return EnergyHistogram(bin_edges=edges, counts=counts, overflow=overflow,
                           total_samples=int(energies.size))


def span_histogram(energies, n_bins: int, span_factor: float) -> EnergyHistogram:
    """build_histogram on [0, span_factor x the mean energy].

    FitError where the energies are positive but that span holds no
    n_bins bins of positive width: a span_factor near 0 or near the
    largest floats underflows or overflows it.
    """
    energies = np.asarray(energies, dtype=float)
    e_max = span_factor * float(np.mean(energies))
    if np.any(energies > 0.0) and not (     # all zero: build_histogram's FitError
            e_max < np.inf and np.all(np.diff(np.linspace(0.0, e_max, n_bins + 1)) > 0.0)):
        raise FitError(f"span_factor {span_factor:g} times the mean energy "
                       f"{float(np.mean(energies)):g} gives no {n_bins} bins of "
                       "positive width")
    return build_histogram(energies, n_bins, e_max)


@dataclass(frozen=True)
class TemperatureFit:
    """Weighted log-linear fit of an energy histogram."""

    temperature: float
    sigma: float          # standard error of the temperature
    slope: float
    intercept: float
    n_bins_used: int
    goodness: float       # weighted sum of squared log residuals


def fit_temperature(hist: EnergyHistogram) -> TemperatureFit:
    """T = -1/slope of ln N_i versus bin center, weights w_i = N_i.

    FitError where the slope -1/T, T or its error is no finite double,
    or the error is zero: a histogram whose energies lie near the
    smallest doubles gives a T whose slope overflows.
    """
    mask = hist.counts > 0
    n_used = int(np.sum(mask))
    if n_used < 3:
        raise FitError(f"only {n_used} nonempty bins; need at least 3 to fit a slope")
    # energies in units of 2^scale, a power of two near the largest edge:
    # scaling by it is exact, so no bit of the fit moves, and neither the
    # bin centres nor (x - xbar)^2 overflow for edges near the largest float
    scale = int(np.frexp(np.max(np.abs(hist.bin_edges)))[1])
    edges = np.ldexp(hist.bin_edges, -scale)
    x = 0.5 * (edges[:-1] + edges[1:])[mask]
    w = hist.counts[mask].astype(float)
    y = np.log(w)
    wsum = w.sum()
    xbar = np.sum(w * x) / wsum
    sxx = np.sum(w * (x - xbar) ** 2)
    if sxx <= 0.0:
        raise FitError("degenerate histogram: all counts in one energy column")
    slope = np.sum(w * (x - xbar) * y) / sxx       # per unit
    intercept = np.sum(w * y) / wsum - slope * xbar
    with np.errstate(over="ignore"):       # checked below
        per_energy = float(np.ldexp(slope, -scale))
        if slope >= 0.0:
            raise NonThermalDistributionError(slope=per_energy)
        temperature = float(np.ldexp(-1.0 / slope, scale))
        sigma = float(np.ldexp(np.sqrt(1.0 / sxx) / slope**2, scale))
    if not (np.isfinite(per_energy) and np.isfinite(temperature) and 0.0 < sigma < np.inf):
        raise FitError(f"the fitted temperature {temperature:g} +- {sigma:g}, with slope "
                       f"{per_energy:g}, lies beyond the finite doubles")
    goodness = float(np.sum(w * (y - (intercept + slope * x)) ** 2))
    return TemperatureFit(temperature=temperature, sigma=sigma, slope=per_energy,
                          intercept=float(intercept), n_bins_used=n_used, goodness=goodness)


DEFAULT_N_BINS = 40
DEFAULT_SPAN_FACTOR = 8.0


def fit_energy_samples(energies, n_bins: int = DEFAULT_N_BINS,
                       span_factor: float = DEFAULT_SPAN_FACTOR):
    """Histogram on [0, span_factor * mean] and fit; returns (fit, histogram)."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("cannot fit an empty energy sample")
    hist = span_histogram(energies, n_bins, span_factor)
    return fit_temperature(hist), hist


def aggregate_seeds(fits) -> tuple[float, float]:
    """Inverse variance weighted mean temperature over independent fits."""
    fits = list(fits)
    if not fits:
        raise ValueError("no fits to aggregate")
    t = np.array([f.temperature for f in fits])
    s = np.array([f.sigma for f in fits])
    if np.any(s <= 0.0):
        raise ValueError("every fit needs a positive standard error")
    # weights in units of a power of two near the smallest error: exact, so
    # no bit moves, and 1 / s^2 does not overflow for errors near the largest float
    unit = 2.0 ** int(np.frexp(np.min(s))[1])
    w = 1.0 / (s / unit) ** 2
    return float(np.sum(w * t) / np.sum(w)), float(unit / np.sqrt(np.sum(w)))
