"""Sampling plans, histogram construction and the temperature fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath.bath import realize_bath
from finitebath.experiments import BATH_FIT_BINS, BATH_FIT_SPAN, _fit_bath_block
from finitebath.model import BathSpec
from finitebath.stats import (
    EnergyHistogram,
    FitError,
    NonThermalDistributionError,
    SamplingPlan,
    TemperatureFit,
    aggregate_seeds,
    build_histogram,
    fit_energy_samples,
    fit_temperature,
    make_sampling_times,
    span_histogram,
)


def _exact_histogram(temperature, amplitude=1000.0, n_bins=40, e_max=8.0):
    edges = np.linspace(0.0, e_max, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = amplitude * np.exp(-centers / temperature)
    return EnergyHistogram(bin_edges=edges, counts=counts, overflow=0,
                           total_samples=n_bins)


# -- sampling plans ----------------------------------------------------


def test_sampling_plan_validation():
    with pytest.raises(ValueError, match="mean_interval"):
        SamplingPlan(mean_interval=0.0)
    with pytest.raises(ValueError, match="at least 100"):
        SamplingPlan(n_samples=50)
    with pytest.raises(ValueError, match="warmup"):
        SamplingPlan(warmup=-1.0)


def test_sample_times_that_would_overflow_are_refused():
    """The gaps are drawn on (0, 2 tau): 2 tau, and the last time, must be finite."""
    SamplingPlan(mean_interval=1e300, n_samples=4000, warmup=1e300)
    with pytest.raises(ValueError, match="overflow the sample times"):
        SamplingPlan(mean_interval=1e308)
    with pytest.raises(ValueError, match="overflow the sample times"):
        SamplingPlan(mean_interval=1e305, n_samples=4000)


def test_sampling_times_are_increasing_with_the_right_density():
    plan = SamplingPlan(mean_interval=10.0, n_samples=500, warmup=100.0)
    times = make_sampling_times(plan, np.random.default_rng(0))
    assert times.shape == (500,)
    assert times[0] >= 100.0
    assert np.all(np.diff(times) >= 0.0)
    gaps = np.diff(np.concatenate([[100.0], times]))
    assert np.mean(gaps) == pytest.approx(10.0, abs=1.0)
    assert np.max(gaps) <= 20.0


def test_sampling_times_are_deterministic():
    plan = SamplingPlan(mean_interval=5.0, n_samples=200)
    a = make_sampling_times(plan, np.random.default_rng(9))
    b = make_sampling_times(plan, np.random.default_rng(9))
    assert np.array_equal(a, b)


# -- histograms --------------------------------------------------------


def test_histogram_bookkeeping():
    hist = build_histogram([0.1, 0.2, 1.5, 9.0], n_bins=5, e_max=5.0)
    np.testing.assert_array_equal(hist.counts, [2, 1, 0, 0, 0])
    assert hist.overflow == 1
    assert hist.total_samples == 4
    assert hist.overflow_fraction == pytest.approx(0.25)
    assert hist.e_max == pytest.approx(5.0)
    np.testing.assert_allclose(hist.bin_centers, [0.5, 1.5, 2.5, 3.5, 4.5])


def test_histogram_validation():
    with pytest.raises(ValueError, match="empty"):
        build_histogram([], n_bins=5, e_max=1.0)
    with pytest.raises(ValueError, match="negative"):
        build_histogram([0.5, -0.1], n_bins=5, e_max=1.0)
    with pytest.raises(FitError, match="zero"):
        build_histogram([0.0, 0.0], n_bins=5, e_max=1.0)
    with pytest.raises(ValueError, match="at least 5 bins"):
        build_histogram([0.5], n_bins=4, e_max=1.0)
    with pytest.raises(ValueError, match="e_max"):
        build_histogram([0.5], n_bins=5, e_max=0.0)


def test_a_span_without_room_for_the_bins_is_a_fit_failure():
    """span_factor x the mean energy must hold n_bins bins of positive width."""
    energies = [1.0, 2.0, 3.0]
    hist = span_histogram(energies, 5, 4.0)
    assert hist.e_max == 8.0 and len(hist.counts) == 5
    for span, n_bins in ((1e308, 5), (5e-324, 5), (2e-323, 40)):
        with pytest.raises(FitError, match="bins of positive width"):
            span_histogram(energies, n_bins, span)
    with pytest.raises(FitError, match="zero"):
        span_histogram([0.0, 0.0], 5, 1e308)


# -- the fit -----------------------------------------------------------


def test_fit_is_exact_on_a_pure_exponential():
    fit = fit_temperature(_exact_histogram(temperature=3.7, amplitude=250.0))
    assert fit.temperature == pytest.approx(3.7, rel=1e-12)
    assert fit.intercept == pytest.approx(np.log(250.0), rel=1e-12)
    assert fit.goodness == pytest.approx(0.0, abs=1e-18)
    assert fit.n_bins_used == 40


def test_fit_rejects_a_rising_histogram():
    edges = np.linspace(0.0, 8.0, 21)
    centers = 0.5 * (edges[:-1] + edges[1:])
    hist = EnergyHistogram(bin_edges=edges, counts=np.exp(centers / 2.0),
                           overflow=0, total_samples=20)
    with pytest.raises(NonThermalDistributionError, match="not thermal") as exc:
        fit_temperature(hist)
    assert exc.value.slope > 0.0


def test_fit_needs_three_nonempty_bins():
    edges = np.linspace(0.0, 5.0, 6)
    counts = np.array([10.0, 3.0, 0.0, 0.0, 0.0])
    hist = EnergyHistogram(bin_edges=edges, counts=counts, overflow=0,
                           total_samples=13)
    with pytest.raises(FitError, match="nonempty bins"):
        fit_temperature(hist)


def test_fit_error_hierarchy():
    assert issubclass(NonThermalDistributionError, FitError)
    assert issubclass(FitError, RuntimeError)


def test_fit_on_iid_exponential_samples():
    rng = np.random.default_rng(5)
    energies = rng.exponential(3.0, size=5000)
    fit, hist = fit_energy_samples(energies)
    assert 2.8 < fit.temperature < 3.3
    assert fit.sigma < 0.15
    assert hist.overflow_fraction < 0.01


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0))
def test_fit_scales_with_the_energy_unit(scale):
    energies = np.random.default_rng(17).exponential(2.0, size=2000)
    base, _ = fit_energy_samples(energies)
    scaled, _ = fit_energy_samples(scale * energies)
    assert scaled.temperature == pytest.approx(scale * base.temperature, rel=1e-9)


def test_fit_and_aggregate_scale_by_powers_of_two_to_the_largest_floats():
    """A power-of-two unit moves no bit, and near 1e300 nothing overflows.

    Squared energies and squared errors there exceed the largest float;
    they once overflowed with a RuntimeWarning, and twobath runs with a
    bath at T = 1e300 wrote it to stderr.
    """
    energies = np.random.default_rng(17).exponential(2.0, size=2000)
    base, _ = fit_energy_samples(energies)
    with np.errstate(all="raise"):
        big, _ = fit_energy_samples(2.0**996 * energies)
        t, s = aggregate_seeds([big, big])
    assert big.temperature == 2.0**996 * base.temperature
    assert big.sigma == 2.0**996 * base.sigma
    assert big.slope == base.slope / 2.0**996
    assert (big.intercept, big.goodness) == (base.intercept, base.goodness)
    want = aggregate_seeds([base, base])
    assert (t, s) == (2.0**996 * want[0], 2.0**996 * want[1])


def test_fit_empty_sample_is_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_energy_samples([])


# -- aggregation -------------------------------------------------------


def _stub_fit(t, s):
    return TemperatureFit(temperature=t, sigma=s, slope=-1.0 / t, intercept=0.0,
                          n_bins_used=10, goodness=0.0)


def test_aggregate_is_inverse_variance_weighted():
    t, s = aggregate_seeds([_stub_fit(4.0, 1.0), _stub_fit(6.0, 2.0)])
    assert t == pytest.approx(4.4, rel=1e-12)
    assert s == pytest.approx(1.0 / np.sqrt(1.25), rel=1e-12)


def test_aggregate_validation():
    with pytest.raises(ValueError, match="no fits"):
        aggregate_seeds([])
    with pytest.raises(ValueError, match="positive standard error"):
        aggregate_seeds([_stub_fit(4.0, 0.0)])


# -- bath thermometry --------------------------------------------------
# A bath's temperature is the particle's fit applied to the drawn
# oscillator energies; runs use the coarse bath binning of experiments.


def test_bath_temperature_single_realization(band):
    spec = BathSpec(size=2000, mass=0.01, temperature=5.0, dos=band)
    energies = realize_bath(spec, seed=4).energies
    fit, _ = fit_energy_samples(energies)
    assert 0.9 < fit.temperature / 5.0 < 1.15
    coarse, _ = fit_energy_samples(energies, n_bins=BATH_FIT_BINS,
                                   span_factor=BATH_FIT_SPAN)
    assert _fit_bath_block(energies) == coarse
    assert 0.9 < coarse.temperature / 5.0 < 1.15


def test_bath_temperature_aggregates_realizations(band):
    spec = BathSpec(size=2000, mass=0.01, temperature=5.0, dos=band)
    fits = [fit_energy_samples(realize_bath(spec, seed=s).energies)[0]
            for s in (4, 5, 6)]
    temperature, sigma = aggregate_seeds(fits)
    assert sigma < min(f.sigma for f in fits)
    assert 4.5 < temperature < 5.75


def test_bath_temperature_needs_enough_oscillators(band):
    spec = BathSpec(size=99, mass=0.01, temperature=5.0, dos=band)
    assert _fit_bath_block(realize_bath(spec, seed=1).energies) is None
    bigger = BathSpec(size=100, mass=0.01, temperature=5.0, dos=band)
    assert _fit_bath_block(realize_bath(bigger, seed=1).energies) is not None
