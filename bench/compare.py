"""Output checks: stored seed references and manifest failure records.

Output records are curve rows (every row of every curve CSV) and
per-seed histograms together with their fit sidecars.  A record matches
its reference when every value agrees within the tolerances below.

Tolerance.  A change of about 1e-10 relative in the sampled (Q, P)
leaves every output equal to about 1e-11, except that now and then it
moves a sample across a bin edge.  One moved count shifts a fitted
temperature by up to a quarter of its standard error (4000 samples in
40 bins) and a 200-oscillator bath fit by up to 5 %.  Hence:

* omegas, bin edges, e_max and sample totals agree to ``EXACT_RTOL``;
* histogram counts move by at most ``COUNT_TOL`` samples in total, and
  overflow by at most that many samples per seed;
* a fitted test-particle temperature lies within ``SIGMA_TOL`` times
  the reference's standard error, which agrees to ``SIGMA_RTOL``;
* bath temperatures (fits of the bath energies, reported without an
  error) agree to ``BATH_RTOL`` relative;
* NaN / missing-fit status agrees exactly.  ``goodness`` (a sum of
  squared log residuals) is only checked this way: one moved count in
  a sparse tail bin can change most of its value.

A wrong propagator decorrelates the sampled trajectory: it moves
hundreds of histogram counts and shifts most temperatures by about one
standard error, well outside these bounds (see test_bench.py).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

EXACT_RTOL = 1e-8
COUNT_TOL = 8
SIGMA_TOL = 0.5
SIGMA_RTOL = 0.25
BATH_RTOL = 0.05

CURVE_FILES = {
    "sweep": ("curve.csv",),
    "twobath": ("curve_combined.csv", "curve_bath1_alone.csv",
                "curve_bath2_alone.csv"),
    "single": (),
}
FIT_FAILURES = {"FitError", "NonThermalDistributionError"}
_EXC_NAME = re.compile(r"\b([A-Z]\w*(?:Error|Exception))\b")


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def _read_rows(path: Path) -> tuple:
    lines = path.read_text().strip().splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def _same_nan(a: float, b: float) -> bool:
    return math.isnan(a) == math.isnan(b)


def _temperature_matches(t, sigma, ref_t, ref_sigma) -> bool:
    if math.isnan(ref_t) or math.isnan(t):
        return math.isnan(ref_t) and math.isnan(t) and _same_nan(sigma, ref_sigma)
    return (abs(t - ref_t) <= SIGMA_TOL * ref_sigma
            and _close(sigma, ref_sigma, SIGMA_RTOL))


def curve_row_matches(row: list, ref: list, n_samples: int) -> bool:
    omega, t, t_err, good, over, t_init, t_final = row
    r_omega, r_t, r_err, r_good, r_over, r_init, r_final = ref
    return (_close(omega, r_omega, EXACT_RTOL)
            and _temperature_matches(t, t_err, r_t, r_err)
            and _same_nan(good, r_good)
            and _close(over, r_over, 0.0, COUNT_TOL / n_samples)
            and _close(t_init, r_init, BATH_RTOL)
            and _close(t_final, r_final, BATH_RTOL))


def histogram_matches(csv: Path, ref_csv: Path) -> bool:
    head, rows = _read_rows(csv)
    ref_head, ref_rows = _read_rows(ref_csv)
    if head != ref_head or len(rows) != len(ref_rows):
        return False
    for (lo, hi, _), (r_lo, r_hi, _) in zip(rows, ref_rows):
        if not (_close(lo, r_lo, EXACT_RTOL) and _close(hi, r_hi, EXACT_RTOL)):
            return False
    moved = sum(abs(c - r_c) for (_, _, c), (_, _, r_c) in zip(rows, ref_rows))
    if moved > COUNT_TOL:
        return False
    side = json.loads(csv.with_suffix(".json").read_text())
    ref = json.loads(ref_csv.with_suffix(".json").read_text())
    if (side["total_samples"] != ref["total_samples"]
            or abs(side["overflow"] - ref["overflow"]) > COUNT_TOL
            or not _close(side["e_max"], ref["e_max"], EXACT_RTOL)
            or (side["fit"] is None) != (ref["fit"] is None)):
        return False
    if ref["fit"] is None:
        return True
    fit, r_fit = side["fit"], ref["fit"]
    return (abs(fit["n_bins_used"] - r_fit["n_bins_used"]) <= 2
            and _temperature_matches(fit["temperature"], fit["sigma"],
                                     r_fit["temperature"], r_fit["sigma"]))


def compare_outputs(command: str, out_dir: Path, ref_dir: Path,
                    n_samples: int) -> tuple:
    """(records, mismatched records) of one run against its reference."""
    records = mismatched = 0
    for name in CURVE_FILES[command]:
        _, ref_rows = _read_rows(ref_dir / name)
        records += len(ref_rows)
        path = out_dir / name
        if not path.exists():
            mismatched += len(ref_rows)
            continue
        _, rows = _read_rows(path)
        if len(rows) != len(ref_rows):
            mismatched += len(ref_rows)
            continue
        mismatched += sum(not curve_row_matches(r, ref, n_samples)
                          for r, ref in zip(rows, ref_rows))
    ref_hists = {p.name for p in ref_dir.glob("hist_seed*.csv")}
    out_hists = {p.name for p in out_dir.glob("hist_seed*.csv")}
    for name in sorted(ref_hists | out_hists):
        records += 1
        if name not in ref_hists or name not in out_hists:
            mismatched += 1
        elif not histogram_matches(out_dir / name, ref_dir / name):
            mismatched += 1
    return records, mismatched


def _failure_message(entry) -> str:
    if isinstance(entry, list):        # (omega, seed, message) record
        return str(entry[-1])
    return str(entry)


def count_errors(manifest_path: Path) -> tuple:
    """(errored points, fit failures) from a run manifest's failure records.

    A point errored when it ended in an exception other than a fit
    failure (NumericalError, EigensolverError or anything else).  Fit
    failures are a valid outcome (no Boltzmann tail) and are part of the
    compared outputs instead.
    """
    manifest = json.loads(manifest_path.read_text())
    errors = fits = 0
    for entry in manifest.get("failures", []):
        match = _EXC_NAME.search(_failure_message(entry))
        if match and match.group(1) in FIT_FAILURES:
            fits += 1
        else:
            errors += 1
    return errors, fits
