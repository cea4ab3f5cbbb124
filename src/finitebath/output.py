"""Deterministic CSV and JSON emission of run products.

Floats are written with 17 significant digits so files round-trip to
the exact binary values and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ConfigError
from .experiments import ThermalizationCurve
from .stats import EnergyHistogram, TemperatureFit
from .workers import blas_config, blas_counts, usable_cpus

CURVE_HEADER = "omega,T_tp,T_tp_err,goodness,overflow_frac,T_bath_init,T_bath_final"


def fmt(x) -> str:
    """Fixed 17 significant digit float formatting (nan allowed)."""
    return f"{float(x):.17g}"


def write_text(path, text: str) -> None:
    """Write text to path; ConfigError naming the path where it cannot be written."""
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


def write_csv(path, header: str, rows) -> None:
    """Write the header line, then one line per row.

    Integer cells are written as integers, every other cell through fmt.
    """
    def cell(x) -> str:
        return str(int(x)) if isinstance(x, (int, np.integer)) else fmt(x)

    lines = [header] + [",".join(cell(x) for x in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


def emit_curve(curve: ThermalizationCurve, path) -> None:
    """Write a thermalization curve as CSV.

    The bath reference columns report bath 1 (initial fitted
    temperature, constant down the column, and the per-frequency final
    fit).  Two bath runs carry the full per-bath story in the manifest.
    """
    t_init = curve.bath_initial[0][0]
    write_csv(path, CURVE_HEADER, zip(
        curve.omegas, curve.temperature, curve.sigma, curve.goodness,
        curve.overflow_fraction, [t_init] * len(curve.omegas), curve.bath_final[0][0]))


def emit_histogram(hist: EnergyHistogram, fit: TemperatureFit | None, path) -> None:
    """Write histogram CSV plus a JSON sidecar with the fit parameters.

    The sidecar sits next to the CSV (same name, .json) and refers to the
    run's manifest.json in the same directory.
    """
    path = Path(path)
    write_csv(path, "bin_lo,bin_hi,count",
              zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))
    sidecar = {
        "overflow": hist.overflow,
        "total_samples": hist.total_samples,
        "e_max": hist.e_max,
        "fit": None if fit is None else asdict(fit),
        "manifest": "manifest.json",
    }
    write_text(path.with_suffix(".json"), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def read_histogram(path) -> EnergyHistogram:
    """Read back an emitted histogram CSV.

    ValueError unless the edges are finite, strictly increasing and
    contiguous (each bin_lo is the previous bin_hi), no count is
    negative and the counts total at most 2^63 - 1, so that they and
    their total are int64.  A refused row is named by its line.
    """
    try:
        lines = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    if not lines or lines[0] != "bin_lo,bin_hi,count":
        raise ValueError(f"{path}: not a histogram CSV (bad header)")
    if len(lines) < 2:
        raise ValueError(f"{path}: histogram CSV has no bins")
    lo, hi, counts = [], [], []
    for k, row in enumerate(lines[1:], start=2):
        try:
            a, b, c = row.split(",")
            bin_lo, bin_hi, count = float(a), float(b), int(c)
        except ValueError as err:
            raise ValueError(f"{path}: line {k}: {err}") from None
        if not (math.isfinite(bin_lo) and math.isfinite(bin_hi)):
            raise ValueError(f"{path}: line {k}: histogram edges must be finite")
        if not bin_hi > bin_lo:
            raise ValueError(f"{path}: line {k}: histogram edges must strictly increase")
        if hi and bin_lo != hi[-1]:
            raise ValueError(f"{path}: line {k}: each bin_lo must equal the previous bin_hi")
        if count < 0:
            raise ValueError(f"{path}: line {k}: histogram counts must be non-negative")
        lo.append(bin_lo)
        hi.append(bin_hi)
        counts.append(count)
    if sum(counts) > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: histogram counts total more than the 2^63 - 1 "
                         "samples a histogram holds")
    counts = np.array(counts, dtype=np.int64)
    edges = np.array([*lo, hi[-1]])
    return EnergyHistogram(bin_edges=edges, counts=counts, overflow=0,
                           total_samples=int(counts.sum()))


def run_environment() -> dict:
    """numpy's version, the BLAS and its threads, the CPUs and the run's processes.

    blas_config is the build and core that numpy's BLAS reports (None
    where it reports none), the library behind both the BLAS products
    and the secular roots' dlasd4, blas_threads the count the run found
    and blas_threads_used the count it ran on (blas_counts; None where no
    getter, or no setter, is found): a multithreaded BLAS rounds the
    period map's products by how it splits them among its threads, and
    a BLAS's kernels, picked by its core, round them their own way.
    A run loads no scipy, so scipy's version is not recorded here: the
    exchange, which loads scipy.stats, adds it itself (cli.cmd_exchange).
    point_workers starts empty and gets, for each curve the run records,
    the processes that ran its points.
    """
    found, used = blas_counts()
    return {"numpy": np.__version__, "blas_config": blas_config(),
            "blas_threads": found, "blas_threads_used": used,
            "cpus": usable_cpus(), "point_workers": []}


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit a run."""

    command: str
    config: dict
    seeds: tuple
    code_version: str
    propagator: str
    step_size: list | None = None        # [omega, seed, h] per RK4 point run
    delta_t_steps: int | None = None     # two-bath runs only
    max_snap_distance: float | None = None
    started: str = ""
    finished: str = ""
    bath_initial: list = field(default_factory=list)
    bath_final: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    peaks: dict = field(default_factory=dict)   # curve CSV -> peak omega or None
    environment: dict = field(default_factory=run_environment)

    def __post_init__(self):
        if not self.started:
            self.started = self.now()

    @staticmethod
    def now() -> str:
        return datetime.now(timezone.utc).isoformat()

    def write(self, path) -> None:
        """Stamp the time as finished and write the manifest as JSON."""
        self.finished = self.now()
        payload = {k: _jsonable(v) for k, v in self.__dict__.items()}
        write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v
