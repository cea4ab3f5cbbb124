"""The benchmark's own checks.

    python3 -m pytest -q bench/test_bench.py

They show that the reference comparison catches altered outputs and a
wrong propagator while passing a 1e-10 perturbation, that failures are
counted from manifests, that the smoke mode produces well-formed result
lines, and that BENCHMARK.json declares exactly the metrics reported.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from finitebath.propagator import EigenPropagator  # noqa: E402
from finitebath.switched import SwitchedPropagator  # noqa: E402
from workloads import WORKLOADS, smoke_workload  # noqa: E402

SMOKE_SWEEP = smoke_workload("sweep_n400")
SMOKE_POINT = smoke_workload("point_n4000")
SMOKE_TWOBATH = smoke_workload("twobath_floquet")
SMOKE_RK4 = smoke_workload("rk4_dense")


def _ref(workload):
    return run.reference_dir(workload, 0)


def _rewrite_curve(path: Path, row: int, column: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = repr(fn(float(cells[column])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _rewrite_counts(path: Path, fn) -> None:
    lines = path.read_text().splitlines()
    counts = np.array([int(line.split(",")[2]) for line in lines[1:]])
    counts = fn(counts)
    lines[1:] = [",".join(line.split(",")[:2] + [str(c)])
                 for line, c in zip(lines[1:], counts)]
    path.write_text("\n".join(lines) + "\n")


def _compare(workload, out: Path) -> tuple:
    return compare.compare_outputs(workload.command, out, _ref(workload),
                                   workload.base["n_samples"])


def test_reference_matches_itself(tmp_path):
    for workload in (SMOKE_SWEEP, SMOKE_POINT, SMOKE_TWOBATH, SMOKE_RK4):
        out = tmp_path / workload.name
        shutil.copytree(_ref(workload), out)
        records, mismatched = _compare(workload, out)
        assert records > 0 and mismatched == 0


def test_altered_curve_row_is_caught(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(_ref(SMOKE_SWEEP), out)
    _, rows = compare._read_rows(out / "curve.csv")
    sigma = rows[1][2]
    _rewrite_curve(out / "curve.csv", 1, 1, lambda t: t + 0.2 * sigma)
    assert _compare(SMOKE_SWEEP, out)[1] == 0          # within half a sigma
    _rewrite_curve(out / "curve.csv", 1, 1, lambda t: t + sigma)
    assert _compare(SMOKE_SWEEP, out)[1] == 1


def test_altered_histogram_is_caught(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(_ref(SMOKE_POINT), out)
    hist = next(out.glob("hist_seed*.csv"))

    def move(n):
        def fn(counts):
            counts = counts.copy()
            i = int(np.argmax(counts))
            counts[i] -= n
            counts[i + 1] += n
            return counts
        return fn

    _rewrite_counts(hist, move(1))                      # one flipped sample
    assert _compare(SMOKE_POINT, out)[1] == 0
    shutil.copy(_ref(SMOKE_POINT) / hist.name, hist)
    _rewrite_counts(hist, move(compare.COUNT_TOL))       # moved twice over
    assert _compare(SMOKE_POINT, out)[1] == 1
    (hist.with_suffix(".json")).unlink()
    hist.unlink()
    assert _compare(SMOKE_POINT, out)[1] == 1            # missing record


def _run_in_process(workload, out: Path, target: tuple, wrapper) -> tuple:
    """Run a workload's CLI call (seed 0) in this process, ``target`` wrapped."""
    import finitebath.cli as cli

    cls, name = target
    original = getattr(cls, name)
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(workload.config(0)))
    setattr(cls, name, wrapper(original))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(workload.argv(str(config), str(out))) == 0
    finally:
        setattr(cls, name, original)
    return _compare(workload, out)


# (workload, wrapped layer, records that layer produces).  The sampled
# (Q, P) come from the eigen sampler on the single-bath smoke inputs.  On
# the switched layer (Floquet engine on twobath_floquet, dense stepping on
# rk4_dense) the full-size inputs are used: a smoke run there yields one
# fitted temperature of a few hundred samples, which a 0.1 % clock error
# moves by less than its tolerance.  Only the combined curve of the
# two-bath run passes through the switched layer.
SAMPLER = (EigenPropagator, "sample_test_particle")
SWITCHED = (SwitchedPropagator, "run")
TARGETS = [
    (SMOKE_SWEEP, SAMPLER, None),
    (SMOKE_POINT, SAMPLER, None),
    (WORKLOADS["twobath_floquet"], SWITCHED, 3),
    (WORKLOADS["rk4_dense"], SWITCHED, 3),
]
TARGET_IDS = [w.name for w, _, _ in TARGETS]


def _perturbed(original):
    rng = np.random.default_rng(7)

    def noisy(x):
        return x * (1 + 1e-10 * rng.standard_normal(np.shape(x)))

    def wrapped(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        if isinstance(res, tuple):                      # sampler: (q, p)
            return noisy(res[0]), noisy(res[1])
        return dataclasses.replace(res, q=noisy(res.q), p=noisy(res.p))
    return wrapped


def _skewed_clock(original):
    # the program passes the sample times as the last positional argument
    # of both the sampler and SwitchedPropagator.run
    def wrapped(self, *args, **kwargs):
        *head, times = args
        return original(self, *head, np.asarray(times, dtype=float) * 1.001, **kwargs)
    return wrapped


@pytest.mark.parametrize("workload,target,affected", TARGETS, ids=TARGET_IDS)
def test_tiny_perturbation_passes(tmp_path, workload, target, affected):
    records, mismatched = _run_in_process(workload, tmp_path / "out", target, _perturbed)
    assert records > 0 and mismatched == 0


@pytest.mark.parametrize("workload,target,affected", TARGETS, ids=TARGET_IDS)
def test_wrong_propagator_is_caught(tmp_path, workload, target, affected):
    records, mismatched = _run_in_process(workload, tmp_path / "out", target, _skewed_clock)
    assert mismatched >= max(1, (affected or records) // 2 + 1)


def test_errors_come_from_manifest_failures(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"failures": [
        [0.5, 1, "NumericalError: switched run diverged"],
        [0.5, 2, "NonThermalDistributionError: slope 0.1 >= 0"],
        "bath1 alone: (0.35, 1, 'FitError: only 2 nonempty bins')",
        "seed 3: EigensolverError: normal mode eigensolver did not converge",
        "seed 4: ValueError: bad",
    ]}))
    assert compare.count_errors(manifest) == (3, 2)


def test_points_per_run():
    assert WORKLOADS["sweep_n400"].points(0) == 39
    assert WORKLOADS["point_n4000"].points(5) == 1
    assert WORKLOADS["twobath_floquet"].points(0) == 18    # 6 switched + 12 alone
    assert WORKLOADS["rk4_dense"].points(0) == 3


def test_workload_seed_fixes_inputs():
    w = WORKLOADS["sweep_n400"]
    assert w.config(3) == w.config(3)
    assert w.config(0)["seeds"] == [1, 2, 3]
    assert w.config(1)["seeds"] != w.config(0)["seeds"]


def test_benchmark_json_declares_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == run.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_smoke_mode_reports_well_formed_results():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_seed_without_reference_reports_mismatch_unavailable():
    result = run.run_workload(SMOKE_SWEEP, 1, 0.0, False, setup_samples=1)
    assert result["mismatch_frac"] is None
    assert result["error_frac"] == 0.0
    assert result["correct"] is False
    assert run.check_schema(run.contract_line(result), False) == []


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_n400",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
