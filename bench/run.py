#!/usr/bin/env python3
"""finitebath benchmark: four CLI workloads, end-to-end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src`` directory, byte-compiled first so that every child
imports bytecode.  Every CLI call runs in its own fresh interpreter
(child.py), one at a time.  A run keeps starting calls while
``--seconds`` have not passed and reports medians over them; set-up is
measured in at least ``SETUP_SAMPLES`` fresh interpreters.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones: it alternates untraced and traced calls, so that the
tracing overhead is measured too.  Every call's outputs are compared
with the stored references (compare.py) and its manifest's failure
records are counted.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (in (omega, seed)
points) and ``metrics``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

from compare import compare_outputs, count_errors  # noqa: E402
from tracing import ROOT_SPAN, per_layer_metrics  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, Workload, smoke_workload  # noqa: E402

SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 150.0
# BLAS runs single-threaded in every child.  On a shared 2-core machine a
# second BLAS thread turns neighbours' load into large swings: the
# N = 4000 factorization varied by 8 % between calls with two threads
# and by 2 % with one.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def reference_dir(workload: Workload, seed: int) -> Path:
    return REFS / workload.name / f"v{seed % N_VARIANTS:02d}"


def run_child(job: dict, work: Path, tag: str) -> dict:
    """Run child.py on one job in a fresh interpreter; its result dict."""
    job = {"src": str(SRC), "bench": str(BENCH), "argv": None, "trace": False,
           "env": False, **job, "result": str(work / f"{tag}.result.json")}
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                              cwd=work, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0 or not Path(job["result"]).exists():
        raise BenchError(f"benchmark child failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def compile_sources() -> None:
    """Byte-compile the program, so that every child imports bytecode.

    Otherwise set-up depends on the environment: with
    PYTHONDONTWRITEBYTECODE set, every fresh interpreter compiles the
    sources again, which adds about 0.13 s (13 %) to set-up and 14 MB to
    the peak RSS of twobath_floquet.
    """
    if not compileall.compile_dir(SRC / "finitebath", quiet=1):
        raise BenchError(f"cannot byte-compile {SRC / 'finitebath'}")


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Tally:
    """Everything one run of one workload measured."""

    def __init__(self):
        self.setup, self.wall, self.rss, self.cpu = [], [], [], []
        self.warnings, self.traced_wall, self.layers = [], [], []
        self.points = self.errors = self.fit_failures = 0
        self.records = self.mismatched = 0
        self.env = None
        self.untraced_names = set()

    def account(self, workload: Workload, seed: int, res: dict, out: Path,
                ref: Path | None, traced: bool) -> None:
        n_points = workload.points(seed)
        self.points += n_points
        manifest = out / "manifest.json"
        if res.get("rc") in (0, 3, 4) and "traceback" not in res and manifest.exists():
            errors, fits = count_errors(manifest)
            self.errors += min(errors, n_points)
            self.fit_failures += fits
        else:
            self.errors += n_points
        if ref is not None:
            records, mismatched = compare_outputs(workload.command, out, ref,
                                                  workload.base["n_samples"])
            self.records += records
            self.mismatched += mismatched
        if "setup_s" in res:
            self.setup.append(res["setup_s"])
        if "wall_s" not in res:
            return
        if traced:
            self.traced_wall.append(res["wall_s"])
            self.layers.append(res["layers"])
            self.untraced_names.update(res["missing"])
        else:
            self.wall.append(res["wall_s"])
            self.rss.append(res["peak_rss_mb"])
            self.cpu.append(res["cpu_s"])
            self.warnings.append(len(res["warnings"]))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 spans_dir: Path | None = None,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload for `seconds`; a result record."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    config = workload.config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    ref = reference_dir(workload, seed)
    ref = ref if ref.is_dir() else None
    tally = Tally()
    start = time.perf_counter()
    iteration = 0
    try:
        while True:
            for traced in ((False, True) if trace else (False,)):
                tag = f"it{iteration}{'t' if traced else ''}"
                out = work / tag
                spans = (spans_dir or work) / f"{workload.name}-seed{seed}-{tag}.spans.jsonl"
                res = run_child({"config": config, "omega": workload.omega,
                                 "argv": workload.argv(str(config_path), str(out)),
                                 "trace": traced, "spans": str(spans),
                                 "env": tally.env is None}, work, tag)
                tally.env = tally.env or res.get("env")
                tally.account(workload, seed, res, out, ref, traced)
                shutil.rmtree(out, ignore_errors=True)
            iteration += 1
            if time.perf_counter() >= start + seconds:
                break
        while len(tally.setup) < setup_samples:
            res = run_child({"config": config, "omega": workload.omega}, work,
                            f"setup{len(tally.setup)}")
            tally.setup.append(res["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, trace, tally, ref, iteration)


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def summarize(workload, seed, trace, tally: Tally, ref, iterations) -> dict:
    metrics = {}
    if trace:
        for name, (unit, _) in per_layer_metrics().items():
            if not name.startswith(("process.", "trace.")):
                values = [layers.get(name, 0) for layers in tally.layers]
                metrics[name] = {"value": _median(values), "unit": unit}
        metrics["process.cpu_s"] = {"value": _median(tally.cpu), "unit": "s"}
        metrics["process.runtime_warnings"] = {"value": _median(tally.warnings),
                                               "unit": "count"}
        coverage = [sum(v for k, v in layers.items()
                        if k.endswith(".self_s") and not k.startswith(ROOT_SPAN)) / wall
                    for layers, wall in zip(tally.layers, tally.traced_wall)]
        metrics["trace.coverage"] = {"value": _median(coverage), "unit": "frac"}
        metrics["trace.overhead_frac"] = {
            "value": _median(tally.traced_wall) / _median(tally.wall) - 1.0,
            "unit": "frac"}
    else:
        metrics["setup_s"] = {"value": _median(tally.setup), "unit": "s"}
        metrics["wall_s"] = {"value": _median(tally.wall), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": _median(tally.rss), "unit": "MB"}
    env = dict(tally.env or {}, commit=git_commit(), thread_env=CHILD_ENV)
    mismatch_frac = tally.mismatched / tally.records if ref is not None else None
    return {
        "workload": workload.name, "seed": seed, "variant": seed % N_VARIANTS,
        "physics_seeds": workload.config(seed)["seeds"], "trace": trace,
        "iterations": iterations, "env": env,
        "samples": {"setup_s": tally.setup, "wall_s": tally.wall,
                    "peak_rss_mb": tally.rss, "traced_wall_s": tally.traced_wall},
        "attempted": tally.points, "failed": tally.errors,
        "fit_failures": tally.fit_failures,
        "error_frac": tally.errors / tally.points,
        "records": tally.records, "mismatched": tally.mismatched,
        "mismatch_frac": mismatch_frac,
        "correct": mismatch_frac == 0 and tally.errors == 0,
        "untraced": sorted(tally.untraced_names),
        "metrics": metrics,
    }


def report(result: dict) -> None:
    """Human-readable lines for one result, metric names with units."""
    print(f"workload {result['workload']}  seed {result['seed']} "
          f"(variant {result['variant']}, physics seeds {result['physics_seeds']})  "
          f"{result['iterations']} iteration(s), trace {int(result['trace'])}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_frac':<44s} {result['error_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} points; "
          f"{result['fit_failures']} fit failures are outcomes, not errors)")
    if result["mismatch_frac"] is None:
        print(f"  {'mismatch_frac':<44s} unavailable: no stored reference for "
              f"variant {result['variant']}")
    else:
        print(f"  {'mismatch_frac':<44s} {result['mismatch_frac']:.6g} "
              f"({result['mismatched']} of {result['records']} records)")
    print(f"  {'correct':<44s} {result['correct']}")
    if result["untraced"]:
        print(f"  not found in the program, reported as 0: {', '.join(result['untraced'])}")


def contract_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def save(result: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}.json")
    (results / name).write_text(json.dumps(result, indent=1) + "\n")


def check_schema(line: str, trace: bool) -> list:
    """Problems with one contract line (empty when it is well formed)."""
    obj = json.loads(line)
    problems = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(obj)}")
    if not isinstance(obj.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj.get(key), int) or obj[key] < (1 if key == "attempted" else 0):
            problems.append(f"{key} = {obj.get(key)!r}")
    want = per_layer_metrics() if trace else END_TO_END
    metrics = obj.get("metrics", {})
    if set(metrics) != set(want):
        problems.append(f"metrics differ from the declared set: "
                        f"{sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name}: {m}")
    return problems


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="every workload in turn")
    mode.add_argument("--smoke", action="store_true",
                      help="tiny-N inputs: result schema and correctness, no timing")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finitebath" / "cli.py").is_file():
        print(f"error: no finitebath sources under {SRC}; run the benchmark "
              "inside a checkout of the repository", file=sys.stderr)
        return 2
    if not REFS.is_dir():
        print(f"error: reference outputs missing under {REFS}", file=sys.stderr)
        return 2
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    try:
        compile_sources()
        if args.workload:
            result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), spans_dir)
            save(result)
            report(result)
            print(contract_line(result))
            return 0
        if args.all:
            results = []
            for name in WORKLOADS:
                result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                      bool(args.trace), spans_dir)
                save(result)
                report(result)
                results.append(result)
            bad = [r["workload"] for r in results if not r["correct"]]
            if bad:
                print(f"FAILED correctness: {', '.join(bad)}")
            print(json.dumps({r["workload"]: json.loads(contract_line(r))
                              for r in results}))
            return 1 if bad else 0
        failures = []
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_workload(smoke_workload(name), args.seed, 0.0, trace,
                                      spans_dir, setup_samples=1)
                report(result)
                line = contract_line(result)
                problems = check_schema(line, trace)
                if not result["correct"]:
                    problems.append("outputs do not match the reference")
                failures += [f"{result['workload']} trace {int(trace)}: {p}"
                             for p in problems]
        for problem in failures:
            print(f"SMOKE FAILURE {problem}")
        print(json.dumps({"smoke": "fail" if failures else "ok"}))
        return 1 if failures else 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
