"""The studies in scripts/ run end to end at miniature size.

A study is either a flat config (``<name>.json``) that a CLI command
runs, or a script (``<name>.py``) for the one study without a command.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from finitebath import experiments, propagator
from finitebath.cli import EXIT_NUMERICAL, main
from finitebath.config import check_config
from finitebath.output import write_csv
from finitebath.propagator import NumericalError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CONFIGS = sorted(path.stem for path in SCRIPTS.glob("*.json"))

# the command that runs each study config, and the overrides that shrink it
COMMANDS = {"single_bath_sweep": "sweep", "two_bath_frustration": "twobath"}
MINIATURE = {
    "single_bath_sweep": {"bath1_size": 30, "omega_grid": [0.5], "seeds": [1],
                          "n_samples": 400},
    "two_bath_frustration": {"bath1_size": 10, "bath2_size": 10, "omega_grid": [0.55],
                             "seeds": [1], "step_size": 2e-2, "n_samples": 200,
                             "mean_interval": 10, "warmup": 100},
}
CURVES = {"sweep": ["curve.csv"],
          "twobath": ["curve_combined.csv", "curve_bath1_alone.csv",
                      "curve_bath2_alone.csv"]}


def _sets(overrides: dict) -> list:
    return [arg for key, value in overrides.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]


def _run(name, argv) -> int:
    """Exit code of a study: its config run by the CLI, or its script."""
    if name in CONFIGS:
        return main([COMMANDS[name], "--config", str(SCRIPTS / f"{name}.json"), *argv])
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    try:
        return module.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name,args,outputs", [
    *((name, _sets(MINIATURE[name]) + ["--out", "{tmp}"], CURVES[COMMANDS[name]])
      for name in CONFIGS),
    ("degenerate_exchange",
     ["--size", "20", "--n-periods", "4", "--out", "{tmp}/trace.csv"],
     ["trace.csv"]),
])
def test_script_runs_and_writes_its_output(tmp_path, capsys, name, args, outputs):
    assert _run(name, [a.format(tmp=tmp_path) for a in args]) == 0
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0
    if name in CONFIGS:
        check_config(json.loads((SCRIPTS / f"{name}.json").read_text()))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["peaks"]) == sorted(outputs)
        assert all(peak in MINIATURE[name]["omega_grid"]
                   for peak in manifest["peaks"].values())


@pytest.mark.parametrize("name,args", [
    ("single_bath_sweep", ["--set", "omega_grid=[NaN]", "--set", "bath1_size=10",
                           "--out", "{tmp}"]),
    ("two_bath_frustration", ["--set", "delta_t_steps=0", "--set", "bath1_size=10",
                              "--out", "{tmp}"]),
    ("degenerate_exchange", ["--size", "3", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--size", "0", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--xi", "2", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--n-periods", "0", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--e0", "-5", "--out", "{tmp}/trace.csv"]),
])
def test_bad_script_arguments_exit_2(tmp_path, capsys, name, args):
    assert _run(name, [a.format(tmp=tmp_path) for a in args]) == 2
    assert "error:" in capsys.readouterr().err


def _diverging_point(omega, spec, seed, **kwargs):
    raise NumericalError("switched run diverged")


def test_all_failed_sweep_records_a_null_peak_and_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "run_single_bath_point", _diverging_point)
    args = _sets(MINIATURE["single_bath_sweep"]) + ["--out", str(tmp_path)]
    assert _run("single_bath_sweep", args) == EXIT_NUMERICAL
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["peaks"] == {"curve.csv": None}
    assert "Traceback" not in capsys.readouterr().err


def test_exchange_factorization_failure_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(propagator, "dlasd4",
                        lambda i, d, z: (np.ones_like(d), 1.0, np.ones_like(d), 1))
    trace = tmp_path / "trace.csv"
    assert _run("degenerate_exchange", ["--size", "20", "--out", str(trace)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: dlasd4 failed")
    assert err.count("\n") == 1
    assert not trace.exists()


def test_exchange_trace_is_written_by_the_csv_writer(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert _run("degenerate_exchange",
                ["--size", "20", "--n-periods", "4", "--out", str(trace)]) == 0
    header, *lines = trace.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines]
    write_csv(tmp_path / "again.csv", header, rows)
    assert trace.read_bytes() == (tmp_path / "again.csv").read_bytes()
