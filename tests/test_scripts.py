"""The paper's three studies run end to end at miniature size.

Two are flat configs under scripts/ (``<name>.json``) that a CLI
command runs.  The degenerate exchange has no config: it is the
``exchange`` command with its own flags.  scripts/ holds nothing but
the configs, so every study has one front end.
"""

import json
from pathlib import Path

import pytest

from finitebath import experiments
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
    """Exit code of a study: its config run by its command, or `exchange`."""
    if name in CONFIGS:
        argv = [COMMANDS[name], "--config", str(SCRIPTS / f"{name}.json"), *argv]
    else:
        argv = ["exchange", *argv]
    try:
        return main(argv)
    except SystemExit as exc:     # argparse refusing a flag
        return exc.code


def test_scripts_holds_only_configs_that_a_test_runs():
    files = [path for path in SCRIPTS.rglob("*")
             if path.is_file() and "__pycache__" not in path.parts]
    assert files and all(path.suffix == ".json" for path in files), files
    for path in files:
        check_config(json.loads(path.read_text()))
    # each config has the command and the overrides that the run test below uses
    assert CONFIGS == sorted(COMMANDS) == sorted(MINIATURE)


@pytest.mark.parametrize("name,args,outputs", [
    *((name, _sets(MINIATURE[name]) + ["--out", "{tmp}"], CURVES[COMMANDS[name]])
      for name in CONFIGS),
    ("degenerate_exchange", ["--size", "20", "--n-periods", "4", "--out", "{tmp}"],
     ["exchange.csv", "summary.json"]),
])
def test_script_runs_and_writes_its_output(tmp_path, capsys, name, args, outputs):
    assert _run(name, [a.format(tmp=tmp_path) for a in args]) == 0
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    if name in CONFIGS:
        assert sorted(manifest["peaks"]) == sorted(outputs)
        assert all(peak in MINIATURE[name]["omega_grid"]
                   for peak in manifest["peaks"].values())
    else:
        assert manifest["command"] == "exchange"
        assert manifest["outputs"] == outputs
        assert manifest["config"] == {"size": 20, "xi": 0.01, "omega_r": 1.0,
                                      "e0": 10.0, "n_periods": 4}
        assert manifest["seeds"] == [3]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["dominant_frequency"] == pytest.approx(
            summary["exchange_frequency"], rel=1e-3)
        assert 0.0 <= summary["ks_pvalue"] <= 1.0


@pytest.mark.parametrize("name,args", [
    ("single_bath_sweep", ["--set", "omega_grid=[NaN]", "--set", "bath1_size=10",
                           "--out", "{tmp}"]),
    ("two_bath_frustration", ["--set", "delta_t_steps=0", "--set", "bath1_size=10",
                              "--out", "{tmp}"]),
    ("degenerate_exchange", ["--size", "3", "--out", "{tmp}"]),
    ("degenerate_exchange", ["--size", "0", "--out", "{tmp}"]),
    ("degenerate_exchange", ["--size", str(10**20), "--out", "{tmp}"]),
    ("degenerate_exchange", ["--xi", "2", "--out", "{tmp}"]),
    ("degenerate_exchange", ["--n-periods", "0", "--out", "{tmp}"]),
    ("degenerate_exchange", ["--e0", "-5", "--out", "{tmp}"]),
])
def test_bad_script_arguments_exit_2(tmp_path, capsys, name, args):
    assert _run(name, [a.format(tmp=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def _diverging_point(omega, spec, seed, **kwargs):
    raise NumericalError("switched run diverged")


def test_all_failed_sweep_records_a_null_peak_and_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "run_single_bath_point", _diverging_point)
    args = _sets(MINIATURE["single_bath_sweep"]) + ["--out", str(tmp_path)]
    assert _run("single_bath_sweep", args) == EXIT_NUMERICAL
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["peaks"] == {"curve.csv": None}
    assert "Traceback" not in capsys.readouterr().err


def test_exchange_factorization_failure_exits_3(tmp_path, capsys, failing_dlasd4):
    assert _run("degenerate_exchange", ["--size", "20", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: dlasd4 failed")
    assert err.count("\n") == 1
    assert not (tmp_path / "exchange.csv").exists()


def test_exchange_trace_is_written_by_the_csv_writer(tmp_path, capsys):
    assert _run("degenerate_exchange",
                ["--size", "20", "--n-periods", "4", "--out", str(tmp_path)]) == 0
    trace = tmp_path / "exchange.csv"
    header, *lines = trace.read_text().splitlines()
    assert header == "time,energy"
    rows = [[float(x) for x in line.split(",")] for line in lines]
    write_csv(tmp_path / "again.csv", header, rows)
    assert trace.read_bytes() == (tmp_path / "again.csv").read_bytes()
