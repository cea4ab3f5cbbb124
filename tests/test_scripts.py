"""The study scripts run end to end at miniature size."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name,args,outputs", [
    ("single_bath_sweep",
     ["--size", "30", "--omegas", "0.5", "--seeds", "1", "--n-samples", "400",
      "--out", "{tmp}/curve.csv"],
     ["curve.csv"]),
    ("two_bath_frustration",
     ["--size", "10", "--omegas", "0.55", "--seeds", "1", "--step-size", "2e-2",
      "--n-samples", "200", "--mean-interval", "10", "--warmup", "100",
      "--outdir", "{tmp}"],
     ["switched.csv", "bath1_alone.csv", "bath2_alone.csv"]),
    ("degenerate_exchange",
     ["--size", "20", "--n-periods", "4", "--out", "{tmp}/trace.csv"],
     ["trace.csv"]),
])
def test_script_runs_and_writes_its_output(tmp_path, capsys, name, args, outputs):
    argv = [a.format(tmp=tmp_path) for a in args]
    assert _main(name)(argv) == 0
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0


@pytest.mark.parametrize("name,args", [
    ("single_bath_sweep", ["--omegas", "nan", "--size", "10", "--out", "{tmp}/c.csv"]),
    ("two_bath_frustration", ["--delta-t-steps", "0", "--size", "10", "--outdir", "{tmp}"]),
    ("degenerate_exchange", ["--size", "3", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--size", "0", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--xi", "2", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--n-periods", "0", "--out", "{tmp}/trace.csv"]),
    ("degenerate_exchange", ["--e0", "-5", "--out", "{tmp}/trace.csv"]),
])
def test_bad_script_arguments_exit_2(tmp_path, capsys, name, args):
    with pytest.raises(SystemExit) as exc:
        _main(name)([a.format(tmp=tmp_path) for a in args])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
