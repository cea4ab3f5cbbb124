"""End-to-end command line runs on miniature systems."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import finitebath
from finitebath import experiments, propagator, workers
from finitebath.cli import (EXIT_CONFIG, EXIT_FIT, EXIT_NUMERICAL, EXIT_OK, LANGEVIN_POINTS,
                            main)
from finitebath.model import MAX_BATH_SIZE
from finitebath.propagator import NumericalError
from finitebath.output import read_histogram
from finitebath.stats import FitError

QUICK = {
    "bath1_size": 150,
    "bath1_mass": 0.01,
    "bath1_temperature": 5.0,
    "mean_interval": 2.0,
    "n_samples": 400,
    "warmup": 100.0,
}

TWOBATH = {
    "bath1_size": 60,
    "bath1_mass": 0.01,
    "bath1_temperature": 5.0,
    "bath2_size": 60,
    "bath2_mass": 0.01,
    "bath2_temperature": 5.0,
    "mean_interval": 1.5,
    "n_samples": 200,
    "warmup": 50.0,
    "omega_grid": [0.4],
    "seeds": [1],
}


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(QUICK))
    return path


@pytest.fixture
def twobath_config(tmp_path):
    path = tmp_path / "twobath.json"
    path.write_text(json.dumps(TWOBATH))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "finitebath" in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_single_writes_histograms_and_summary(tmp_path, quick_config, capsys):
    out = tmp_path / "run"
    code = main(["single", "--config", str(quick_config), "--omega", "0.5",
                 "--seed-list", "1", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert "aggregate over 2 seeds" in capsys.readouterr().out
    for name in ("hist_seed1.csv", "hist_seed1.json", "hist_seed2.csv",
                 "summary.json", "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert 3.0 < summary["temperature"] < 8.0
    assert summary["n_seeds"] == 2
    hist = read_histogram(out / "hist_seed1.csv")
    assert hist.counts.sum() > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "single"
    assert "summary.json" in manifest["outputs"]


def test_single_needs_exactly_one_frequency(tmp_path, quick_config, capsys):
    code = main(["single", "--config", str(quick_config),
                 "--set", "omega_grid=[0.3, 0.5]",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "exactly one frequency" in capsys.readouterr().err


def test_single_reports_unfittable_distributions(tmp_path, quick_config, capsys):
    # far detuned with a monochromatic energy: everything in one bin
    code = main(["single", "--config", str(quick_config), "--omega", "50.0",
                 "--set", "initial_energy=5.0", "--set", "n_bins=10",
                 "--set", "bath1_mass=0.001",
                 "--seed-list", "1", "--out", str(tmp_path / "x")])
    assert code == EXIT_FIT
    assert "fit failure" in capsys.readouterr().err


def test_set_overrides_reach_the_manifest(tmp_path, quick_config):
    out = tmp_path / "run"
    code = main(["single", "--config", str(quick_config), "--omega", "0.5",
                 "--set", "bath1_dos=uniform", "--set", "n_samples=150",
                 "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["bath1_dos"] == "uniform"
    assert manifest["config"]["n_samples"] == 150


def _replays_from_its_manifest(tmp_path, argv):
    """Run argv, rerun it from its manifest alone; every output must match."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--out", str(first)]) == EXIT_OK
    manifest = json.loads((first / "manifest.json").read_text())
    config = tmp_path / "replay.json"
    config.write_text(json.dumps(manifest["config"]))
    assert main([manifest["command"], "--config", str(config),
                 "--out", str(second)]) == EXIT_OK
    names = sorted(f.name for f in first.iterdir() if f.name != "manifest.json")
    assert names == sorted(f.name for f in second.iterdir() if f.name != "manifest.json")
    assert set(manifest["outputs"]) <= set(names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    return manifest


def test_single_replays_from_its_manifest(tmp_path, quick_config):
    manifest = _replays_from_its_manifest(tmp_path, [
        "single", "--config", str(quick_config), "--omega", "0.45",
        "--set", "bath1_size=30", "--set", "n_samples=200", "--seed-list", "2"])
    # the frequency and seeds came from the command line, not the file
    assert manifest["config"]["omega_grid"] == [0.45]
    assert manifest["config"]["seeds"] == [2]


def test_twobath_replays_from_its_manifest(tmp_path, twobath_config):
    manifest = _replays_from_its_manifest(tmp_path, [
        "twobath", "--config", str(twobath_config), "--set", "bath2_size=40",
        "--seed-list", "3"])
    assert manifest["config"]["omega_grid"] == [0.4]
    assert manifest["config"]["seeds"] == [3]


def test_unknown_config_key_exits_with_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"omga": 0.5}))
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_json_config_is_a_config_error(tmp_path, capsys):
    """Bytes that are not UTF-8 and JSON nested past the decoder's depth are refused too.

    They ended in a UnicodeDecodeError and a RecursionError, tracebacks
    with exit 1, from a --config file and from a --set value.
    """
    path = tmp_path / "bad.json"
    deep = "[" * 100_000 + "]" * 100_000
    for data, message in ((b"{not json", "not valid JSON"), (b"[1, 2]", "JSON object"),
                          (b"\xff\xfe{}", "can't decode byte 0xff"),
                          (deep.encode(), "maximum recursion depth")):
        path.write_bytes(data)
        for command in (["sweep"], ["oracle", "kernel"]):
            code = main(command + ["--config", str(path), "--out", str(tmp_path / "x")])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"error: config {path}") and message in err
            assert err.count("\n") == 1
    seeds = "[" * 3000 + "]" * 3000
    code = main(["sweep", "--set", f"seeds={seeds}", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --set seeds: maximum recursion depth")


def test_sweep_writes_the_curve(tmp_path, quick_config, capsys, read_curve):
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(quick_config),
                 "--set", "omega_grid=[0.5]", "--seed-list", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "1/1 grid points fitted" in capsys.readouterr().out
    cols = read_curve(out / "curve.csv")
    assert cols["omega"][0] == 0.5
    assert 3.0 < cols["T_tp"][0] < 8.0
    assert np.isfinite(cols["T_bath_init"][0])


def _diverging_point(omega, spec, seed, **kwargs):
    raise NumericalError("switched run diverged")


def test_sweep_where_every_point_fails_numerically_exits_3(
        tmp_path, quick_config, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_single_bath_point", _diverging_point)
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(quick_config),
                 "--set", "omega_grid=[0.3, 0.5]", "--seed-list", "1", "2",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[w, s, "NumericalError: switched run diverged"]
                        for w in (0.3, 0.5) for s in (1, 2)]


def test_single_exits_3_when_any_seed_failed_numerically(
        tmp_path, quick_config, monkeypatch, capsys):
    def failing_point(omega, spec, seed, **kwargs):
        if seed == 1:
            raise NumericalError("switched run diverged")
        raise FitError("only 2 nonempty bins")

    monkeypatch.setattr(experiments, "run_single_bath_point", failing_point)
    out = tmp_path / "run"
    code = main(["single", "--config", str(quick_config), "--omega", "0.5",
                 "--seed-list", "1", "2", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure: switched run diverged" in capsys.readouterr().err
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[0.5, 1, "NumericalError: switched run diverged"],
                        [0.5, 2, "FitError: only 2 nonempty bins"]]


def test_secular_solver_failure_exits_3(tmp_path, quick_config, failing_dlasd4, capsys):
    out = tmp_path / "run"
    code = main(["single", "--config", str(quick_config), "--omega", "0.5",
                 "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert len(failures) == 1
    assert failures[0][:2] == [0.5, 1]
    assert failures[0][2].startswith("EigensolverError: dlasd4 failed")


def test_a_far_field_root_that_does_not_converge_exits_3(tmp_path, quick_config, monkeypatch):
    """1200 oscillators and one model step: the manifest names the lowest root still iterating."""
    monkeypatch.setattr(propagator, "ROOT_STEPS", 1)
    out = tmp_path / "run"
    code = main(["single", "--config", str(quick_config), "--set", "bath1_size=1200",
                 "--omega", "0.5", "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[0.5, 1, "EigensolverError: secular root 1 did not converge "
                                 "(ROOT_STEPS = 1)"]]


def test_a_bath_at_a_large_frequency_scale_factors(tmp_path):
    """The secular roots do not depend on the frequency scale: every seed fits at 1e9."""
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_omega_uv=1e9", "--set", "bath1_omega_ir=5e8",
                 "--set", "bath1_size=12", "--set", "bath1_mass=0.04",
                 "--set", "omega_grid=[9e8]", "--set", "seeds=[1,2,3]", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [1, 2, 3]
    assert manifest["failures"] == []


def test_a_very_heavy_bath_keeps_its_energy(tmp_path):
    """A bath of mass 1e12 fits: its distinct oscillators keep their own poles.

    Merged within the rounding of the particle's corner instead, they gave
    modes off by 1.7 % and a total energy that drifted from 119.7 to 632.7.
    """
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sweep", "--set", "bath1_size=30", "--set", "bath1_mass=1e12",
                     "--set", "omega_grid=[0.5]", "--set", "seeds=[1]",
                     "--set", "n_samples=200", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["failures"] == []


def test_unstable_rk4_step_exits_3(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_size=20", "--set", "propagator=rk4",
                 "--set", "step_size=5", "--set", "omega_grid=[0.5]",
                 "--set", "seeds=[1,2]", "--set", "n_samples=100",
                 "--set", "mean_interval=1", "--set", "warmup=0",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [f[:2] for f in failures] == [[0.5, 1], [0.5, 2]]
    assert all(f[2].startswith("NumericalError: RK4 step h=5 ") for f in failures)


def test_rk4_step_count_beyond_2_53_exits_3(tmp_path):
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_size=20", "--set", "propagator=rk4",
                 "--set", "step_size=1e-300", "--set", "omega_grid=[0.5]",
                 "--set", "seeds=[1]", "--set", "n_samples=100", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert [f[:2] for f in failures] == [[0.5, 1]]
    assert failures[0][2].startswith(
        "NumericalError: step size 1e-300 takes more than 2^53 steps")


def test_all_zero_particle_energies_are_a_fit_failure(tmp_path):
    """A bath 1e300 times heavier leaves the particle's energies below the smallest double."""
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_size=20", "--set", "bath1_mass=1e300",
                 "--set", "omega_grid=[0.5]", "--set", "seeds=[1,2]",
                 "--set", "n_samples=100", "--out", str(out)])
    assert code == EXIT_FIT
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [[0.5, seed, "FitError: all sampled energies are zero; nothing to fit"]
                        for seed in (1, 2)]


def test_derived_rk4_step_is_stable_against_a_heavy_bath(tmp_path):
    """The bare-frequency step (h nu_max = 3.5) gives way to one that resolves the top mode."""
    out = tmp_path / "run"
    code = main(["sweep", "--set", "bath1_size=400", "--set", "bath1_mass=5",
                 "--set", "propagator=rk4", "--set", "omega_grid=[0.5]",
                 "--set", "seeds=[1]", "--set", "n_samples=200", "--out", str(out)])
    assert code == EXIT_OK
    (omega, seed, h), = json.loads((out / "manifest.json").read_text())["step_size"]
    assert h < 2.0 * np.pi / 50.0 / 1.0      # below the bare rule's step (w_UV = 1)


def test_manifests_record_snap_distance_and_bath_fits(tmp_path, quick_config):
    h = 0.05
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(quick_config), "--set", "propagator=rk4",
                 "--set", f"step_size={h}", "--set", "omega_grid=[0.5]",
                 "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert 0.0 < manifest["max_snap_distance"] <= 0.5 * h
    out = tmp_path / "single"
    code = main(["single", "--config", str(quick_config), "--omega", "0.5",
                 "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    (t_init, sigma_init), = manifest["bath_initial"]
    assert 3.0 < t_init < 8.0 and sigma_init > 0.0
    assert len(manifest["bath_final"]) == 1


def _one_bath_step(tp, real):
    """The RK4 step a one-bath point derives for itself."""
    from finitebath.propagator import build_multi_coupling_matrix
    from finitebath.switched import default_step_size

    cm = build_multi_coupling_matrix(tp, [(real.m, real.frequencies, True)])
    return default_step_size(cm)


def test_manifest_records_the_steps_each_run_used(tmp_path, quick_config,
                                                  twobath_config):
    """RK4 points record their own step; delta_t_steps is a two-bath key."""
    from finitebath.bath import realize_bath
    from finitebath.config import build_bath
    from finitebath.model import TestParticleSpec
    from finitebath.switched import build_switched_matrices, default_step_size

    grid = ["--set", "omega_grid=[0.5,1.5]", "--seed-list", "1", "2"]
    out = tmp_path / "rk4"
    assert main(["sweep", "--config", str(quick_config), "--set", "propagator=rk4",
                 *grid, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    bath = build_bath(QUICK, "bath1", True)
    want = [[w, s, _one_bath_step(TestParticleSpec(omega=w), realize_bath(bath, s))]
            for w in (0.5, 1.5) for s in (1, 2)]
    assert manifest["step_size"] == want
    assert manifest["delta_t_steps"] is None
    out = tmp_path / "eigen"
    assert main(["sweep", "--config", str(quick_config), *grid,
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["step_size"] is None and manifest["delta_t_steps"] is None
    out = tmp_path / "twobath"
    assert main(["twobath", "--config", str(twobath_config), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["delta_t_steps"] == 1
    # the switched points only: the alone curves run on normal modes
    system = build_switched_matrices(
        TestParticleSpec(omega=0.4),
        *(realize_bath(build_bath(TWOBATH, f"bath{b + 1}", True), 1, b) for b in (0, 1)))
    assert manifest["step_size"] == [
        [0.4, 1, default_step_size(system.a1, system.a2)]]


def test_manifest_records_the_steps_of_points_that_failed_their_fit(
        tmp_path, quick_config, monkeypatch):
    """An RK4 point that stepped to its end keeps its step when its fit fails."""
    from finitebath.bath import realize_bath
    from finitebath.config import build_bath
    from finitebath.model import TestParticleSpec

    def no_fit(hist):
        raise FitError("only 2 nonempty bins")

    monkeypatch.setattr(experiments, "fit_temperature", no_fit)
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(quick_config), "--set", "propagator=rk4",
                 "--set", "omega_grid=[0.5]", "--seed-list", "1", "2",
                 "--out", str(out)]) == EXIT_FIT
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [[0.5, s, "FitError: only 2 nonempty bins"]
                                    for s in (1, 2)]
    bath = build_bath(QUICK, "bath1", True)
    assert manifest["step_size"] == [
        [0.5, s, _one_bath_step(TestParticleSpec(omega=0.5), realize_bath(bath, s))]
        for s in (1, 2)]


def test_slow_particle_is_not_a_zero_mode(tmp_path, monkeypatch, capsys):
    """Omega = 3e-5 still pins the particle, so every mode frequency is positive.

    The run is pinned to one CPU, so that every point's energy check
    runs in this process, where the spy counts it.
    """
    checked = []
    check = experiments._check_energy_drift

    def spy(*args):
        check(*args)
        checked.append(args)

    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "_check_energy_drift", spy)
    out = tmp_path / "run"
    code = main(["single", "--omega", "3e-5", "--set", "bath1_size=150",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["failures"] == []
    assert len(checked) == 15          # every seed passed the energy check


@pytest.mark.parametrize("override", [
    "bath1_temperature=NaN", "mean_interval=Infinity", "omega_grid=[NaN]"])
def test_non_finite_numbers_are_config_errors(tmp_path, quick_config, capsys,
                                              override):
    code = main(["sweep", "--config", str(quick_config),
                 "--set", "omega_grid=[0.5]", "--set", override,
                 "--seed-list", "1", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "step_size=-1", "delta_t_steps=0", "n_bins=0", "span_factor=-1", "mass=0",
    "initial_energy=1e308"])
def test_bad_run_parameters_fail_before_running(tmp_path, twobath_config,
                                                capsys, override):
    out = tmp_path / "x"
    code = main(["twobath", "--config", str(twobath_config),
                 "--set", override, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("override", [
    "energy_convention=bare", "active_first=1", "steps_per_period=50"])
def test_removed_run_options_are_unknown_keys(tmp_path, twobath_config, capsys,
                                              override):
    out = tmp_path / "x"
    code = main(["twobath", "--config", str(twobath_config),
                 "--set", override, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,override", [
    ("twobath", "propagator=rk4"),
    ("sweep", "renormalization=static"),
    ("sweep", "delta_t_steps=2"),
    ("sweep", "step_size=0.05"),
])
def test_run_keys_the_run_never_reads_exit_2(tmp_path, quick_config, twobath_config,
                                             capsys, command, override):
    out = tmp_path / "x"
    config = twobath_config if command == "twobath" else quick_config
    code = main([command, "--config", str(config), "--set", "omega_grid=[0.4]",
                 "--set", override, "--out", str(out)])
    assert code == EXIT_CONFIG
    key = override.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["single", "--omega", "1e200"], "--omega"),
    (["sweep", "--set", "omega_grid=[0.5]", "--set", "bath1_omega_uv=1e200"],
     "bath1_omega_uv"),
    (["twobath", "--set", "omega_grid=[1e200]"], "omega_grid[0]"),
], ids=["single", "sweep", "twobath"])
def test_a_frequency_whose_square_overflows_exits_2(tmp_path, twobath_config, capsys,
                                                    argv, key):
    out = tmp_path / "x"
    code = main([argv[0], "--config", str(twobath_config), *argv[1:], "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"error: {key}: the square of frequency 1e+200 overflows")
    assert not out.exists()


def test_a_bath_mass_whose_stiffness_underflows_exits_2(tmp_path, capsys):
    # m omega_ir^2 = 5e-324 * 0.04 is 0: realize_bath would divide by it and
    # the run would fail for a false reason ("total energy drifted from nan")
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["sweep", "--set", "bath1_size=30", "--set", "bath1_mass=5e-324",
                     "--set", "omega_grid=[0.5]", "--set", "seeds=[1]",
                     "--set", "n_samples=200", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: bath1_mass: at 5e-324 the squared position amplitude "
        "2 T / (m omega_ir^2) = 2 * 5.0 / 0.0 overflows")
    assert not out.exists()


@pytest.mark.parametrize("sets, text", [
    (["omega_grid=[1e-300]"], "omega=1e-300 lies so far below omega_uv that a bath fit's "
                              "factor (omega_uv / omega)^2 overflows"),
    ([f"bath1_size={MAX_BATH_SIZE}", "bath1_temperature=1e303", "omega_grid=[0.5]"],
     "the energy bound initial_energy + 37 N T over the baths, inf, overflows"),
], ids=["slow-particle", "huge-bath"])
def test_the_energy_headroom_refusal_names_the_term_that_overflows(tmp_path, capsys, sets, text):
    """Neither run's initial_energy, 0, is at fault, and neither refusal names it.

    The huge bath is the largest one allowed, MAX_BATH_SIZE oscillators,
    at a temperature whose 2 T / (m omega_ir^2) is finite.
    """
    out = tmp_path / "x"
    argv = ["sweep", *(arg for key in sets + ["seeds=[1]"] for arg in ("--set", key))]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {text}") and "initial_energy=" not in err
    assert not out.exists()


def test_a_bath_whose_coupling_underflows_exits_2(tmp_path, capsys):
    # z_n^2 = (m / M) w_n^4 ~ 1e-606 is 0 in doubles: deflation divided by
    # it ("divide by zero"), and the roots then failed to interlace (exit 3)
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["single", "--omega", "5.5e-150", "--set", "bath1_size=40",
                     "--set", "bath1_mass=1e-6", "--set", "bath1_omega_ir=1e-150",
                     "--set", "bath1_omega_uv=1e-149", "--set", "n_samples=200",
                     "--seed-list", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: bath1_omega_ir=1e-150 with m / M = 1e-06 underflows the normal modes, "
        "which form (m / M) omega_ir^6")
    assert not out.exists()


def test_a_bath_too_light_to_couple_runs_without_a_false_failure(tmp_path, capsys):
    # bath 1 at m = 1e-300: its border -sqrt(m/M) w^2 ~ 1e-150 lies below the
    # deflation tolerance, so its oscillators are decoupled modes of the
    # period map.  The switched point fits; the run neither reports a
    # divergence nor warns
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["twobath", "--set", "bath1_size=30", "--set", "bath1_mass=1e-300",
                     "--set", "bath2_size=2", "--set", "omega_grid=[2.9]",
                     "--set", "seeds=[1]", "--set", "n_samples=200",
                     "--set", "delta_t_steps=1", "--out", str(out)])
    assert code == EXIT_OK
    assert "Warning" not in capsys.readouterr().err
    assert "diverged" not in (out / "manifest.json").read_text()


def test_a_half_period_too_long_for_memory_exits_2(tmp_path, twobath_config, capsys):
    out = tmp_path / "x"
    code = main(["twobath", "--config", str(twobath_config), "--set", "bath1_size=5",
                 "--set", "bath2_size=5", "--set", "step_size=0.02",
                 "--set", "delta_t_steps=100000000000", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: delta_t_steps = 100000000000: a period of 200000000000 steps over 22 ")
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["twobath", "--set", "bath2_size=1e308"], "bath2_size"),
    (["sweep", "--set", "bath1_size=1e30"], "bath1_size"),
    (["sweep", "--set", f"bath1_size={MAX_BATH_SIZE + 1}"], "bath1_size"),
    (["twobath", "--set", "bath2_size=5", "--set", "delta_t_steps=1e308"], "delta_t_steps"),
    (["single", "--set", "bath1_size=10", "--set", "n_samples=1000000000000"], "n_samples"),
    (["single", "--set", "bath1_size=10", "--set", "n_bins=100000000000"], "n_bins"),
])
def test_a_bath_size_beyond_memory_exits_2(tmp_path, argv, key):
    """A size or count beyond its bound, or a period whose table overflows a float, is refused.

    The bounds are MAX_BATH_SIZE oscillators, MAX_SAMPLES samples and
    MAX_BINS bins.

    Sizes of 1e308 and 1e30 ended in an OverflowError (formatting the
    period map's entries through float) and a numpy ValueError (a draw
    beyond numpy's largest array), both tracebacks with exit 1; 1e12
    samples and 1e11 bins in numpy's refusal to allocate 7.28 TiB and
    745 GiB.
    """
    out = tmp_path / "x"
    env = {**os.environ, "PYTHONPATH": str(Path(finitebath.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "finitebath.cli", *argv, "--set",
                           "omega_grid=[0.5]", "--set", "seeds=[1]", "--out", str(out)],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith(f"error: {key}") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_twobath_needs_a_second_bath(tmp_path, quick_config, capsys):
    code = main(["twobath", "--config", str(quick_config),
                 "--set", "omega_grid=[0.4]", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "bath2" in capsys.readouterr().err


def test_twobath_writes_combined_and_alone_curves(tmp_path, twobath_config,
                                                  read_curve):
    out = tmp_path / "run"
    code = main(["twobath", "--config", str(twobath_config), "--out", str(out)])
    assert code == EXIT_OK
    for name in ("curve_combined.csv", "curve_bath1_alone.csv",
                 "curve_bath2_alone.csv", "manifest.json"):
        assert (out / name).exists()
    combined = read_curve(out / "curve_combined.csv")
    assert combined["omega"][0] == 0.4
    # the switched curve runs on RK4 maps, never on the eigen propagator
    assert json.loads((out / "manifest.json").read_text())["propagator"] == "rk4"


def test_twobath_failures_name_their_point_and_error(
        tmp_path, twobath_config, monkeypatch):
    # the single-bath reference curves fail, the switched curve does not
    monkeypatch.setattr(experiments, "run_single_bath_point", _diverging_point)
    out = tmp_path / "run"
    code = main(["twobath", "--config", str(twobath_config), "--out", str(out)])
    assert code == EXIT_OK
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [
        [0.4, 1, "bath1 alone: NumericalError: switched run diverged"],
        [0.4, 1, "bath2 alone: NumericalError: switched run diverged"]]


def test_single_uses_the_switched_pair_when_bath2_is_configured(
        tmp_path, twobath_config):
    out = tmp_path / "run"
    code = main(["single", "--config", str(twobath_config), "--omega", "0.4",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "summary.json").exists()


def test_oracle_mixture_profile(tmp_path):
    out = tmp_path / "run"
    code = main(["oracle", "mixture", "--t1", "5", "--t2", "10",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "mixture.csv").read_text().strip().splitlines()
    assert lines[0] == "energy,density,t_eff"
    e0_row = [float(x) for x in lines[1].split(",")]
    assert e0_row[0] == 0.0
    assert e0_row[1] == pytest.approx(0.15, rel=1e-12)
    assert e0_row[2] == pytest.approx(7.5, rel=1e-9)


def _fresh_python(code: str, **env) -> str:
    """What code prints in a fresh interpreter that imports finitebath from this tree.

    env adds to or replaces the caller's environment variables; a value
    of None removes one.
    """
    env = {key: value for key, value in {**os.environ, **env}.items() if value is not None}
    env["PYTHONPATH"] = str(Path(finitebath.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    """dlasd4 comes from numpy's own BLAS library; only `exchange` needs scipy.stats.

    Neither concurrent.futures nor logging, which it imports, is
    loaded.  After a sweep no scipy module is loaded either, and the
    process maps one OpenBLAS library, numpy's (where /proc/self/maps
    exists).
    """
    code = """
import json, os, sys, tempfile
import finitebath.cli
loaded = sorted({'scipy', 'scipy.linalg', 'scipy.stats', 'concurrent.futures',
                 'logging'} & set(sys.modules))
with tempfile.TemporaryDirectory() as out:
    code = finitebath.cli.main(["sweep", "--set", "bath1_size=40", "--set", "omega_grid=[0.5]",
                                "--set", "n_samples=200", "--set", "seeds=[1]", "--out", out])
maps = None
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        maps = sorted({line.split()[-1] for line in f
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
print(json.dumps([loaded, code, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  maps]))
"""
    loaded, code, scipy_modules, maps = json.loads(_fresh_python(code).splitlines()[-1])
    assert (loaded, code, scipy_modules) == ([], EXIT_OK, [])
    if maps is None:
        pytest.skip("no /proc/self/maps")
    assert len(maps) == 1, maps


def test_worker_processes_end_without_atexit_handlers_or_a_second_flush():
    """Children end through os._exit: text buffered before the fork and an atexit handler show once.

    Under -W error no warning reaches the parent, and the modules that
    forking workers imports are loaded only by a call that forks.
    """
    code = ("import atexit, sys\n"
            "from finitebath import cli, workers\n"
            "loaded = sorted({'multiprocessing', 'select', 'signal', 'traceback'} & set(sys.modules))\n"
            "atexit.register(print, 'atexit')\n"
            "sys.stdout.write(f'{loaded} ')\n"
            "print(workers.in_processes(abs, range(-3, 3), 3))\n")
    assert _fresh_python(code, PYTHONWARNINGS="error") == "[] [3, 2, 1, 0, 1, 2]\natexit\n"


def test_dlasd4_is_scipys_lapack_routine():
    """_secular_roots is bit-identical to a loop over scipy.linalg.lapack.dlasd4.

    At N = 400 and at N = 4000, with FAR_FIELD_ROOTS pinned out of reach
    so that dlasd4 takes every root there too.  Both baths' top poles lie
    in [1/2, 1), where the roots take the poles unscaled.
    """
    code = """
import numpy as np
from finitebath import propagator
from finitebath.bath import realize_bath
from finitebath.model import BathSpec, TestParticleSpec
from scipy.linalg.lapack import dlasd4

propagator.FAR_FIELD_ROOTS = np.iinfo(np.int64).max
for size in (400, 4000):
    real = realize_bath(BathSpec(size=size, mass=0.4 / size), seed=3)
    cm = propagator.build_multi_coupling_matrix(TestParticleSpec(omega=0.5),
                                                [(real.m, real.frequencies, True)])
    df = propagator._deflate(cm)
    poles, z, n = df.poles, np.sqrt(df.weights), len(df.poles)
    assert 0.5 <= poles[-1] < 1.0
    origin, tau = [], []
    for k in range(n):
        delta, _, _, info = dlasd4(k, poles, z)
        assert info == 0
        o = min(k + 1, n - 1)
        if abs(delta[k]) <= abs(delta[o]):
            o = k
        origin.append(o)
        tau.append(-delta[o])
    got = propagator._secular_roots(df.poles, df.weights, np.arange(n))
    print(n, got[0].tolist() == origin, got[1].tobytes() == np.array(tau).tobytes())
"""
    assert _fresh_python(code) == "401 True True\n4001 True True\n"


def test_runs_import_no_numpy_or_scipy_module():
    """Every module a run uses is loaded with finitebath.cli, so none is imported inside a run."""
    code = """
import sys, tempfile
from finitebath.cli import main

runs = [
    ["single", "--omega", "0.5", "--set", "bath1_size=60", "--set", "n_samples=400"],
    ["sweep", "--set", "bath1_size=40", "--set", "omega_grid=[0.3,0.5,5.0]",
     "--set", "n_samples=400"],
    ["sweep", "--set", "bath1_size=30", "--set", "propagator=rk4",
     "--set", "omega_grid=[0.5]", "--set", "n_samples=400", "--set", "mean_interval=0.5"],
    ["twobath", "--set", "bath1_size=10", "--set", "bath2_size=10",
     "--set", "step_size=0.02", "--set", "mean_interval=10", "--set", "n_samples=200",
     "--set", "warmup=100", "--set", "omega_grid=[0.55]"],
]
with tempfile.TemporaryDirectory() as out:
    loaded = set(sys.modules)
    codes = [main(argv + ["--seed-list", "1", "--out", out]) for argv in runs]
print(codes, sorted(m for m in set(sys.modules) - loaded
                    if m.partition(".")[0] in ("numpy", "scipy")))
"""
    assert _fresh_python(code).splitlines()[-1] == "[0, 0, 0, 0] []"


def test_manifest_records_numpy_its_blas_threads_and_the_cpus():
    """The manifest's environment object, from runs under one and two OpenBLAS threads.

    A multithreaded BLAS rounds the period map's products by how it
    splits them among its threads, so the count a run found is recorded:
    the count the getter reports (null where none is found), next to the
    one thread the run used (null where no setter is found), numpy's
    version, the BLAS's config string, the CPUs of the affinity mask and
    the processes of the run's one point.  OpenBLAS caps its
    threads at the CPUs, so the two counts found differ where there are
    two, and the call restores each.
    """
    script = """
import json, os, tempfile
import numpy as np
from finitebath import workers
from finitebath.cli import main
with tempfile.TemporaryDirectory() as out:
    code = main(["single", "--omega", "0.5", "--set", "bath1_size=20", "--set", "n_samples=200",
                 "--seed-list", "1", "--out", out])
    with open(os.path.join(out, "manifest.json")) as f:
        env = json.load(f)["environment"]
getter = workers.blas_threads
used = None if getter is None or workers._set_blas_threads is None else 1
print(json.dumps([code, env, None if getter is None else getter(), used, np.__version__,
                  len(os.sched_getaffinity(0)), workers.blas_config()]))
"""
    counts = []
    for threads in ("1", "2"):
        code, env, got, used, version, cpus, config = json.loads(_fresh_python(
            script, OPENBLAS_NUM_THREADS=threads).splitlines()[-1])
        assert code == EXIT_OK
        assert env == {"numpy": version, "blas_config": config,
                       "blas_threads": got, "blas_threads_used": used, "cpus": cpus,
                       "point_workers": [1]}
        counts.append(got)
    if counts[0] is not None:
        assert counts[0] == 1
        if cpus >= 2:
            assert counts[1] == 2


def test_a_run_gives_the_same_bytes_under_any_openblas_thread_count(tmp_path):
    """main runs numpy's BLAS on one thread, so a run's files do not depend on the count found.

    With OPENBLAS_NUM_THREADS unset, 1 and 2, in fresh interpreters: a
    multithreaded BLAS rounds the period map's products by how it splits
    them, which moved the combined curve of this 2 x 50 twobath run in
    its last digits.  The manifests differ only in their timestamps and
    the count found.
    """
    sets = {"bath1_size": 50, "bath2_size": 50, "bath1_mass": 0.004, "bath2_mass": 0.004,
            "renormalization": "static", "step_size": 1e-3, "mean_interval": 25.0,
            "n_samples": 200, "warmup": 100.0, "omega_grid": [0.55], "seeds": [1, 2]}
    argv = ["twobath"] + [arg for key, value in sets.items()
                          for arg in ("--set", f"{key}={json.dumps(value)}")]
    runs = []
    for threads in (None, "1", "2"):
        out = tmp_path / str(threads)
        _fresh_python("from finitebath.cli import main\n"
                      f"raise SystemExit(main({argv + ['--out', str(out)]!r}))",
                      OPENBLAS_NUM_THREADS=threads)
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        for key in ("started", "finished"):
            del manifest[key]
        del manifest["environment"]["blas_threads"]
        runs.append((files, manifest))
    assert sorted(runs[0][0]) == ["curve_bath1_alone.csv", "curve_bath2_alone.csv",
                                  "curve_combined.csv"]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _run_on_cpus(monkeypatch, out, cpus, argv):
    """main(argv) into out as if the process had `cpus` CPUs: its files, the manifest parsed."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    return files, json.loads(files.pop("manifest.json"))


def test_a_single_run_writes_the_same_bytes_on_any_number_of_cpus(tmp_path, monkeypatch):
    """At N = 900 one point on 1, 2 and 3 CPUs: every file keeps its bytes.

    The manifests differ only in their timestamps.
    """
    argv = ["single", "--omega", "0.5", "--set", "bath1_size=900", "--set", "n_samples=200",
            "--set", "seeds=[1]"]
    runs = []
    for cpus in (1, 2, 3):
        files, manifest = _run_on_cpus(monkeypatch, tmp_path / str(cpus), cpus, argv)
        for key in ("started", "finished"):
            del manifest[key]
        runs.append((files, manifest))
    assert runs[0][0]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_sweeps_files_keep_their_bytes_on_any_number_of_cpus(tmp_path, monkeypatch, capsys):
    """A three-seed `single` run and two-frequency sweeps on 1, 2 and 3 CPUs, as many point workers.

    The sweeps run the exact modes and RK4.  Every file keeps its bytes,
    histograms and summary included; the manifests differ only in their
    timestamps and the point workers they record.
    """
    sets = ["--set", "bath1_size=60", "--set", "n_samples=200", "--set", "seeds=[1,2,3]"]
    sweep = ["sweep", "--set", "omega_grid=[0.5, 0.7]"]
    for argv in (["single", "--omega", "0.5"], sweep, sweep + ["--set", "propagator=rk4"]):
        runs = []
        for cpus in (1, 2, 3):
            files, manifest = _run_on_cpus(monkeypatch, tmp_path / f"{argv[0]}{cpus}", cpus,
                                           argv + sets)
            assert manifest["environment"].pop("point_workers") == [cpus]
            for key in ("started", "finished"):
                del manifest[key]
            runs.append((files, manifest))
        assert len(runs[0][0]) == (7 if argv[0] == "single" else 1)
        assert runs[1] == runs[0] and runs[2] == runs[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oracle_kernel_starts_at_the_spring_sum(tmp_path):
    out = tmp_path / "run"
    bath = tmp_path / "bath.json"
    bath.write_text(json.dumps({k: v for k, v in QUICK.items() if k.startswith("bath1_")}))
    code = main(["oracle", "kernel", "--config", str(bath),
                 "--t-final", "10", "--n-points", "50", "--out", str(out)])
    assert code == EXIT_OK
    first = (out / "kernel.csv").read_text().strip().splitlines()[1]
    tau0, k0 = (float(x) for x in first.split(","))
    assert tau0 == 0.0
    # 150 oscillators, m = 0.01, <w^2> ~ 0.41 for the default band
    assert k0 == pytest.approx(150 * 0.01 * 0.41, rel=0.2)


@pytest.mark.parametrize("key", ["seeds", "bath2_size", "propagator"])
def test_oracle_kernel_refuses_keys_it_does_not_read(tmp_path, capsys, key):
    value = {"seeds": "[5]", "bath2_size": "4", "propagator": "rk4"}[key]
    out = tmp_path / "run"
    code = main(["oracle", "kernel", "--set", "bath1_size=50",
                 "--set", f"{key}={value}", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_oracle_langevin_runs_quickly(tmp_path):
    out = tmp_path / "run"
    code = main(["oracle", "langevin", "--gamma", "1", "--temperature", "2",
                 "--t-final", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "langevin.csv").read_text().strip().splitlines()
    assert lines[0] == "t,energy"
    rows = np.array([line.split(",") for line in lines[1:]], float)
    assert rows.shape == (LANGEVIN_POINTS, 2)
    assert rows[0, 0] == 0.0 and rows[-1, 0] == 5.0
    assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 2.0))


@pytest.mark.parametrize("argv, csv", [
    pytest.param(["langevin", "--gamma", "0.3", "--temperature", "2", "--omega", "0.7",
                  "--t-final", "30"], "langevin.csv", id="langevin"),
    pytest.param(["kernel", "--set", "bath1_size=20", "--set", "bath1_mass=0.02", "--seed", "3",
                  "--t-final", "7", "--n-points", "40"], "kernel.csv", id="kernel"),
    pytest.param(["mixture", "--t1", "2", "--t2", "7", "--e-max", "9", "--n-points", "30"],
                 "mixture.csv", id="mixture"),
])
def test_an_oracle_replays_from_its_manifest(tmp_path, argv, csv):
    """Each oracle records its flags (and kernel its bath keys) in config; rerun from them alone."""
    assert main(["oracle"] + argv + ["--out", str(tmp_path / "a")]) == EXIT_OK
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    assert {flag[2:].replace("-", "_") for flag in argv if flag.startswith("--")} - {"set"} \
        <= set(config)
    replay = ["oracle", argv[0]]
    for key, value in config.items():
        replay += (["--set", f"{key}={json.dumps(value)}"] if key.startswith("bath1_")
                   else [f"--{key.replace('_', '-')}", repr(value)])
    assert main(replay + ["--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "b" / csv).read_bytes() == (tmp_path / "a" / csv).read_bytes()
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["config"] == config


def _exit_code(argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


LANGEVIN = ["oracle", "langevin", "--gamma", "1", "--temperature", "2", "--t-final", "5"]


@pytest.mark.parametrize("argv", [
    pytest.param(["single", "--omega", "0.5", "--seed-list", "-1"], id="single-seed-list"),
    pytest.param(["single", "--omega", "nan"], id="single-omega-nan"),
    pytest.param(["single", "--omega", "inf"], id="single-omega-inf"),
    pytest.param(["sweep", "--set", "omega_grid=[0.5]", "--seed-list", "-1"],
                 id="sweep-seed-list"),
    pytest.param(["twobath", "--set", "omega_grid=[0.5]", "--set", "bath2_size=10",
                  "--seed-list", "-1"], id="twobath-seed-list"),
    pytest.param(["single", "--omega", "0.5", "--set", "seeds=[-2]"], id="set-seeds"),
    # a repeated seed is the same fit again and would shrink sigma as if independent
    pytest.param(["single", "--omega", "0.5", "--seed-list", "1", "1"],
                 id="single-seed-list-repeated"),
    pytest.param(["single", "--omega", "0.5", "--set", "seeds=[2,3,2]"],
                 id="set-seeds-repeated"),
    pytest.param(["sweep", "--set", "omega_grid=[0.5]", "--seed-list", "4", "4"],
                 id="sweep-seed-list-repeated"),
    pytest.param(["twobath", "--set", "omega_grid=[0.5]", "--set", "bath2_size=10",
                  "--seed-list", "1", "1"], id="twobath-seed-list-repeated"),
    pytest.param(["oracle", "kernel", "--seed", "-1"], id="kernel-seed"),
    # flags that oracle langevin does not have: argparse refuses each
    pytest.param(LANGEVIN + ["--seed", "-1"], id="langevin-seed"),
    pytest.param(LANGEVIN + ["--dt", "0"], id="langevin-dt"),
    pytest.param(LANGEVIN + ["--stride", "0"], id="langevin-stride-0"),
    pytest.param(LANGEVIN + ["--stride", "100000", "--t-final", "1"],
                 id="langevin-stride-beyond-the-run"),
    pytest.param(LANGEVIN + ["--n-paths", "-3"], id="langevin-n-paths-negative"),
    pytest.param(LANGEVIN + ["--n-paths", "0"], id="langevin-n-paths-0"),
    pytest.param(LANGEVIN + ["--mass", "2"], id="langevin-mass"),
    pytest.param(LANGEVIN + ["--gamma", "-1"], id="langevin-gamma"),
    pytest.param(LANGEVIN + ["--temperature", "-1"], id="langevin-temperature"),
    pytest.param(["oracle", "mixture", "--t1", "0", "--t2", "10"], id="mixture-t1"),
    pytest.param(["oracle", "kernel", "--n-points", "-1"], id="kernel-n-points"),
    pytest.param(["exchange", "--n-periods", "-1"], id="degenerate-n-periods"),
    # flags an oracle does not read are refused, not silently recorded
    pytest.param(LANGEVIN + ["--seed-list", "1"], id="langevin-seed-list"),
    pytest.param(["oracle", "mixture", "--t1", "5", "--t2", "10", "--set", "bath1_size=3"],
                 id="mixture-set"),
    pytest.param(["exchange", "--set", "seeds=[2]"], id="degenerate-set"),
    pytest.param(["oracle", "kernel", "--seed-list", "1"], id="kernel-seed-list"),
])
def test_bad_seeds_and_oracle_flags_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert _exit_code(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv, named", [
    # the phase Omega t or the decay gamma t at --t-final leaves the doubles
    pytest.param(LANGEVIN + ["--omega", "1e154", "--t-final", "1e155"], "omega",
                 id="langevin-steps"),
    pytest.param(LANGEVIN + ["--gamma", "10", "--omega", "0", "--t-final", "1e308"], "gamma",
                 id="langevin-steps-overflow"),
    pytest.param(["oracle", "kernel", "--n-points", "100000"], "--n-points",
                 id="kernel-table"),
    pytest.param(["oracle", "kernel", "--n-points", "1000001"], "--n-points",
                 id="kernel-points"),
    pytest.param(["oracle", "mixture", "--t1", "5e-324", "--t2", "10"], "--t1",
                 id="mixture-density-overflows"),
])
def test_oracle_runs_beyond_the_doubles_or_their_caps_exit_2(tmp_path, capsys, argv, named):
    """An oracle run that would write non-finite numbers, or run for hours, is refused up front."""
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _exit_code(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("argv", [
    pytest.param(["--gamma", "1", "--temperature", "1e308"], id="temperature-1e308"),
    pytest.param(["--gamma", "1", "--temperature", "2", "--t-final", "1e300"], id="long-run"),
    pytest.param(["--gamma", "1e300", "--temperature", "2", "--t-final", "1"], id="gamma-1e300"),
    pytest.param(["--gamma", "0.1", "--temperature", "1", "--omega", "1e150"], id="omega-1e150"),
    pytest.param(["--gamma", "0", "--temperature", "3"], id="gamma-0"),
    pytest.param(["--gamma", "2", "--temperature", "3", "--omega", "0"], id="omega-0"),
])
def test_oracle_langevin_far_out_writes_energies_in_0_t(tmp_path, argv):
    """Far-out temperatures, run lengths and rates give finite energies in [0, T]."""
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", "langevin"] + argv + ["--out", str(out)]) == EXIT_OK
    temperature = float(argv[argv.index("--temperature") + 1])
    rows = np.array([line.split(",") for line in
                     (out / "langevin.csv").read_text().splitlines()[1:]], float)
    assert len(rows) == LANGEVIN_POINTS
    assert np.all(np.isfinite(rows))
    assert np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= temperature))


def test_oracle_mixture_far_beyond_its_temperatures_is_finite(tmp_path):
    """An E / T beyond the doubles is a Boltzmann factor of 0, without a warning."""
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["oracle", "mixture", "--t1", "1e-300", "--t2", "1e308",
                     "--e-max", "1e300", "--out", str(out)])
    assert code == EXIT_OK
    rows = (out / "mixture.csv").read_text().splitlines()[1:]
    values = np.array([row.split(",") for row in rows], float)
    assert np.all(np.isfinite(values))
    assert values[0, 2] == 0.5 * 1e-300 + 0.5 * 1e308


@pytest.mark.parametrize("argv", [
    LANGEVIN + ["--omega", "-1"],
    LANGEVIN + ["--gamma", "nan"],
    ["oracle", "mixture", "--t1", "5", "--t2", "10", "--e-max", "-1"],
    ["exchange", "--e0", "-1"],
    ["exchange", "--e0", "inf"],
    ["exchange", "--omega-r", "nan"],
    LANGEVIN + ["--omega", "1e200"],
    ["exchange", "--omega-r", "1e200"],
], ids=["langevin-omega", "langevin-gamma-nan", "mixture-e-max",
        "degenerate-e0-negative", "degenerate-e0-inf", "degenerate-omega-r-nan",
        "langevin-omega-square-overflows", "degenerate-omega-r-square-overflows"])
def test_oracle_physical_flags_are_range_checked(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert _exit_code(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert "must be a finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["sweep", "--set", "bath1_omega_uv=1e154", "--set", "bath1_size=20",
                  "--set", "omega_grid=[0.5]", "--set", "seeds=[1]"], id="sweep-omega-uv"),
    pytest.param(["exchange", "--omega-r", "1e150"], id="exchange-omega-r"),
    pytest.param(["oracle", "langevin", "--omega", "1e150", "--gamma", "0.1",
                  "--temperature", "1", "--t-final", "1e160"], id="langevin-omega"),
])
def test_frequencies_whose_higher_powers_overflow_exit_2(tmp_path, capsys, argv):
    """Squares are finite, but the normal modes form omega^6 and the phase omega t overflows."""
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(out.glob("*"))


@pytest.mark.parametrize("argv", [
    pytest.param(["exchange", "--e0", "5e-324"], id="e0-below-the-bath-rounding"),
    pytest.param(["exchange", "--e0", "1e307"], id="e0-overflowing-the-trace-sums"),
    pytest.param(["exchange", "--omega-r", "1e-300"], id="omega-r-underflowing-the-modes"),
    pytest.param(["exchange", "--n-periods", str(10**400)], id="n-periods-overflowing-the-trace"),
])
def test_exchange_energies_and_frequencies_beyond_double_range_exit_2(tmp_path, capsys, argv):
    """Once a ValueError traceback from the arcsine check, a RuntimeWarning and exit 3.

    10^400 beat periods ended in an OverflowError traceback, exit 1.
    """
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_exchange_refuses_a_splitting_below_double_precision(tmp_path, capsys):
    # at xi = 1e-30 the splitting is 1e-15 of omega_r: the trace would sit at
    # e0 and the arcsine check would end in a ValueError traceback
    out = tmp_path / "tiny"
    argv = ["exchange", "--size", "20", "--n-periods", "4", "--out", str(out)]
    assert main(argv + ["--xi", "1e-30"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: xi=1e-30 splits the resonance")
    assert "Traceback" not in err
    assert not out.exists()
    assert main(argv + ["--xi", "1e-12"]) == EXIT_OK
    assert (out / "exchange.csv").exists() and (out / "summary.json").exists()


def test_only_the_exchange_records_scipys_version(tmp_path):
    """The exchange's arcsine check loads scipy.stats, and its manifest records scipy's version.

    A single run loads no scipy, and its manifest has no scipy key.
    """
    import scipy

    argv = ["exchange", "--size", "20", "--n-periods", "4", "--out", str(tmp_path / "exchange")]
    assert main(argv) == EXIT_OK
    assert main(["single", "--omega", "0.5", "--set", "bath1_size=20", "--set", "n_samples=200",
                 "--seed-list", "1", "--out", str(tmp_path / "single")]) == EXIT_OK
    environment = {run: json.loads((tmp_path / run / "manifest.json").read_text())["environment"]
                   for run in ("exchange", "single")}
    assert environment["exchange"]["scipy"] == scipy.__version__
    assert "scipy" not in environment["single"]


def test_fit_round_trips_a_stored_histogram(tmp_path, capsys):
    edges = np.linspace(0.0, 8.0, 41)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.rint(2000.0 * np.exp(-centers / 3.7)).astype(int)
    lines = ["bin_lo,bin_hi,count"] + [
        f"{lo},{hi},{c}" for lo, hi, c in zip(edges[:-1], edges[1:], counts)]
    path = tmp_path / "hist.csv"
    path.write_text("\n".join(lines) + "\n")
    json_out = tmp_path / "fit.json"
    code = main(["fit", str(path), "--json-out", str(json_out)])
    assert code == EXIT_OK
    assert "T = " in capsys.readouterr().out
    result = json.loads(json_out.read_text())
    assert result["temperature"] == pytest.approx(3.7, rel=0.02)


def test_fit_rejects_rising_histograms(tmp_path, capsys):
    lines = ["bin_lo,bin_hi,count"] + [
        f"{i},{i + 1},{2 ** i}" for i in range(8)]
    path = tmp_path / "hist.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["fit", str(path)]) == EXIT_FIT
    assert "not thermal" in capsys.readouterr().err


def test_fit_missing_file_is_a_config_error(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv")]) == EXIT_CONFIG
    assert "cannot read histogram" in capsys.readouterr().err


def test_fit_header_only_histogram_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("bin_lo,bin_hi,count\n")
    assert main(["fit", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "has no bins" in err and "Traceback" not in err


@pytest.mark.parametrize("rows,message", [
    (["nan,1,9", "1,2,5", "2,3,2"], "edges must be finite"),
    (["0,1,9", "1,inf,5"], "edges must be finite"),
    (["0,1,9", "1,1,5", "1,2,2"], "strictly increase"),
    (["0,2,9", "2,1,5"], "strictly increase"),
    (["0,1,9", "1.5,2,5", "2,3,2"], "previous bin_hi"),
    (["0,1,9", "1,2,-5", "2,3,2", "3,4,1"], "non-negative"),
    (["0,1,9", "1,2"], "bad.csv: line 3: not enough values to unpack"),
    (["0,1,9", "1,2,5", "2,3,x"], "bad.csv: line 4: invalid literal for int()"),
    # a lone surrogate escape writes the byte 0xff, which is not UTF-8
    (["0,1,9", "1,2,\udcff"], "bad.csv: 'utf-8' codec can't decode byte 0xff"),
], ids=["nan-edge", "inf-edge", "empty-bin", "falling-edge", "gap", "negative-count",
        "two-fields", "non-integer-count", "not-utf-8"])
def test_fit_malformed_histogram_is_a_config_error(tmp_path, capsys, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["bin_lo,bin_hi,count"] + rows) + "\n", errors="surrogateescape")
    assert main(["fit", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
