"""Flat JSON run configs and their translation to sweep specs."""

import re
from pathlib import Path

import pytest

from finitebath import config
from finitebath.config import ConfigError, build_sweep_spec, check_config

GOOD = {
    "omega_grid": [0.3, 0.5],
    "mass": 1.0,
    "initial_energy": 0.5,
    "seeds": [1, 2, 3],
    "bath1_size": 300,
    "bath1_mass": 0.01,
    "bath1_temperature": 5.0,
    "bath1_dos": "uniform",
    "bath1_omega_ir": 0.2,
    "bath1_omega_uv": 1.0,
    "mean_interval": 4.0,
    "n_samples": 500,
    "warmup": 100.0,
    "n_bins": 30,
    "span_factor": 6.0,
    "propagator": "eigen",
}


def test_happy_path_builds_the_full_spec():
    spec = build_sweep_spec(check_config(GOOD))
    assert spec.omega_grid == (0.3, 0.5)
    assert spec.seeds == (1, 2, 3)
    assert spec.bath1.size == 300
    assert spec.bath1.dos.family == "uniform"
    assert spec.bath2 is None
    assert spec.plan.n_samples == 500
    assert spec.plan.warmup == 100.0
    assert spec.n_bins == 30
    assert spec.propagator == "eigen"
    assert spec.initial_energy == 0.5


def test_second_bath_appears_when_any_of_its_keys_do():
    cfg = {key: value for key, value in GOOD.items() if key != "propagator"}
    cfg.update(bath2_temperature=10.0, bath2_size=200, renormalization="static",
               delta_t_steps=2, step_size=0.01)
    spec = build_sweep_spec(check_config(cfg))
    assert spec.bath2 is not None
    assert spec.bath2.temperature == 10.0
    assert spec.bath2.size == 200
    assert spec.renormalization == "static"
    assert (spec.delta_t_steps, spec.step_size) == (2, 0.01)


@pytest.mark.parametrize("key,extra", [
    ("propagator", {"propagator": "rk4", "bath2_size": 20}),
    ("delta_t_steps", {"delta_t_steps": 2}),
    ("renormalization", {"renormalization": "static", "propagator": "rk4"}),
    ("step_size", {"step_size": 0.01}),
    ("step_size", {"step_size": 0.01, "propagator": "eigen"}),
])
def test_keys_a_run_never_reads_are_refused(key, extra):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        build_sweep_spec({"omega": 0.5, **extra})
    # the same key where the run reads it
    if key == "step_size":
        spec = build_sweep_spec({"omega": 0.5, **extra, "propagator": "rk4"})
        assert spec.step_size == 0.01


def test_unknown_keys_fail_loudly():
    with pytest.raises(ConfigError, match="unknown config key 'omga'"):
        check_config({"omga": 0.5})


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="bath1_size"):
        check_config({"bath1_size": "big"})
    with pytest.raises(ConfigError, match="omega_grid"):
        check_config({"omega_grid": []})
    with pytest.raises(ConfigError, match=r"seeds\[1\]"):
        check_config({"seeds": [1, 2.5]})
    with pytest.raises(ConfigError, match="propagator"):
        check_config({"propagator": "verlet"})


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError, match="mass"):
        check_config({"mass": True})


def test_whole_floats_pass_as_integers():
    assert check_config({"n_samples": 500.0}) == {"n_samples": 500}


def test_single_omega_key_becomes_a_grid():
    spec = build_sweep_spec({"omega": 0.7})
    assert spec.omega_grid == (0.7,)


def test_omega_grid_beats_single_omega():
    spec = build_sweep_spec({"omega": 0.7, "omega_grid": (0.2, 0.4)})
    assert spec.omega_grid == (0.2, 0.4)


def test_overrides_beat_the_config():
    spec = build_sweep_spec({"omega": 0.7, "omega_grid": (0.9, 1.1), "seeds": [1, 2]},
                            seeds_override=[5])
    assert spec.omega_grid == (0.9, 1.1)
    assert spec.seeds == (5,)
    single = build_sweep_spec({"omega_grid": (0.9, 1.1)}, omega_override=0.7)
    assert single.omega_grid == (0.7,)


def test_missing_frequency_is_rejected():
    with pytest.raises(ConfigError, match="omega or omega_grid"):
        build_sweep_spec({"mass": 1.0})


def test_bad_band_is_reported_with_its_bath():
    cfg = {"omega": 0.5, "bath1_omega_ir": 1.0, "bath1_omega_uv": 0.2}
    with pytest.raises(ConfigError, match="bath1"):
        build_sweep_spec(cfg)


def test_bad_plan_and_spec_values_become_config_errors():
    with pytest.raises(ConfigError, match="at least 100"):
        build_sweep_spec({"omega": 0.5, "n_samples": 10})
    with pytest.raises(ConfigError, match="initial_energy"):
        build_sweep_spec({"omega": 0.5, "initial_energy": -2.0})


def test_a_mass_that_overflows_is_refused_in_its_own_words():
    with pytest.raises(ConfigError, match=r"mass=1e\+308 overflows the particle's 2 M"):
        build_sweep_spec({"omega": 0.5, "mass": 1e308})
    with pytest.raises(ConfigError, match=r"stiffness M omega\^2 at omega=50"):
        build_sweep_spec({"omega_grid": (0.5, 50.0), "mass": 1e307})


def test_the_readme_names_every_config_key():
    """The rows of README's "Config keys" table name each key once; `bath2_*` the second bath's."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("### Config keys")[1].split("\n## ")[0]
    named = []
    for row in table.splitlines():
        if row.startswith("| `"):
            named += re.findall(r"`([a-z0-9_*]+)`", row.split("|")[1])
    bath = [key[len("bath1_"):] for key in config._CASTERS if key.startswith("bath1_")]
    assert "bath2_*" in named
    named = [key for key in named if key != "bath2_*"] + [f"bath2_{key}" for key in bath]
    assert sorted(named) == sorted(config._CASTERS)
