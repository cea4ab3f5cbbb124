"""Flat key-value run configuration.

Configs are JSON objects one level deep: numbers, strings, booleans and
lists of numbers only.  Unknown keys are rejected so typos fail loudly,
and every error message names the offending key.
"""

from __future__ import annotations

import math

from .model import INVERSE_SQUARE, SQUARE, UNIFORM, BathSpec, DensityOfStates
from .stats import SamplingPlan
from .experiments import SweepSpec


class ConfigError(ValueError):
    """A run configuration could not be understood."""


def _as_float(key, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _as_frequency(key, value):
    # the propagators square every frequency (stiffness, energies)
    value = _as_float(key, value)
    if not math.isfinite(value * value):
        raise ConfigError(f"{key}: the square of frequency {value!r} overflows")
    return value


def _as_frequency_list(key, value):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a non-empty list of numbers, got {value!r}")
    return tuple(_as_frequency(f"{key}[{i}]", v) for i, v in enumerate(value))


def _as_int(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _as_int_list(key, value):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a non-empty list of integers, got {value!r}")
    return tuple(_as_int(f"{key}[{i}]", v) for i, v in enumerate(value))


def _as_choice(choices):
    def cast(key, value):
        if value not in choices:
            raise ConfigError(f"{key}: expected one of {sorted(choices)}, got {value!r}")
        return value
    return cast


_BATH_KEYS = ("size", "mass", "temperature", "dos", "omega_ir", "omega_uv")

_CASTERS = {
    "mass": _as_float,
    "omega": _as_frequency,
    "omega_grid": _as_frequency_list,
    "initial_energy": _as_float,
    "seeds": _as_int_list,
    "n_samples": _as_int,
    "mean_interval": _as_float,
    "warmup": _as_float,
    "n_bins": _as_int,
    "span_factor": _as_float,
    "propagator": _as_choice({"eigen", "rk4"}),
    "delta_t_steps": _as_int,
    "step_size": _as_float,
    "renormalization": _as_choice({"switched", "static"}),
}
for _prefix in ("bath1", "bath2"):
    _CASTERS.update({
        f"{_prefix}_size": _as_int,
        f"{_prefix}_mass": _as_float,
        f"{_prefix}_temperature": _as_float,
        f"{_prefix}_dos": _as_choice({UNIFORM, INVERSE_SQUARE, SQUARE}),
        f"{_prefix}_omega_ir": _as_frequency,
        f"{_prefix}_omega_uv": _as_frequency,
    })


def check_config(raw: dict) -> dict:
    """Type-check an already decoded flat config mapping."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    out = {}
    for key, value in raw.items():
        if key not in _CASTERS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _CASTERS[key](key, value)
    return out


def build_bath(cfg: dict, prefix: str, required: bool) -> BathSpec | None:
    """The bath that the prefix_* keys describe, None if absent and not required."""
    keys = {k: cfg[f"{prefix}_{k}"] for k in _BATH_KEYS if f"{prefix}_{k}" in cfg}
    if not keys and not required:
        return None
    defaults = BathSpec()
    dos_kwargs = {}
    if "dos" in keys:
        dos_kwargs["family"] = keys["dos"]
    if "omega_ir" in keys:
        dos_kwargs["omega_ir"] = keys["omega_ir"]
    if "omega_uv" in keys:
        dos_kwargs["omega_uv"] = keys["omega_uv"]
    try:
        dos = DensityOfStates(**dos_kwargs) if dos_kwargs else defaults.dos
        bath = BathSpec(size=keys.get("size", defaults.size),
                        mass=keys.get("mass", defaults.mass),
                        temperature=keys.get("temperature", defaults.temperature),
                        dos=dos)
    except ValueError as err:
        raise ConfigError(f"{prefix}: {err}") from err
    # an oscillator's stiffness m w^2 divides its energy into the squared
    # position amplitude 2 E / (m w^2), largest at omega_ir
    stiffness = bath.mass * dos.omega_ir**2
    if stiffness == 0.0 or not math.isfinite(2.0 * bath.temperature / stiffness):
        raise ConfigError(f"{prefix}_mass: at {bath.mass!r} the squared position amplitude "
                          f"2 T / (m omega_ir^2) = 2 * {bath.temperature!r} / {stiffness!r} overflows")
    return bath


def _refuse_unread(cfg: dict, two_bath: bool) -> None:
    """ConfigError naming a run key that this kind of run never reads.

    A run with bath2 samples its switched curve by RK4 and each bath
    alone through the exact modes, whatever the propagator; a one-bath
    run has no schedule and no idle bath; the exact modes take no step.
    """
    if two_bath:
        unread = {"propagator": "a run with bath2"}
    else:
        unread = dict.fromkeys(("delta_t_steps", "renormalization"), "a run without bath2")
        if cfg.get("propagator", "eigen") == "eigen":
            unread["step_size"] = "the eigen propagator"
    for key, run in unread.items():
        if key in cfg:
            raise ConfigError(f"{key}: {run} never reads it")


def build_sweep_spec(cfg: dict, omega_override=None,
                     seeds_override=None) -> SweepSpec:
    """Assemble the sweep description a config describes.

    omega_override (one frequency) and seeds_override take precedence
    over the config values, which is how command line flags win over
    the file.
    """
    cfg = dict(cfg)
    if omega_override is not None:
        cfg["omega_grid"] = (_as_frequency("--omega", omega_override),)
    elif "omega" in cfg and "omega_grid" not in cfg:
        cfg["omega_grid"] = (cfg["omega"],)
    if "omega_grid" not in cfg:
        raise ConfigError("config needs omega or omega_grid")
    if seeds_override is not None:
        cfg["seeds"] = tuple(int(s) for s in seeds_override)

    bath1 = build_bath(cfg, "bath1", required=True)
    bath2 = build_bath(cfg, "bath2", required=False)
    _refuse_unread(cfg, bath2 is not None)

    plan_kwargs = {}
    for key, name in (("mean_interval", "mean_interval"),
                      ("n_samples", "n_samples"), ("warmup", "warmup")):
        if key in cfg:
            plan_kwargs[name] = cfg[key]
    try:
        plan = SamplingPlan(**plan_kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    kwargs = dict(omega_grid=tuple(cfg["omega_grid"]), bath1=bath1, bath2=bath2,
                  plan=plan)
    for key, name in (("mass", "tp_mass"), ("initial_energy", "initial_energy"),
                      ("seeds", "seeds"), ("n_bins", "n_bins"),
                      ("span_factor", "span_factor"), ("propagator", "propagator"),
                      ("delta_t_steps", "delta_t_steps"), ("step_size", "step_size"),
                      ("renormalization", "renormalization")):
        if key in cfg:
            kwargs[name] = cfg[key]
    try:
        return SweepSpec(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
