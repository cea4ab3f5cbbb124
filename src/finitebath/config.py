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


# One table per object a config builds: key -> (caster, the field the key
# sets).  The object is built from the fields its keys set, so every other
# field keeps its dataclass default.  A bath's keys carry its prefix.
_SWEEP = {
    "omega_grid": (_as_frequency_list, "omega_grid"),
    "mass": (_as_float, "tp_mass"),
    "initial_energy": (_as_float, "initial_energy"),
    "seeds": (_as_int_list, "seeds"),
    "n_bins": (_as_int, "n_bins"),
    "span_factor": (_as_float, "span_factor"),
    "propagator": (_as_choice({"eigen", "rk4"}), "propagator"),
    "delta_t_steps": (_as_int, "delta_t_steps"),
    "step_size": (_as_float, "step_size"),
    "renormalization": (_as_choice({"switched", "static"}), "renormalization"),
}
_PLAN = {
    "mean_interval": (_as_float, "mean_interval"),
    "n_samples": (_as_int, "n_samples"),
    "warmup": (_as_float, "warmup"),
}
_BATH = {
    "size": (_as_int, "size"),
    "mass": (_as_float, "mass"),
    "temperature": (_as_float, "temperature"),
}
_DOS = {
    "dos": (_as_choice({UNIFORM, INVERSE_SQUARE, SQUARE}), "family"),
    "omega_ir": (_as_frequency, "omega_ir"),
    "omega_uv": (_as_frequency, "omega_uv"),
}

# omega is the one-point omega_grid
_CASTERS = {"omega": _as_frequency,
            **{key: cast for key, (cast, _) in (_SWEEP | _PLAN).items()},
            **{f"{prefix}_{key}": cast for prefix in ("bath1", "bath2")
               for key, (cast, _) in (_BATH | _DOS).items()}}


def _fields(cfg: dict, table: dict, prefix: str = "") -> dict:
    """field -> value for each key of the table that cfg sets."""
    return {name: cfg[prefix + key] for key, (_, name) in table.items() if prefix + key in cfg}


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
    fields = _fields(cfg, _BATH, f"{prefix}_")
    dos = _fields(cfg, _DOS, f"{prefix}_")
    if not fields and not dos and not required:
        return None
    try:
        if dos:
            fields["dos"] = DensityOfStates(**dos)
    except ValueError as err:
        raise ConfigError(f"{prefix}: {err}") from err
    try:
        bath = BathSpec(**fields)
    except ValueError as err:     # the message begins with the field, so this names the key
        raise ConfigError(f"{prefix}_{err}") from err
    # an oscillator's stiffness m w^2 divides its energy into the squared
    # position amplitude 2 E / (m w^2), largest at omega_ir
    stiffness = bath.mass * bath.dos.omega_ir**2
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
        if cfg.get("propagator", SweepSpec.propagator) == "eigen":
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

    try:
        plan = SamplingPlan(**_fields(cfg, _PLAN))
        return SweepSpec(bath1=bath1, bath2=bath2, plan=plan, **_fields(cfg, _SWEEP))
    except ValueError as err:
        raise ConfigError(str(err)) from err
