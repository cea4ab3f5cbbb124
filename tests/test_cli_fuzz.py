"""Bad input as a property: CLI runs at boundary bath masses, sizes, schedules and sampling keys.

Every run must end in a documented exit code (0 success, 2 configuration
error, 3 numerical failure, 4 fit failure), raise nothing and emit no
warning: a run explains itself in its files, not on stderr.  A run that
fails (3 or 4) names each failed point in its manifest.  The examples
are derandomized, so the test is the same on every run.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import cli

MASSES = [5e-324, 1e-300, 1e-12, 1e-6, 1e6, 1e12, 1e100]
DELTA_T_STEPS = [1, 2, 7, 100, 2000]
STEP_SIZES = [1e-4, 1e-3, 0.02, 0.5, 5.0]
TEMPERATURES = [0.0, 5e-324, 1e-6, 7.5, 1e6, 1e300]
OMEGAS = [1e-3, 0.55, 1.0, 50.0]
# the sampling keys of a sweep, each left unset or drawn from its boundary set
BOUNDARY = [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1e6, 1e154, 1e300]
SAMPLING = {"n_samples": [-1, 0, 99, 100, 2000], "mean_interval": BOUNDARY + [1e308],
            "warmup": BOUNDARY, "n_bins": [-1, 4, 5, 40, 10**6],
            "span_factor": BOUNDARY + [1e308]}
# the label of each curve's failures in the manifest
CURVES = {"curve.csv": "", "curve_combined.csv": "", "curve_bath1_alone.csv": "bath1 alone: ",
          "curve_bath2_alone.csv": "bath2 alone: "}


def _run_cli(argv):
    """Run argv into a fresh directory: (exit code, manifest or None, failed points).

    Asserts that the run ends in a documented exit code, warns nothing
    and writes no warning to stderr.  A failed point is (curve CSV,
    omega) for each row of a curve without a finite temperature.
    """
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--out", out])
        path = Path(out) / "manifest.json"
        manifest = json.loads(path.read_text()) if path.exists() else None
        failed = []
        for name in CURVES:
            if (Path(out) / name).exists():
                rows = (Path(out) / name).read_text().splitlines()[1:]
                failed += [(name, float(row.split(",")[0])) for row in rows
                           if not math.isfinite(float(row.split(",")[1]))]
    assert code in (0, 2, 3, 4), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Warning" not in stderr.getvalue(), (argv, stderr.getvalue())
    return code, manifest, failed


@st.composite
def runs(draw):
    """(subcommand, config overrides): bath 1, and bath 2 for twobath or a switched sweep."""
    command = draw(st.sampled_from(["sweep", "twobath"]))
    baths = (1, 2) if command == "twobath" or draw(st.booleans()) else (1,)
    keys = {}
    for b in baths:
        keys[f"bath{b}_size"] = draw(st.integers(min_value=1, max_value=30))
        keys[f"bath{b}_mass"] = draw(st.sampled_from(MASSES))
    return command, keys


@given(run=runs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_boundary_bath_masses_end_in_a_documented_exit_code(run):
    command, keys = run
    sets = [f"{key}={value!r}" for key, value in keys.items()]
    sets += ["omega_grid=[0.5]", "seeds=[1]", "n_samples=200"]
    _run_cli([command] + [arg for s in sets for arg in ("--set", s)])


@st.composite
def schedules(draw):
    """twobath config overrides: bath sizes, the switching schedule, temperatures, one omega."""
    keys = {f"bath{b}_size": draw(st.integers(min_value=1, max_value=30)) for b in (1, 2)}
    keys["delta_t_steps"] = draw(st.sampled_from(DELTA_T_STEPS))
    keys["step_size"] = draw(st.sampled_from(STEP_SIZES))
    keys["renormalization"] = draw(st.sampled_from(["switched", "static"]))
    for b in (1, 2):
        keys[f"bath{b}_temperature"] = draw(st.sampled_from(TEMPERATURES))
    keys["omega_grid"] = [draw(st.sampled_from(OMEGAS))]
    return keys


def _assert_failures_named(keys, code, manifest, failed):
    """A run that exits 3 or 4 names each failed point of each curve (seed 1) in its manifest."""
    if code in (3, 4):
        assert manifest is not None and failed, (keys, code)
        for name, omega in failed:
            label = CURVES[name]
            assert any(entry[0] == omega and entry[1] == 1
                       and (entry[2].startswith(label) if label
                            else not entry[2].startswith("bath"))
                       for entry in manifest["failures"]), (keys, name, manifest["failures"])


@given(keys=schedules())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_boundary_schedules_end_in_a_documented_exit_code(keys):
    sets = [f"{key}={json.dumps(value)}" for key, value in keys.items()]
    sets += ["seeds=[1]", "n_samples=200"]
    code, manifest, failed = _run_cli(["twobath"] + [arg for s in sets for arg in ("--set", s)])
    _assert_failures_named(keys, code, manifest, failed)


@st.composite
def samplings(draw):
    """sweep config overrides: a bath size, the sampling keys and a grid of 2 or 3 frequencies.

    The grid's points run on the sweep's point threads.
    """
    keys = {"bath1_size": draw(st.integers(min_value=1, max_value=30))}
    for key, values in SAMPLING.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            keys[key] = value
    keys["omega_grid"] = draw(st.lists(st.sampled_from(OMEGAS), min_size=2, max_size=3))
    return keys


@given(keys=samplings())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_boundary_sampling_keys_end_in_a_documented_exit_code(keys):
    sets = [f"{key}={json.dumps(value)}" for key, value in keys.items()] + ["seeds=[1]"]
    code, manifest, failed = _run_cli(["sweep"] + [arg for s in sets for arg in ("--set", s)])
    _assert_failures_named(keys, code, manifest, failed)
