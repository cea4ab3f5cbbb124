"""Bad input as a property: CLI runs at boundary bath masses, bands, sizes, schedules,
sampling keys, single-bath keys, particle masses, seeds, frequencies and --out targets,
exchange and oracle flags, and fit's histograms and --json-out targets.

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
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitebath import cli, config
from finitebath.model import MAX_BATH_SIZE, MAX_BINS, MAX_SAMPLES
from finitebath.propagator import FAR_FIELD_ROOTS

MASSES = [5e-324, 1e-300, 1e-12, 1e-6, 1e6, 1e12, 1e100]
BAND_EDGES = [5e-324, 1e-300, 1e-6, 0.01, 0.2, 1.0, 10.0, 1e6, 1e154]
DOS_FAMILIES = ["uniform", "inverse_square", "square"]
DELTA_T_STEPS = [1, 2, 7, 100, 2000]
STEP_SIZES = [1e-4, 1e-3, 0.02, 0.5, 5.0]
TEMPERATURES = [0.0, 5e-324, 1e-6, 7.5, 1e6, 1e300]
OMEGAS = [1e-3, 0.55, 1.0, 50.0]
# the sampling keys of a sweep, each left unset or drawn from its boundary set;
# the counts beyond their bounds are refused before anything is allocated
BOUNDARY = [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1e6, 1e154, 1e300]
SAMPLING = {"n_samples": [-1, 0, 99, 100, 2000, MAX_SAMPLES + 1, 2**63 - 1],
            "mean_interval": BOUNDARY + [1e308],
            "warmup": BOUNDARY, "n_bins": [-1, 4, 5, 40, 10**6, MAX_BINS + 1, 2**63 - 1],
            "span_factor": BOUNDARY + [1e308]}
# bath sizes: small enough to run, or above MAX_BATH_SIZE up to the int64
# range, which a run refuses (exit 2) before it allocates anything
SIZES = st.integers(min_value=1, max_value=30) | st.integers(min_value=MAX_BATH_SIZE + 1,
                                                             max_value=2**63 - 1)
# the single-bath properties' sizes: SIZES; in about one draw of eight a
# bath from FAR_FIELD_ROOTS to 4096 oscillators, whose factorization solves
# its roots and sums over its poles and roots by the far field; and in
# about one of eight a bath from 31 to FAR_FIELD_ROOTS - 1, the dense
# path's largest sizes.  Each range gives eight sizes spaced evenly in
# log N: a draw of an integer in it lands mostly on its lower end
FAR_SIZES = [round(FAR_FIELD_ROOTS * (4096 / FAR_FIELD_ROOTS) ** (i / 7)) for i in range(8)]
DENSE_SIZES = [round(31 * ((FAR_FIELD_ROOTS - 1) / 31) ** (i / 7)) for i in range(8)]
SINGLE_SIZES = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from(FAR_SIZES) if k == 0
    else st.sampled_from(DENSE_SIZES) if k == 1 else SIZES)
# the label of each curve's failures in the manifest
CURVES = {"curve.csv": "", "curve_combined.csv": "", "curve_bath1_alone.csv": "bath1 alone: ",
          "curve_bath2_alone.csv": "bath2 alone: "}


def _run_cli(argv, finite=False, target=None):
    """Run argv into a fresh directory: (exit code, manifest or None, failed points).

    Asserts that the run ends in a documented exit code, warns nothing
    and writes no warning to stderr; with finite, that every number in
    the CSVs it writes is finite, and every Langevin energy in [0, T].  A failed point is (curve CSV, omega)
    for each row of a curve without a finite temperature.  With target,
    --out is that path in a directory that holds the directory `dir` and
    the file `file.txt`, which the run must leave as it was.
    """
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        out = Path(tmp)
        if target is not None:
            (out / "dir").mkdir()
            (out / "file.txt").write_text("kept\n")
            out = out / target
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--out", str(out)])
        path = out / "manifest.json"
        manifest = json.loads(path.read_text()) if path.exists() else None
        failed = []
        for name in CURVES:
            if (out / name).exists():
                rows = (out / name).read_text().splitlines()[1:]
                failed += [(name, float(row.split(",")[0])) for row in rows
                           if not math.isfinite(float(row.split(",")[1]))]
        for path in out.glob("*.csv") if finite else ():
            rows = [[float(x) for x in row.split(",")] for row in path.read_text().splitlines()[1:]]
            assert all(math.isfinite(x) for row in rows for x in row), (argv, path.name)
            if path.name == "langevin.csv":
                top = manifest["config"]["temperature"]
                assert all(0.0 <= energy <= top for _, energy in rows), (argv, top)
        if target is not None:
            assert (Path(tmp) / "file.txt").read_text() == "kept\n", (argv, target)
    assert code in (0, 2, 3, 4), (argv, code)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Warning" not in stderr.getvalue(), (argv, stderr.getvalue())
    return code, manifest, failed


def _assert_too_large_refused(keys, code):
    """A run with a bath above MAX_BATH_SIZE is refused with exit 2."""
    if any(keys.get(f"bath{b}_size", 1) > MAX_BATH_SIZE for b in (1, 2)):
        assert code == 2, (keys, code)


def _argv(*sets):
    """--set arguments for KEY=VALUE texts."""
    return [arg for s in sets for arg in ("--set", s)]


@st.composite
def runs(draw):
    """(subcommand, config overrides): bath 1, and bath 2 for twobath or a switched sweep.

    Each bath's mass comes with its band: the default, or two edges and
    a family.
    """
    command = draw(st.sampled_from(["sweep", "twobath"]))
    baths = (1, 2) if command == "twobath" or draw(st.booleans()) else (1,)
    keys = {}
    for b in baths:
        keys[f"bath{b}_size"] = draw(SIZES)
        keys[f"bath{b}_mass"] = draw(st.sampled_from(MASSES))
        if draw(st.booleans()):
            edges = draw(st.lists(st.sampled_from(BAND_EDGES), min_size=2, max_size=2))
            keys[f"bath{b}_omega_ir"], keys[f"bath{b}_omega_uv"] = sorted(edges)
            keys[f"bath{b}_dos"] = draw(st.sampled_from(DOS_FAMILIES))
    return command, keys


@given(run=runs())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_boundary_bath_masses_end_in_a_documented_exit_code(run):
    """The exact flow conserves H, so no normal-mode point fails its energy check."""
    command, keys = run
    sets = [f"{key}={json.dumps(value)}" for key, value in keys.items()]
    sets += ["omega_grid=[0.5]", "seeds=[1]", "n_samples=200"]
    code, manifest, _ = _run_cli([command] + [arg for s in sets for arg in ("--set", s)])
    _assert_too_large_refused(keys, code)
    failures = manifest["failures"] if manifest else []
    assert not any("total energy drifted" in entry[2] for entry in failures), (keys, failures)


@st.composite
def schedules(draw):
    """twobath config overrides: bath sizes, the switching schedule, temperatures, one omega."""
    keys = {f"bath{b}_size": draw(SIZES) for b in (1, 2)}
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
    _assert_too_large_refused(keys, code)
    _assert_failures_named(keys, code, manifest, failed)


def test_a_period_map_multiplier_below_sqrt_eps_is_no_divergence():
    """At omega = 50 and h = 0.02 RK4 damps the particle's mode by about e^-24 a period.

    Its log |mu| was -inf: the run warned and recorded "switched run
    diverged".
    """
    sets = ["bath1_size=30", "bath2_size=30", "delta_t_steps=2000", "step_size=0.02",
            "omega_grid=[50.0]", "seeds=[1]", "n_samples=200"]
    code, manifest, failed = _run_cli(["twobath"] + _argv(*sets))
    assert code in (0, 3, 4)
    assert not any("diverged" in entry[2] for entry in manifest["failures"])
    _assert_failures_named(sets, code, manifest, failed)


@st.composite
def samplings(draw):
    """sweep config overrides: a bath size, the sampling keys and a grid of 2 or 3 frequencies.

    The grid's points run on the sweep's point worker processes.
    """
    keys = {"bath1_size": draw(SINGLE_SIZES)}
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
    _assert_too_large_refused(keys, code)
    _assert_failures_named(keys, code, manifest, failed)


# the single-bath keys of a sweep, each left unset or drawn from its boundary set
SINGLE_BATH = {"initial_energy": [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1.0, 1e6, 1e154, 1e300, 1e308],
               "propagator": ["eigen", "rk4"],
               "step_size": [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1e-3, 0.5, 2.0, 10.0, 1e300]}


@st.composite
def single_baths(draw):
    """sweep config overrides: a bath size, one frequency and the single-bath keys."""
    keys = {"bath1_size": draw(SINGLE_SIZES)}
    for key, values in SINGLE_BATH.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            keys[key] = value
    keys["omega_grid"] = [draw(st.sampled_from(OMEGAS))]
    return keys


@given(keys=single_baths())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_boundary_single_bath_keys_end_in_a_documented_exit_code(keys):
    sets = [f"{key}={json.dumps(value)}" for key, value in keys.items()]
    sets += ["seeds=[1]", "n_samples=200"]
    code, manifest, failed = _run_cli(["sweep"] + [arg for s in sets for arg in ("--set", s)])
    _assert_too_large_refused(keys, code)
    _assert_failures_named(keys, code, manifest, failed)


@pytest.mark.parametrize("omega", [0.5, 0.001])
def test_a_particle_energy_whose_sums_overflow_is_refused(omega):
    """Just below the bound on 2 M E, 200 sampled energies of 1e307 overflow their sum.

    At omega = 0.001 the bath oscillators that follow the particle hold
    free energies beyond the largest double too.
    """
    sets = ["bath1_size=5", "initial_energy=1e307", f"omega_grid=[{omega}]", "seeds=[1]",
            "n_samples=200"]
    code, _, _ = _run_cli(["sweep"] + [arg for s in sets for arg in ("--set", s)])
    assert code == 2


# the remaining single-bath keys, each left unset or drawn from its boundary set;
# the frequency as omega, a one-point omega_grid or single's --omega; single's
# --seed-list; and where --out points, as in _run_cli
REMAINING = {"mass": [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1.0, 1e6, 1e154, 1e300, 1e307, 1e308],
             "seeds": [[0], [1, 2], [1, 1], [-1], [], [2**31, 7], [2**63], [2**64]],
             "bath1_temperature": [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 7.5, 1e6, 1e300, 1e308]}
FREQUENCIES = [-1.0, 0.0, 5e-324, 1e-300, 1e-3, 0.55, 50.0, 1e154, 1e300]
SEED_LISTS = [["0"], ["1", "2"], ["1", "1"], ["-1"], [str(2**64)]]
OUT_TARGETS = ["new/out", "dir", "file.txt", "file.txt/out"]


@st.composite
def single_runs(draw):
    """(argv, --out target) of a single or sweep run on one frequency and a bath from SINGLE_SIZES."""
    command = draw(st.sampled_from(["single", "sweep"]))
    keys = {"bath1_size": draw(SINGLE_SIZES), "n_samples": 200}
    for key, values in REMAINING.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            keys[key] = value
    argv = [command]
    omega = draw(st.sampled_from(FREQUENCIES))
    where = draw(st.sampled_from(["omega", "omega_grid"] + ["--omega"] * (command == "single")))
    if where == "--omega":
        argv += ["--omega", repr(omega)]
    else:
        keys[where] = omega if where == "omega" else [omega]
    if command == "single" and draw(st.booleans()):
        argv += ["--seed-list"] + draw(st.sampled_from(SEED_LISTS))
    argv += [arg for key, value in keys.items() for arg in ("--set", f"{key}={json.dumps(value)}")]
    # one run in four writes to a drawn target, the others to a new directory
    return argv, draw(st.sampled_from(OUT_TARGETS)) if draw(st.integers(0, 3)) == 0 else "new/out"


@given(run=single_runs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_boundary_single_runs_end_in_a_documented_exit_code(run):
    """A flag argparse refuses exits 2 there; an --out at or under a file is refused (2)."""
    argv, target = run
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return
    code, manifest, _ = _run_cli(argv, target=target)
    if target.startswith("file.txt"):
        assert code == 2, (argv, target, code)
    size = next(int(arg.partition("=")[2]) for arg in argv if arg.startswith("bath1_size="))
    _assert_too_large_refused({"bath1_size": size}, code)
    if code in (3, 4):
        assert manifest is not None and manifest["failures"], (argv, code)


@pytest.mark.parametrize("mass,omega", [(1e308, 0.5), (1e307, 50.0)])
def test_a_mass_whose_2m_or_stiffness_overflows_is_refused(mass, omega):
    """2M overflowed before it met E = 0, and M omega^2 in the particle's energy warned."""
    sets = ["bath1_size=5", f"mass={mass!r}", f"omega_grid=[{omega}]", "seeds=[1]",
            "n_samples=200"]
    assert _run_cli(["sweep"] + _argv(*sets))[0] == 2


# one quick run of each subcommand that writes to --out
WRITERS = {
    "single": ["single", "--omega", "0.5"] + _argv("bath1_size=3", "seeds=[1]", "n_samples=200"),
    "sweep": ["sweep"] + _argv("omega_grid=[0.5]", "bath1_size=3", "seeds=[1]", "n_samples=200"),
    "twobath": ["twobath"] + _argv("omega_grid=[0.5]", "bath1_size=3", "bath2_size=3",
                                   "seeds=[1]", "n_samples=200"),
    "exchange": ["exchange", "--size", "4"],
    "oracle langevin": ["oracle", "langevin", "--gamma", "1", "--temperature", "2",
                        "--t-final", "5"],
    "oracle kernel": ["oracle", "kernel", "--set", "bath1_size=3", "--n-points", "10"],
    "oracle mixture": ["oracle", "mixture", "--t1", "5", "--t2", "10"],
}


@pytest.mark.parametrize("target", ["file.txt", "file.txt/out"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_an_out_at_or_under_a_file_is_a_configuration_error(command, target):
    assert _run_cli(WRITERS[command], target=target)[0] == 2
    assert _run_cli(WRITERS[command], target="new/out")[0] == 0


# for each writer, an output file it writes, made a directory before the run
BLOCKED = {"single": "hist_seed1.json", "sweep": "curve.csv", "twobath": "curve_bath2_alone.csv",
           "exchange": "manifest.json", "oracle langevin": "langevin.csv",
           "oracle kernel": "kernel.csv", "oracle mixture": "manifest.json"}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_an_output_that_cannot_be_written_is_a_configuration_error(command, tmp_path, capsys):
    """A directory where a run writes a file ended in IsADirectoryError after the run, exit 1."""
    blocked = tmp_path / BLOCKED[command]
    blocked.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(WRITERS[command] + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {blocked}: ") and err.count("\n") == 1
    with pytest.raises(ChildProcessError):      # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


# the exchange's flags, each left at its default or drawn from its boundary set
EXCHANGE = {"--xi": [-1.0, 0.0, 5e-324, 1e-300, 1e-12, 1e-6, 0.5, 0.999, 1.0, 1e6],
            "--omega-r": [-1.0, 0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e6, 1e12, 1e100, 1e154],
            "--e0": [-1.0, 0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e6, 1e154, 1e300, 1e308],
            "--n-periods": [-1, 0, 1, 16, 10**6, 10**400]}


@st.composite
def exchanges(draw):
    """exchange flags: a bath size of 1 to 30 and the others unset or from EXCHANGE."""
    argv = ["--size", str(draw(st.integers(min_value=1, max_value=30)))]
    for flag, values in EXCHANGE.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, repr(value)]
    return argv


def _run_flags(argv, finite=False):
    """A flag argparse refuses exits 2 there (SystemExit); any other run goes through main."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return
    _run_cli(argv, finite)


@given(argv=exchanges())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_boundary_exchange_flags_end_in_a_documented_exit_code(argv):
    _run_flags(["exchange"] + argv)


NUMBERS = [-1.0, 0.0, 5e-324, 1e-300, 1e-6, 1.0, 1e6, 1e300, 1e308]
# each oracle: a run that works, and the boundary values of its flags (a
# `--set` value is one config key of oracle kernel's bath).  The largest
# point counts lie beyond their caps
ORACLES = {
    "langevin": ({"--gamma": 1.0, "--temperature": 2.0, "--t-final": 5.0},
                 {"--gamma": NUMBERS, "--temperature": NUMBERS,
                  "--omega": [-1.0, 0.0, 5e-324, 1e-6, 1.0, 1e6, 1e154],
                  "--t-final": [-1.0, 0.0, 5e-324, 1e-6, 0.5, 50.0, 1e6, 1e308]}),
    "kernel": ({}, {"--seed": [-1, 0, 7, 2**64],
                    "--t-final": [-1.0, 0.0, 5e-324, 1e-300, 1.0, 50.0, 1e300, 1e308],
                    "--n-points": [-1, 0, 1, 2, 1000, 10**6 + 1],
                    "--set": ["bath1_size=1", "bath1_size=100000", "bath1_mass=1e300",
                              "bath1_omega_uv=1e154", "bath1_temperature=1e308"]}),
    "mixture": ({"--t1": 5.0, "--t2": 10.0},
                {"--t1": NUMBERS, "--t2": NUMBERS,
                 "--e-max": [-1.0, 0.0, 5e-324, 1e-300, 1.0, 20.0, 1e300, 1e308],
                 "--n-points": [-1, 0, 1, 2, 500, 10**6 + 1]}),
}


@st.composite
def oracles(draw):
    """An oracle's working run with one to three of its flags at a boundary value."""
    which = draw(st.sampled_from(sorted(ORACLES)))
    base, boundary = ORACLES[which]
    flags = draw(st.lists(st.sampled_from(sorted(boundary)), min_size=1, max_size=3,
                          unique=True))
    values = {**base, **{flag: draw(st.sampled_from(boundary[flag])) for flag in flags}}
    return ["oracle", which] + [arg for flag, value in values.items()
                                for arg in (flag, value if flag == "--set" else repr(value))]


@given(argv=oracles())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_boundary_oracle_flags_end_in_a_documented_exit_code(argv):
    """Every number an oracle writes is finite, or the run is refused."""
    _run_flags(argv, finite=True)


# a fit's histogram: 1 to 8 bins from 0, from half or from 0.9 of a top edge
# at a boundary scale, with counts at boundary sizes, drawn one by one or
# halving from the first; and where --json-out points, in a directory that
# holds the directory `dir` and the file `file.txt`.  No count exceeds
# INT64_MAX / 8, so the counts of up to 8 bins total within int64; TOTALS
# then keeps that total, raises one bin so that it is exactly INT64_MAX, or
# raises it beyond INT64_MAX by one of OVER, which must be refused
EDGE_TOPS = [5e-324, 1e-320, 1e-300, 1e-6, 1.0, 1e6, 1e300, 1e307, 1.5e308, 1.7976931348623157e308]
INT64_MAX = 2**63 - 1
COUNTS = [0, 1, 2, 7, 1000, 2**53, INT64_MAX // 8]
TOTALS = ["kept", "kept", "at the bound", "beyond"]
OVER = [1, 2, 2**63, 10**400]
JSON_OUT = [None, "fit.json", "new/fit.json", "dir", "file.txt", "file.txt/fit.json"]


def _run_fit(rows, target=None):
    """`fit` of a CSV with these (bin_lo, bin_hi, count) rows: its exit code.

    Asserts a documented exit code, nothing raised, no warning, and on
    success a finite printed T and error, also in the --json-out file.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        tmp = Path(tmp)
        (tmp / "dir").mkdir()
        (tmp / "file.txt").write_text("kept\n")
        csv = tmp / "hist.csv"
        csv.write_text("bin_lo,bin_hi,count\n"
                       + "".join(f"{lo!r},{hi!r},{count}\n" for lo, hi, count in rows))
        argv = ["fit", str(csv)] + ([] if target is None else ["--json-out", str(tmp / target)])
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 2, 4), (rows, target, code)
        assert not caught, (rows, target, [str(w.message) for w in caught])
        assert "Warning" not in stderr.getvalue(), (rows, target, stderr.getvalue())
        if code == 0:
            printed = re.fullmatch(r"T = (\S+) \+- (\S+) \(\d+ bins\)\n", stdout.getvalue())
            assert printed and all(math.isfinite(float(x)) for x in printed.groups()), \
                (rows, stdout.getvalue())
            if target is not None:
                fit = json.loads((tmp / target).read_text(), parse_constant=float)
                assert all(math.isfinite(x) for x in fit.values()), (rows, fit)
    return code


@st.composite
def fit_inputs(draw):
    """(rows, --json-out target) of one fit run."""
    n = draw(st.integers(min_value=1, max_value=8))
    top = draw(st.sampled_from(EDGE_TOPS))
    start = draw(st.sampled_from([0.0, 0.5, 0.9]))
    # i / n <= 1, so no edge overflows on its way to the top
    edges = [start * top + (top - start * top) * (i / n) for i in range(n)] + [top]
    if draw(st.booleans()):
        counts = draw(st.lists(st.sampled_from(COUNTS), min_size=n, max_size=n))
    else:
        first = draw(st.sampled_from(COUNTS))
        counts = [first >> i for i in range(n)]
    total = draw(st.sampled_from(TOTALS))
    if total != "kept":
        raised = draw(st.integers(min_value=0, max_value=n - 1))
        counts[raised] += INT64_MAX - sum(counts)
        if total == "beyond":
            counts[raised] += draw(st.sampled_from(OVER))
    return list(zip(edges[:-1], edges[1:], counts)), draw(st.sampled_from(JSON_OUT))


@given(run=fit_inputs())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_boundary_fit_inputs_end_in_a_documented_exit_code(run):
    rows, target = run
    code = _run_fit(rows, target)
    if sum(count for _, _, count in rows) > INT64_MAX:
        assert code == 2, rows


def test_a_fit_near_the_largest_double_has_a_finite_temperature():
    """Bin centres near 1e308 overflowed when formed, and the fit printed T = nan."""
    assert _run_fit([(0.0, 5e307, 50), (5e307, 1e308, 20), (1e308, 1.5e308, 5)]) == 0


def test_a_fit_whose_slope_overflows_is_a_fit_failure():
    """On subnormal edges T is about 1e-320, and the slope -1/T is beyond the doubles."""
    assert _run_fit([(0.0, 1e-320, 50), (1e-320, 2e-320, 20), (2e-320, 3e-320, 5)]) == 4


def test_a_json_out_that_cannot_be_written_is_a_configuration_error():
    rows = [(0.0, 1.0, 50), (1.0, 2.0, 20), (2.0, 3.0, 5)]
    assert _run_fit(rows, "fit.json") == 0
    assert _run_fit(rows, "dir") == 2
    assert _run_fit(rows, "file.txt/fit.json") == 2


# a sweep's --config file: arbitrary bytes, or JSON nested 1 to 10^5 deep as a
# list, an object or the value of the seeds key; the --set keys keep a run quick
NESTINGS = {"list": ("[", "]"), "object": ('{"a": ', "}"), "seeds": ("[", "]")}


@st.composite
def config_files(draw):
    """The bytes of one --config file."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    kind = draw(st.sampled_from(sorted(NESTINGS)))
    depth = draw(st.integers(min_value=1, max_value=10**5))
    opening, closing = NESTINGS[kind]
    text = opening * depth + ("1" if kind == "object" else "") + closing * depth
    return (f'{{"seeds": {text}}}' if kind == "seeds" else text).encode()


@given(data=config_files())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_arbitrary_config_files_end_in_a_documented_exit_code(data):
    """A config that is not UTF-8 or nests past the JSON decoder's depth is refused (2)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        argv = ["sweep", "--config", str(path)] + _argv("omega_grid=[0.5]", "bath1_size=3",
                                                       "n_samples=200")
        code, _, _ = _run_cli(argv)
    try:
        json.loads(data)
    except (ValueError, RecursionError):     # not UTF-8, not JSON or nested too deep
        assert code == 2, data[:64]


def _config_keys(example):
    """The config keys a drawn example sets: a dict's keys, or an argv's --set keys."""
    if isinstance(example, tuple):      # (command, keys) or (argv, --out target)
        example = example[1] if isinstance(example[1], dict) else example[0]
    if isinstance(example, dict):
        return set(example)
    return {arg.partition("=")[0] for flag, arg in zip(example, example[1:]) if flag == "--set"}


def test_the_properties_draw_every_config_key():
    """A config key added without a draw in one of these properties fails here."""
    drawn = set()

    @given(example=st.one_of(runs(), schedules(), samplings(), single_baths(), single_runs(),
                             oracles()))
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    def collect(example):
        drawn.update(_config_keys(example))

    collect()
    assert sorted(set(config._CASTERS) - drawn) == []
