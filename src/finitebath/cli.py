"""Command line front end.

Subcommands
-----------
``single``
    Thermalize one test particle at a fixed frequency (a sweep over a
    one-point grid) and fit its energy distribution; writes per-seed
    histograms, a summary and a manifest.
``sweep``
    Frequency sweep against one bath (or the switched pair when a
    second bath is configured); writes the thermalization curve.
``twobath``
    Switched two-bath sweep plus the two single-bath reference curves.
``exchange``
    Kick the particle against a zero-bandwidth bath at resonance; writes
    the energy trace, its spectral lines and arcsine check, and a
    manifest.
``oracle``
    Stand-alone reference computations (exact Langevin mean energy,
    memory kernel, two-temperature mixture).
``fit``
    Re-fit a histogram CSV produced by an earlier run.

Exit codes: 0 success, 2 configuration error (also used by argparse),
3 numerical failure, 4 fit failure.
"""

from __future__ import annotations

import argparse
import json
# unused here: argparse's translations import it when main builds the
# parser, so it is loaded with the package instead of inside the run
import locale
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bath import realize_bath
from .config import ConfigError, build_bath, build_sweep_spec, check_config
from .experiments import (check_exchange, peak_location, run_degenerate_exchange,
                          run_sweep, run_two_bath_sweep)
from .oracles import (
    arcsine_distribution_check,
    effective_temperature,
    langevin_energy,
    memory_kernel,
    mixture_distribution,
)
from .output import (RunManifest, emit_curve, emit_histogram, fmt, read_histogram,
                     write_csv)
from .propagator import NumericalError
from .stats import FitError, fit_temperature
from .workers import blas_on_one_thread

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FIT = 4


def _checked(cast, ok, what: str):
    """An argparse type: cast the text, then refuse values that are not `what`."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = cast.__name__     # argparse names the type in its errors
    return parse


_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_positive = _checked(float, lambda v: math.isfinite(v) and v > 0.0,
                     "a finite positive number")
_non_negative = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                         "a finite number >= 0")
# every frequency is squared (stiffness, energies)
_frequency = _checked(float, lambda v: v >= 0.0 and math.isfinite(v * v),
                      "a finite number >= 0 whose square is finite")

# An oracle run beyond either cap is refused.  MAX_ORACLE_ENTRIES (80 MB
# of doubles) bounds oracle kernel's cosine table (points times
# oscillators); MAX_ORACLE_POINTS bounds the rows of the kernel and
# mixture CSVs (a mixture row takes about 11 us)
MAX_ORACLE_ENTRIES = 10**7
MAX_ORACLE_POINTS = 10**6
# oracle langevin's rows: equally spaced times from 0 to --t-final
LANGEVIN_POINTS = 2001
# a Boltzmann density has the scale 1/T
_temperature = _checked(float, lambda v: 0.0 < v < math.inf and math.isfinite(1.0 / v),
                        "a finite positive number with a finite reciprocal")
_points = _checked(int, lambda v: 1 <= v <= MAX_ORACLE_POINTS,
                   f"an integer from 1 to {MAX_ORACLE_POINTS}")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (flat key/value object)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides",
                        help="override a config key (repeatable); VALUE is JSON")
    _add_out(parser)


def _add_run(parser: argparse.ArgumentParser) -> None:
    _add_config(parser)
    parser.add_argument("--seed-list", type=_seed, nargs="+", default=None,
                        help="replace the configured seed list")


def _load_config(args: argparse.Namespace) -> dict:
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    else:
        raw = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            raw[key] = json.loads(value)
        except json.JSONDecodeError:
            raw[key] = value  # bare strings such as --set dos=square
    return check_config(raw)


def _outdir(args: argparse.Namespace) -> Path:
    """The --out directory, created if missing; ConfigError if it cannot be."""
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create --out {args.out}: {err}") from err
    return args.out


def _manifest(command: str, cfg: dict, spec) -> RunManifest:
    # the recorded config names the grid and seeds the run used, whether they
    # came from the file, an omega key, --omega or --seed-list, so it alone
    # replays the run; with bath2 the switched curve is always RK4, whatever
    # spec.propagator; the steps are recorded per point as the curves come
    # in (_record)
    config = {key: value for key, value in cfg.items() if key != "omega"}
    config.update(omega_grid=list(spec.omega_grid), seeds=list(spec.seeds))
    return RunManifest(
        command=command,
        config=config,
        seeds=list(spec.seeds),
        code_version=__version__,
        propagator=spec.propagator if spec.bath2 is None else "rk4",
        delta_t_steps=None if spec.bath2 is None else spec.delta_t_steps,
    )


def _record(manifest: RunManifest, curve, label: str = "") -> None:
    """Add a curve's failures, bath fits, RK4 steps, largest snap distance and point workers.

    Failures are [omega, seed, message] entries and steps [omega, seed,
    h] entries, one per RK4 point that stepped to its end, whether its
    step was configured or derived: the fitted points, then those whose
    fit failed.  The bath fits are the curve's, so the curve recorded
    last supplies them.  The environment's point_workers lists the
    processes each recorded curve ran its points on, and factor_workers
    the threads one point's factorization ran on.
    """
    manifest.environment["point_workers"].append(curve.workers)
    manifest.environment["factor_workers"].append(curve.factor_workers)
    manifest.failures.extend([f.omega, f.seed, f"{label}{f}"] for f in curve.failures)
    steps = [[pt.omega, pt.seed, pt.step_size]
             for pt in (*curve.points, *curve.failures) if pt.step_size is not None]
    if steps:
        manifest.step_size = (manifest.step_size or []) + steps
    manifest.bath_initial = curve.bath_initial
    manifest.bath_final = curve.bath_final
    if curve.points:
        manifest.max_snap_distance = max(manifest.max_snap_distance or 0.0,
                                         *(pt.max_snap_distance for pt in curve.points))


def cmd_single(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec = build_sweep_spec(cfg, omega_override=args.omega,
                            seeds_override=args.seed_list)
    if len(spec.omega_grid) != 1:
        raise ConfigError("single needs exactly one frequency "
                          "(--omega or a one-point omega_grid)")
    out = _outdir(args)
    manifest = _manifest("single", cfg, spec)
    curve = run_sweep(spec)
    _record(manifest, curve)
    for failure in curve.failures:
        print(f"seed {failure.seed}: {failure}", file=sys.stderr)
    for point in curve.points:
        hist_path = out / f"hist_seed{point.seed}.csv"
        emit_histogram(point.hist, point.fit, hist_path)
        manifest.outputs.append(hist_path.name)
        print(f"seed {point.seed}: T = {fmt(point.fit.temperature)} "
              f"+- {fmt(point.fit.sigma)}")
    if not curve.points:
        manifest.write(out / "manifest.json")
        raise _worst_failure(curve)
    temperature, sigma = curve.temperature[0], curve.sigma[0]
    print(f"aggregate over {len(curve.points)} seeds: "
          f"T = {fmt(temperature)} +- {fmt(sigma)}")
    summary = {"omega": spec.omega_grid[0], "temperature": temperature,
               "sigma": sigma, "n_seeds": len(curve.points)}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    manifest.outputs.append("summary.json")
    manifest.write(out / "manifest.json")
    return EXIT_OK


def _worst_failure(curve) -> Exception | None:
    """The error a run with no fitted point ends with (None if none failed).

    A numerical failure of any point outranks fit failures; among equals
    the last one recorded is reported.
    """
    errors = [f.error for f in curve.failures]
    numerical = [e for e in errors if isinstance(e, NumericalError)]
    return (numerical or errors or [None])[-1]


def _sweep_exit(curve) -> int:
    """Success if any grid point produced a temperature."""
    if np.any(np.isfinite(curve.temperature)):
        return EXIT_OK
    return EXIT_NUMERICAL if isinstance(_worst_failure(curve), NumericalError) else EXIT_FIT


def _write_curve(manifest: RunManifest, curve, out: Path, name: str) -> None:
    """Write a curve CSV, list it as an output and record its peak frequency.

    The peak is None when the curve has no finite temperature.
    """
    emit_curve(curve, out / name)
    manifest.outputs.append(name)
    peak = (peak_location(curve.omegas, curve.temperature)
            if np.any(np.isfinite(curve.temperature)) else None)
    manifest.peaks[name] = peak
    print(f"{name}: " + ("no finite temperature, no peak" if peak is None
                         else f"peak at omega = {peak:g}"))


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec = build_sweep_spec(cfg, seeds_override=args.seed_list)
    out = _outdir(args)
    manifest = _manifest("sweep", cfg, spec)
    curve = run_sweep(spec)
    _write_curve(manifest, curve, out, "curve.csv")
    _record(manifest, curve)
    manifest.write(out / "manifest.json")
    n_ok = int(np.sum(np.isfinite(curve.temperature)))
    print(f"sweep: {n_ok}/{len(curve.omegas)} grid points fitted, "
          f"{len(curve.failures)} seed-level failures")
    return _sweep_exit(curve)


def cmd_twobath(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spec = build_sweep_spec(cfg, seeds_override=args.seed_list)
    if spec.bath2 is None:
        raise ConfigError("twobath needs bath2_* config keys")
    out = _outdir(args)
    manifest = _manifest("twobath", cfg, spec)
    result = run_two_bath_sweep(spec)
    _write_curve(manifest, result.combined, out, "curve_combined.csv")
    for index, alone in enumerate(result.alone):
        _write_curve(manifest, alone, out, f"curve_bath{index + 1}_alone.csv")
        _record(manifest, alone, f"bath{index + 1} alone: ")
    _record(manifest, result.combined)     # last: its bath fits are the run's
    manifest.write(out / "manifest.json")
    n_ok = int(np.sum(np.isfinite(result.combined.temperature)))
    print(f"twobath: {n_ok}/{len(result.combined.omegas)} combined points fitted")
    return _sweep_exit(result.combined)


def cmd_exchange(args: argparse.Namespace) -> int:
    config = {key: getattr(args, key) for key in ("size", "xi", "omega_r", "e0", "n_periods")}
    manifest = RunManifest(command="exchange", config=config, seeds=[],
                           code_version=__version__, propagator="eigen")
    try:
        check_exchange(args.size, args.xi, args.omega_r, args.e0, args.n_periods)
    except ValueError as err:     # out-of-range arguments
        raise ConfigError(str(err)) from err
    out = _outdir(args)
    ex = run_degenerate_exchange(n=args.size, xi=args.xi, omega_r=args.omega_r,
                                 e0=args.e0, n_periods=args.n_periods)
    manifest.seeds = [ex.seed]    # the trace does not depend on it
    trace = out / "exchange.csv"
    write_csv(trace, "time,energy", zip(ex.times, ex.energies))
    d, p = arcsine_distribution_check(ex.ks_energies, ex.e0)
    print(f"predicted exchange frequency {ex.exchange_frequency:.6f}")
    print(f"dominant spectral line at    {ex.dominant_frequency:.6f}"
          f"  (relative error "
          f"{abs(ex.dominant_frequency / ex.exchange_frequency - 1):.2e})")
    print(f"secondary line amplitude     {ex.secondary_ratio:.3f} of dominant")
    print(f"arcsine KS statistic {d:.4f}  p = {p:.3f}")
    print(f"trace written to {trace}")
    summary = {"exchange_frequency": ex.exchange_frequency,
               "dominant_frequency": ex.dominant_frequency,
               "secondary_ratio": ex.secondary_ratio,
               "ks_statistic": d, "ks_pvalue": p}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    manifest.outputs = [trace.name, "summary.json"]
    manifest.write(out / "manifest.json")
    return EXIT_OK


def _oracle_langevin(args: argparse.Namespace, out: Path) -> list:
    times = np.linspace(0.0, args.t_final, LANGEVIN_POINTS)
    try:
        energies = langevin_energy(args.gamma, args.omega, args.temperature, times)
    except ValueError as err:     # a phase or decay beyond the doubles
        raise ConfigError(f"--t-final {args.t_final:g}: {err}") from err
    path = out / "langevin.csv"
    write_csv(path, "t,energy", zip(times, energies))
    late = energies[times >= 0.5 * args.t_final]
    # each term is at most T / n, so the sum cannot overflow
    mean_late = float(np.sum(late / late.size))
    print(f"late-time mean energy: {fmt(mean_late)} "
          f"(target {fmt(args.temperature)})")
    return [path.name]


def _kernel_bath(args: argparse.Namespace):
    """The config and the bath of `oracle kernel`: bath1_* keys only."""
    cfg = _load_config(args)
    other = [key for key in cfg if not key.startswith("bath1_")]
    if other:
        raise ConfigError(f"oracle kernel reads only bath1_* keys, got {other[0]!r}")
    bath = build_bath(cfg, "bath1", required=True)
    if args.n_points * bath.size > MAX_ORACLE_ENTRIES:
        raise ConfigError(f"--n-points {args.n_points} times bath1_size {bath.size} is a "
                          f"{args.n_points * bath.size:.3g} entry cosine table, more than "
                          f"the {MAX_ORACLE_ENTRIES:g} this oracle forms")
    return cfg, bath


def _oracle_kernel(args: argparse.Namespace, out: Path, bath) -> list:
    real = realize_bath(bath, args.seed)
    tau = np.linspace(0.0, args.t_final, args.n_points)
    kernel = memory_kernel(real.frequencies, bath.mass, tau)
    path = out / "kernel.csv"
    write_csv(path, "tau,kernel", zip(tau, kernel))
    return [path.name]


def _oracle_mixture(args: argparse.Namespace, out: Path) -> list:
    energies = np.linspace(0.0, args.e_max, args.n_points)
    path = out / "mixture.csv"
    write_csv(path, "energy,density,t_eff",
              ((e, mixture_distribution(e, args.t1, args.t2),
                effective_temperature(e, args.t1, args.t2)) for e in energies))
    return [path.name]


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg, bath = _kernel_bath(args) if args.which == "kernel" else ({}, None)
    out = _outdir(args)
    # the config replays the run: oracle kernel's bath keys and every flag but --out
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "which", "func", "out", "config", "overrides")}
    manifest = RunManifest(command=f"oracle {args.which}", config={**cfg, **flags},
                           seeds=[args.seed] if hasattr(args, "seed") else [],
                           code_version=__version__, propagator="closed-form")
    if args.which == "langevin":
        manifest.outputs = _oracle_langevin(args, out)
    elif args.which == "kernel":
        manifest.outputs = _oracle_kernel(args, out, bath)
    else:
        manifest.outputs = _oracle_mixture(args, out)
    manifest.write(out / "manifest.json")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        hist = read_histogram(args.histogram)
    except OSError as err:
        raise ConfigError(f"cannot read histogram {args.histogram}: {err}") from err
    except ValueError as err:
        raise ConfigError(str(err)) from err
    fit = fit_temperature(hist)
    print(f"T = {fmt(fit.temperature)} +- {fmt(fit.sigma)} "
          f"({fit.n_bins_used} bins)")
    if args.json_out is not None:
        try:
            args.json_out.parent.mkdir(parents=True, exist_ok=True)
            args.json_out.write_text(json.dumps(asdict(fit), indent=2) + "\n")
        except OSError as err:
            raise ConfigError(f"cannot write --json-out {args.json_out}: {err}") from err
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finitebath",
        description="Thermalization of a harmonic test particle "
                    "coupled to finite oscillator baths.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_single = sub.add_parser("single", help="one frequency, full histogram")
    _add_run(p_single)
    p_single.add_argument("--omega", type=float, default=None,
                          help="test particle frequency")
    p_single.set_defaults(func=cmd_single)

    p_sweep = sub.add_parser("sweep", help="thermalization curve over a grid")
    _add_run(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_two = sub.add_parser("twobath", help="switched two-bath sweep")
    _add_run(p_two)
    p_two.set_defaults(func=cmd_twobath)

    p_ex = sub.add_parser("exchange", help="degenerate-bath energy exchange")
    _add_out(p_ex)
    p_ex.add_argument("--size", type=_count, default=100, help="bath oscillators")
    p_ex.add_argument("--xi", type=float, default=0.01,
                      help="coupling strength N m / M, must be < 1")
    p_ex.add_argument("--omega-r", type=_frequency, default=1.0,
                      help="shared bath frequency")
    p_ex.add_argument("--e0", type=_positive, default=10.0, help="kick energy")
    p_ex.add_argument("--n-periods", type=_count, default=16,
                      help="beat periods covered by the trace")
    p_ex.set_defaults(func=cmd_exchange)

    p_oracle = sub.add_parser("oracle", help="reference computations")
    o_sub = p_oracle.add_subparsers(dest="which", required=True)

    o_lang = o_sub.add_parser("langevin", help="exact Langevin mean energy from rest")
    _add_out(o_lang)
    o_lang.add_argument("--gamma", type=_non_negative, required=True)
    o_lang.add_argument("--temperature", type=_non_negative, required=True)
    o_lang.add_argument("--omega", type=_frequency, default=1.0)
    o_lang.add_argument("--t-final", type=_positive, default=200.0)
    o_lang.set_defaults(func=cmd_oracle)

    o_ker = o_sub.add_parser("kernel", help="bath memory kernel")
    _add_config(o_ker)
    o_ker.add_argument("--seed", type=_seed, default=0)
    o_ker.add_argument("--t-final", type=_positive, default=50.0)
    o_ker.add_argument("--n-points", type=_points, default=1000)
    o_ker.set_defaults(func=cmd_oracle)

    o_mix = o_sub.add_parser("mixture", help="two-temperature mixture profile")
    _add_out(o_mix)
    o_mix.add_argument("--t1", type=_temperature, required=True)
    o_mix.add_argument("--t2", type=_temperature, required=True)
    o_mix.add_argument("--e-max", type=_non_negative, default=20.0)
    o_mix.add_argument("--n-points", type=_points, default=500)
    o_mix.set_defaults(func=cmd_oracle)

    p_fit = sub.add_parser("fit", help="re-fit a stored histogram")
    p_fit.add_argument("histogram", type=Path, help="histogram CSV")
    p_fit.add_argument("--json-out", type=Path, default=None,
                       help="write the fit result as JSON")
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    """Run one command with numpy's BLAS on one thread (blas_on_one_thread).

    The program threads its own work, and the bits of a run then do not
    depend on the BLAS thread count it found, which its manifest
    records next to the count it used.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    with blas_on_one_thread():
        try:
            return args.func(args)
        except ConfigError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericalError as err:
            print(f"numerical failure: {err}", file=sys.stderr)
            return EXIT_NUMERICAL
        except FitError as err:
            print(f"fit failure: {err}", file=sys.stderr)
            return EXIT_FIT


if __name__ == "__main__":
    raise SystemExit(main())
