#!/usr/bin/env python3
"""Intermittent contact with two finite baths versus each bath alone.

Runs the switched propagator over a frequency grid with both baths
engaged alternately, then repeats the sweep with each bath acting
alone, and reports the three fitted-temperature curves.  With equal
bath temperatures the switched curve peaks below the common
temperature at a frequency below each single-bath peak.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finitebath.experiments import SweepSpec, peak_location, run_two_bath_sweep
from finitebath.model import BathSpec, DensityOfStates
from finitebath.output import emit_curve
from finitebath.stats import SamplingPlan


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=200, help="oscillators per bath")
    ap.add_argument("--mass", type=float, default=1e-3)
    ap.add_argument("--t1", type=float, default=7.5, help="bath 1 temperature")
    ap.add_argument("--t2", type=float, default=7.5, help="bath 2 temperature")
    ap.add_argument("--band", type=float, nargs=2, default=(0.2, 1.0))
    ap.add_argument("--band2", type=float, nargs=2, default=None,
                    help="bath 2 band when different from bath 1")
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=(0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85))
    ap.add_argument("--seeds", type=int, nargs="+", default=(1, 2, 3))
    ap.add_argument("--delta-t-steps", type=int, default=1,
                    help="half period of the switching schedule in steps")
    ap.add_argument("--step-size", type=float, default=1e-3)
    ap.add_argument("--renormalization", default="static",
                    choices=("switched", "static"))
    ap.add_argument("--mean-interval", type=float, default=25.0)
    ap.add_argument("--n-samples", type=int, default=2000)
    ap.add_argument("--warmup", type=float, default=1000.0)
    ap.add_argument("--outdir", type=Path, default=Path("."))
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dos1 = DensityOfStates("uniform", *args.band)
        dos2 = DensityOfStates("uniform", *(args.band2 or args.band))
        spec = SweepSpec(
            omega_grid=tuple(args.omegas),
            bath1=BathSpec(size=args.size, mass=args.mass, temperature=args.t1,
                           dos=dos1),
            bath2=BathSpec(size=args.size, mass=args.mass, temperature=args.t2,
                           dos=dos2),
            seeds=tuple(args.seeds),
            plan=SamplingPlan(args.mean_interval, args.n_samples, args.warmup),
            n_bins=20, span_factor=5.0,
            delta_t_steps=args.delta_t_steps, step_size=args.step_size,
            renormalization=args.renormalization,
        )
        result = run_two_bath_sweep(spec)
    except ValueError as err:     # out-of-range arguments
        parser.error(str(err))
    curves = {"switched": result.combined,
              "bath1_alone": result.alone[0],
              "bath2_alone": result.alone[1]}
    args.outdir.mkdir(parents=True, exist_ok=True)
    print("omega    " + "".join(f"{name:>14s}" for name in curves))
    rows = zip(result.combined.omegas,
               *(c.temperature for c in curves.values()))
    for w, *temps in rows:
        print(f"{w:<8g} " + "".join(f"{t:>14.4f}" for t in temps))
    for name, curve in curves.items():
        path = args.outdir / f"{name}.csv"
        emit_curve(curve, path)
        print(f"{name}: peak omega "
              f"{peak_location(curve.omegas, curve.temperature):g} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
