#!/usr/bin/env python3
"""Thermalization curve of the test particle against one finite bath.

Sweeps the particle frequency across and beyond the bath band, fits a
temperature to the sampled energy distribution at every grid point, and
writes the aggregated curve as CSV.  The defaults reproduce the
complete-thermalization plateau inside the band [0.2, 1] flanked by the
partially thermalized low- and high-frequency regimes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finitebath.experiments import SweepSpec, peak_location, run_sweep
from finitebath.model import BathSpec, DensityOfStates
from finitebath.output import emit_curve
from finitebath.stats import SamplingPlan


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=400, help="bath oscillators")
    ap.add_argument("--mass", type=float, default=1e-3, help="bath mass m (M=1)")
    ap.add_argument("--temperature", type=float, default=5.0)
    ap.add_argument("--dos", default="uniform",
                    choices=("uniform", "square", "inverse_square"))
    ap.add_argument("--band", type=float, nargs=2, default=(0.2, 1.0),
                    metavar=("WIR", "WUV"))
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=(0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9,
                             1.1, 1.5, 2.0, 5.0, 10.0))
    ap.add_argument("--seeds", type=int, nargs="+", default=tuple(range(1, 16)))
    ap.add_argument("--mean-interval", type=float, default=10.0)
    ap.add_argument("--n-samples", type=int, default=4000)
    ap.add_argument("--warmup", type=float, default=500.0)
    ap.add_argument("--out", type=Path, default=Path("single_bath_curve.csv"))
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = SweepSpec(
            omega_grid=tuple(args.omegas),
            bath1=BathSpec(size=args.size, mass=args.mass,
                           temperature=args.temperature,
                           dos=DensityOfStates(args.dos, *args.band)),
            seeds=tuple(args.seeds),
            plan=SamplingPlan(args.mean_interval, args.n_samples, args.warmup),
        )
        curve = run_sweep(spec)
    except ValueError as err:     # out-of-range arguments
        parser.error(str(err))
    emit_curve(curve, args.out)
    print(f"omega    T_tp      sigma     T_tp/T_bath")
    for w, t, s in zip(curve.omegas, curve.temperature, curve.sigma):
        print(f"{w:<8g} {t:<9.4f} {s:<9.4f} {t / args.temperature:.4f}")
    print(f"peak at omega = {peak_location(curve.omegas, curve.temperature):g}"
          f"  ({len(curve.failures)} failed points)")
    print(f"curve written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
