#!/usr/bin/env python3
"""Energy exchange with a zero-bandwidth bath at resonance.

Kicks the test particle against a bath whose oscillators all share one
frequency, with pairwise-cancelled initial conditions so only the
symmetric bath mode couples.  The particle energy then beats between
zero and the kick energy at the splitting of the two resonant normal
modes, and energies sampled at random times follow the arcsine law.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finitebath.cli import EXIT_NUMERICAL
from finitebath.experiments import run_degenerate_exchange
from finitebath.oracles import arcsine_distribution_check
from finitebath.output import write_csv
from finitebath.propagator import NumericalError


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=100, help="bath oscillators")
    ap.add_argument("--xi", type=float, default=0.01,
                    help="coupling strength N m / M, must be < 1")
    ap.add_argument("--omega-r", type=float, default=1.0,
                    help="shared bath frequency")
    ap.add_argument("--e0", type=float, default=10.0, help="kick energy")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--n-periods", type=int, default=16,
                    help="beat periods covered by the trace")
    ap.add_argument("--out", type=Path, default=Path("exchange_trace.csv"))
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ex = run_degenerate_exchange(n=args.size, xi=args.xi,
                                     omega_r=args.omega_r, e0=args.e0,
                                     seed=args.seed, n_periods=args.n_periods)
    except ValueError as err:     # out-of-range arguments
        parser.error(str(err))
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_csv(args.out, "time,energy", zip(ex.times, ex.energies))
    d, p = arcsine_distribution_check(ex.ks_energies, ex.e0)
    print(f"predicted exchange frequency {ex.exchange_frequency:.6f}")
    print(f"dominant spectral line at    {ex.dominant_frequency:.6f}"
          f"  (relative error "
          f"{abs(ex.dominant_frequency / ex.exchange_frequency - 1):.2e})")
    print(f"secondary line amplitude     {ex.secondary_ratio:.3f} of dominant")
    print(f"arcsine KS statistic {d:.4f}  p = {p:.3f}")
    print(f"trace written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
