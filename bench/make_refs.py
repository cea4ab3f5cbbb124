#!/usr/bin/env python3
"""Store reference outputs for every workload variant (run once, on the seed code).

    python3 bench/make_refs.py

Writes ``bench/refs/<workload>/vNN/`` for each of the ``N_VARIANTS``
variants, plus ``bench/refs/<workload>.smoke/v00/``.  An existing
reference directory is never overwritten: references are the seed
code's outputs, and regenerating them to make a change pass defeats
the check.  A variant whose run records an errored point is refused.
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import count_errors  # noqa: E402
from run import REFS, WORK, reference_dir, run_child  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS, smoke_workload  # noqa: E402

KEPT = ("curve*.csv", "hist_seed*.csv", "hist_seed*.json")


def store(workload, seed: int) -> None:
    ref = reference_dir(workload, seed)
    if ref.exists():
        return
    work = WORK / f"refs-{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "out"
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(seed)))
    res = run_child({"config": workload.config(seed), "omega": workload.omega,
                     "argv": workload.argv(str(config_path), str(out))}, work, "ref")
    errors, fits = count_errors(out / "manifest.json")
    if res.get("rc") != 0 or errors:
        raise SystemExit(f"{workload.name} variant {seed}: exit {res.get('rc')}, "
                         f"{errors} errored points; not stored")
    ref.mkdir(parents=True)
    for pattern in KEPT:
        for path in out.glob(pattern):
            shutil.copy(path, ref / path.name)
    shutil.rmtree(work)
    print(f"{workload.name} v{seed:02d}: wall {res['wall_s']:.2f} s, "
          f"{fits} fit failures")


def main() -> int:
    REFS.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        store(smoke_workload(name), 0)
        for variant in range(N_VARIANTS):
            store(workload, variant)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
