"""One benchmark process: set up finitebath, optionally run one CLI call.

Usage: python3 child.py JOB.json

The job names the program's source directory, the workload config and
the CLI arguments.  The process measures

* ``setup_s``: importing the CLI module (and with it the package) and
  turning the config into a SweepSpec, in this fresh interpreter;
* ``wall_s``, ``cpu_s``: the ``finitebath.cli.main`` call, from the call
  until its outputs and manifest are on disk;
* ``peak_rss_mb``: the peak resident memory of this process;

and records every warning the run raises instead of printing it.  With
``trace`` set it wraps the layers first (see tracing.py) and writes its
spans when the run ends.  The result goes to ``job["result"]`` as JSON.
"""

import json
import sys
import time

T0 = time.perf_counter()


def blas_info() -> dict:
    """BLAS vendor and thread count of the loaded numpy."""
    import ctypes

    import numpy as np

    info = {"vendor": "unknown", "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):   # numpy without dict config
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])

    import finitebath.cli as cli
    from finitebath.config import build_sweep_spec, check_config

    build_sweep_spec(check_config(job["config"]), omega_override=job["omega"])
    result = {"setup_s": time.perf_counter() - T0}
    if not cli.__file__.startswith(job["src"]):
        raise SystemExit(f"finitebath imported from {cli.__file__}, "
                         f"not from {job['src']}")

    if job.get("env"):
        import os

        import numpy
        import scipy

        result["env"] = {"python": sys.version.split()[0],
                         "numpy": numpy.__version__, "scipy": scipy.__version__,
                         "nproc": os.cpu_count(), "blas": blas_info()}

    if job["argv"] is not None:
        import resource
        import traceback
        import warnings

        tracer = None
        if job["trace"]:
            sys.path.insert(0, job["bench"])
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                rc = cli.main(job["argv"])
            except SystemExit as err:
                rc = err.code if isinstance(err.code, int) else 1
            except Exception:
                rc, result["traceback"] = 1, traceback.format_exc()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        result.update(
            rc=rc, wall_s=wall, cpu_s=cpu,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            warnings=[f"{w.category.__name__}: {w.message}" for w in caught])
        if tracer is not None:
            tracer.uninstall()
            tracer.write(job["spans"])
            result["layers"] = tracer.summary()
            result["missing"] = tracer.missing

    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
