"""Outside-in tracing of finitebath's layers.

Every traced function is replaced, wherever a finitebath module holds it
as a global (or a class holds it as a method), by a wrapper that records
a span: name, start, end, parent span and the (omega, seed) point it ran
for.  The program's source is not touched; callers simply find the
wrapper under the name they already look up.

Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (metric prefix, module, attribute); "Class.method" attributes wrap methods.
# The prefix is the layer (module) name plus the function's short name.
TRACED = (
    ("bath.realize_bath", "finitebath.bath", "realize_bath"),
    ("propagator.build_coupling_matrix", "finitebath.propagator", "build_coupling_matrix"),
    ("propagator.diagonalize", "finitebath.propagator", "diagonalize"),
    ("propagator.sample_test_particle", "finitebath.propagator",
     "EigenPropagator.sample_test_particle"),
    ("propagator.full_state", "finitebath.propagator", "full_state"),
    ("switched.build_switched_matrices", "finitebath.switched", "build_switched_matrices"),
    ("switched.rk4_update_matrix", "finitebath.switched", "rk4_update_matrix"),
    ("switched.run", "finitebath.switched", "SwitchedPropagator.run"),
    ("stats.build_histogram", "finitebath.stats", "build_histogram"),
    ("stats.fit_temperature", "finitebath.stats", "fit_temperature"),
    ("stats.fit_energy_samples", "finitebath.stats", "fit_energy_samples"),
    ("experiments.run_single_bath_point", "finitebath.experiments", "run_single_bath_point"),
    ("experiments.run_two_bath_point", "finitebath.experiments", "run_two_bath_point"),
    ("experiments.run_sweep", "finitebath.experiments", "run_sweep"),
    ("experiments.run_two_bath_sweep", "finitebath.experiments", "run_two_bath_sweep"),
    ("config.check_config", "finitebath.config", "check_config"),
    ("config.build_sweep_spec", "finitebath.config", "build_sweep_spec"),
    ("output.emit_curve", "finitebath.output", "emit_curve"),
    ("output.emit_histogram", "finitebath.output", "emit_histogram"),
    ("output.RunManifest.write", "finitebath.output", "RunManifest.write"),
    ("cli.main", "finitebath.cli", "main"),
)

ROOT_SPAN = "cli.main"


# extra counters: metric suffix -> (unit, better)
EXTRA = {
    "propagator.build_coupling_matrix.bytes": ("B", "lower"),
    "propagator.sample_test_particle.trig_evals": ("count", "lower"),
    "switched.run.steps": ("count", "lower"),
    "switched.run.engine_floquet": ("count", "higher"),
    "switched.run.engine_dense": ("count", "lower"),
    "switched.run.fallbacks": ("count", "lower"),
    "stats.fit_temperature.failed": ("count", "lower"),
    "output.emit_curve.bytes": ("B", "lower"),
    "output.emit_histogram.bytes": ("B", "lower"),
    "output.RunManifest.write.bytes": ("B", "lower"),
}
PROCESS = {
    "process.cpu_s": ("s", "lower"),
    "process.runtime_warnings": ("count", "lower"),
    "trace.coverage": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(EXTRA)
    out.update(PROCESS)
    return out


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))


def _counters(name, args, kwargs, result, error, owner):
    """Extra counts measured at the boundary of one call."""
    if name == "propagator.build_coupling_matrix" and result is not None:
        return {"bytes": int(result.matrix.nbytes)}
    if name == "propagator.sample_test_particle" and result is not None:
        return {"trig_evals": len(result[0]) * len(args[0].nu)}
    if name == "switched.run" and result is not None:
        prop = args[0]
        fallback = (result.n_steps > prop.FLOQUET_THRESHOLD
                    and result.engine == "dense"
                    and kwargs.get("engine", "auto") == "auto")
        return {"steps": int(result.n_steps),
                "engine_floquet": int(result.engine == "floquet"),
                "engine_dense": int(result.engine == "dense"),
                "fallbacks": int(fallback)}
    if name == "stats.fit_temperature":
        return {"failed": int(isinstance(error, owner.FitError))}
    if name == "output.emit_curve":
        return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}
    if name == "output.emit_histogram":
        path = args[2] if len(args) > 2 else kwargs["path"]
        sidecar = kwargs.get("sidecar_path") or os.path.splitext(str(path))[0] + ".json"
        return {"bytes": _file_bytes(path, sidecar)}
    if name == "output.RunManifest.write":
        return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}
    return {}


class Tracer:
    """Collects spans from every wrapped call of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, point, counters]
        self._stack = []
        self._originals = []
        self.missing = []        # traced names the program no longer has

    def _wrap(self, name, fn, stats_module):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            point = tracer.spans[parent][4] if parent is not None else None
            if name == "experiments.run_two_bath_point":
                point = f"two:{args[0]}:{args[2]}"
            elif name == "experiments.run_single_bath_point":
                point = f"bath{kwargs.get('bath_index', 0)}:{args[0]}:{args[2]}"
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None, parent, point, {}]
            tracer.spans.append(record)
            tracer._stack.append(index)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                record[5] = _counters(name, args, kwargs, result, error, stats_module)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Swap every traced function for its wrapper, where callers look."""
        stats = sys.modules["finitebath.stats"]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "finitebath" or key.startswith("finitebath.")]
        for name, module_name, attribute in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, meth = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if owner_name:
                setattr(owner, meth, self._wrap(name, original, stats))
                self._originals.append((owner, meth, original))
                continue
            wrapper = self._wrap(name, original, stats)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._originals.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, point, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "point": point,
                                     **counters}) + "\n")

    def summary(self) -> dict:
        """calls, self_s and extra counters per traced function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, counters) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            key = f"{name}.self_s"
            out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
            for suffix, value in counters.items():
                key = f"{name}.{suffix}"
                out[key] = out.get(key, 0) + value
        return out
