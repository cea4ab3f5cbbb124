"""The four benchmark workloads and the configs they hand to the CLI.

A workload is a CLI subcommand plus a flat config.  The workload seed
picks one of ``N_VARIANTS`` input variants (``seed % N_VARIANTS``); a
variant fixes the list of physics seeds, so every (omega, seed) point
of a run derives from the workload seed and nothing else.  The program
only ever sees the generated config file.

Variant 0 uses the physics seeds of the study scripts (1, 2, 3, ...).
References for every variant are stored under ``bench/refs``, so any
workload seed has outputs to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

N_VARIANTS = 16

# the grid of scripts/single_bath_sweep.py
SWEEP_GRID = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0, 5.0, 10.0]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI subcommand
    base: dict            # config without the seed list
    seeds_per_run: int
    omega: float | None   # --omega for `single`
    why: str

    def seeds(self, variant: int) -> list:
        k = self.seeds_per_run
        return [variant * k + i + 1 for i in range(k)]

    def config(self, seed: int) -> dict:
        cfg = dict(self.base)
        cfg["seeds"] = self.seeds(seed % N_VARIANTS)
        return cfg

    def argv(self, config_path: str, out_dir: str) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.omega is not None:
            argv += ["--omega", repr(self.omega)]
        return argv

    def points(self, seed: int) -> int:
        """(omega, seed) points one CLI run attempts."""
        cfg = self.config(seed)
        n_omega = 1 if self.omega is not None else len(cfg["omega_grid"])
        per_seed = n_omega
        if self.command == "twobath":
            per_seed = 3 * n_omega      # switched point plus each bath alone
        return per_seed * len(cfg["seeds"])


SMALL_BATH = {"bath1_size": 400, "bath1_mass": 1e-3, "bath1_temperature": 5.0}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_n400", command="sweep",
        base={**SMALL_BATH, "omega_grid": SWEEP_GRID,
              "warmup": 500.0, "n_samples": 4000},
        seeds_per_run=3, omega=None,
        why="headline curve at default size; the sampler's cos/sin table "
            "dominates, diagonalize is about a third"),
    Workload(
        name="point_n4000", command="single",
        base={"bath1_size": 4000, "bath1_mass": 1e-4,
              "bath1_temperature": 5.0, "warmup": 500.0, "n_samples": 4000},
        seeds_per_run=1, omega=0.5,
        why="one large bath: the O(N^3) factorization and the dense drift "
            "matrix dominate time and memory"),
    Workload(
        name="twobath_floquet", command="twobath",
        base={"bath1_size": 200, "bath1_mass": 1e-3, "bath1_temperature": 7.5,
              "bath2_size": 200, "bath2_mass": 1e-3, "bath2_temperature": 7.5,
              "renormalization": "static", "step_size": 1e-3,
              "mean_interval": 25.0, "n_samples": 2000, "warmup": 1000.0,
              "n_bins": 20, "span_factor": 5.0,
              "omega_grid": [0.35, 0.55, 0.75]},
        seeds_per_run=2, omega=None,
        why="the switched two-bath result on the Floquet engine: period-map "
            "eig and sampling dominate"),
    Workload(
        name="rk4_dense", command="sweep",
        base={**SMALL_BATH, "propagator": "rk4", "mean_interval": 0.5,
              "n_samples": 4000, "omega_grid": [0.3, 0.5, 0.7]},
        seeds_per_run=1, omega=None,
        why="single-bath RK4 below the Floquet threshold: literal dense "
            "matvec stepping in the switched layer"),
)}

# tiny-N inputs for the smoke mode: same commands and paths, seconds to run
SMOKE = {
    "sweep_n400": {"bath1_size": 40, "omega_grid": [0.3, 0.5, 5.0],
                   "n_samples": 400},
    "point_n4000": {"bath1_size": 60, "bath1_mass": 1e-2, "n_samples": 400},
    "twobath_floquet": {"bath1_size": 10, "bath2_size": 10, "step_size": 2e-2,
                        "mean_interval": 10.0, "n_samples": 200,
                        "warmup": 100.0, "omega_grid": [0.55]},
    "rk4_dense": {"bath1_size": 30, "n_samples": 400, "omega_grid": [0.5]},
}


def smoke_workload(name: str) -> Workload:
    w = WORKLOADS[name]
    return Workload(name=f"{name}.smoke", command=w.command,
                    base={**w.base, **SMOKE[name]},
                    seeds_per_run=w.seeds_per_run, omega=w.omega, why=w.why)
