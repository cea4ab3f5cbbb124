"""Shared fixtures and the acceptance criteria report.

Acceptance tests are named test_criterion_NN_*; after the run a summary
block prints one PASS/FAIL line per criterion so the verdicts can be
read without scanning the full pytest output.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from finitebath.model import BathSpec, DensityOfStates, TestParticleSpec
from finitebath.output import CURVE_HEADER
from finitebath.propagator import drift_matrix
from finitebath.switched import rk4_update_matrix

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


@pytest.fixture
def band():
    """The workhorse frequency band used throughout the studies."""
    return DensityOfStates("uniform", 0.2, 1.0)


@pytest.fixture
def small_bath(band):
    return BathSpec(size=150, mass=0.01, temperature=5.0, dos=band)


@pytest.fixture
def particle():
    return TestParticleSpec(mass=1.0, omega=0.5)


@pytest.fixture
def read_curve():
    """A reader that parses an emitted curve CSV back into column arrays."""
    def read(path) -> dict:
        lines = Path(path).read_text().strip().split("\n")
        if lines[0] != CURVE_HEADER:
            raise ValueError(f"{path}: not a curve CSV (bad header)")
        names = CURVE_HEADER.split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        data = np.array(rows, dtype=float).reshape(len(rows), len(names))
        return {name: data[:, j] for j, name in enumerate(names)}
    return read


@pytest.fixture
def step_literally():
    """Literal RK4 stepping of a TwoBathSystem, the reference for SwitchedPropagator.

    step_literally(system, schedule, v0, steps) returns the state vector
    after each entry of steps (step counts, any order): A1's update map
    acts during the first delta_t_steps of every period, A2's during the
    rest.  A continuous system (a2 is a1) steps A1's map throughout.
    """
    def step(system, schedule, v0, steps):
        h, d = schedule.step_size, schedule.delta_t_steps
        maps = [rk4_update_matrix(drift_matrix(cm), h) for cm in (system.a1, system.a2)]
        steps = np.asarray(steps)
        out = np.empty((len(steps), system.dim))
        v = np.asarray(v0, dtype=float)
        for s in range(int(steps.max()) + 1):
            out[steps == s] = v
            v = maps[(s // d) % 2] @ v
        return out
    return step


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"),
                           ("error", "ERROR")):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call" and outcome == "passed":
                continue
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                name = match.group(2)
                verdicts[number] = (label, name)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(verdicts):
        label, name = verdicts[number]
        terminalreporter.write_line(
            f"criterion {number:2d}: {label}  ({name.replace('_', ' ')})")
