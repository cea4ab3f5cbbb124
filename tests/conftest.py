"""Shared fixtures, the dense references and the acceptance criteria report.

The program never forms a dense matrix of a system.  The references
here do: the drift matrix A of v' = A v, the RK4 update map R(hA), the
switched period map factored by dense eig (dense_floquet) and literal
RK4 stepping (the step_literally fixture).  full_state rebuilds a
normal-mode system's state at any time in a pass of its own, the
reference for the final state diagonalize builds in its projection
pass.  Test modules import them from conftest.

Acceptance tests are named test_criterion_NN_*; after the run a summary
block prints one PASS/FAIL line per criterion so the verdicts can be
read without scanning the full pytest output.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from finitebath import propagator, workers
from finitebath.model import BathSpec, DensityOfStates, SystemState, TestParticleSpec
from finitebath.output import CURVE_HEADER

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def drift_matrix(cm) -> np.ndarray:
    """Dense drift matrix A of v' = A v, (2 + 2N) square, of a CouplingMatrix.

    With v = (Q, P, q_1, p_1, ...), A holds 1 / M_i at (2i, 2i + 1) and
    -K at the (odd, even) entries, K = M^(1/2) H M^(1/2): K_00 = M alpha,
    K_nn = m_n d_n and K_0n = K_n0 = sqrt(M m_n) z_n.
    """
    a = np.zeros((cm.dim, cm.dim))
    np.fill_diagonal(a[0::2, 1::2], 1.0 / cm.mass)
    k = a[1::2, 0::2]                 # -K, a view of a
    np.fill_diagonal(k, np.r_[-(cm.mass[0] * cm.alpha), -(cm.mass[1:] * cm.d)])
    k[0, 1:] = k[1:, 0] = -(np.sqrt(cm.mass[0] * cm.mass[1:]) * cm.z)
    return a


def rk4_update_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """The linear map of one classical RK4 step, I + hA + ... + (hA)^4/24."""
    eye = np.eye(a.shape[0])
    ha = h * a
    u = eye + ha / 4.0
    u = eye + (ha / 3.0) @ u
    u = eye + (ha / 2.0) @ u
    return eye + ha @ u


def full_state(prop, t: float) -> SystemState:
    """Every coordinate of an EigenPropagator's system at time t, in one pass of its own."""
    c, s, t = propagator.flow_factors(prop.nu, t)
    f, g = propagator._state_rows(prop.coef_cos, prop.coef_sin, prop.nu, c, s).T
    return SystemState.from_vector(propagator.mode_vector(prop, f, g), prop.cm.bath_sizes,
                                   time=t)


def step_maps(system, schedule):
    """The RK4 update maps of a TwoBathSystem's two contact phases."""
    return [rk4_update_matrix(drift_matrix(cm), schedule.step_size)
            for cm in (system.a1, system.a2)]


def dense_floquet(system, schedule):
    """SwitchedPropagator._build_floquet's dict from the dense period map and eig.

    U2^d U1^d by binary powering, factored by eig.  Rows 0 and 1 of
    prefix r, the map of steps 0..r-1, are e^T U1^r up to the switch and
    (e^T U2^(r-d)) U1^d after it, as row products.  Like the period map,
    it keeps one multiplier per conjugate pair, eig's with Im > 0, since
    the sampler and state() take 2 Re of their sums over them; a real
    multiplier has no partner, so its amplitude gets half weight.
    O(dim^3) time and O(dim^2) memory.
    """
    d, dim = schedule.delta_t_steps, system.dim
    u1, u2 = step_maps(system, schedule)
    u1_d = np.linalg.matrix_power(u1, d)
    mu, s_mat = np.linalg.eig(np.linalg.matrix_power(u2, d) @ u1_d)
    keep = mu.imag >= 0.0
    weight = np.where(mu.imag > 0.0, 1.0, 0.5)[keep]

    def row_powers(u, n):
        """Rows 0 and 1 of u^k for k = 0..n-1."""
        out = np.empty((n, 2, dim))
        out[0] = np.eye(2, dim)
        for k in range(1, n):
            out[k] = out[k - 1] @ u
        return out

    after = row_powers(u2, d)[1:].reshape(-1, dim) @ u1_d
    prefix_rows = np.concatenate([row_powers(u1, d + 1), after.reshape(-1, 2, dim)])

    def state(w, r):
        v = 2.0 * (s_mat[:, keep] @ w).real
        for j in range(r):
            v = (u1 if j < d else u2) @ v
        return v

    return {"log_mu": np.log(mu[keep]), "rows01": prefix_rows @ s_mat[:, keep],
            "period": schedule.period_steps, "state": state,
            "amplitudes": lambda v0: weight * np.linalg.solve(s_mat, v0.astype(complex))[keep]}


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
def failing_dlasd4(monkeypatch):
    """Replace propagator's dlasd4 binding by a stub that reports info = 1 on every root.

    The binding takes the addresses of Fortran's arguments (n, i, d, z,
    delta, rho, sigma, work, info), n, i and info of its integer type
    dlasd4_int; the stub writes only info.
    """
    def stub(n, i, d, z, delta, rho, sigma, work, info):
        workers.dlasd4_int.from_address(info).value = 1

    monkeypatch.setattr(propagator, "dlasd4", stub)


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
        d = schedule.delta_t_steps
        maps = step_maps(system, schedule)
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
                           ("error", "ERROR"), ("xfailed", "XFAIL")):
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
