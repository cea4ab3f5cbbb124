"""Harmonic test particle and finite heat bath descriptions.

A single test particle of mass ``M`` and proper frequency ``Omega`` is
coupled to one or more baths of ``N`` harmonic oscillators of mass ``m``
through translationally invariant spring terms ``m w_n^2 (q_n - Q)^2 / 2``.
Everything here is classical and kB = 1, so temperatures are energies.

The phase-space layout used throughout is the interleaved vector

    v = (Q, P, q_1, p_1, ..., q_N, p_N)

with bath 2 coordinates appended after bath 1 when two baths are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

UNIFORM = "uniform"
INVERSE_SQUARE = "inverse_square"
SQUARE = "square"

# each family weights the band as the power w^k of the frequency
_DOS_EXPONENTS = {UNIFORM: 0, INVERSE_SQUARE: -2, SQUARE: 2}
_DOS_FAMILIES = tuple(_DOS_EXPONENTS)


@dataclass(frozen=True)
class DensityOfStates:
    """Bath frequency distribution on the band [omega_ir, omega_uv].

    The supported families weight the band as w^k with k = 0, -2 or 2
    (the weights 1, 1/w^2 and w^2).  With s = k + 1 the cumulative
    distribution is (w^s - a^s) / (b^s - a^s) on [a, b]; the inverse CDF
    and the density follow from it.  A band with omega_ir == omega_uv
    is the degenerate (zero bandwidth) bath where every oscillator sits
    at the same frequency.
    """

    family: str = UNIFORM
    omega_ir: float = 0.2
    omega_uv: float = 1.0

    def __post_init__(self):
        if self.family not in _DOS_FAMILIES:
            raise ValueError(
                f"unknown density of states family {self.family!r}; "
                f"expected one of {_DOS_FAMILIES}"
            )
        if not (0.0 < self.omega_ir <= self.omega_uv):
            raise ValueError(
                "frequency band must satisfy 0 < omega_ir <= omega_uv, got "
                f"[{self.omega_ir}, {self.omega_uv}]"
            )

    @property
    def degenerate(self) -> bool:
        return self.omega_ir == self.omega_uv

    def _power(self):
        """(s, a^s, b^s), the band edges raised to the CDF's power s = k + 1.

        numpy's array power (not its scalar power) takes exact paths for
        the exponents 1 and -1, a copy and 1/x, so the uniform and 1/w^2
        bands round as their closed forms a + u (b - a) and 1/(1/a - ...).
        """
        s = _DOS_EXPONENTS[self.family] + 1
        lo, hi = np.array([self.omega_ir, self.omega_uv]) ** s
        return s, lo, hi

    def ppf(self, u):
        """Map uniform draws u in [0, 1) to frequencies (inverse CDF)."""
        u = np.asarray(u, dtype=float)
        if self.degenerate:
            return np.full_like(u, self.omega_ir)
        s, lo, hi = self._power()
        # asarray: a 0-d u would otherwise take the scalar power
        return np.asarray(lo + u * (hi - lo)) ** (1.0 / s)

    def cdf(self, omega):
        omega = np.asarray(omega, dtype=float)
        if self.degenerate:
            return np.where(omega >= self.omega_ir, 1.0, 0.0)
        s, lo, hi = self._power()
        return np.clip((omega**s - lo) / (hi - lo), 0.0, 1.0)

    def pdf(self, omega):
        """Normalized density on the band; zero outside, undefined if degenerate."""
        if self.degenerate:
            raise ValueError("a zero bandwidth bath has no density of states")
        omega = np.asarray(omega, dtype=float)
        s, lo, hi = self._power()
        # s w^(s-1) / (b^s - a^s) written as s / (w^(1-s) (b^s - a^s)), so the
        # 1/w^2 band rounds as 1/(w^2 (1/a - 1/b)); w = 0 gives inf, no warning
        with np.errstate(divide="ignore"):
            d = s / (omega ** (1 - s) * (hi - lo))
        return np.where((omega >= self.omega_ir) & (omega <= self.omega_uv), d, 0.0)


@dataclass(frozen=True)
class TestParticleSpec:
    """Test particle parameters and initial phase-space point."""

    mass: float = 1.0
    omega: float = 1.0
    q0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"test particle mass must be positive, got {self.mass}")
        if self.omega < 0.0:
            raise ValueError(f"test particle frequency must be >= 0, got {self.omega}")


# the most oscillators one bath may hold.  A point holds about 1.8 KB per
# oscillator on the normal-mode path (a single point at N = 16000 and
# 32000 peaked 28 and 56 MB above the import) and 7.5 KB per oscillator of
# a switched pair (58 MB at 2 x 4000), so a bath at this bound stands for
# about 240 MB per exact point and, paired with another as large, 2 GB per
# switched point; a larger size is refused before any table is allocated
MAX_BATH_SIZE = 1 << 17

# the most samples one point may draw and the most bins its histogram may
# have.  A point holds up to 175 B per sample (tracemalloc peaks from 2e4 to
# 2e5 samples: 35 B on the normal-mode path, 85 B on a 2 x 200 switched
# pair, and on single-bath RK4 59 B at mean_interval 10 and 175 B at 0.5 to
# 0.005), so 2^20 samples stand for at most 180 MB, below the exact point
# at MAX_BATH_SIZE.  A point holds 33 B per bin while it fits, its curve
# keeps 16 B per bin of every point, and writing its histogram CSV takes
# 190 B per bin, so 2^16 bins stand for 2 MB, 1 MB per kept point and
# 13 MB; no more bins are needed than 2^20 samples fill with 16 each.  A
# larger count is refused before any table is allocated
MAX_SAMPLES = 1 << 20
MAX_BINS = 1 << 16


@dataclass(frozen=True)
class BathSpec:
    """Statistical description of one bath before any draw is made.

    Each error message begins with the name of the field it refuses.
    """

    size: int = 400
    mass: float = 0.01
    temperature: float = 5.0
    dos: DensityOfStates = field(default_factory=DensityOfStates)

    def __post_init__(self):
        if not 1 <= self.size <= MAX_BATH_SIZE:
            raise ValueError(f"size must be between 1 and MAX_BATH_SIZE = {MAX_BATH_SIZE} "
                             f"oscillators, got {self.size}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        # a subnormal temperature leaves energies too small to bin
        if not self.temperature >= np.finfo(float).tiny:      # NaN fails too
            raise ValueError(f"temperature must be positive and a normal float, "
                             f"at least {np.finfo(float).tiny!r}, got {self.temperature}")


@dataclass(frozen=True)
class BathRealization:
    """One concrete draw of a bath: its frequencies and phase-space point.

    The oscillators' masses are all m.  Their energies are not stored:
    ``energies`` derives them from (positions, momenta, frequencies, m),
    so they cannot disagree with the phase space they describe.
    """

    frequencies: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    m: float

    def __post_init__(self):
        n = len(self.frequencies)
        for name in ("positions", "momenta"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        if self.m <= 0.0:
            raise ValueError(f"oscillator mass must be positive, got {self.m}")

    @property
    def size(self) -> int:
        return len(self.frequencies)

    @property
    def energies(self) -> np.ndarray:
        """Free oscillator energies p_n^2/2m + m w_n^2 q_n^2 / 2."""
        return oscillator_energies(self.positions, self.momenta, self.frequencies, self.m)


def oscillator_energies(q, p, omega, m):
    """Free oscillator energies p^2/2m + m w^2 q^2 / 2, vectorized.

    The one place the harmonic energy is written: the test particle's,
    the bath's and the total Hamiltonian's all come from here.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return p * p / (2.0 * m) + 0.5 * m * omega**2 * q * q


@dataclass(frozen=True)
class SystemState:
    """Snapshot of the test particle and every bath at one instant."""

    time: float
    test_q: float
    test_p: float
    bath_q: tuple
    bath_p: tuple

    def __post_init__(self):
        if len(self.bath_q) != len(self.bath_p):
            raise ValueError(
                f"{len(self.bath_q)} position blocks but {len(self.bath_p)} momentum blocks"
            )
        for i, (q, p) in enumerate(zip(self.bath_q, self.bath_p)):
            if len(q) != len(p):
                raise ValueError(
                    f"bath {i}: {len(q)} positions but {len(p)} momenta"
                )

    def as_vector(self) -> np.ndarray:
        """Interleaved (Q, P, q_1, p_1, ...) vector, baths in order."""
        parts = [np.array([self.test_q, self.test_p])]
        for q, p in zip(self.bath_q, self.bath_p):
            block = np.empty(2 * len(q))
            block[0::2] = q
            block[1::2] = p
            parts.append(block)
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, vec, bath_sizes: Sequence[int], time: float = 0.0) -> "SystemState":
        vec = np.asarray(vec, dtype=float)
        expected = 2 + 2 * sum(bath_sizes)
        if vec.shape != (expected,):
            raise ValueError(f"state vector has shape {vec.shape}, expected ({expected},)")
        bath_q, bath_p = [], []
        offset = 2
        for n in bath_sizes:
            block = vec[offset:offset + 2 * n]
            bath_q.append(block[0::2].copy())
            bath_p.append(block[1::2].copy())
            offset += 2 * n
        return cls(time=time, test_q=float(vec[0]), test_p=float(vec[1]),
                   bath_q=tuple(bath_q), bath_p=tuple(bath_p))


def initial_state(tp: TestParticleSpec, realizations: Sequence) -> SystemState:
    """The state at t = 0: the particle at (q0, p0), each bath at its draw."""
    return SystemState(time=0.0, test_q=tp.q0, test_p=tp.p0,
                       bath_q=tuple(r.positions for r in realizations),
                       bath_p=tuple(r.momenta for r in realizations))


def bare_energy(q, p, tp: TestParticleSpec):
    """Test particle energy P^2/2M + M Omega^2 Q^2 / 2, vectorized.

    This is the energy of the isolated particle; interaction and bath
    renormalization terms are deliberately excluded.  It is the quantity
    histogrammed when fitting an effective particle temperature.
    """
    return oscillator_energies(q, p, tp.omega, tp.mass)


def total_energy(state: SystemState, tp: TestParticleSpec,
                 baths: Sequence[tuple]) -> float:
    """Full Hamiltonian of a state.

    Parameters
    ----------
    baths : sequence of (realization, active) pairs
        One entry per bath block in the state.  ``active`` selects the
        spring anchor: an engaged bath contributes m w^2 (q - Q)^2 / 2,
        a disengaged one m w^2 q^2 / 2 (free oscillators).
    """
    if len(baths) != len(state.bath_q):
        raise ValueError(
            f"state holds {len(state.bath_q)} baths but {len(baths)} were described"
        )
    h = float(bare_energy(state.test_q, state.test_p, tp))
    for i, ((real, active), q, p) in enumerate(zip(baths, state.bath_q, state.bath_p)):
        if len(q) != real.size:
            raise ValueError(
                f"bath {i}: state block has {len(q)} oscillators, realization has {real.size}"
            )
        anchor = state.test_q if active else 0.0
        h += float(np.sum(oscillator_energies(q - anchor, p, real.frequencies, real.m)))
    return h
