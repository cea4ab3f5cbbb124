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

_DOS_FAMILIES = (UNIFORM, INVERSE_SQUARE, SQUARE)


@dataclass(frozen=True)
class DensityOfStates:
    """Bath frequency distribution on the band [omega_ir, omega_uv].

    The supported families weight the band as 1, 1/w^2 or w^2.  A band
    with omega_ir == omega_uv is the degenerate (zero bandwidth) bath
    where every oscillator sits at the same frequency.
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

    def ppf(self, u):
        """Map uniform draws u in [0, 1) to frequencies (inverse CDF)."""
        u = np.asarray(u, dtype=float)
        a, b = self.omega_ir, self.omega_uv
        if self.degenerate:
            return np.full_like(u, a)
        if self.family == UNIFORM:
            return a + u * (b - a)
        if self.family == SQUARE:
            return np.cbrt(a**3 + u * (b**3 - a**3))
        # inverse square: cdf(w) = (1/a - 1/w) / (1/a - 1/b)
        return 1.0 / (1.0 / a - u * (1.0 / a - 1.0 / b))

    def cdf(self, omega):
        omega = np.asarray(omega, dtype=float)
        a, b = self.omega_ir, self.omega_uv
        if self.degenerate:
            return np.where(omega >= a, 1.0, 0.0)
        if self.family == UNIFORM:
            c = (omega - a) / (b - a)
        elif self.family == SQUARE:
            c = (omega**3 - a**3) / (b**3 - a**3)
        else:
            c = (1.0 / a - 1.0 / omega) / (1.0 / a - 1.0 / b)
        return np.clip(c, 0.0, 1.0)

    def pdf(self, omega):
        """Normalized density on the band; zero outside, undefined if degenerate."""
        if self.degenerate:
            raise ValueError("a zero bandwidth bath has no density of states")
        omega = np.asarray(omega, dtype=float)
        a, b = self.omega_ir, self.omega_uv
        if self.family == UNIFORM:
            d = np.full_like(omega, 1.0 / (b - a))
        elif self.family == SQUARE:
            d = 3.0 * omega**2 / (b**3 - a**3)
        else:
            with np.errstate(divide="ignore"):
                d = 1.0 / (omega**2 * (1.0 / a - 1.0 / b))
        return np.where((omega >= a) & (omega <= b), d, 0.0)


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


@dataclass(frozen=True)
class BathSpec:
    """Statistical description of one bath before any draw is made."""

    size: int = 400
    mass: float = 0.01
    temperature: float = 5.0
    dos: DensityOfStates = field(default_factory=DensityOfStates)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"bath size must be >= 1, got {self.size}")
        if self.mass <= 0.0:
            raise ValueError(f"bath oscillator mass must be positive, got {self.mass}")
        if self.temperature <= 0.0:
            raise ValueError(f"bath temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class BathRealization:
    """One concrete draw of a bath: frequencies, energies and phase space.

    The stored energies must reproduce p_n^2/2m + m w_n^2 q_n^2 / 2 to a
    relative 1e-12; the constructor enforces this so any downstream code
    can treat the three views as interchangeable.
    """

    frequencies: np.ndarray
    energies: np.ndarray
    positions: np.ndarray
    momenta: np.ndarray
    m: float
    seed: int | None = None

    def __post_init__(self):
        n = len(self.frequencies)
        for name in ("energies", "positions", "momenta"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        if self.m <= 0.0:
            raise ValueError(f"oscillator mass must be positive, got {self.m}")
        recomputed = oscillator_energies(self.positions, self.momenta, self.frequencies, self.m)
        if not np.allclose(self.energies, recomputed, rtol=1e-12, atol=1e-300):
            worst = int(np.argmax(np.abs(self.energies - recomputed)))
            raise ValueError(
                "stored energies disagree with phase space: oscillator "
                f"{worst} has E={self.energies[worst]!r} but "
                f"p^2/2m + m w^2 q^2/2 = {recomputed[worst]!r}"
            )

    @property
    def size(self) -> int:
        return len(self.frequencies)


def oscillator_energies(q, p, omega, m):
    """Free oscillator energies p^2/2m + m w^2 q^2 / 2, vectorized."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return p * p / (2.0 * m) + 0.5 * m * omega * omega * q * q


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


def bare_energy(q, p, tp: TestParticleSpec):
    """Test particle energy P^2/2M + M Omega^2 Q^2 / 2, vectorized.

    This is the energy of the isolated particle; interaction and bath
    renormalization terms are deliberately excluded.  It is the quantity
    histogrammed when fitting an effective particle temperature.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return p * p / (2.0 * tp.mass) + 0.5 * tp.mass * tp.omega**2 * q * q


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
        w = real.frequencies
        h += float(np.sum(p * p) / (2.0 * real.m)
                   + 0.5 * real.m * np.sum(w * w * (q - anchor) ** 2))
    return h
