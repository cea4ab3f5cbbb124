"""Exact propagation of the coupled linear system by real normal modes.

With positions x = (Q, q_1, ..., q_N), momenta p and the diagonal mass
matrix M, the equations of motion are M x'' = -K x with a symmetric
stiffness K.  The generalized eigenproblem K u = nu^2 M u gives the
normal modes of particle and bath (Ullersma, Physica 32, 27 (1966)).
With the u_k mass-orthonormal,

    x(t) = sum_k u_k (a_k cos nu_k t + b_k sin nu_k t / nu_k)
    p(t) = M sum_k u_k (b_k cos nu_k t - a_k nu_k sin nu_k t)

where a_k = u_k . M x0 and b_k = u_k . p0, so after one factorization
the particle costs O(N) per observation time and the full state O(N^2).
The factorization is well conditioned even for fully degenerate baths.
A zero frequency mode (Omega = 0) has no such form and is rejected.

The dense drift matrix A of v' = A v, v = (Q, P, q_1, p_1, ...), is
needed only by RK4 stepping; drift_matrix builds it on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemState, TestParticleSpec


class NumericalError(RuntimeError):
    """Propagation produced values that cannot be trusted."""


class EigensolverError(NumericalError):
    """The normal mode factorization failed."""


# (m, frequencies, active) triple describing one bath block of the matrix
def _blocks_from(baths):
    blocks = []
    for m, freqs, active in baths:
        freqs = np.asarray(freqs, dtype=float)
        if np.any(freqs <= 0.0):
            raise ValueError("bath frequencies must be positive")
        blocks.append((float(m), freqs, bool(active)))
    return blocks


@dataclass(frozen=True)
class CouplingMatrix:
    """Parameters of one contact phase: the particle and every bath.

    Inactive baths evolve as free oscillators and exert no force on the
    particle.  ``static_renorm`` keeps every bath's spring sum in the
    particle stiffness even while that bath's linear coupling is
    disengaged.
    """

    tp: TestParticleSpec
    bath_masses: tuple
    bath_frequencies: tuple
    active: tuple
    static_renorm: bool = False

    @property
    def bath_sizes(self) -> tuple:
        return tuple(len(f) for f in self.bath_frequencies)

    @property
    def dim(self) -> int:
        return 2 + 2 * sum(self.bath_sizes)


def build_multi_coupling_matrix(tp: TestParticleSpec, baths,
                                static_renorm: bool = False) -> CouplingMatrix:
    """Coupling description for any number of baths, each engaged or free.

    baths is a sequence of (m, frequencies, active) triples.  With
    static_renorm the spring sums of the inactive baths still stiffen
    the particle (their linear coupling stays off).
    """
    blocks = _blocks_from(baths)
    return CouplingMatrix(tp=tp,
                          bath_masses=tuple(b[0] for b in blocks),
                          bath_frequencies=tuple(b[1] for b in blocks),
                          active=tuple(b[2] for b in blocks),
                          static_renorm=static_renorm)


def drift_matrix(cm: CouplingMatrix) -> np.ndarray:
    """Dense drift matrix A of v' = A v, (2 + 2N) square."""
    a = np.zeros((cm.dim, cm.dim))
    a[0, 1] = 1.0 / cm.tp.mass
    a[1, 0] = -cm.tp.mass * cm.tp.omega**2
    col = 2
    for m, freqs, active in zip(cm.bath_masses, cm.bath_frequencies, cm.active):
        for w in freqs:
            k = m * w * w
            a[col, col + 1] = 1.0 / m
            a[col + 1, col] = -k
            if active:
                a[1, 0] -= k
                a[1, col] = k
                a[col + 1, 0] = k
            elif cm.static_renorm:
                a[1, 0] -= k
            col += 2
    return a


def _stiffness(cm: CouplingMatrix):
    """Mass vector and stiffness matrix of the position-space problem."""
    sizes = cm.bath_sizes
    n = 1 + sum(sizes)
    mass = np.empty(n)
    mass[0] = cm.tp.mass
    k = np.zeros((n, n))
    k[0, 0] = cm.tp.mass * cm.tp.omega**2
    j = 1
    for m, freqs, active in zip(cm.bath_masses, cm.bath_frequencies, cm.active):
        nn = len(freqs)
        spring = m * freqs**2
        mass[j:j + nn] = m
        k[np.arange(j, j + nn), np.arange(j, j + nn)] = spring
        if active:
            k[0, 0] += float(np.sum(spring))
            k[0, j:j + nn] = -spring
            k[j:j + nn, 0] = -spring
        elif cm.static_renorm:
            k[0, 0] += float(np.sum(spring))
        j += nn
    return mass, k


@dataclass
class EigenPropagator:
    """Real normal-mode solution of one initial value problem."""

    cm: CouplingMatrix
    nu: np.ndarray                # (n,) mode angular frequencies
    modes: np.ndarray             # (n, n) mass-orthonormal mode shapes
    mass: np.ndarray              # (n,) position-space masses
    coef_cos: np.ndarray          # (n,) mode amplitudes a_k = u_k . M x0
    coef_sin: np.ndarray          # (n,) mode amplitudes b_k = u_k . p0

    def sample_test_particle(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) at many times through the real mode form, O(N) per time."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        u0 = self.modes[0]
        qc = u0 * self.coef_cos
        qs = u0 * self.coef_sin / self.nu
        pc = u0 * self.coef_sin
        ps = u0 * self.coef_cos * self.nu
        q = np.empty(len(times))
        p = np.empty(len(times))
        # chunked so the (times x modes) trig tables stay cache friendly
        step = max(1, 2_000_000 // max(len(self.nu), 1))
        m0 = self.cm.tp.mass
        for lo in range(0, len(times), step):
            tt = times[lo:lo + step]
            ph = np.outer(tt, self.nu)
            c = np.cos(ph)
            s = np.sin(ph)
            q[lo:lo + step] = c @ qc + s @ qs
            p[lo:lo + step] = m0 * (c @ pc - s @ ps)
        return q, p


def _as_vector(v0, dim):
    if isinstance(v0, SystemState):
        v0 = v0.as_vector()
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (dim,):
        raise ValueError(f"initial state has shape {v0.shape}, expected ({dim},)")
    return v0


ZERO_MODE_CUTOFF = 1e-9


def diagonalize(cm: CouplingMatrix, v0) -> EigenPropagator:
    """Factor the system and bind an initial state.

    Raises EigensolverError if the factorization fails or the system
    has a zero frequency mode (Omega = 0); perturbing exactly degenerate
    frequencies by one part in 1e12 is usually enough in the first case.
    """
    v0 = _as_vector(v0, cm.dim)
    mass, k = _stiffness(cm)
    s = 1.0 / np.sqrt(mass)
    try:
        lam, vec = np.linalg.eigh(k * np.outer(s, s))
    except np.linalg.LinAlgError as err:
        raise EigensolverError(
            "normal mode eigensolver did not converge; perturb degenerate "
            "frequencies by ~1e-12 relative or propagate with RK4"
        ) from err
    scale = max(float(lam[-1]), 1.0)
    if lam[0] < -ZERO_MODE_CUTOFF * scale:
        raise EigensolverError(
            f"stiffness matrix is indefinite (min eigenvalue {lam[0]:.3e}); "
            "the model Hamiltonian cannot produce this"
        )
    if lam[0] <= ZERO_MODE_CUTOFF * scale:
        raise EigensolverError(
            "system has a zero frequency mode (Omega = 0?); "
            "the spectral propagator does not apply"
        )

    modes = vec * s[:, None]          # mass orthonormal
    nu = np.sqrt(lam)
    a = modes.T @ (mass * v0[0::2])
    b = modes.T @ v0[1::2]
    return EigenPropagator(cm=cm, nu=nu, modes=modes, mass=mass,
                           coef_cos=a, coef_sin=b)


def full_state(prop: EigenPropagator, t: float) -> SystemState:
    """Reconstruct every coordinate at time t (O(N^2))."""
    ph = prop.nu * t
    c = np.cos(ph)
    s = np.sin(ph)
    x = prop.modes @ (prop.coef_cos * c + prop.coef_sin * s / prop.nu)
    p = prop.mass * (prop.modes @ (prop.coef_sin * c - prop.coef_cos * prop.nu * s))
    vec = np.empty(2 * len(x))
    vec[0::2] = x
    vec[1::2] = p
    return SystemState.from_vector(vec, prop.cm.bath_sizes, time=t)


def mode_residual(prop: EigenPropagator) -> float:
    """|| K U - M U diag(nu^2) || / || K ||, the defining check of the modes."""
    mass, k = _stiffness(prop.cm)
    res = k @ prop.modes - (mass[:, None] * prop.modes) * prop.nu**2
    return float(np.linalg.norm(res) / np.linalg.norm(k))
