"""Alternating contact with two baths, integrated by classical RK4.

The coupling is switched as a square wave: bath 1 is engaged during
step blocks [2k dT, (2k+1) dT) and bath 2 during the complementary
blocks.  Two drift matrices A1 and A2 of the same dimension describe
the two contact phases; during its off phase a bath evolves freely and
exerts no force on the particle.

Switching happens only on step boundaries, and observations are snapped
to the nearest completed step (distance <= dt/2, reported).

Because the system is linear, one classical RK4 step equals multiplying
by R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.  A switched run
factors the map over one full switching period once, after which no
sample needs stepping.  With the period map S diag(mu) S^-1 and
v' = S^-1 v0, the particle after k periods and r more steps is
Re sum_j c_j mu_j^k, c = (rows 0 and 1 of the first r steps' map) S
times v'.  The multipliers come in conjugate pairs mu, conj(mu) with
coefficients c, c', so each pair is summed once, as Re (c + conj c')
mu^k; the imaginary parts, Im (c - conj c') mu^k, must cancel to 1e-9
of sum_j |c_j| |mu_j|^k.  propagator.banded_sums evaluates the sums of
each residue class r, as it samples the normal modes, with theta = arg
mu in the upper half plane and d = log |mu|: the pairs whose arg lies
within that of R(i h w)^period over the bath frequencies w through one
type-3 transform, the others (two of 401 at 2 x 200) directly.  Folding
the pairs halves the band the transform grids.

The period map is factored in O(N^2) time and O(N) memory, without
forming it.  In phase 1's normal modes (diagonalize(a1), bath 2 free) a
phase-1 step is the diagonal R(+-i h nu_k), and A2 - A1 has rank 2 (the
particle's momentum row and position column), so the period map is that
diagonal to the power 2d plus a correction of rank r <= 8d, compressed
to its numerical rank (4 to 20 in practice).  Its multipliers are the
roots of a secular equation, found by Aberth-Ehrlich iteration started
at the poles (Bini & Robol, J. Comput. Appl. Math. 272, 2014); the
eigenvectors and v' are closed forms in those roots (_ModalPeriodMap).
The dense route forms the two step maps and the period map and calls
eig: for a correction whose rank is not small against the dimension
(RANK_PER_DIM), a root iteration that fails (as at a real multiplier of
a resonant schedule), a structured residual above QUALITY_TOL, and a
system diagonalize rejects (Omega = 0).  It builds the period map by
binary powering and the rows of its step prefixes as row products, so
it costs O(log d N^3 + d N^2) whatever the run's length.  Every switched
run, however short, is sampled through the period map.  A dense
factorization whose residual looks degraded is a NumericalError.  So
is a parametrically resonant schedule, one whose period map has a
multiplier |mu| > 1 that grows by more than e^GROWTH_TOL over the run:
its samples would be fitted as an enormous temperature.

Continuous contact (both phases the same matrix) needs no period map.
R(hA) has the normal modes of the exact flow, and one step multiplies
mode k by R(i h nu_k) = rho_k e^{i phi_k}, so n steps are sampled in
closed form through the secular-equation modes: phases n phi_k and
amplitudes rho_k^n, RK4's own small damping included.  Like the exact
propagator it rejects a zero frequency mode (Omega = 0).

A step beyond RK4's stability limit, h nu_max > 2 sqrt(2) for the
fastest normal mode of either contact phase, is rejected up front: the
run would otherwise grow by orders of magnitude without overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemState, TestParticleSpec, initial_state
from .propagator import (RK4_STABILITY_LIMIT, SHAPE_BLOCK, CouplingMatrix,
                         EigensolverError, NumericalError, _view, banded_sums,
                         build_multi_coupling_matrix, check_rk4_stability,
                         diagonalize, drift_matrix, max_mode_frequency,
                         mode_amplitudes, mode_vector, rk4_full_state,
                         rk4_mode_factors)


@dataclass(frozen=True)
class SwitchSchedule:
    """Square wave contact schedule in units of RK4 steps."""

    delta_t_steps: int = 1
    step_size: float = 0.02

    def __post_init__(self):
        if self.delta_t_steps < 1:
            raise ValueError(f"delta_t_steps must be >= 1, got {self.delta_t_steps}")
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")

    @property
    def period_steps(self) -> int:
        return 2 * self.delta_t_steps


STEPS_PER_PERIOD = 50


def default_step_size(*phases: CouplingMatrix) -> float:
    """2 pi / (STEPS_PER_PERIOD w), w the largest bare frequency unless RK4 is unstable there.

    w is the largest of the bath frequencies and the particle's Omega:
    a stiff particle that RK4 does not resolve would be damped
    artificially over long runs.  These are bare frequencies, not normal
    modes.  The top root of the secular equation lies above the highest
    bath frequency, so the fastest normal mode gets fewer than
    STEPS_PER_PERIOD steps per period, and against a heavy bath that
    step would exceed RK4's stability limit (check_rk4_stability).  Only
    then is w the fastest normal mode nu_max of the contact phases, which
    all share one particle and one set of baths; a step that is stable
    under the bare rule is kept.
    """
    w = max(float(np.max(phases[0].w)), phases[0].tp.omega)
    nu_max = max(max_mode_frequency(cm) for cm in phases)
    if 2.0 * np.pi / w / STEPS_PER_PERIOD * nu_max > RK4_STABILITY_LIMIT:
        w = nu_max
    return 2.0 * np.pi / w / STEPS_PER_PERIOD


@dataclass(frozen=True)
class TwoBathSystem:
    """Test particle plus its bath realizations and both contact phases.

    With one realization the system is one bath in continuous contact, a1
    and a2 both describing the engaged bath; switched contact has two, a1
    engaging bath 1 and a2 bath 2.  The renormalization is already in
    each phase's corner alpha0: under "switched" renormalization a
    disengaged bath's spring sum leaves the particle stiffness together
    with its linear coupling, under "static" every bath's spring sum
    stays in both phases so only the linear coupling alternates.
    """

    tp: TestParticleSpec
    realizations: tuple    # BathRealization per bath, bath 1 first
    a1: CouplingMatrix
    a2: CouplingMatrix

    @property
    def dim(self) -> int:
        return self.a1.dim

    def initial_vector(self) -> np.ndarray:
        return initial_state(self.tp, self.realizations).as_vector()


def build_switched_matrices(tp: TestParticleSpec, real1, real2,
                            renormalization: str = "switched") -> TwoBathSystem:
    """Build A1 (bath 1 engaged) and A2 (bath 2 engaged) from two realizations."""
    if renormalization not in ("switched", "static"):
        raise ValueError(f"unknown renormalization {renormalization!r}")
    if real2 is None:
        raise ValueError("switched contact needs a second bath")
    static = renormalization == "static"
    a1 = build_multi_coupling_matrix(
        tp, [(real1.m, real1.frequencies, True), (real2.m, real2.frequencies, False)],
        static_renorm=static)
    a2 = build_multi_coupling_matrix(
        tp, [(real1.m, real1.frequencies, False), (real2.m, real2.frequencies, True)],
        static_renorm=static)
    return TwoBathSystem(tp=tp, realizations=(real1, real2), a1=a1, a2=a2)


def rk4_update_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """The linear map of one classical RK4 step, I + hA + ... + (hA)^4/24."""
    eye = np.eye(a.shape[0])
    ha = h * a
    u = eye + ha / 4.0
    u = eye + (ha / 3.0) @ u
    u = eye + (ha / 2.0) @ u
    return eye + ha @ u


def _compress(x, y):
    """Thin factors of x y^H at its numerical rank: a thin QR of each, an SVD of the core.

    Singular values at or below RANK_TOL of the largest, the rounding
    level of the product itself, are dropped.
    """
    qx, rx = np.linalg.qr(x)
    qy, ry = np.linalg.qr(y)
    u, sv, vh = np.linalg.svd(rx @ ry.conj().T)
    k = int(np.sum(sv > RANK_TOL * np.max(sv, initial=0.0)))
    return qx @ (u[:, :k] * sv[:k]), qy @ vh[:k].conj().T


def _with_conjugates(a):
    """Each entry of a's last axis followed by its conjugate.

    That keeps conjugate pairs adjacent, as LAPACK's eig returns them, so
    _fold pairs the multipliers of both routes of the period map alike.
    """
    return np.stack([a, a.conj()], axis=-1).reshape(a.shape[:-1] + (-1,))


def _fold(log_mu):
    """(keep, mate): one multiplier per conjugate pair, and its mate's index (-1 for none).

    A multiplier in the upper half plane that is directly followed by its
    exact conjugate, as both routes of the period map order them, is
    kept with that mate; every other multiplier is kept on its own.
    """
    paired = np.r_[(log_mu[:-1].imag > 0.0) & (log_mu[1:] == log_mu[:-1].conj()), False]
    keep = np.flatnonzero(~np.r_[False, paired[:-1]])
    return keep, np.where(paired[keep], keep + 1, -1)


EPS = np.finfo(float).eps
RANK_TOL = 4.0 * EPS
# Aberth sweeps before the structured route gives up
MAX_SWEEPS = 60
# the structured route runs while the compressed rank r of the period map's
# correction satisfies RANK_PER_DIM r <= dim (see _ModalPeriodMap.applies)
RANK_PER_DIM = 8


class _ModalPeriodMap:
    """The period map in phase 1's normal modes, D + X Y^H, never formed densely.

    Mode k of phase 1 (diagonalize(a1): bath 1 engaged, bath 2 free)
    carries z_k = a_k - i b_k / nu_k from its position and momentum
    amplitudes, which one phase-1 RK4 step multiplies by R(i h nu_k).  A
    state is the 2n vector (z, conj z); a real state is
    conjugate-symmetric.  L = A2 - A1 lives in P's row and Q's column, so
    here it is X_L Y_L^H with two columns, built from u_k[0] and one
    projection of the spring differences.  One phase-2 step is
    Lam + X_E Y_E^H with

        E = R(h(Lam_A + L)) - R(h Lam_A)
          = sum_{j<=3} (A2^j X_L) (Y_L^H sum_{k>j} h^k/k! Lam_A^(k-1-j)),

    rank <= 8, where Lam_A = diag(+-i nu) and Lam = R(h Lam_A).  The period
    map U2^d U1^d = Lam^2d + sum_{j<d} (U2^j X_E)(Y_E^H Lam^(2d-1-j)) is
    the diagonal D = Lam^2d plus rank <= 8d.  It is formed as factors by
    binary powering of U2, each product compressed to its numerical rank,
    which grows far slower than 8d (4 at d = 1, 20 at d = 250 with
    h = 0.02 on 2 x 200 oscillators).  Its multipliers are mu = 1 + sigma,
    sigma the roots of det(T - sigma + X Y^H), T = D - 1 taken by expm1 of
    the exact log phases, so every difference t_k - sigma keeps its
    relative accuracy.  Nothing of size dim^2 is formed: each pass over the
    roots takes SHAPE_BLOCK of them at a time, through closed forms in the
    r x r null vectors, and writes a block's rows into the map's two work
    buffers.  floquet() finds the roots and vectors; amplitudes() and
    state() use them.
    """

    def __init__(self, system: TwoBathSystem, schedule: SwitchSchedule):
        a1, a2 = system.a1, system.a2
        h, self.d = schedule.step_size, schedule.delta_t_steps
        # L's bath column: the spring differences Delta K_n0 = sqrt(M m_n)
        # Delta z_n.  Bound to the state with these momenta, the modes'
        # b amplitudes are kappa_k = u_k . Delta K_0 (EigensolverError at Omega = 0)
        kick = np.zeros(system.dim)
        kick[3::2] = np.sqrt(a1.mass[0] * a1.mass[1:]) * (a2.z - a1.z)
        self.modes = diagonalize(a1, kick)
        nu, u0, kappa = self.modes.nu, self.modes.u0, self.modes.coef_sin
        dk00 = system.tp.mass * (a2.alpha - a1.alpha)
        phi, log_rho = rk4_mode_factors(nu, h)
        self.log_step = np.r_[log_rho + 1j * phi, log_rho - 1j * phi]
        self.step = np.exp(self.log_step)
        lam = np.r_[1j * nu, -1j * nu]
        # a momentum kick db moves z by -i db / nu; Q and the force on P
        # read the position amplitudes a_k = (z_k + conj z_k) / 2
        x_l = np.stack([np.r_[-1j * u0 / nu, 1j * u0 / nu],
                        np.r_[-1j * kappa / nu, 1j * kappa / nu]], axis=1)
        y_l = -0.5 * np.stack([np.tile(dk00 * u0 + kappa, 2), np.tile(u0, 2)],
                              axis=1).astype(complex)
        xs, ys = [x_l], []
        for j in range(4):
            if j:
                xs.append(lam[:, None] * xs[-1] + x_l @ (y_l.conj().T @ xs[-1]))
            coef = sum(h**k / math.factorial(k) * lam ** (k - 1 - j)
                       for k in range(j + 1, 5))
            ys.append(coef.conj()[:, None] * y_l)
        self.x_e, self.y_e = _compress(np.hstack(xs), np.hstack(ys))

    def _times(self, left, right):
        """(Lam^a + A B^H)(Lam^b + C D^H) = Lam^(a+b) + [A, Lam^a C + A B^H C][conj(Lam^b) B, D]^H."""
        (a, fa, fb), (b, fc, fd) = left, right
        lam_a = np.exp(a * self.log_step)[:, None]
        lam_b = np.exp(b * self.log_step).conj()[:, None]
        return (a + b, *_compress(np.hstack([fa, lam_a * fc + fa @ (fb.conj().T @ fc)]),
                                  np.hstack([lam_b * fb, fd])))

    @cached_property
    def _factors(self):
        """X, Y, W and T of the period map D + X Y^H = U2^d Lam^d, or None.

        U2^d by binary powering of Lam + X_E Y_E^H, each product compressed;
        None as soon as a rank fails applies().  W[k] = conj(Y_k) (x) X_k,
        so Y^H diag(g) X = (g @ W).reshape(r, r).
        """
        power, base, d = None, (1, self.x_e, self.y_e), self.d
        while True:
            if d & 1:
                power = base if power is None else self._times(power, base)
                if not self.applies(power[1].shape[1]):
                    return None
            d >>= 1
            if not d:
                break
            base = self._times(base, base)
        x, y = power[1], np.exp(self.d * self.log_step).conj()[:, None] * power[2]
        r = x.shape[1]
        w = (y.conj()[:, :, None] * x[:, None, :]).reshape(-1, r * r)
        return x, y, w, np.expm1(2 * self.d * self.log_step)

    def applies(self, rank: int) -> bool:
        """The measured crossover: the structured route runs while RANK_PER_DIM r <= dim.

        Rank 0, two contact phases that are equal, has no secular equation.
        """
        return 0 < RANK_PER_DIM * rank <= len(self.step)

    def phase2(self, v):
        """One phase-2 RK4 step of the modal vector v."""
        return self.step * v + self.x_e @ (self.y_e.conj().T @ v)

    @cached_property
    def _work(self):
        """Two flat buffers of SHAPE_BLOCK roots by dim, reused by every block.

        The first holds a block's resolvent rows (or the Aberth step's root
        differences), the second their squares or the block's right vectors.
        """
        dim = len(self._factors[3])
        return np.empty((2, min(SHAPE_BLOCK, dim // 2) * dim), complex)

    def _resolvent(self, sigma):
        """Rows g_jk = 1 / (t_k - sigma_j): the diagonal of (T - sigma_j)^-1 per root.

        A view of the first work buffer, valid until the next call.
        """
        t = self._factors[3]
        g = np.subtract(t, sigma[:, None], out=_view(self._work[0], (len(sigma), len(t))))
        return np.reciprocal(g, out=g)

    def _secular(self, g, power=1):
        """Y^H (T - sigma)^-power X per root (power 1 and 2: S(sigma) - I and S'(sigma))."""
        x, _, w, _ = self._factors
        r = x.shape[1]
        if power == 2:
            g = np.multiply(g, g, out=_view(self._work[1], g.shape))
        return (g @ w).reshape(-1, r, r)

    def roots(self):
        """sigma with Im >= 0 by Aberth-Ehrlich iteration from the poles, or None.

        f(sigma) = det(T - sigma) det S(sigma), f'/f = sum_k 1/(sigma - t_k)
        + tr(S^-1 Y^H (T - sigma)^-2 X), and each root moves by 1 / (f'/f -
        sum_j 1/(sigma - sigma_j)) over the other roots.  One root per
        conjugate pair of poles is iterated, from the pole with Im >= 0
        plus its first-order shift (X Y^H)_kk; the roots below the real
        axis are their conjugates, counted in that sum, so conjugate pairs
        stay exact.  A real multiplier, as of a resonant schedule, is
        therefore not reached: its root bounces across the axis, while a
        complex root crosses it at most once, to settle as the conjugate
        of its start.  A root whose step exceeds its distance to the axis
        is iterated on its own at once, and the iteration gives up (None)
        when it crosses the axis a second time, before the other roots
        have converged.  A root stops once its step is below 4 eps of it,
        or below sqrt(eps) of it and no smaller than the step before: the
        iteration has reached its rounding floor.  None also when a root
        does not stop within MAX_SWEEPS sweeps or an iterate leaves the
        finite numbers.
        """
        x, y, _, t = self._factors
        n = len(t) // 2
        upper = np.where(t[:n].imag >= 0.0, np.arange(n), np.arange(n, 2 * n))
        sigma = t[upper] + np.einsum("ij,ij->i", x[upper], y[upper].conj())
        last, crossed = np.full(n, np.inf), np.zeros(n, bool)

        def sweep(active):
            """Move the roots `active` once; (still going, near the axis), or None."""
            going, near, every = [], [], np.r_[sigma, sigma.conj()]
            for lo in range(0, len(active), SHAPE_BLOCK):
                idx = active[lo:lo + SHAPE_BLOCK]
                step = self._aberth_steps(every, idx)
                if not np.all(np.isfinite(step)):
                    return None
                across = np.sign((sigma[idx] - step).imag) != np.sign(sigma[idx].imag)
                if np.any(crossed[idx] & across):
                    return None
                crossed[idx] |= across
                size, scale = np.abs(step), np.abs(sigma[idx])
                done = (size <= 4.0 * EPS * scale) | (
                    (size >= last[idx]) & (size <= np.sqrt(EPS) * scale))
                near.append(idx[~done & (size > np.abs(sigma[idx].imag))])
                going.append(idx[~done])
                last[idx] = size
                sigma[idx] -= step
            return np.concatenate(going), np.concatenate(near)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            active = np.arange(n)
            for _ in range(MAX_SWEEPS):
                moved = sweep(active)
                if moved is None:
                    return None
                active, near = moved
                for _ in range(MAX_SWEEPS):
                    if not len(near):
                        break
                    moved = sweep(near)
                    if moved is None:
                        return None
                    near = moved[0]
                if not len(active):
                    return sigma
        return None

    def _aberth_steps(self, every, idx):
        """Aberth-Ehrlich steps of the roots every[idx]; every holds all roots, then their conjugates."""
        roots = every[idx]
        g = self._resolvent(roots)
        eye = np.eye(self._factors[0].shape[1])
        trace = np.trace(np.linalg.solve(eye + self._secular(g), self._secular(g, 2)),
                         axis1=1, axis2=2)
        pull = g.sum(axis=1)
        # g's buffer now holds 1 / (sigma_i - sigma_j) over every root j != i
        g = np.subtract.outer(roots, every, out=g)
        g[np.arange(len(idx)), idx] = np.inf
        return 1.0 / (trace - pull - np.reciprocal(g, out=g).sum(axis=1))

    def _blocks(self):
        """Yield (idx, g, c, ct): SHAPE_BLOCK roots, their resolvent rows and null vectors."""
        for lo in range(0, len(self.sigma), SHAPE_BLOCK):
            idx = np.arange(lo, min(lo + SHAPE_BLOCK, len(self.sigma)))
            yield idx, self._resolvent(self.sigma[idx]), self.null[0][idx], self.null[1][idx]

    def floquet(self, quality_tol: float):
        """_build_floquet's dict for this map, or None where the dense route must run.

        Root j's right eigenvector is s = (T - sigma)^-1 X c and its left one
        w = (T - sigma)^-H Y c~, with c and c~ the right and left null
        vectors of S(sigma); so w^H s = c~^H S'(sigma) c and Y^H s = (S - I) c.
        None when the roots fail or the residual ||D s + X (Y^H s) - mu s||
        = ||X S(sigma) c|| (unit s, both halves of each conjugate pair)
        exceeds quality_tol of ||D + X Y^H||_F.
        """
        sigma = self.roots()
        if sigma is None:
            return None
        x, y, w, t = self._factors
        n, r = len(sigma), x.shape[1]
        self.sigma, self.null = sigma, np.empty((2, n, r), complex)
        # rows 0 and 1 (Q and P) of the map of the first r steps, r < 2d:
        # Q = sum u0 a_k and P = M sum u0 b_k, with b_k = i nu (z - conj z) / 2.
        # That map is Lam^r up to the switch and U2^(r-d) Lam^d after it
        nu, u0 = self.modes.nu, self.modes.u0
        row = np.stack([np.tile(0.5 * u0, 2),
                        self.modes.cm.tp.mass * np.r_[0.5j * nu * u0, -0.5j * nu * u0]])
        rows = [row * np.exp(k * self.log_step) for k in range(self.d + 1)]
        lam_d = np.exp(self.d * self.log_step)
        for _ in range(self.d - 1):
            row = row * self.step + (row @ self.x_e) @ self.y_e.conj().T
            rows.append(row * lam_d)
        rows = np.stack(rows)
        rows01 = np.empty(rows.shape[:2] + (n,), complex)
        self.wsdot = np.empty(n, complex)
        xx = x.conj().T @ x
        res2 = 0.0
        for lo in range(0, n, SHAPE_BLOCK):
            idx = np.arange(lo, min(lo + SHAPE_BLOCK, n))
            g = self._resolvent(sigma[idx])
            sm = np.eye(r) + self._secular(g)
            u, _, vh = np.linalg.svd(sm)
            c, ct = vh[:, -1, :].conj(), u[:, :, -1]
            self.null[0][idx], self.null[1][idx] = c, ct
            self.wsdot[idx] = np.einsum("ja,jab,jb->j", ct.conj(), self._secular(g, 2), c)
            right = np.matmul(x, c.T, out=_view(self._work[1], (len(t), len(idx))))
            right *= g.T
            rows01[..., idx] = rows @ right
            kernel = np.einsum("jab,jb->ja", sm, c)
            res2 += float(np.sum(np.einsum("ja,ab,jb->j", kernel.conj(), xx, kernel).real
                                 / (np.einsum("ij,ij->j", right.real, right.real)
                                    + np.einsum("ij,ij->j", right.imag, right.imag))))
        d_full = 1.0 + t
        norm2 = (np.sum(np.abs(d_full) ** 2)
                 + 2.0 * np.sum((d_full.conj() * np.einsum("ij,ij->i", x, y.conj())).real)
                 + np.sum(xx * (y.conj().T @ y).T).real)
        self.residual_sq = 2.0 * res2 / norm2
        if not self.residual() <= quality_tol:      # NaN fails too
            return None
        return {"log_mu": _with_conjugates(self.log_mu(sigma)),
                "rows01": _with_conjugates(rows01), "period": 2 * self.d,
                "amplitudes": self.amplitudes, "state": self.state}

    def residual(self) -> float:
        """The relative eigenpair residual of the last floquet() call."""
        return float(np.sqrt(self.residual_sq))

    @staticmethod
    def log_mu(sigma):
        """log(1 + sigma) without cancellation in log |mu|."""
        return (0.5 * np.log1p(2.0 * sigma.real + np.abs(sigma) ** 2)
                + 1j * np.arctan2(sigma.imag, 1.0 + sigma.real))

    def _combine(self, coef):
        """S coef for coefficients coef of the upper roots and conj(coef) of the lower.

        A lower root's eigenvector is its upper partner's conjugate with the
        halves swapped, so S coef = u + swap(conj u) with u = sum_j s_j coef_j
        over the upper roots, u = sum_a X_a (g^T (c coef))_a.
        """
        x = self._factors[0]
        u = np.zeros(x.shape, complex)
        part = np.empty_like(u)
        for idx, g, c, _ in self._blocks():
            u += np.matmul(g.T, c * coef[idx, None], out=part)
        u = np.sum(x * u, axis=1)
        n = len(self.sigma)
        return u + np.r_[u[n:], u[:n]].conj()

    def _left_products(self, v):
        """w_j^H v / w_j^H s_j over the upper roots, w_j^H v = c~^H Y^H (T - sigma)^-1 v."""
        y_conj = self._factors[1].conj()
        out = np.empty(len(self.sigma), complex)
        for idx, g, _, ct in self._blocks():
            g *= v
            out[idx] = np.einsum("ja,ja->j", ct.conj(), g @ y_conj)
        return out / self.wsdot

    def amplitudes(self, v0):
        """v' = S^-1 v0 in modes, from the left vectors and one refinement step."""
        a, b = mode_amplitudes(self.modes, v0)
        z0 = a - 1j * b / self.modes.nu
        z0 = np.r_[z0, z0.conj()]
        vp = self._left_products(z0)
        vp += self._left_products(z0 - self._combine(vp))
        return _with_conjugates(vp)

    def state(self, w, r):
        """The state vector S w, then r more steps of the period, applied in modes."""
        z = self._combine(w[0::2])
        for j in range(r):
            z = z * self.step if j < self.d else self.phase2(z)
        n = len(self.sigma)
        z = 0.5 * (z[:n] + z[n:].conj())
        return mode_vector(self.modes, z.real, -self.modes.nu * z.imag)


@dataclass
class SwitchedRunResult:
    """Samples and bookkeeping from one switched run."""

    times: np.ndarray          # snapped sample times
    steps: np.ndarray          # step indices the samples were snapped to
    q: np.ndarray
    p: np.ndarray
    final_state: SystemState
    max_snap_distance: float
    n_steps: int
    engine: str                # "floquet" (switched) or "modes" (continuous)


class SwitchedPropagator:
    """Propagates one TwoBathSystem under one schedule.

    One instance can serve many initial conditions of the same system.
    A switched system is sampled through its period map, factored by
    each run; a continuous system (a2 is a1) through its normal modes.
    """

    # chooses nothing; kept because bench/tracing.py reads it on every traced run
    FLOQUET_THRESHOLD = 20_000
    QUALITY_TOL = 1e-7
    # largest log-amplitude growth of a period-map mode over a run.  RK4
    # damps every mode of a stable schedule; rounding leaves at most 2.1e-14
    # (structured route) and 1.3e-6 (dense eig) over the 5e7 steps of the
    # study's two-bath points
    GROWTH_TOL = 1e-3

    def __init__(self, system: TwoBathSystem, schedule: SwitchSchedule):
        self.system = system
        self.schedule = schedule
        self.continuous = system.a2 is system.a1
        for cm in (system.a1,) if self.continuous else (system.a1, system.a2):
            check_rk4_stability(schedule.step_size, max_mode_frequency(cm))

    # -- normal modes of a continuous system -----------------------------

    def _run_modes(self, v0, steps_wanted, final_step):
        prop = diagonalize(self.system.a1, v0)
        h = self.schedule.step_size
        q, p = prop.sample_rk4(steps_wanted, h)
        return q, p, rk4_full_state(prop, final_step, h).as_vector()

    # -- period map spectral engine --------------------------------------

    def _modal_map(self):
        """The structured period map, or None where only the dense route applies.

        None for a rank that _ModalPeriodMap.applies refuses and a system
        diagonalize rejects (Omega = 0).
        """
        try:
            modal = _ModalPeriodMap(self.system, self.schedule)
        except EigensolverError:
            return None
        return modal if modal._factors is not None else None

    def _check_growth(self, log_mu, last):
        growth = last / self.schedule.period_steps * float(np.max(log_mu.real))
        if not growth <= self.GROWTH_TOL:      # NaN fails too
            raise NumericalError(
                f"switching schedule is parametrically unstable: a period map "
                f"mode grows by e^{growth:.3g} over {last} steps, more than "
                f"e^{self.GROWTH_TOL:g}")

    def _build_floquet(self, last):
        """The period map's log multipliers, rows01 and period, and its coordinates.

        rows01[r] holds rows 0 and 1 of the first r steps' map times the
        eigenvectors S, so the particle after k periods and r steps is
        Re sum_j rows01[r, :, j] v'_j mu_j^k with v' = amplitudes(v0), and
        state(mu^k v', r) is the whole state vector.  The structured route
        (_ModalPeriodMap) runs where it applies and its residual passes;
        otherwise the period map is formed from the two step maps and
        factored by dense eig, whose residual must pass QUALITY_TOL.  Either
        route then checks the multipliers' growth over `last` steps.
        """
        modal = self._modal_map()
        fl = modal.floquet(self.QUALITY_TOL) if modal is not None else None
        if fl is None:
            return self._dense_floquet(last)
        self._check_growth(fl["log_mu"], last)
        return fl

    def _dense_floquet(self, last):
        """The dense route: U2^d U1^d by binary powering, factored by eig.

        Rows 0 and 1 of prefix r, the map of steps 0..r-1, are e^T U1^r up
        to the switch and (e^T U2^(r-d)) U1^d after it: row products of
        O(dim^2) each, formed only once the multipliers' growth over `last`
        steps has passed the check.
        """
        h, d, dim = self.schedule.step_size, self.schedule.delta_t_steps, self.system.dim
        u1, u2 = (rk4_update_matrix(drift_matrix(cm), h)
                  for cm in (self.system.a1, self.system.a2))
        u1_d = np.linalg.matrix_power(u1, d)
        u_period = np.linalg.matrix_power(u2, d) @ u1_d
        # a resonant schedule is refused before eig computes its eigenvectors
        self._check_growth(np.log(np.linalg.eigvals(u_period)), last)
        mu, s_mat = np.linalg.eig(u_period)
        res = np.linalg.norm(u_period @ s_mat - s_mat * mu[None, :])
        rel = res / max(np.linalg.norm(u_period), 1e-300)
        if not rel <= self.QUALITY_TOL:      # NaN fails too
            raise NumericalError(
                f"period map factorization residual {rel:.2e} exceeds "
                f"{self.QUALITY_TOL:g}")

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
            v = s_mat @ w
            scale = np.abs(s_mat) @ np.abs(w)
            if np.any(np.abs(v.imag) > 1e-7 * np.maximum(scale, 1e-300)):
                raise NumericalError("imaginary residue in reconstructed state")
            v = v.real
            for j in range(r):
                v = (u1 if j < d else u2) @ v
            return v

        return {"log_mu": np.log(mu), "rows01": prefix_rows @ s_mat,
                "period": self.schedule.period_steps, "state": state,
                "amplitudes": lambda v0: np.linalg.solve(s_mat, v0.astype(complex))}

    def _run_floquet(self, v0, steps_wanted, final_step, last):
        fl = self._build_floquet(last)
        vprime0 = fl["amplitudes"](v0)
        log_mu, period = fl["log_mu"], fl["period"]
        keep, mates = _fold(log_mu)
        # the band: the phases of the period map's diagonal R(i h w)^period
        # over the bath frequencies, on the upper half plane as the kept modes
        phi_w = rk4_mode_factors(self.system.a1.w, self.schedule.step_size)[0]
        band = np.abs(np.angle(np.exp(1j * period * phi_w)))
        q, p = np.empty((2, len(steps_wanted)))
        ks, rs = np.divmod(steps_wanted, period)
        for r in np.unique(rs):
            at = rs == r
            # (Q, P) after k periods and r steps are Re sum_j c_j mu_j^k with
            # c = rows01[r] v'.  A pair mu, conj(mu) with coefficients c, c'
            # gives Re (c + conj c') mu^k, and the imaginary parts Im (c -
            # conj c') mu^k must cancel to rounding against their scale
            # sum_j |c_j| |mu_j|^k
            c = fl["rows01"][r] * vprime0
            mate = np.where(mates >= 0, c[:, mates], 0.0).conj()
            both, diff = c[:, keep] + mate, c[:, keep] - mate
            sums = banded_sums(ks[at], log_mu[keep].imag, log_mu[keep].real,
                               [(both.real[i], -both.imag[i]) for i in (0, 1)]
                               + [(diff.imag[i], diff.real[i]) for i in (0, 1)],
                               band, decay_rows=list(np.abs(c[:, keep]) + np.abs(mate)))
            if np.any(np.abs(sums[2:4]) > 1e-9 * np.maximum(sums[4:], 1e-300)):
                raise NumericalError(
                    "imaginary residue in period map observation exceeds "
                    "1e-9 of the modal amplitude")
            q[at], p[at] = sums[0], sums[1]
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise NumericalError("switched run diverged")
        k, r = divmod(final_step, period)
        return q, p, fl["state"](np.exp(log_mu * k) * vprime0, r)

    # -- entry point -----------------------------------------------------

    def run(self, v0, sample_times, t_final=None) -> SwitchedRunResult:
        """Sample the test particle from v0 and return the state at t_final.

        Identical inputs reproduce identical output arrays.  Sample times
        snap to the nearest step.  The period map engine drifts from the
        stepped trajectory as its multipliers' phase errors add up over the
        periods.  For 2 x 200 oscillators (the baths of
        scripts/two_bath_frustration.json at seed 2: m = 1e-3, static
        renormalization, h = 1e-3, Omega = 0.55) the structured route's
        state differs from repeated squaring of the period map by 7.9e-13,
        7.5e-11 and 1.9e-9 of |v| after 2e4, 2e6 and 5e7 steps, and
        literal stepping differs from that reference by 4.1e-13 at 2e4
        steps; the reference carries its own rounding, which grows with
        the number of periods too.  The dense eig route differs by 7.2e-8,
        3.0e-6 and 4.0e-5 at the same lengths.  A one-ulp change of an
        entry of either contact phase moves the samples of a 5e7 step
        run by at most 6e-15 of the largest sample.

        A continuous system is sampled through its normal modes (engine
        "modes"; EigensolverError for a zero mode), a switched one through
        its period map (engine "floquet"), however short the run.  A
        period map that factorizes with a residual above QUALITY_TOL, or
        whose fastest growing mode grows by more than e^GROWTH_TOL over
        the run (a parametrically resonant schedule), is a NumericalError.
        The period map is sampled through propagator.banded_sums, whose
        transform holds a grid sized by the run's span times the bath
        band and whose direct sum holds one set of SAMPLE_CHUNK tables,
        so beyond its factorization a run's memory does not grow with
        the number of samples.  t_final defaults to the last (snapped)
        sample time.
        """
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (self.system.dim,):
            raise ValueError(f"initial vector has shape {v0.shape}, "
                             f"expected ({self.system.dim},)")
        sample_times = np.atleast_1d(np.asarray(sample_times, dtype=float))
        h = self.schedule.step_size
        steps = np.rint(sample_times / h).astype(np.int64)
        snapped = steps * h
        max_snap = float(np.max(np.abs(snapped - sample_times))) if len(steps) else 0.0
        if t_final is None:
            t_final = float(snapped.max()) if len(steps) else 0.0
        final_step = int(np.rint(t_final / h))
        last = max(int(steps.max()) if len(steps) else 0, final_step)

        if self.continuous:
            q, p, final_v = self._run_modes(v0, steps, final_step)
        else:
            q, p, final_v = self._run_floquet(v0, steps, final_step, last)

        final_state = SystemState.from_vector(
            final_v, self.system.a1.bath_sizes, time=final_step * h)
        return SwitchedRunResult(times=snapped, steps=steps, q=q, p=p,
                                 final_state=final_state, max_snap_distance=max_snap,
                                 n_steps=last,
                                 engine="modes" if self.continuous else "floquet")
