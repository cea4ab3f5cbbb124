"""Alternating contact with two baths, integrated by classical RK4.

The coupling is switched as a square wave: bath 1 is engaged during
step blocks [2k dT, (2k+1) dT) and bath 2 during the complementary
blocks.  Two coupling matrices a1 and a2 (propagator.CouplingMatrix,
mass-weighted stiffness arrowheads of the same dimension) describe the
two contact phases; during its off phase a bath evolves freely and
exerts no force on the particle.

Switching happens only on step boundaries, and observations are snapped
to the nearest completed step (distance <= dt/2, reported).

Because the system is linear, one classical RK4 step equals multiplying
by R(hA) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.  A switched run
factors the map over one full switching period once, after which no
sample needs stepping.  With the period map S diag(mu) S^-1 and
v' = S^-1 v0, the particle after k periods and r more steps is
Re sum_j c_j mu_j^k, c = (rows 0 and 1 of the first r steps' map) S
times v'.  The multipliers come in conjugate pairs mu, conj(mu), whose
eigenvectors, amplitudes and so coefficients are conjugates too, so
the period map keeps one root of each pair, n in all, and the sum is
2 Re sum_j c_j mu_j^k over them.  transform.banded_sums evaluates the
sums of each residue class r, as it samples the normal modes, with
theta = arg mu and d = log |mu|: the roots whose arg lies within that
of R(i h w)^period over the bath frequencies w (in the upper half
plane) through one type-3 transform of the (Q, P) pair, whose
frequencies theta - i d carry each multiplier's |mu|^k exactly, the
others (two of 401 at 2 x 200, and any root that settled below the real
axis) directly.  One root per pair halves the band the transform grids.

The period map is factored in O(N^2) time and O(N r^2) memory, without
forming it or any other dim x dim matrix.  In phase 1's normal modes
(diagonalize(a1), bath 2 free) a phase-1 step is the diagonal
R(+-i h nu_k), and A2 - A1 has rank 2 (the particle's momentum row and
position column), so the period map is that diagonal to the power 2d
plus a correction of rank r <= 8d, compressed to its numerical rank (0
to 20 in practice, whatever the dimension).  Its multipliers are the
roots of a secular equation, found by Aberth-Ehrlich iteration started
at the poles (Bini & Robol, J. Comput. Appl. Math. 272, 2014); the
eigenvectors and v' are closed forms in those roots (_ModalPeriodMap).
Each pass over the roots takes them in fixed pieces, in order on the
calling thread; a sweep runs its switched points on processes instead.
Modes that neither contact phase couples (a degenerate or pairwise
cancelled bath, a bath too light to couple, two equal phases) keep
their poles and unit vectors.  Every switched run, however short, is
sampled through the period map, and every schedule's is factored so:
it costs O(r^2 N^2 + d r N) whatever the run's length.  A factorization
whose residual exceeds QUALITY_TOL is a NumericalError.  So is a
parametrically resonant schedule, one whose period map has a multiplier
|mu| > 1 that grows by more than e^GROWTH_TOL over the run: its samples
would be fitted as an enormous temperature.  A real pair of multipliers
within that growth is refused too, naming the pair: the sampler keeps
one root of each conjugate pair, which a real pair is not.

Continuous contact (both phases the same matrix) needs no period map.
R(hA) has the normal modes of the exact flow, and one step multiplies
mode k by R(i h nu_k) = rho_k e^{i phi_k}, so n steps are sampled in
closed form through the secular-equation modes: phases n phi_k and
amplitudes rho_k^n, RK4's own small damping included.  Like the exact
propagator it rejects a zero frequency mode (Omega = 0).

A step beyond RK4's stability limit, h nu_max > 2 sqrt(2) for the
fastest normal mode of either contact phase, is rejected up front: the
run would otherwise grow by orders of magnitude without overflowing.
So is a period whose step-prefix rows would exceed MAX_PERIOD_ENTRIES
(period steps times coordinates), and a step that puts a sample more
than 2^53 steps away, beyond the integers float64 holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .model import SystemState, TestParticleSpec, initial_state
from .propagator import (RK4_STABILITY_LIMIT, CouplingMatrix, NumericalError,
                         build_multi_coupling_matrix, check_rk4_stability, diagonalize,
                         mode_amplitudes, mode_vector, rk4_factors, rk4_mode_factors)
from .transform import banded_sums, view


# The period map keeps rows 0 and 1 of each of its period's step prefixes,
# 2 period dim complex entries, 32 bytes per period step and coordinate,
# formed in place in a loop over the period's steps, and their products
# with the n = dim / 2 eigenvectors, half as much.  A schedule beyond this
# cap (128 MB of rows and 64 MB of products; at 2 x 200 oscillators a half
# period of 2614 steps, whose factoring peaked at 199 MB) is refused
# before anything sized by the period is allocated.
MAX_PERIOD_ENTRIES = 1 << 22
# step indices are exact integers in float64 up to 2^53
MAX_STEP_INDEX = 2.0**53


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

    def check_period_fits(self, dim: int) -> None:
        """ValueError if the period's step tables over dim coordinates exceed MAX_PERIOD_ENTRIES."""
        if self.period_steps * dim > MAX_PERIOD_ENTRIES:
            raise ValueError(
                f"delta_t_steps = {self.delta_t_steps}: a period of "
                f"{self.period_steps} steps over {dim} coordinates needs "
                f"{self.period_steps * dim} period map entries, more than "
                f"{MAX_PERIOD_ENTRIES}")


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
    nu_max = max(cm.nu_max for cm in phases)
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


EPS = np.finfo(float).eps
RANK_TOL = 4.0 * EPS
# Aberth sweeps before the root iteration gives up
MAX_SWEEPS = 60
# roots of the period map per piece of a pass over them (an Aberth sweep,
# the eigenvectors, the left products, the sum of a state): every pass
# takes its pieces from _ModalPeriodMap._pieces, so every BLAS product, and
# so every bit, is the same.  A piece's rows take 32 dim entries in each of
# the map's two work buffers
PERIOD_PIECE = 32


def _decoupled(nu, u0, kappa):
    """(u0, kappa, turns, fixed): the phase-1 modes that neither contact phase couples.

    A switch moves mode k only through u0_k and kappa_k.  A mode whose
    u0_k and kappa_k are both at most RANK_TOL of their norms over all
    modes, the rounding level of the switch itself, is decoupled (fixed).
    Then within each set of modes of one frequency, such as a degenerate
    bath's, an orthogonal rotation (turns: each set turned, and its
    rotation) puts the set's (u0, kappa) onto as few modes as its rank, and
    the others are decoupled too.  Zeroing mode by mode first keeps the
    rounding of a large set, which adds up, from passing for a coupling.
    A decoupled mode keeps its pole and its unit vector through both
    contact phases.
    """
    rows = np.stack([u0, kappa], axis=1)
    scale = np.linalg.norm(rows, axis=0)
    rows[np.all(np.abs(rows) <= RANK_TOL * scale, axis=1)] = 0.0
    order = np.argsort(nu, kind="stable")
    same = np.r_[False, nu[order][1:] == nu[order][:-1], False]
    turns = []
    for lo, hi in zip(np.flatnonzero(~same[:-1] & same[1:]),
                      np.flatnonzero(same[:-1] & ~same[1:]) + 1):
        idx = order[lo:hi]
        if np.any(rows[idx]):
            u, sv, _ = np.linalg.svd(rows[idx] / np.where(scale > 0.0, scale, 1.0))
            rows[idx] = u.T @ rows[idx]
            rows[idx[np.sum(sv > RANK_TOL):]] = 0.0
            turns.append((idx, u))
    return rows[:, 0], rows[:, 1], turns, ~np.any(rows, axis=1)


def _stops(size, before, scale):
    """Roots whose Aberth step, of size `size`, reaches the rounding floor of `scale`."""
    return (size <= 4.0 * EPS * scale) | ((size >= before) & (size <= np.sqrt(EPS) * scale))


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
    h = 0.02 and 16 at d = 2614 with h = 1e-3 on 2 x 200 oscillators).
    Its multipliers are mu = 1 + sigma, sigma the roots of det(T - sigma +
    X Y^H), T = D - 1 taken by expm1 of the exact log phases, so every
    difference t_k - sigma keeps its relative accuracy.  A mode that
    neither phase couples (_decoupled) has zero rows in X_E, Y_E, X and Y:
    its root is its pole, its vectors its unit vector, and it stays in
    the other roots' sums.  Nothing of size dim^2 is formed: the largest
    array is W, dim r^2 entries.  Every pass over the roots (the Aberth
    sweeps, floquet(), amplitudes() and state()) runs one loop, _pieces:
    PERIOD_PIECE roots at a time, in order on the calling thread, each
    piece's resolvent rows in the map's first work buffer and their
    squares in its second (_secular), both sized for one piece, and closed
    forms in the r x r null vectors.  The map starts no thread: a sweep
    runs its switched points beside each other instead
    (experiments._sweep).  roots() finds the roots, floquet() the vectors;
    amplitudes() and state() use them.
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
        nu = self.modes.nu
        self.u0, kappa, self.turns, self.fixed = _decoupled(nu, self.modes.u0,
                                                            self.modes.coef_sin)
        u0 = self.u0
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
        if not self.x_e.shape[1]:      # equal contact phases couple no mode
            self.fixed[:] = True
        self.x_e[np.r_[self.fixed, self.fixed]] = 0.0
        self.y_e[np.r_[self.fixed, self.fixed]] = 0.0

    def _times(self, left, right):
        """(Lam^a + A B^H)(Lam^b + C D^H) = Lam^(a+b) + [A, Lam^a C + A B^H C][conj(Lam^b) B, D]^H."""
        (a, fa, fb), (b, fc, fd) = left, right
        lam_a = np.exp(a * self.log_step)[:, None]
        lam_b = np.exp(b * self.log_step).conj()[:, None]
        return (a + b, *_compress(np.hstack([fa, lam_a * fc + fa @ (fb.conj().T @ fc)]),
                                  np.hstack([lam_b * fb, fd])))

    @cached_property
    def _factors(self):
        """X, Y, W and T of the period map D + X Y^H = U2^d Lam^d.

        U2^d by binary powering of Lam + X_E Y_E^H, each product compressed,
        with the decoupled modes' rows kept at zero.  W[k] = conj(Y_k) (x) X_k,
        so Y^H diag(g) X = (g @ W).reshape(r, r).
        """
        power, base, d = None, (1, self.x_e, self.y_e), self.d
        while True:
            if d & 1:
                power = base if power is None else self._times(power, base)
            d >>= 1
            if not d:
                break
            base = self._times(base, base)
        x, y = power[1], np.exp(self.d * self.log_step).conj()[:, None] * power[2]
        x[np.r_[self.fixed, self.fixed]] = 0.0
        y[np.r_[self.fixed, self.fixed]] = 0.0
        r = x.shape[1]
        w = (y.conj()[:, :, None] * x[:, None, :]).reshape(len(x), r * r)
        return x, y, w, np.expm1(2 * self.d * self.log_step)

    def phase2(self, v):
        """One phase-2 RK4 step of the modal vector v."""
        return self.step * v + self.x_e @ (self.y_e.conj().T @ v)

    @cached_property
    def _work(self):
        """Two flat buffers of one piece of roots by dim, reused by every piece.

        The first holds a piece's resolvent rows (or the Aberth step's root
        differences), the second their squares or the piece's right
        vectors: 2 PERIOD_PIECE dim entries, 0.4 MB at 2 x 200 oscillators.
        """
        dim = len(self._factors[3])
        return np.empty((2, min(PERIOD_PIECE, dim // 2) * dim), complex)

    def _pieces(self, roots, idx):
        """(at, g) for each piece of PERIOD_PIECE indices of idx, in order.

        g_jk = 1 / (t_k - roots[at][j]), the diagonal of (T - sigma_j)^-1
        per root, is a view of the map's first work buffer, which the next
        piece writes again.  Every pass over the roots takes them from
        here, so every pass cuts them into the same pieces.  A caller done
        with g may write the buffer itself: the Aberth step forms the root
        differences there, and floquet() the products of the step rows.
        """
        t, buf = self._factors[3], self._work[0]
        for lo in range(0, len(idx), PERIOD_PIECE):
            at = idx[lo:lo + PERIOD_PIECE]
            g = np.subtract(t, roots[at][:, None], out=view(buf, (len(at), len(t))))
            yield at, np.reciprocal(g, out=g)

    def _secular(self, g, power=1):
        """Y^H (T - sigma)^-power X per root (power 1 and 2: S(sigma) - I and S'(sigma)).

        Power 2 squares g into the map's second work buffer.
        """
        x, _, w, _ = self._factors
        r = x.shape[1]
        if power == 2:
            g = np.multiply(g, g, out=view(self._work[1], g.shape))
        return (g @ w).reshape(-1, r, r)

    def roots(self):
        """Every root of the secular equation, by Aberth-Ehrlich iteration from the poles.

        f(sigma) = det(T - sigma) det S(sigma), f'/f = sum_k 1/(sigma - t_k)
        + tr(S^-1 Y^H (T - sigma)^-2 X), and each root moves by 1 / (f'/f -
        sum_j 1/(sigma - sigma_j)) over the other roots.  One root per
        conjugate pair of poles is iterated, from the pole with Im >= 0
        plus its first-order shift (X Y^H)_kk; a decoupled mode's root is
        its pole and does not move.  The roots below the real axis are the
        conjugates, counted in that sum, so conjugate pairs stay exact.  A
        complex root crosses the real axis at most once, to settle as the
        conjugate of its start.  A root that crosses it a second time
        belongs to a real pair of multipliers, as of a resonant schedule:
        the pair is found on the axis (_real_pair) and held there while the
        other roots go on.  A root whose step exceeds its distance to the
        axis is iterated on its own at once.  A root stops once its step is
        below 4 eps of it, or below sqrt(eps) of it and no smaller than the
        step before: the iteration has reached its rounding floor.
        NumericalError when a root does not stop within MAX_SWEEPS sweeps
        or an iterate leaves the finite numbers.

        Returns the n iterated roots, then their conjugates, or for a real
        pair its second root.  self.upper holds each mode's pole with Im >=
        0 (k or k + n), where its root starts.
        """
        x, y, _, t = self._factors
        n = len(t) // 2
        self.upper = upper = np.where(t[:n].imag >= 0.0, np.arange(n), np.arange(n, 2 * n))
        every = t[upper] + np.einsum("ij,ij->i", x[upper], y[upper].conj())
        every = np.r_[every, every.conj()]
        last, crossed = np.full(n, np.inf), np.zeros(n, bool)
        paired = np.zeros(n, bool)

        def sweep(active):
            """Move the roots `active` once; (still going, near the axis).

            Every step reads the roots as they were before the sweep, so the
            steps are computed piece by piece and then checked and taken
            together.  A real pair, once found, is held.
            """
            active = active[~paired[active]]
            root, step = every[active], np.empty_like(every)
            for at, g in self._pieces(every, active):
                step[at] = self._aberth_steps(every, at, g)
            step = step[active]
            if not np.all(np.isfinite(step)):
                raise NumericalError("period map root iteration left the finite numbers")
            across = np.sign((root - step).imag) != np.sign(root.imag)
            bounced = crossed[active] & across
            crossed[active] |= across
            size = np.abs(step)
            done = _stops(size, last[active], np.abs(root)) | bounced
            near = active[~done & (size > np.abs(root.imag))]
            last[active] = size
            every[active] -= step
            paired[active[bounced]] = True
            every[n:][~paired] = every[:n][~paired].conj()
            for i in np.flatnonzero(bounced):
                self._real_pair(every, active[i], root[i].real, size[i])
            return active[~done], near

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            active = np.flatnonzero(~self.fixed)
            for _ in range(MAX_SWEEPS):
                active, near = sweep(active)
                for _ in range(MAX_SWEEPS):
                    if not len(near):
                        break
                    near = sweep(near)[0]
                if not len(active):
                    return every
        raise NumericalError(f"period map roots do not converge within {MAX_SWEEPS} sweeps")

    def _real_pair(self, every, j, x, s):
        """Roots j and j + n as a real pair: from x -/+ s, Aberth steps along the real axis.

        On the axis f is real (the poles come in conjugate pairs, so det(T -
        sigma) > 0 there), and so is every step once the other roots come in
        conjugate pairs: the two roots stay real and converge to the pair.
        A pair that does not, non-finite steps included, is a NumericalError.
        """
        pair, before = np.array([j, j + len(every) // 2]), np.inf
        every[pair] = x - s, x + s
        for _ in range(MAX_SWEEPS):
            (at, g), = self._pieces(every, pair)
            step = self._aberth_steps(every, at, g).real
            size = np.abs(step)
            every[pair] -= step
            if np.all(_stops(size, before, np.abs(every[pair]))):
                return
            before = size
        raise NumericalError(f"period map's real pair does not converge in {MAX_SWEEPS} steps")

    def _aberth_steps(self, every, at, g):
        """Aberth-Ehrlich steps of the roots every[at], g their piece from _pieces.

        every holds all roots, then their conjugates.
        """
        eye = np.eye(self._factors[0].shape[1])
        trace = np.trace(np.linalg.solve(eye + self._secular(g), self._secular(g, 2)),
                         axis1=1, axis2=2)
        pull = g.sum(axis=1)
        # g's buffer now holds 1 / (sigma_i - sigma_j) over every root j != i
        g = np.subtract.outer(every[at], every, out=g)
        g[np.arange(len(at)), at] = np.inf
        return 1.0 / (trace - pull - np.reciprocal(g, out=g).sum(axis=1))

    def floquet(self, sigma, quality_tol: float):
        """_build_floquet's dict over sigma, roots()'s first half: one root per conjugate pair.

        Root j's right eigenvector is s = (T - sigma)^-1 X c and its left one
        w = (T - sigma)^-H Y c~, with c and c~ the right and left null
        vectors of S(sigma); so w^H s = c~^H S'(sigma) c and Y^H s = (S - I) c.
        A decoupled mode's root is its pole and both its vectors are its
        unit vector.  The step-prefix rows are written in place into one
        (2d, 2, dim) array, and rows01 holds their products with the n
        right eigenvectors.  NumericalError when the residual ||D s + X
        (Y^H s) - mu s|| = ||X S(sigma) c|| (unit s, both halves of each
        conjugate pair) exceeds quality_tol of ||D + X Y^H||_F.
        """
        x, y, w, t = self._factors
        n, r = len(sigma), x.shape[1]
        live, fixed = np.flatnonzero(~self.fixed), self.upper[self.fixed]
        self.sigma, self.null = sigma, np.zeros((2, n, r), complex)
        # rows 0 and 1 (Q and P) of the map of the first r steps, r < 2d:
        # Q = sum u0 a_k and P = M sum u0 b_k, with b_k = i nu (z - conj z) / 2.
        # That map is Lam^r up to the switch and U2^(r-d) Lam^d after it
        nu, u0 = self.modes.nu, self.u0
        row = np.stack([np.tile(0.5 * u0, 2),
                        self.modes.cm.tp.mass * np.r_[0.5j * nu * u0, -0.5j * nu * u0]])
        rows = np.empty((2 * self.d,) + row.shape, complex)
        for k in range(self.d + 1):
            np.multiply(row, np.exp(k * self.log_step), out=rows[k])
        lam_d = np.exp(self.d * self.log_step)
        for k in range(self.d + 1, 2 * self.d):
            row = row * self.step + (row @ self.x_e) @ self.y_e.conj().T
            np.multiply(row, lam_d, out=rows[k])
        rows01 = np.empty(rows.shape[:2] + (n,), complex)
        rows01[..., self.fixed] = rows[..., fixed]
        self.wsdot, terms = np.ones(n, complex), np.zeros(n)
        xx = x.conj().T @ x

        work = self._work
        for at, g in self._pieces(sigma, live):
            sm = np.eye(r) + self._secular(g)
            u, _, vh = np.linalg.svd(sm)
            c, ct = vh[:, -1, :].conj(), u[:, :, -1]
            self.null[0][at], self.null[1][at] = c, ct
            self.wsdot[at] = np.einsum("ja,jab,jb->j", ct.conj(), self._secular(g, 2), c)
            right = np.matmul(x, c.T, out=view(work[1], (len(t), len(c))))
            right *= g.T
            # slab by slab over the period's steps, in g's buffer, which is
            # free now: one product per step, as over the whole period
            steps = len(work[0]) // (2 * len(at))
            for k in range(0, len(rows), steps):
                slab = rows[k:k + steps]
                rows01[k:k + steps, :, at] = np.matmul(
                    slab, right, out=view(work[0], (len(slab), 2, len(at))))
            kernel = np.einsum("jab,jb->ja", sm, c)
            terms[at] = (np.einsum("ja,ab,jb->j", kernel.conj(), xx, kernel).real
                         / (np.einsum("ij,ij->j", right.real, right.real)
                            + np.einsum("ij,ij->j", right.imag, right.imag)))
        d_full = 1.0 + t
        norm2 = (np.sum(np.abs(d_full) ** 2)
                 + 2.0 * np.sum((d_full.conj() * np.einsum("ij,ij->i", x, y.conj())).real)
                 + np.sum(xx * (y.conj().T @ y).T).real)
        self.residual_sq = 2.0 * float(np.sum(terms)) / norm2
        if not self.residual() <= quality_tol:      # NaN fails too
            raise NumericalError(f"period map factorization residual {self.residual():.2e} "
                                 f"exceeds {quality_tol:g}")
        return {"log_mu": self.log_mu(sigma), "rows01": rows01, "period": 2 * self.d,
                "amplitudes": self.amplitudes, "state": self.state}

    def residual(self) -> float:
        """The relative eigenpair residual of the last floquet() call."""
        return float(np.sqrt(self.residual_sq))

    @staticmethod
    def log_mu(sigma):
        """log(1 + sigma) without cancellation in log |mu|.

        log |mu| is half of log1p(2 Re sigma + |sigma|^2) where |mu|^2 > 1/2,
        and log |1 + sigma| below: there log1p's argument loses |mu|^2 to
        rounding, all of it below sqrt(eps).  A multiplier of 0 counts as
        the smallest normal double.
        """
        x = 2.0 * sigma.real + np.abs(sigma) ** 2
        small = x <= -0.5
        log_abs = 0.5 * np.log1p(np.where(small, 0.0, x))
        log_abs[small] = np.log(np.maximum(np.abs(1.0 + sigma[small]), np.finfo(float).tiny))
        return log_abs + 1j * np.arctan2(sigma.imag, 1.0 + sigma.real)

    def _combine(self, coef):
        """S coef for coefficients coef of the upper roots and conj(coef) of the lower.

        A lower root's eigenvector is its upper partner's conjugate with the
        halves swapped, so S coef = u + swap(conj u) with u = sum_j s_j coef_j
        over the upper roots, u = sum_a X_a (g^T (c coef))_a plus coef_j at
        the pole of each decoupled mode j.
        """
        x, live = self._factors[0], np.flatnonzero(~self.fixed)
        u = np.zeros(x.shape, complex)
        part = np.empty_like(u)
        for at, g in self._pieces(self.sigma, live):
            u += np.matmul(g.T, self.null[0][at] * coef[at, None], out=part)
        u = np.sum(x * u, axis=1)
        u[self.upper[self.fixed]] = coef[self.fixed]
        n = len(self.sigma)
        return u + np.r_[u[n:], u[:n]].conj()

    def _left_products(self, v):
        """w_j^H v / w_j^H s_j over the upper roots, w_j^H v = c~^H Y^H (T - sigma)^-1 v."""
        y_conj, live = self._factors[1].conj(), np.flatnonzero(~self.fixed)
        out = np.empty(len(self.sigma), complex)
        for at, g in self._pieces(self.sigma, live):
            g *= v
            out[at] = np.einsum("ja,ja->j", self.null[1][at].conj(), g @ y_conj)
        out[self.fixed] = v[self.upper[self.fixed]]
        return out / self.wsdot

    def _turn(self, v, back=False):
        """v in the modes _decoupled turned (back: in diagonalize's modes again), in place."""
        for idx, u in self.turns:
            v[idx] = (u if back else u.T) @ v[idx]
        return v

    def amplitudes(self, v0):
        """v' = S^-1 v0 in modes, from the left vectors and one refinement step."""
        a, b = (self._turn(ab) for ab in mode_amplitudes(self.modes, v0))
        z0 = a - 1j * b / self.modes.nu
        z0 = np.r_[z0, z0.conj()]
        vp = self._left_products(z0)
        vp += self._left_products(z0 - self._combine(vp))
        return vp

    def state(self, w, r):
        """The state vector S w, w over one root per pair, then r more steps of the period."""
        z = self._combine(w)
        for j in range(r):
            z = z * self.step if j < self.d else self.phase2(z)
        n = len(self.sigma)
        z = 0.5 * (z[:n] + z[n:].conj())
        f, g = (self._turn(v, back=True) for v in (z.real, -self.modes.nu * z.imag))
        return mode_vector(self.modes, f, g)


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
    # over the 5e7 steps of the study's two-bath points (a dense
    # eigensolver of the period map left 1.3e-6)
    GROWTH_TOL = 1e-3

    def __init__(self, system: TwoBathSystem, schedule: SwitchSchedule):
        self.system = system
        self.schedule = schedule
        self.continuous = system.a2 is system.a1
        if not self.continuous:
            schedule.check_period_fits(system.dim)
        for cm in (system.a1,) if self.continuous else (system.a1, system.a2):
            check_rk4_stability(schedule.step_size, cm.nu_max)

    # -- normal modes of a continuous system -----------------------------

    def _run_modes(self, v0, steps_wanted, final_step):
        h = self.schedule.step_size
        prop = diagonalize(self.system.a1, v0, final=partial(rk4_factors, step=final_step, h=h))
        q, p = prop.sample_rk4(steps_wanted, h)
        return q, p, prop.final_state.as_vector()

    # -- period map spectral engine --------------------------------------

    def _build_floquet(self, last):
        """The period map's log multipliers, rows01 and period, and its coordinates.

        Every entry is over the n roots of roots(), one per conjugate pair
        of multipliers.  rows01[r] holds rows 0 and 1 of the first r steps'
        map times those eigenvectors, so the particle after k periods and r
        steps is 2 Re sum_j rows01[r, :, j] v'_j mu_j^k with v' =
        amplitudes(v0), and state(mu^k v', r) is the whole state vector.
        The multipliers' growth over `last` steps is checked before the
        eigenvectors are formed.  A real pair of multipliers within that
        growth, whose split lies below RK4's damping over the run, is
        refused too: it is no conjugate pair, and one root of it cannot
        stand for both.  So is a factorization whose residual exceeds
        QUALITY_TOL (floquet).
        """
        modal = _ModalPeriodMap(self.system, self.schedule)
        every = modal.roots()
        growth = last / self.schedule.period_steps * float(np.max(modal.log_mu(every).real))
        if not growth <= self.GROWTH_TOL:      # NaN fails too
            raise NumericalError(
                f"switching schedule is parametrically unstable: a period map "
                f"mode grows by e^{growth:.3g} over {last} steps, more than "
                f"e^{self.GROWTH_TOL:g}")
        n = len(every) // 2
        real = every[n:] != every[:n].conj()
        if np.any(real):
            mu = 1.0 + np.sort(np.r_[every[:n][real], every[n:][real]].real)
            raise NumericalError(f"switching schedule has real period map multipliers "
                                 f"{', '.join(f'{m:.6g}' for m in mu)}, a resonant pair")
        return modal.floquet(every[:n], self.QUALITY_TOL)

    def _run_floquet(self, v0, steps_wanted, final_step, last):
        fl = self._build_floquet(last)
        vprime0 = fl["amplitudes"](v0)
        log_mu, period = fl["log_mu"], fl["period"]
        # the band: the phases of the period map's diagonal R(i h w)^period
        # over the bath frequencies, on the upper half plane as the roots
        phi_w = rk4_mode_factors(self.system.a1.w, self.schedule.step_size)[0]
        band = np.abs(np.angle(np.exp(1j * period * phi_w)))
        q, p = np.empty((2, len(steps_wanted)))
        ks, rs = np.divmod(steps_wanted, period)
        # the residue classes in ascending order; np.unique would import
        # numpy.ma inside the run
        for r in np.flatnonzero(np.bincount(rs)):
            at = rs == r
            # (Q, P) after k periods and r steps are 2 Re sum_j c_j mu_j^k
            # over one root per conjugate pair, c = rows01[r] v'
            c = fl["rows01"][r] * vprime0
            q[at], p[at] = banded_sums(ks[at], log_mu.imag, log_mu.real,
                                       [(2.0 * c.real[i], -2.0 * c.imag[i]) for i in (0, 1)],
                                       band)
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
        the number of periods too.  A dense eigensolver of the period map
        gave 7.2e-8, 3.0e-6 and 4.0e-5 instead.  A one-ulp change of an
        entry of either contact phase moves the samples of a 5e7 step
        run by at most 6e-15 of the largest sample.

        A continuous system is sampled through its normal modes (engine
        "modes"; EigensolverError for a zero mode), a switched one through
        its period map (engine "floquet"), however short the run.  A
        period map that factorizes with a residual above QUALITY_TOL, or
        whose fastest growing mode grows by more than e^GROWTH_TOL over
        the run (a parametrically resonant schedule), is a NumericalError.
        The period map is sampled through transform.banded_sums, as 2 Re
        of the sum over one root of each conjugate pair, whose transform
        takes log |mu| as the imaginary part of each frequency arg mu -
        i log |mu|, holds a grid sized by the run's span times the bath
        band, and whose
        direct sum holds one set of SAMPLE_CHUNK tables, so beyond its
        factorization a run's memory does not grow with the number of
        samples.  t_final defaults to the last (snapped)
        sample time.
        """
        v0 = np.asarray(v0, dtype=float)
        if v0.shape != (self.system.dim,):
            raise ValueError(f"initial vector has shape {v0.shape}, "
                             f"expected ({self.system.dim},)")
        sample_times = np.atleast_1d(np.asarray(sample_times, dtype=float))
        h = self.schedule.step_size
        reach = float(np.max(np.abs(sample_times), initial=abs(t_final or 0.0)))
        if not reach / h <= MAX_STEP_INDEX:      # NaN fails too
            raise NumericalError(f"step size {h:g} takes more than 2^53 steps to t = {reach:g}")
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
