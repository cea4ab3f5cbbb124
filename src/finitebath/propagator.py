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

The factorization never forms K.  In mass-weighted coordinates
M^(1/2) x the stiffness is an arrowhead matrix, which CouplingMatrix
holds for each contact phase: the diagonal d_n = w_n^2, the border
z_n = -sqrt(m/M) w_n^2 (0 for a free bath), and the corner
alpha = alpha0 + sum_n c_n with c_n = z_n^2 / d_n and alpha0 = Omega^2
(plus the spring sums of free baths under static renormalization).
Its modes cost O(N^2) time and O(N) memory, since
the (N+1)^2 mode matrix is never stored (Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 172 (1995)):

1. Deflation.  Free oscillators (z_n = 0) are modes on their own.
   Oscillators whose d_n agree to rounding fold into one pole along
   their z direction; the orthogonal combinations are modes without
   particle motion.  A fully degenerate bath leaves two coupled modes.
2. Roots.  The other eigenvalues lam = nu^2 solve Ullersma's secular
   equation

       1 - alpha0 / lam + sum_n c_n / (d_n - lam) = 0,

   which has one root between consecutive poles 0 < d_1 < d_2 < ...
   and one above the last.  Unlike det(H - lam) it has no cancellation
   between alpha and the c_n, so slow modes keep full relative accuracy.
   It is solved in frequencies: the poles are the bath frequencies w_n
   plus 0 for the term alpha0 / lam, and LAPACK's dlasd4 finds each
   root nu_k.  A root is stored as its nearer pole w_o plus the offset
   nu_k - w_o, which keeps every difference nu_k - w_n exact.
3. Vectors.  Each lam_k - d_n is formed as the two factors
   (nu_k - w_n)(nu_k + w_n); the second has no cancellation.  Loewner's
   formula recomputes z so that the computed roots are the exact
   eigenvalues of a nearby arrowhead; the eigenvectors
   (1, z_n / (lam - d_n)) are then orthogonal to working accuracy.
   Only the roots, Loewner's z and the deflation are kept, O(N).  The
   mode shapes are rebuilt block by block, a fixed number of modes at
   a time, for each pass over them: one in diagonalize for the
   amplitudes a_k, b_k and the particle's entries u_k[0] that the
   samplers read, one per full state and one in mode_residual.  The
   samplers need no shapes after that: Q and P are two coefficient
   rows (A, B) of the mode sums below, built from u_k[0], a_k and b_k.

A zero frequency mode (Omega = 0, a free translation) has no such form,
so diagonalize rejects it for the exact and the RK4 sampler alike.  It
occurs only when nothing pins the particle, alpha0 = 0: for alpha0 > 0
every secular root lies above the pole at 0.  The dense drift matrix A
of v' = A v, v = (Q, P, q_1, p_1, ...), is needed only by the dense
route of the switched period map; drift_matrix writes it from the same
arrowhead on demand.

Classical RK4 with step h is the polynomial R(hA) = I + hA + ... +
(hA)^4/24 of the drift matrix, so it has the same normal modes: one step
multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}.  n steps are the
mode form with nu_k t replaced by n phi_k and scaled by rho_k^n, which
sample_rk4 and rk4_full_state evaluate without stepping.  The same
stability rule, h nu_max <= 2 sqrt(2), holds for these and for the
switched module's period map (check_rk4_stability).

Every sampler evaluates sum_k e^{x d_k} (A_k cos x theta_k + B_k sin x
theta_k).  RK4 has x = n, theta = phi and d = log rho, the switched
module's period map x = periods and d + i theta = log of its
multipliers; both go through the direct sum mode_sums, chunked real
tables of O(N) work per sample.  The exact form (x = t, theta = nu, no
decay) is a pure phase, so sample_test_particle evaluates it as a type-3
nonuniform FFT, gridded_sums: O(N + M + grid) for M times, within
NUFFT_TOL of sum_k |A_k - i B_k| at every time.  Only the modes inside
the bath band are gridded; the secular roots interlace the bath poles,
so at most two lie outside it (the particle-like mode at an out-of-band
Omega, and one above the band), and those go through mode_sums, which
keeps the grid independent of Omega.  A span so long that the grid
would outgrow its memory cap (grid_fits) is summed directly too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dlasd4

from .model import SystemState, TestParticleSpec


class NumericalError(RuntimeError):
    """Propagation produced values that cannot be trusted."""


class EigensolverError(NumericalError):
    """The normal mode factorization failed."""


@dataclass(frozen=True)
class CouplingMatrix:
    """One contact phase: the mass-weighted stiffness H = M^(-1/2) K M^(-1/2).

    H is an arrowhead: the corner alpha = alpha0 + sum(c), the diagonal
    d_n = w_n^2 and the border z_n, with c_n = z_n^2 / d_n.  An engaged
    bath's oscillator has z_n = -sqrt(m/M) w_n^2; a disengaged one
    evolves freely (z_n = 0) and exerts no force on the particle, and
    its spring sum enters alpha0 only under static renormalization.
    Everything else, the drift matrix, the normal modes and their
    residual, is derived from these arrays; build_multi_coupling_matrix
    is the one place that states the coupling.
    """

    tp: TestParticleSpec
    bath_sizes: tuple        # oscillators per bath, in coordinate order
    mass: np.ndarray         # (1 + N,) position-space masses, particle first
    w: np.ndarray            # (N,) bath frequencies
    d: np.ndarray            # (N,) their squares
    z: np.ndarray            # (N,) border, 0 for free oscillators
    c: np.ndarray            # (N,) secular weights z^2 / d
    alpha0: float            # corner minus sum(c)

    @property
    def alpha(self) -> float:
        return self.alpha0 + float(np.sum(self.c))

    @property
    def dim(self) -> int:
        return 2 * len(self.mass)


def build_multi_coupling_matrix(tp: TestParticleSpec, baths,
                                static_renorm: bool = False) -> CouplingMatrix:
    """The contact phase of a particle and any number of baths, each engaged or free.

    baths is a sequence of (m, frequencies, active) triples.  With
    static_renorm the spring sums of the inactive baths still stiffen
    the particle (their linear coupling stays off).
    """
    big_m = tp.mass
    alpha0 = tp.omega**2
    masses, freqs, z, c = [[big_m]], [], [], []
    for m, w, active in baths:
        w = np.asarray(w, dtype=float)
        if np.any(w <= 0.0):
            raise ValueError("bath frequencies must be positive")
        m, w2 = float(m), w**2
        if active:
            z.append(-np.sqrt(m / big_m) * w2)
            c.append(m / big_m * w2)
        else:
            z.append(np.zeros(len(w2)))
            c.append(np.zeros(len(w2)))
            if static_renorm:
                alpha0 += m / big_m * float(np.sum(w2))
        masses.append(np.full(len(w), m))
        freqs.append(w)
    w = np.concatenate(freqs)
    return CouplingMatrix(tp=tp, bath_sizes=tuple(len(f) for f in freqs),
                          mass=np.concatenate(masses), w=w, d=w**2,
                          z=np.concatenate(z), c=np.concatenate(c),
                          alpha0=float(alpha0))


def drift_matrix(cm: CouplingMatrix) -> np.ndarray:
    """Dense drift matrix A of v' = A v, (2 + 2N) square.

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


@dataclass(frozen=True)
class _Deflated:
    """The arrowhead after deflation: secular poles and what folds into them.

    ``poles`` are frequencies and ascend: 0 (weight alpha0, when positive)
    then one pole per cluster of coupled oscillators.  A lone oscillator's
    pole is its own frequency; a merged cluster's is the square root of
    its d averaged with weights z^2.  Member i of a cluster enters each
    coupled mode with the cluster's amplitude times ``direction[i]``.
    """

    poles: np.ndarray
    weights: np.ndarray
    members: np.ndarray      # coupled bath indices, ordered by d
    cluster: np.ndarray      # each member's cluster, 0-based
    direction: np.ndarray    # z_i / |z over the cluster|
    starts: np.ndarray       # first member of each cluster
    free: np.ndarray         # bath indices that are modes on their own


def _deflate(cm: CouplingMatrix) -> _Deflated:
    tol = 8.0 * np.finfo(float).eps * max(cm.alpha, float(np.max(cm.d, initial=0.0)))
    free = np.flatnonzero(np.abs(cm.z) <= tol)
    members = np.flatnonzero(np.abs(cm.z) > tol)
    members = members[np.argsort(cm.d[members], kind="stable")]
    ds, zs = cm.d[members], cm.z[members]
    starts = np.flatnonzero(np.r_[len(ds) > 0, np.diff(ds) > tol])
    cluster = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(members)]))
    poles, weights, direction = np.empty(0), np.empty(0), np.empty(0)
    if len(members):
        z2 = zs * zs
        r2 = np.add.reduceat(z2, starts)
        poles = cm.w[members[starts]]
        merged = np.diff(np.r_[starts, len(members)]) > 1
        poles[merged] = np.sqrt(np.add.reduceat(z2 * ds, starts)[merged] / r2[merged])
        weights = np.add.reduceat(cm.c[members], starts)
        direction = zs / np.sqrt(r2)[cluster]
    if cm.alpha0 > 0.0:
        poles = np.r_[0.0, poles]
        weights = np.r_[cm.alpha0, weights]
    return _Deflated(poles=poles, weights=weights, members=members,
                     cluster=cluster, direction=direction, starts=starts,
                     free=free)


# modes per (coordinates x modes) block of shapes, and poles per (poles x
# roots) table of Loewner's product: a factorization holds a few arrays of
# 64 (N + 1) entries, O(N) memory.  Fewer columns shorten numpy's inner
# loops: at N = 2e4, 6 columns (a fixed 1 MB block) ran twice as slow
SHAPE_BLOCK = 64


def _secular_roots(poles, weights, which):
    """Roots nu of 1 + sum_j weights_j / (poles_j^2 - nu^2) = 0, as (origin, tau).

    poles are frequencies that ascend from 0 or above, and weights are
    positive, so root k lies in (poles[k], poles[k+1]) and the last one
    above poles[-1].  Root k is poles[origin] + tau with poles[origin]
    its nearer pole.  One call of LAPACK's dlasd4 per root (R.-C. Li's
    middle way, LAPACK Working Note 89) returns every poles_j - nu_k
    relative to that pole; a failed call raises EigensolverError.
    """
    which = np.asarray(which, dtype=np.intp)
    if len(poles) == 1:
        # dlasd4 returns no offset for a single pole
        p, c = float(poles[0]), float(weights[0])
        return (np.zeros(len(which), np.intp),
                np.full(len(which), c / (p + np.sqrt(p * p + c))))
    # rho = 1 and z unscaled, although LAPACK documents |z| = 1: scaled that
    # way (rho = sum(weights)), the top root of a heavy bath (m/M ~ 700)
    # came out 1.5e-12 off a 50-digit reference, unscaled 2e-16
    z = np.sqrt(weights)
    origin = np.minimum(which + 1, len(poles) - 1)
    tau = np.empty(len(which))
    for j, k in enumerate(which):
        delta, _, _, info = dlasd4(k, poles, z)
        if info != 0:
            raise EigensolverError(f"dlasd4 failed on secular root {k} (info = {info})")
        if abs(delta[k]) <= abs(delta[origin[j]]):
            origin[j] = k
        tau[j] = -delta[origin[j]]
    return origin, tau


def _helmert_columns(zc, t, out):
    """Write vectors t of an orthonormal basis of zc's complement into out's columns.

    Vector t (0 <= t < len(zc) - 1) is the Givens chain's t-th deflated
    vector: zc[:t+1] rotated onto zc's direction leaves it orthogonal to
    zc.  It is zc[i] zc[t+1] / (r_t+1 r_t) for i <= t and -r_t / r_t+1
    at i = t + 1, with r_t = |zc[:t+1]|.
    """
    r = np.sqrt(np.cumsum(zc * zc))
    np.outer(zc, zc[t + 1] / (r[t + 1] * r[t]), out=out)
    out *= np.arange(len(zc))[:, None] <= t[None, :]
    out[t + 1, np.arange(len(t))] = -r[t] / r[t + 1]


def _helmert_frequencies(zc, dc):
    """Frequencies of the Helmert vectors of zc under the diagonal dc.

    Vector t's Rayleigh quotient in closed form: the d-weighted squares
    of its first t + 1 entries plus the square of entry t + 1 times its d.
    """
    r2 = np.cumsum(zc * zc)
    head = np.cumsum(zc * zc * dc)[:-1] * zc[1:] ** 2 / (r2[1:] * r2[:-1])
    return np.sqrt(head + r2[:-1] / r2[1:] * dc[1:])


def max_mode_frequency(cm: CouplingMatrix) -> float:
    """Largest normal mode frequency: the top secular root or a free oscillator."""
    df = _deflate(cm)
    top = float(np.max(cm.w[df.free], initial=0.0))
    if len(df.poles):
        origin, tau = _secular_roots(df.poles, df.weights, [len(df.poles) - 1])
        top = max(top, float(df.poles[origin[0]] + tau[0]))
    return top


def _d_minus_lam(w, nu0, tau, out=None):
    """w_a^2 - lam_k for poles w_a (rows) and roots nu_k = nu0_k + tau_k.

    Formed as (w_a - nu_k)(w_a + nu_k): the first factor exact through
    the stored (pole, offset) form of the root, the second without
    cancellation.
    """
    out = np.subtract.outer(w, nu0, out=out)
    out -= tau
    out *= np.add.outer(w, nu0 + tau)
    return out


def _loewner_z(bath, nu0, tau):
    """Loewner's z: the border for which the computed roots are exact eigenvalues.

    bath are the coupled poles above the particle's pole at 0, and the
    roots (nu0 + tau) interlace them.
    """
    n_s = len(bath)
    zhat = np.empty(n_s)
    for lo in range(0, n_s, SHAPE_BLOCK):
        arms = np.arange(lo, min(lo + SHAPE_BLOCK, n_s))
        w = bath[arms]
        # (d_a - lam_j+1) / (d_a - d_j), and -(d_a - lam_a+1) for j = a
        ratio = _d_minus_lam(w, nu0[1:], tau[1:])
        den = np.subtract.outer(w, bath)
        den *= np.add.outer(w, bath)
        den[np.arange(len(arms)), arms] = -1.0
        ratio /= den
        zhat[arms] = _d_minus_lam(w, nu0[:1], tau[:1])[:, 0] * np.prod(ratio, axis=1)
    if not np.all(zhat > 0.0):
        raise EigensolverError("secular roots do not interlace the bath poles")
    return np.sqrt(zhat)


@dataclass(frozen=True)
class _ModeShapes:
    """O(N) data from which _mode_blocks rebuilds every mode shape.

    Shapes are mass weighted (orthonormal) over the coordinates ``coord``:
    the particle, the coupled oscillators ordered by d, then the free
    ones.  Modes come in the order secular roots, free oscillators,
    Helmert vectors of each merged cluster; ``cols`` maps that order to
    positions in the ascending frequencies.
    """

    coord: np.ndarray        # (n,) coordinate index of each shape entry
    nu0: np.ndarray          # (n_r,) nearer pole of each secular root
    tau: np.ndarray          # (n_r,) root minus that pole
    pole: np.ndarray         # (n_c,) pole of each coupled oscillator's cluster
    coef: np.ndarray         # (n_c,) Loewner z of the cluster times direction
    clusters: tuple          # (first coupled position, z) per merged cluster
    cols: np.ndarray         # (n,) position in nu of each mode


def _mode_shapes(cm: CouplingMatrix, df: _Deflated, origin, tau):
    """Ascending mode frequencies and the _ModeShapes of one contact phase.

    df.poles[0] must be the particle's pole at 0 (alpha0 > 0).
    """
    nu0 = df.poles[origin]
    zhat = _loewner_z(df.poles[1:], nu0, tau)
    ends = np.r_[df.starts[1:], len(df.members)]
    merged = [(s, df.members[s:e]) for s, e in zip(df.starts, ends) if e - s > 1]
    nu = np.concatenate([nu0 + tau, cm.w[df.free]]
                        + [_helmert_frequencies(cm.z[idx], cm.d[idx]) for _, idx in merged])
    order = np.argsort(nu, kind="stable")
    cols = np.empty(len(nu), dtype=np.intp)
    cols[order] = np.arange(len(nu))
    shapes = _ModeShapes(coord=np.r_[0, 1 + df.members, 1 + df.free],
                         nu0=nu0, tau=tau, pole=df.poles[1:][df.cluster],
                         coef=zhat[df.cluster] * df.direction,
                         clusters=tuple((s, cm.z[idx]) for s, idx in merged),
                         cols=cols)
    return nu[order], shapes


def _mode_blocks(sh: _ModeShapes):
    """Yield (cols, block): the shapes of a block of modes, one column each.

    block[:, j] is the mass-weighted shape of mode cols[j] over sh.coord.
    Every block is a view of one buffer of SHAPE_BLOCK columns, valid
    until the next block is drawn, so no n x n array is ever formed.
    """
    n, n_r, n_c = len(sh.coord), len(sh.nu0), len(sh.pole)
    n_free = n - 1 - n_c
    step = SHAPE_BLOCK
    flat = np.empty(n * min(step, n))

    def block_of(k):
        # contiguous for any k, so row-wise operations stream
        return flat[:n * k].reshape(n, k)

    # secular modes (1, zhat_a direction_i / (lam_k - d_a)), normalized
    minus_coef = -sh.coef[:, None]
    for lo in range(0, n_r, step):
        hi = min(lo + step, n_r)
        block = block_of(hi - lo)
        amp = _d_minus_lam(sh.pole, sh.nu0[lo:hi], sh.tau[lo:hi], out=block[1:1 + n_c])
        np.divide(minus_coef, amp, out=amp)
        block[0] = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->j", amp, amp))
        amp *= block[0]
        block[1 + n_c:] = 0.0
        yield sh.cols[lo:hi], block
    # modes without particle motion: free oscillators, then Helmert vectors
    at = n_r
    for lo in range(0, n_free, step):
        block = block_of(min(step, n_free - lo))
        block[:] = 0.0
        k = np.arange(block.shape[1])
        block[1 + n_c + lo + k, k] = 1.0
        yield sh.cols[at + lo:at + lo + len(k)], block
    at += n_free
    for first, zc in sh.clusters:
        for lo in range(0, len(zc) - 1, step):
            t = np.arange(lo, min(lo + step, len(zc) - 1))
            block = block_of(len(t))
            block[:] = 0.0
            _helmert_columns(zc, t, block[1 + first:1 + first + len(zc)])
            yield sh.cols[at + t], block
        at += len(zc) - 1


@dataclass
class EigenPropagator:
    """Real normal-mode solution of one initial value problem."""

    cm: CouplingMatrix
    nu: np.ndarray                # (n,) mode angular frequencies
    u0: np.ndarray                # (n,) particle entry of each mode u_k
    coef_cos: np.ndarray          # (n,) mode amplitudes a_k = u_k . M x0
    coef_sin: np.ndarray          # (n,) mode amplitudes b_k = u_k . p0
    shapes: _ModeShapes           # rebuilds the u_k, block by block

    def sample_test_particle(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) at many times through the real mode form.

        The modes inside the bath band [min w_n, max w_n] go through the
        type-3 transform gridded_sums; the secular roots outside it, at
        most one below the lowest pole and one above the highest, go
        through mode_sums, so the grid does not grow with Omega.  Modes
        without particle motion (u_k[0] = 0) add nothing and are left
        out.  Where the grid would outgrow its memory cap (grid_fits)
        every mode goes through mode_sums.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        rows = self._rows()
        live = self.u0 != 0.0
        inside = live & (self.nu >= np.min(self.cm.w)) & (self.nu <= np.max(self.cm.w))
        if not grid_fits(t, self.nu[inside]):
            inside[:] = False
        direct = live & ~inside
        out = mode_sums(t, self.nu[direct], None,
                        [(a[direct], b[direct]) for a, b in rows])
        if np.any(inside):
            out += gridded_sums(t, self.nu[inside],
                                [(a[inside], b[inside]) for a, b in rows])
        return out[0], self.cm.tp.mass * out[1]

    def sample_rk4(self, steps, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) after integer numbers of classical RK4 steps of size h.

        One step multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}, so
        the mode form holds with nu_k t replaced by n phi_k and scaled by
        rho_k^n.  O(N) per sample, no stepping.
        """
        phi, log_rho = rk4_mode_factors(self.nu, h)
        q, p = mode_sums(steps, phi, log_rho, self._rows())
        return q, self.cm.tp.mass * p

    def _rows(self):
        """Coefficient rows (A, B) of Q and of P / M over the modes."""
        u0 = self.u0
        return [(u0 * self.coef_cos, u0 * self.coef_sin / self.nu),
                (u0 * self.coef_sin, -(u0 * self.coef_cos * self.nu))]


# entries of one table or buffer of mode_sums and gridded_sums, 2 MB: the
# direct sum holds three (samples x modes) tables, the transform three
# spreading buffers (modes x points) and then three gathering buffers
# (times x points).  Larger tables raise the peak memory of a run more
# than they save time
SAMPLE_CHUNK = 250_000


def mode_sums(x, theta, log_decay, rows, decay_rows=()) -> np.ndarray:
    """Direct sums over the modes k at each x, one per coefficient row.

    Row j of the result is sum_k e^{x d_k} (A_jk cos(x theta_k) +
    B_jk sin(x theta_k)) for the j-th pair (A_j, B_j) of rows, with
    d = log_decay (no decay when None); the rows of decay_rows D_j, which
    need log_decay, follow as sum_k e^{x d_k} D_jk.  The RK4 and the
    period-map samplers go through here, and so do the exact sampler's
    modes outside the bath band and its spans too long for gridded_sums;
    the tests check gridded_sums against it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((len(rows) + len(decay_rows), len(x)))
    # chunked so the (samples x modes) tables stay cache friendly
    step = max(1, SAMPLE_CHUNK // max(len(theta), 1))
    # one set of tables for every chunk: tables allocated per chunk are
    # often mapped afresh by malloc and page-faulted in again
    tables = np.empty((3, min(step, len(x)), len(theta)))
    for lo in range(0, len(x), step):
        xx = x[lo:lo + step]
        ph, c, s = tables[:, :len(xx)]
        np.outer(xx, theta, out=ph)
        np.cos(ph, out=c)
        np.sin(ph, out=s)
        if log_decay is not None:
            decay = np.outer(xx, log_decay, out=ph)
            np.exp(decay, out=decay)
            c *= decay
            s *= decay
        for j, (a, b) in enumerate(rows):
            out[j, lo:lo + step] = c @ a + s @ b
        for j, d in enumerate(decay_rows, len(rows)):
            out[j, lo:lo + step] = ph @ d
    return out


# Accuracy of the type-3 transform gridded_sums: at each time its
# gridding error is at most NUFFT_TOL sum_k |A_k - i B_k|.  Like the
# direct sum it also carries the rounding of the phases nu t, up to
# about eps max|nu t| of the same sum.
NUFFT_TOL = 1e-12

# Every kernel parameter follows from the tolerance, L = log(1 / NUFFT_TOL).
# The frequency kernel is a Gaussian of standard deviation s = a / X for
# times within X of the centre; dividing by its transform there raises
# errors by up to e^(a^2 / 2), which is given a ninth of the digits
# (a = 2.48).  Truncating it at _KERNEL_CUT s, and aliasing the times
# from a grid that places their images _KERNEL_CUT / s beyond the span,
# each leave e^(-_KERNEL_CUT^2 / 2) = NUFFT_TOL e^(-a^2 / 2) (cut 7.84).
_DIGITS = float(np.log(1.0 / NUFFT_TOL))
_KERNEL_A = float(np.sqrt(2.0 * _DIGITS / 9.0))
_KERNEL_CUT = float(np.sqrt(2.0 * _DIGITS + _KERNEL_A**2))
# the type-2 step of Greengard & Lee (SIAM Rev. 46, 443 (2004)) oversamples
# its FFT R >= _OVERSAMPLE times (the length is the next power of two) and
# gathers 2 _M_SP points per time, with error e^(-pi _M_SP (R - 1/2) / R)
# below the same e^(-_KERNEL_CUT^2 / 2) (_M_SP = 14)
_OVERSAMPLE = 2
_M_SP = int(np.ceil(_KERNEL_CUT**2 / 2.0 / (np.pi * (1.0 - 0.5 / _OVERSAMPLE))))
# grid spacings per kernel standard deviation, and grid points per mode
_SIGMA = (_KERNEL_A + _KERNEL_CUT) / (2.0 * np.pi)
_WIDTH = int(2.0 * _KERNEL_CUT * _SIGMA) + 2


@dataclass(frozen=True)
class _Grid:
    """Where gridded_sums centres its inputs, and its grid's sizes."""

    t_c: float           # centre of the times
    half_span: float     # X: every time lies within it of t_c (X > 0)
    nu_c: float          # centre of the frequencies
    h: float             # frequency grid spacing
    half: int            # K: the grid is g h for |g| <= K
    n_fft: int           # length of the type-2 step's FFT


def _grid(t, nu) -> _Grid:
    t_lo, t_hi, nu_lo, nu_hi = np.min(t), np.max(t), np.min(nu), np.max(nu)
    # a zero span (one time, or repeated ones) still needs X > 0; any X
    # that covers the times is as accurate, and X = 1 / nu_hi keeps the
    # grid as small as the kernel allows
    half_span = max(0.5 * (t_hi - t_lo), 1.0 / nu_hi)
    h = 2.0 * np.pi / (half_span * (1.0 + _KERNEL_CUT / _KERNEL_A))
    half = int(np.ceil(0.5 * (nu_hi - nu_lo) / h + _KERNEL_CUT * _SIGMA)) + 2
    return _Grid(t_c=0.5 * (t_lo + t_hi), half_span=half_span,
                 nu_c=0.5 * (nu_lo + nu_hi), h=h, half=half,
                 n_fft=1 << (_OVERSAMPLE * (2 * half + 1) - 1).bit_length())


# FFT points of gridded_sums.  While the FFT runs it holds the padded
# rows and their transform, 64 bytes per point for Q and P together:
# 8.4 MB at the cap, and a peak of about 9 MB with the other arrays,
# next to the direct sum's 6 MB of tables.  The benchmark sweeps need
# 2^15 points (band 0.8 wide, times 4e4 to 5e4 long); a band of that
# width fits times up to about 2.4e5 long
_MAX_FFT = 1 << 17


def grid_fits(t, nu) -> bool:
    """True when gridded_sums takes these inputs.

    It needs a time and a mode, and a grid whose FFT has at most
    _MAX_FFT points; a longer span or a wider band is summed directly,
    as the direct sum's memory does not grow with either.
    """
    return len(t) > 0 and len(nu) > 0 and _grid(t, nu).n_fft <= _MAX_FFT


def gridded_sums(t, nu, rows) -> np.ndarray:
    """mode_sums(t, nu, None, rows) by a type-3 nonuniform FFT.

    Row j of the result is Re sum_k c_jk e^{i nu_k t}, c_jk = A_jk - i B_jk,
    within NUFFT_TOL sum_k |c_jk| at each time.  Gaussian gridding (Lee &
    Greengard, J. Comput. Phys. 206, 1 (2005)):

    1. Centre: nu = nu_c + v and t = t_c + t', |t'| <= X, so the sum is
       e^{i nu_c t} g(t') with g(t') = sum_k c'_k e^{i v_k t'} and
       c'_k = c_k e^{i v_k t_c}.  N + M trig evaluations.
    2. Spread each c'_k onto the grid v = g h with the Gaussian
       exp(-(v - v_k)^2 / 2 s^2), s = a / X, cut at _KERNEL_CUT s: grid
       coefficients F_g, two np.bincount calls (real, imaginary) per row.
    3. h sum_g F_g e^{i g h t'} = g(t') phi(t') up to truncation and
       aliasing, phi(t') = s sqrt(2 pi) e^{-s^2 t'^2 / 2} the kernel's
       transform.  Evaluate it at the t' by the Gaussian type-2 step:
       deconvolve, zero-padded np.fft, gather 2 _M_SP grid points per time.
    4. Divide by phi(t') and restore e^{i nu_c t}.

    Spreading and gathering go through buffers of at most SAMPLE_CHUNK
    entries each, reused chunk after chunk.  The FFT rows grow with span
    times band: about 64 bytes per FFT point for two rows while the FFT
    runs, which grid_fits caps at _MAX_FFT points.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nu = np.asarray(nu, dtype=float)
    # 1.-2. centre, and spread the c'_k in grid units u_k = v_k / h
    g = _grid(t, nu)
    v = nu - g.nu_c
    spin = np.exp(1j * (v * g.t_c))
    grid = _spread(v / g.h, [(a - 1j * b) * spin for a, b in rows], g.half)

    # 3. type-2 step: sum_|m|<=K F_m e^{i m x} at x = h t' in (-pi, pi)
    size, n_fft = 2 * g.half + 1, g.n_fft
    r = n_fft / size
    tau = np.pi * _M_SP / (size * size * r * (r - 0.5))
    modes = np.arange(-g.half, g.half + 1)
    grid *= np.sqrt(np.pi / tau) * np.exp(tau * modes * modes)
    padded = np.zeros((len(rows), n_fft), complex)
    padded[:, modes] = grid
    del grid
    smooth = np.fft.ifft(padded, axis=1)
    del padded
    tp = t - g.t_c
    re_im = _gather(smooth, tp * (g.h * n_fft / (2.0 * np.pi)),
                    -(2.0 * np.pi / n_fft) ** 2 / (4.0 * tau))

    # 4. Re e^{i nu_c t} (re + i im) h / phi(t')
    s = _KERNEL_A / g.half_span
    scale = (g.h / (s * np.sqrt(2.0 * np.pi))) * np.exp(0.5 * (s * tp) ** 2)
    phase = g.nu_c * t
    return re_im[:, 0] * (np.cos(phase) * scale) - re_im[:, 1] * (np.sin(phase) * scale)


def _spread(u, coef, half) -> np.ndarray:
    """Grid coefficients F_m, |m| <= half, of Gaussians at grid positions u.

    Row j is sum_k coef[j][k] exp(-(m - u_k)^2 / 2 _SIGMA^2) over the
    _WIDTH grid points around each u_k, accumulated by np.bincount.
    """
    size = 2 * half + 1
    cut = _KERNEL_CUT * _SIGMA
    step = max(1, SAMPLE_CHUNK // _WIDTH)
    shape = (min(step, len(u)), _WIDTH)
    index, weight, part = np.empty(shape, np.intp), np.empty(shape), np.empty(shape)
    points = np.arange(_WIDTH)
    grid = np.zeros((len(coef), size), complex)
    for lo in range(0, len(u), step):
        uu = u[lo:lo + step]
        first = np.ceil(uu - cut)
        ix, w, pt = index[:len(uu)], weight[:len(uu)], part[:len(uu)]
        np.add.outer(first.astype(np.intp) + half, points, out=ix)
        np.add.outer(first - uu, points, out=w)
        w *= w
        w *= -0.5 / _SIGMA**2
        np.exp(w, out=w)
        for row, c in zip(grid, coef):
            for out, values in ((row.real, c.real), (row.imag, c.imag)):
                np.multiply(w, values[lo:lo + step, None], out=pt)
                out += np.bincount(ix.ravel(), pt.ravel(), size)
    return grid


def _gather(smooth, xi, rate) -> np.ndarray:
    """(rows, 2, times): real and imaginary Gaussian sums of each smooth row.

    Entry [j, :, i] is sum_l smooth[j, l] exp(rate (xi_i - l)^2) over the
    2 _M_SP points l nearest xi_i, indices taken modulo the row length.
    """
    step = max(1, SAMPLE_CHUNK // (2 * _M_SP))
    shape = (min(step, len(xi)), 2 * _M_SP)
    index, weight, taken = np.empty(shape, np.intp), np.empty(shape), np.empty(shape)
    points = np.arange(1 - _M_SP, _M_SP + 1)
    acc = np.empty((len(smooth), 2, len(xi)))
    for lo in range(0, len(xi), step):
        xx = xi[lo:lo + step]
        first = np.floor(xx)
        ix, w, tk = index[:len(xx)], weight[:len(xx)], taken[:len(xx)]
        np.add.outer(first.astype(np.intp), points, out=ix)
        np.subtract.outer(xx - first, points, out=w)
        w *= w
        w *= rate
        np.exp(w, out=w)
        for row, out in zip(smooth, acc):
            for part, values in enumerate((row.real, row.imag)):
                np.take(values, ix, out=tk, mode="wrap")
                np.einsum("ij,ij->i", tk, w, out=out[part, lo:lo + step])
    return acc


# RK4's stability interval on the imaginary axis: |h nu| <= 2 sqrt(2)
RK4_STABILITY_LIMIT = 2.0 * np.sqrt(2.0)


def check_rk4_stability(h: float, nu_max: float) -> None:
    """NumericalError if RK4 steps of size h are unstable for the mode nu_max.

    Beyond h nu_max = 2 sqrt(2) a run grows by orders of magnitude
    without overflowing, so it is rejected before it starts.
    """
    if h * nu_max > RK4_STABILITY_LIMIT:
        raise NumericalError(
            f"RK4 step h={h:g} is unstable for the fastest mode "
            f"nu_max={nu_max:.6g}: h*nu_max={h * nu_max:.4g} exceeds "
            f"2*sqrt(2); use step_size < {RK4_STABILITY_LIMIT / nu_max:.4g}")


def rk4_mode_factors(nu, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Phase phi and log amplitude log rho of one RK4 step on each mode.

    R(i theta) = 1 - theta^2/2 + theta^4/24 + i theta (1 - theta^2/6) with
    theta = h nu, and |R|^2 = 1 - theta^6/72 + theta^8/576 exactly, so
    log rho keeps full relative accuracy however small the damping.  A
    step beyond the stability limit of the fastest mode is a NumericalError.
    """
    nu = np.asarray(nu, dtype=float)
    check_rk4_stability(h, float(np.max(nu)))
    theta = h * nu
    t2 = theta * theta
    phi = np.arctan2(theta * (1.0 - t2 / 6.0), 1.0 - t2 / 2.0 + t2 * t2 / 24.0)
    log_rho = 0.5 * np.log1p(t2**3 * (t2 / 576.0 - 1.0 / 72.0))
    return phi, log_rho


def _as_vector(v0, dim):
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (dim,):
        raise ValueError(f"initial state has shape {v0.shape}, expected ({dim},)")
    return v0


ZERO_MODE = ("system has a zero frequency mode (Omega = 0?); "
             "the spectral propagator does not apply")


def diagonalize(cm: CouplingMatrix, v0) -> EigenPropagator:
    """Factor the system and bind an initial state.

    Raises EigensolverError if dlasd4 fails on a secular root or the
    system has a zero frequency mode (Omega = 0).
    """
    v0 = _as_vector(v0, cm.dim)
    if cm.alpha0 <= 0.0:
        raise EigensolverError(ZERO_MODE)
    df = _deflate(cm)
    origin, tau = _secular_roots(df.poles, df.weights, np.arange(len(df.poles)))

    nu, shapes = _mode_shapes(cm, df, origin, tau)
    if not nu[0] > 0.0:
        raise EigensolverError(ZERO_MODE)
    ab, u0 = _project(cm, shapes, v0)
    return EigenPropagator(cm=cm, nu=nu, u0=u0,
                           coef_cos=ab[0], coef_sin=ab[1], shapes=shapes)


def _project(cm: CouplingMatrix, shapes: _ModeShapes, v):
    """(a, b) = (U^T M x, U^T p) of the state v, and U's particle row u_k[0].

    One pass over the mode shapes.
    """
    root_m = np.sqrt(cm.mass)
    y = np.stack([root_m * v[0::2], v[1::2] / root_m])[:, shapes.coord]
    ab = np.empty((2, len(shapes.cols)))
    u0 = np.empty(len(shapes.cols))
    for cols, block in _mode_blocks(shapes):
        ab[:, cols] = y @ block
        u0[cols] = block[0]
    return ab, u0 / root_m[0]


def mode_amplitudes(prop: EigenPropagator, v) -> np.ndarray:
    """(2, n): the amplitudes a_k = u_k . M x and b_k = u_k . p of a state vector v."""
    return _project(prop.cm, prop.shapes, _as_vector(v, prop.cm.dim))[0]


def full_state(prop: EigenPropagator, t: float) -> SystemState:
    """Reconstruct every coordinate at time t (O(N^2))."""
    ph = prop.nu * t
    return _mode_state(prop, np.cos(ph), np.sin(ph), t)


def rk4_full_state(prop: EigenPropagator, step: int, h: float) -> SystemState:
    """Every coordinate after `step` classical RK4 steps of size h (O(N^2))."""
    phi, log_rho = rk4_mode_factors(prop.nu, h)
    decay = np.exp(step * log_rho)
    ph = step * phi
    return _mode_state(prop, decay * np.cos(ph), decay * np.sin(ph), step * h)


def _mode_state(prop: EigenPropagator, c, s, t: float) -> SystemState:
    """The state whose mode k carries cos and sin factors c_k and s_k."""
    vec = mode_vector(prop, prop.coef_cos * c + prop.coef_sin * s / prop.nu,
                      prop.coef_sin * c - prop.coef_cos * prop.nu * s)
    return SystemState.from_vector(vec, prop.cm.bath_sizes, time=t)


def mode_vector(prop: EigenPropagator, f, g) -> np.ndarray:
    """The state vector with x = U f and p = M U g, the inverse of mode_amplitudes.

    One pass over the mode shapes.
    """
    fg = np.stack([f, g], axis=1)
    acc = np.zeros((len(prop.nu), 2))
    for cols, block in _mode_blocks(prop.shapes):
        acc += block @ fg[cols]
    root_m = np.sqrt(prop.cm.mass)
    vec = np.empty(2 * len(prop.nu))
    vec[0::2][prop.shapes.coord] = acc[:, 0]
    vec[1::2][prop.shapes.coord] = acc[:, 1]
    vec[0::2] /= root_m
    vec[1::2] *= root_m
    return vec


def mode_residual(prop: EigenPropagator) -> float:
    """|| H V - V diag(nu^2) || / || H ||, the defining check of the modes.

    H = M^(-1/2) K M^(-1/2) is the arrowhead prop.cm and V = M^(1/2) U
    the orthonormal mass-weighted modes.  In this form the residual does not
    depend on the bath-to-particle mass ratio, as it would for K U - M U
    diag(nu^2) measured against || K ||.  H acts on each block of modes
    through alpha, z and d alone.
    """
    cm = prop.cm
    bath = prop.shapes.coord[1:] - 1
    z, d = cm.z[bath], cm.d[bath]
    sq = 0.0
    for cols, v in _mode_blocks(prop.shapes):
        res = v * -prop.nu[cols] ** 2
        res[0] += cm.alpha * v[0] + z @ v[1:]
        res[1:] += d[:, None] * v[1:] + z[:, None] * v[0]
        sq += float(np.einsum("ij,ij->", res, res))
    hnorm = np.sqrt(cm.alpha**2 + np.sum(cm.d**2) + 2.0 * np.sum(cm.z**2))
    return float(np.sqrt(sq) / hnorm)
