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
M^(1/2) x the stiffness is an arrowhead matrix: the diagonal
d_n = w_n^2, the border z_n = -sqrt(m/M) w_n^2 (0 for a free bath), and
the corner alpha = alpha0 + sum_n c_n with c_n = z_n^2 / d_n and
alpha0 = Omega^2 (plus the spring sums of free baths under static
renormalization).  Its modes cost O(N^2) time and O(N) memory, since
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
   rows of mode_sums built from u_k[0], a_k and b_k.

A zero frequency mode (Omega = 0, a free translation) has no such form,
so diagonalize rejects it for the exact and the RK4 sampler alike.  It
occurs only when nothing pins the particle, alpha0 = 0: for alpha0 > 0
every secular root lies above the pole at 0.  The dense drift matrix A
of v' = A v, v = (Q, P, q_1, p_1, ...), is needed only by RK4 stepping;
drift_matrix builds it on demand.

Classical RK4 with step h is the polynomial R(hA) = I + hA + ... +
(hA)^4/24 of the drift matrix, so it has the same normal modes: one step
multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}.  n steps are the
mode form with nu_k t replaced by n phi_k and scaled by rho_k^n, which
sample_rk4 and rk4_full_state evaluate without stepping.  The same
stability rule, h nu_max <= 2 sqrt(2), holds for these and for literal
stepping in the switched module (check_rk4_stability).

Every sampler is one direct sum, mode_sums: sum_k e^{x d_k} (A_k cos x
theta_k + B_k sin x theta_k) through chunked real tables.  The exact
form has x = t, theta = nu and no decay; RK4 has x = n, theta = phi and
d = log rho; the switched module's period map has x = periods,
d + i theta = log of its multipliers.
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


@dataclass(frozen=True)
class _Arrowhead:
    """Mass-weighted stiffness of one contact phase, in arrowhead form."""

    mass: np.ndarray     # (1 + N,) position-space masses, particle first
    w: np.ndarray        # (N,) bath frequencies
    d: np.ndarray        # (N,) their squares
    z: np.ndarray        # (N,) border, 0 for free baths
    c: np.ndarray        # (N,) secular weights z^2 / d
    alpha0: float        # corner minus sum(c)

    @property
    def alpha(self) -> float:
        return self.alpha0 + float(np.sum(self.c))


def _arrowhead(cm: CouplingMatrix) -> _Arrowhead:
    big_m = cm.tp.mass
    alpha0 = cm.tp.omega**2
    z, c = [], []
    for m, freqs, active in zip(cm.bath_masses, cm.bath_frequencies, cm.active):
        w2 = freqs**2
        if active:
            z.append(-np.sqrt(m / big_m) * w2)
            c.append(m / big_m * w2)
        else:
            z.append(np.zeros(len(w2)))
            c.append(np.zeros(len(w2)))
            if cm.static_renorm:
                alpha0 += m / big_m * float(np.sum(w2))
    mass = np.concatenate(
        [[big_m]] + [np.full(len(f), m) for m, f in zip(cm.bath_masses,
                                                        cm.bath_frequencies)])
    w = np.concatenate(cm.bath_frequencies)
    return _Arrowhead(mass=mass, w=w, d=w**2, z=np.concatenate(z),
                      c=np.concatenate(c), alpha0=float(alpha0))


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


def _deflate(ah: _Arrowhead) -> _Deflated:
    tol = 8.0 * np.finfo(float).eps * max(ah.alpha, float(np.max(ah.d, initial=0.0)))
    free = np.flatnonzero(np.abs(ah.z) <= tol)
    members = np.flatnonzero(np.abs(ah.z) > tol)
    members = members[np.argsort(ah.d[members], kind="stable")]
    ds, zs = ah.d[members], ah.z[members]
    starts = np.flatnonzero(np.r_[len(ds) > 0, np.diff(ds) > tol])
    cluster = np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(members)]))
    poles, weights, direction = np.empty(0), np.empty(0), np.empty(0)
    if len(members):
        z2 = zs * zs
        r2 = np.add.reduceat(z2, starts)
        poles = ah.w[members[starts]]
        merged = np.diff(np.r_[starts, len(members)]) > 1
        poles[merged] = np.sqrt(np.add.reduceat(z2 * ds, starts)[merged] / r2[merged])
        weights = np.add.reduceat(ah.c[members], starts)
        direction = zs / np.sqrt(r2)[cluster]
    if ah.alpha0 > 0.0:
        poles = np.r_[0.0, poles]
        weights = np.r_[ah.alpha0, weights]
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
    ah = _arrowhead(cm)
    df = _deflate(ah)
    top = float(np.max(ah.w[df.free], initial=0.0))
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


def _mode_shapes(ah: _Arrowhead, df: _Deflated, origin, tau):
    """Ascending mode frequencies and the _ModeShapes of one arrowhead.

    df.poles[0] must be the particle's pole at 0 (alpha0 > 0).
    """
    nu0 = df.poles[origin]
    zhat = _loewner_z(df.poles[1:], nu0, tau)
    ends = np.r_[df.starts[1:], len(df.members)]
    merged = [(s, df.members[s:e]) for s, e in zip(df.starts, ends) if e - s > 1]
    nu = np.concatenate([nu0 + tau, ah.w[df.free]]
                        + [_helmert_frequencies(ah.z[idx], ah.d[idx]) for _, idx in merged])
    order = np.argsort(nu, kind="stable")
    cols = np.empty(len(nu), dtype=np.intp)
    cols[order] = np.arange(len(nu))
    shapes = _ModeShapes(coord=np.r_[0, 1 + df.members, 1 + df.free],
                         nu0=nu0, tau=tau, pole=df.poles[1:][df.cluster],
                         coef=zhat[df.cluster] * df.direction,
                         clusters=tuple((s, ah.z[idx]) for s, idx in merged),
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
    mass: np.ndarray              # (n,) position-space masses
    u0: np.ndarray                # (n,) particle entry of each mode u_k
    coef_cos: np.ndarray          # (n,) mode amplitudes a_k = u_k . M x0
    coef_sin: np.ndarray          # (n,) mode amplitudes b_k = u_k . p0
    shapes: _ModeShapes           # rebuilds the u_k, block by block

    def sample_test_particle(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) at many times through the real mode form, O(N) per time."""
        return self._sample(times, self.nu, None)

    def sample_rk4(self, steps, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) after integer numbers of classical RK4 steps of size h.

        One step multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}, so
        the mode form holds with nu_k t replaced by n phi_k and scaled by
        rho_k^n.  O(N) per sample, no stepping.
        """
        phi, log_rho = rk4_mode_factors(self.nu, h)
        return self._sample(steps, phi, log_rho)

    def _sample(self, x, rate, log_decay):
        """The mode form at phases x * rate, each mode scaled by exp(x * log_decay)."""
        u0 = self.u0
        q, p = mode_sums(x, rate, log_decay,
                         [(u0 * self.coef_cos, u0 * self.coef_sin / self.nu),
                          (u0 * self.coef_sin, -(u0 * self.coef_cos * self.nu))])
        return q, self.cm.tp.mass * p


# entries of one (samples x modes) table of mode_sums, 2 MB; larger tables
# raise the peak memory of a run more than they save time
SAMPLE_CHUNK = 250_000


def mode_sums(x, theta, log_decay, rows, decay_rows=()) -> np.ndarray:
    """Direct sums over the modes k at each x, one per coefficient row.

    Row j of the result is sum_k e^{x d_k} (A_jk cos(x theta_k) +
    B_jk sin(x theta_k)) for the j-th pair (A_j, B_j) of rows, with
    d = log_decay (no decay when None); the rows of decay_rows D_j, which
    need log_decay, follow as sum_k e^{x d_k} D_jk.  Every sampler goes
    through here: the exact and the RK4 mode forms and the period map.
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
    ah = _arrowhead(cm)
    if ah.alpha0 <= 0.0:
        raise EigensolverError(ZERO_MODE)
    df = _deflate(ah)
    origin, tau = _secular_roots(df.poles, df.weights, np.arange(len(df.poles)))

    nu, shapes = _mode_shapes(ah, df, origin, tau)
    if not nu[0] > 0.0:
        raise EigensolverError(ZERO_MODE)

    # one pass over the shapes: a = U^T M x0, b = U^T p0 and U's particle row
    root_m = np.sqrt(ah.mass)
    y = np.stack([root_m * v0[0::2], v0[1::2] / root_m])[:, shapes.coord]
    ab = np.empty((2, len(nu)))
    u0 = np.empty(len(nu))
    for cols, block in _mode_blocks(shapes):
        ab[:, cols] = y @ block
        u0[cols] = block[0]
    u0 /= root_m[0]
    return EigenPropagator(cm=cm, nu=nu, mass=ah.mass, u0=u0,
                           coef_cos=ab[0], coef_sin=ab[1], shapes=shapes)


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
    """The state whose mode k carries cos and sin factors c_k and s_k.

    One pass over the mode shapes accumulates x = U f and p = M U g.
    """
    fg = np.stack([prop.coef_cos * c + prop.coef_sin * s / prop.nu,
                   prop.coef_sin * c - prop.coef_cos * prop.nu * s], axis=1)
    acc = np.zeros((len(prop.nu), 2))
    for cols, block in _mode_blocks(prop.shapes):
        acc += block @ fg[cols]
    root_m = np.sqrt(prop.mass)
    vec = np.empty(2 * len(prop.nu))
    vec[0::2][prop.shapes.coord] = acc[:, 0]
    vec[1::2][prop.shapes.coord] = acc[:, 1]
    vec[0::2] /= root_m
    vec[1::2] *= root_m
    return SystemState.from_vector(vec, prop.cm.bath_sizes, time=t)


def mode_residual(prop: EigenPropagator) -> float:
    """|| H V - V diag(nu^2) || / || H ||, the defining check of the modes.

    H = M^(-1/2) K M^(-1/2) is the arrowhead and V = M^(1/2) U the
    orthonormal mass-weighted modes.  In this form the residual does not
    depend on the bath-to-particle mass ratio, as it would for K U - M U
    diag(nu^2) measured against || K ||.  H acts on each block of modes
    through alpha, z and d alone.
    """
    ah = _arrowhead(prop.cm)
    bath = prop.shapes.coord[1:] - 1
    z, d = ah.z[bath], ah.d[bath]
    sq = 0.0
    for cols, v in _mode_blocks(prop.shapes):
        res = v * -prop.nu[cols] ** 2
        res[0] += ah.alpha * v[0] + z @ v[1:]
        res[1:] += d[:, None] * v[1:] + z[:, None] * v[0]
        sq += float(np.einsum("ij,ij->", res, res))
    hnorm = np.sqrt(ah.alpha**2 + np.sum(ah.d**2) + 2.0 * np.sum(ah.z**2))
    return float(np.sqrt(sq) / hnorm)
