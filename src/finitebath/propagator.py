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
Its modes cost O(N) memory, since the (N+1)^2 mode matrix is never
stored (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)); the
roots and the vectors take O(N^2) time below FAR_FIELD_ROOTS roots and
O(N log N) from there on:

1. Deflation.  Free oscillators (z_n = 0, or negligible against the
   corner) are modes on their own; the particle keeps their springs.
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
   plus 0 for the term alpha0 / lam.  Below FAR_FIELD_ROOTS roots
   LAPACK's dlasd4 finds each root nu_k; from there on it finds the
   first and the last, and the roots between the lowest and the highest
   bath pole go through one vectorised iteration of dlasd4's method,
   R.-C. Li's middle way, whose sums over the poles come from a
   transform.far_field tree built once (_far_roots, after Livne &
   Brandt, SIAM J. Matrix Anal. Appl. 24 (2002)).  A root is stored as
   its nearer pole w_o plus the offset nu_k - w_o, which keeps every
   difference nu_k - w_n exact.
3. Vectors.  Each lam_k - d_n is formed as the two factors
   (nu_k - w_n)(nu_k + w_n); the second has no cancellation.  Loewner's
   formula recomputes z so that the computed roots are the exact
   eigenvalues of a nearby arrowhead; the eigenvectors
   (1, z_n / (lam - d_n)) are then orthogonal to working accuracy.
   Only the roots, Loewner's z and the deflation are kept, O(N).  The
   mode shapes are rebuilt block by block, a fixed number of modes at
   a time, for each pass over them (_sweep).  A sampled point makes
   one: diagonalize's pass projects the initial state onto each block,
   giving the amplitudes a_k, b_k and the particle's entries u_k[0]
   that the samplers read, and, given a final time, adds the same
   block's share of the state there, which needs only a_k, b_k and
   that time.  mode_vector (the switched period map's state) makes a
   pass of its own, and so does mode_residual.  The
   samplers need no shapes after that: Q and P are two coefficient
   rows (A, B) of the mode sums below, built from u_k[0], a_k and b_k.
   From FAR_FIELD_ROOTS roots on, the O(N^2) sums over poles and roots
   go through transform.far_field_sums, a fast multipole method that
   keeps the terms near each pole exact: Loewner's z as a sum of
   logarithms (_far_loewner_z), and in a pass the secular modes between
   the lowest and the highest pole, whose norms, projections and share
   of a state are Cauchy sums (_far_secular).  The free oscillators,
   the Helmert vectors, the two secular modes outside the band and the
   particle's entry stay in blocks, and mode_residual keeps its blocks.

A zero frequency mode (Omega = 0, a free translation) has no such form,
so diagonalize rejects it for the exact and the RK4 sampler alike.  It
occurs only when nothing pins the particle, alpha0 = 0: for alpha0 > 0
every secular root lies above the pole at 0.  No dense matrix of the
system is ever formed: the drift matrix A of v' = A v, v = (Q, P, q_1,
p_1, ...), exists only as the tests' reference.

Classical RK4 with step h is the polynomial R(hA) = I + hA + ... +
(hA)^4/24 of the drift matrix, so it has the same normal modes: one step
multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}.  n steps are the
mode form with nu_k t replaced by n phi_k and scaled by rho_k^n, which
sample_rk4 and rk4_factors evaluate without stepping.  The same
stability rule, h nu_max <= 2 sqrt(2), holds for these and for the
switched module's period map (check_rk4_stability).

Every sampler evaluates sum_k e^{x d_k} (A_k cos x theta_k + B_k sin x
theta_k) through the transform module's banded_sums: the exact form with
x = t, theta = nu and no decay, RK4 with x = n, theta = phi and d = log
rho.

Buffers.  Beyond its O(N) data a pass over the modes holds a few buffers
of SHAPE_BLOCK by N + 1 entries.  Each pass allocates its buffers once
per call and writes every block's temporaries into them (out= and
in-place ufuncs): an array allocated afresh per block or per call is
often handed back to the kernel by malloc when it is freed, and the next
one is page-faulted in and zeroed again.  A buffer backs at most one
live array at a time, and no array a function returns shares memory
with one.

Threads.  dlasd4 is LAPACK's, bound from numpy's own BLAS library (the
workers module).  The whole factorization runs on the calling thread: a
sweep runs its points on worker processes instead (workers.in_processes).
The pass over the shapes (_sweep) adds its blocks' share of a state in
block order, so the bits depend on N alone.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemState, TestParticleSpec
from .transform import banded_sums, far_field, far_field_sums, view
from .workers import dlasd4, dlasd4_int


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
    Everything else, the normal modes and their residual, is derived
    from these arrays; build_multi_coupling_matrix is the one place that
    states the coupling.
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

    @cached_property
    def nu_max(self) -> float:
        """max_mode_frequency of this phase, computed once: the step rule and the RK4 check read it."""
        return max_mode_frequency(self)


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


@dataclass(frozen=True)
class _Deflated:
    """The arrowhead after deflation: secular poles and what folds into them.

    ``poles`` are frequencies and ascend: 0 (weight alpha0 plus the free
    oscillators' c, when positive) then one pole per cluster of coupled
    oscillators.  A lone oscillator's pole is its own frequency; a merged
    cluster's is the square root of its d averaged with weights z^2.
    Member i of a cluster enters each coupled mode with the cluster's
    amplitude times ``direction[i]``.
    """

    poles: np.ndarray
    weights: np.ndarray
    members: np.ndarray      # coupled bath indices, ordered by d
    cluster: np.ndarray      # each member's cluster, 0-based
    direction: np.ndarray    # z_i / |z over the cluster|
    starts: np.ndarray       # first member of each cluster
    free: np.ndarray         # bath indices that are modes on their own


def _deflate(cm: CouplingMatrix) -> _Deflated:
    eps = np.finfo(float).eps
    tol = 8.0 * eps * max(cm.alpha, float(np.max(cm.d, initial=0.0)))
    free = np.flatnonzero(np.abs(cm.z) <= tol)
    members = np.flatnonzero(np.abs(cm.z) > tol)
    members = members[np.argsort(cm.d[members], kind="stable")]
    ds, zs = cm.d[members], cm.z[members]
    # poles merge only within the rounding of the larger one: in a heavy
    # bath alpha exceeds the band by orders, and tol would merge distinct
    # oscillators, whose modes then miss by far more than the rounding
    starts = np.flatnonzero(np.r_[len(ds) > 0, np.diff(ds) > 8.0 * eps * ds[1:]])
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
    # a deflated oscillator's spring c_n stays in the corner: the particle's
    # pole at 0 carries it with alpha0
    pinned = cm.alpha0 + float(np.sum(cm.c[free]))
    if pinned > 0.0:
        poles = np.r_[0.0, poles]
        weights = np.r_[pinned, weights]
    return _Deflated(poles=poles, weights=weights, members=members,
                     cluster=cluster, direction=direction, starts=starts,
                     free=free)


# modes per (coordinates x modes) block of shapes, and poles per (poles x
# roots) table of Loewner's product: a pass holds a few buffers of
# 64 (N + 1) entries, allocated once and written by every block, O(N)
# memory.  Fewer columns shorten numpy's inner loops: at N = 2e4, 6
# columns (a fixed 1 MB block) ran twice as slow
SHAPE_BLOCK = 64


def _secular_roots(poles, weights, which):
    """Roots nu of 1 + sum_j weights_j / (poles_j^2 - nu^2) = 0, as (origin, tau).

    poles are frequencies that ascend from 0 or above, and weights are
    positive, so root k lies in (poles[k], poles[k+1]) and the last one
    above poles[-1].  Root k is poles[origin] + tau with poles[origin]
    its nearer pole.  Below FAR_FIELD_ROOTS roots LAPACK's dlasd4 finds
    every root (_dlasd4_roots); from there on it finds the first and the
    last, and _far_roots the in-band roots 1 to n - 2 in one vectorised
    iteration.  The roots are solved in that order, so a failure raises
    EigensolverError for the lowest failing root.
    """
    which = np.asarray(which, dtype=np.intp)
    if len(poles) == 1:
        # dlasd4 returns no offset for a single pole
        p, c = float(poles[0]), float(weights[0])
        return (np.zeros(len(which), np.intp),
                np.full(len(which), c / (p + np.sqrt(p * p + c))))
    n = len(poles)
    if len(weights) != n or np.any((which < 0) | (which >= n)):
        raise ValueError(f"{n} poles need {n} weights and roots 0 to {n - 1}")
    parts = [np.ones(len(which), bool)]
    if n >= FAR_FIELD_ROOTS:
        parts = [which == 0, (which > 0) & (which < n - 1), which == n - 1]
    origin, tau = np.empty(len(which), np.intp), np.empty(len(which))
    for part, solve in zip(parts, (_dlasd4_roots, _far_roots, _dlasd4_roots)):
        if np.any(part):
            origin[part], tau[part] = solve(poles, weights, which[part])
    return origin, tau


def _scale(poles):
    """The power of two that brings the top pole into [1/2, 1)."""
    return math.ldexp(1.0, -math.frexp(float(poles[-1]))[1])


def _dlasd4_roots(poles, weights, which):
    """_secular_roots by one call of LAPACK's dlasd4 per root.

    dlasd4 (R.-C. Li's middle way, LAPACK Working Note 89) returns every
    poles_j - nu_k relative to the pole it starts from.  The roots are
    solved in order, so a failed call raises EigensolverError for the
    lowest failing root.
    """
    # dlasd4 reads n entries behind each address, for root i in 1..n
    n = len(poles)
    # rho = 1 and z = sqrt(weights), although LAPACK documents |z| = 1:
    # scaled that way (rho = sum(weights)), the top root of a heavy bath
    # (m/M ~ 700) came out 1.5e-12 off a 50-digit reference, unscaled 2e-16.
    # The equation is scale-free but dlasd4 is not: with the top pole at
    # 1e8 or above it failed (info = 1) on half of a scan of small baths.
    # So poles and z are multiplied by the power of two that brings the
    # top pole into [1/2, 1), which is exact, and the offsets divided by it
    scale = _scale(poles)
    d = np.asarray(poles, dtype=float) * scale
    z = np.sqrt(np.asarray(weights, dtype=float)) * scale
    # Python lists, cheaper than arrays to write one entry at a time
    ks = which.tolist()
    origin = np.minimum(which + 1, n - 1).tolist()
    tau = [0.0] * len(ks)
    # delta as a ctypes array: reading one entry is a plain float
    delta, work = (ctypes.c_double * n)(), (ctypes.c_double * n)()
    size, i, info = dlasd4_int(n), dlasd4_int(), dlasd4_int()
    rho, sigma = ctypes.c_double(1.0), ctypes.c_double()
    args = [ctypes.addressof(size), ctypes.addressof(i), d.ctypes.data, z.ctypes.data,
            ctypes.addressof(delta), ctypes.addressof(rho), ctypes.addressof(sigma),
            ctypes.addressof(work), ctypes.addressof(info)]
    for j, k in enumerate(ks):
        i.value = k + 1
        dlasd4(*args)
        if info.value != 0:
            raise EigensolverError(f"dlasd4 failed on secular root {k} (info = {info.value})")
        o = origin[j]
        if abs(delta[k]) <= abs(delta[o]):
            origin[j] = o = k
        tau[j] = -delta[o]
    return np.array(origin, dtype=np.intp), np.array(tau) / scale


# model steps of _far_roots before a root that has not met its stop rule
# is an EigensolverError.  Over 216 baths of 1200 and 4000 oscillators
# (four densities, clusters and poles 1e-13 apart, m N from 1e-6 to 700,
# Omega from 0.01 to 5) the roots took 3 to 9 steps, most of them 5
ROOT_STEPS = 60
# the stop rule, after dlasd4's own: |f| within ROOT_TOL eps of the sum
# of the magnitudes of its terms, 1 + phi - psi
ROOT_TOL = 8.0
# poles per leaf of the roots' tree, at least half this on average: its
# windows are what each step pays for.  At N = 4000 (2 CPUs, in-process
# medians) the roots took 44 ms on leaves of far_field_sums' FAR_LEAF =
# 32, 33 ms on 16 and 29 ms on 8.  But on 8 the tree and its buffers
# peaked at 4.0-4.6 MB traced, above the 4.0 MB of the rest of
# diagonalize, and raised the benchmark's peak RSS by 0.27 MB; on 16 they
# peak at 3.7 MB and it stayed as it was.  At N = 2e4 leaves of 8 and 16
# both took 0.13-0.14 s
ROOT_LEAF = 16


def _far_roots(poles, weights, which):
    """The in-band roots (0 < k < n - 1) of _secular_roots by one iteration over all of them.

    R.-C. Li's middle way, as in dlasd4, on the offset tau of each root
    from its nearer pole, with lam = nu^2: psi sums the terms of poles 0
    to k, phi those of poles k + 1 on, f = 1 + psi + phi, and each step
    solves the model c + s / (d_k - lam) + S / (d_k+1 - lam) = 0 that
    matches f and the derivatives of psi and phi.  Every difference
    d_j - lam is formed as the two factors (poles_j - nu)(poles_j + nu).
    The sums come from one FarField on poles 1 to n - 1 with charges
    weights (transform.far_field): its left and right far fields plus
    its exact near terms, split at pole k; pole 0's term is added
    directly, so that a band far above 0 still spreads over the leaves.

    The sign of f at the middle of (d_k, d_k+1) picks the pole a root is
    iterated from, and the first step is taken from there.  Each step
    evaluates only the roots that have not yet met the stop rule, |f| <=
    ROOT_TOL eps (1 + phi - psi), and bisects the root's bracket, which
    every evaluation narrows, where the model's step leaves it.  A root
    still short of the rule after ROOT_STEPS steps raises
    EigensolverError for the lowest such root.  Everything runs in
    buffers allocated once per call.
    """
    # poles and weights scaled as for dlasd4, exactly, so that the squares
    # neither overflow nor underflow and the roots scale bit for bit
    scale = _scale(poles)
    poles, weights, k = poles * scale, weights * (scale * scale), which
    lower, upper = poles[k], poles[k + 1]
    gap = upper - lower
    # d_k+1 - d_k and the middle of the two, as lower + tau_mid
    delta = gap * (upper + lower)
    tau_mid = 0.5 * delta / (lower + np.sqrt(lower * lower + 0.5 * delta))
    tree = far_field((poles[1:], np.zeros(len(poles) - 1)), np.tile(weights[1:], (2, 1)),
                     ["cauchy", "cauchy2"], (lower + tau_mid) ** 2, ROOT_LEAF, split=True)
    work = tree.buffers()
    p0, w0 = poles[0], weights[0]
    tol = ROOT_TOL * np.finfo(float).eps

    def sums(i, base, tau):
        """psi, psi', phi and phi' (in lam) at roots k[i], each poles[origin] + tau."""
        near = tree.at((base, tau), split=k[i], work=work)
        d0 = ((p0 - base) - tau) * (p0 + (base + tau))
        t0 = w0 / d0
        return t0 - near[0, 0], t0 / d0 + near[0, 1], -near[1, 0], near[1, 1]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        live = np.arange(len(k))
        values = sums(live, lower, tau_mid)
        # f ascends through the root: at or below the middle, iterate
        # from the lower pole, else from the upper
        below = 1.0 + values[0] + values[2] >= 0.0
        base = np.where(below, lower, upper)
        tau = np.where(below, tau_mid, tau_mid - gap)
        lo, hi = np.where(below, 0.0, -gap), np.where(below, gap, 0.0)
        for step in range(ROOT_STEPS + 1):
            f = 1.0 + values[0] + values[2]
            going = ~(np.abs(f) <= tol * (1.0 + values[2] - values[0]))
            live = live[going]
            if not len(live):
                break
            if step == ROOT_STEPS:
                raise EigensolverError(f"secular root {int(np.min(k[live]))} did not converge "
                                       f"(ROOT_STEPS = {ROOT_STEPS})")
            b, t = base[live], tau[live]
            hi[live] = np.where(f[going] > 0.0, t, hi[live])
            lo[live] = np.where(f[going] < 0.0, t, lo[live])
            tau[live] = _bracketed(t + _middle_way(lower[live], upper[live], b, t, f[going],
                                                   *(v[going] for v in values[1::2])),
                                   lo[live], hi[live])
            # the last evaluation's sums go before the next is made
            values = f = going = b = t = None
            values = sums(live, base[live], tau[live])
    # the nearer pole, the lower one on a tie, as _dlasd4_roots picks it
    from_lower = (lower - base) - tau
    from_upper = (upper - base) - tau
    nearer = np.abs(from_lower) <= np.abs(from_upper)
    return np.where(nearer, k, k + 1), -np.where(nearer, from_lower, from_upper) / scale


def _middle_way(lower, upper, base, tau, f, dpsi, dphi):
    """The step in tau of the middle way from roots base + tau, where f, psi' and phi' are given.

    lam + eta solves c + s / (d_k - lam - eta) + S / (d_k+1 - lam - eta)
    = 0, with s and S matching psi' and phi' and c then f; d_k - lam and
    d_k+1 - lam are formed from the stored roots.
    """
    a_k = ((lower - base) - tau) * (lower + (base + tau))
    a_k1 = ((upper - base) - tau) * (upper + (base + tau))
    eta = _model_root((a_k + a_k1) * f - a_k * a_k1 * (dpsi + dphi), a_k * a_k1 * f,
                      f - a_k * dpsi - a_k1 * dphi)
    nu = base + tau
    return eta / (nu + np.sqrt(nu * nu + eta))


def _model_root(a, b, c):
    """The root of c x^2 - a x + b = 0 between the model's two poles, (a - sqrt(a^2 - 4bc)) / 2c.

    For a > 0 it is formed as 2b / (a + sqrt(a^2 - 4bc)), which does not
    cancel; with c = 0 that is b / a.
    """
    root = np.sqrt(np.abs(a * a - 4.0 * b * c))
    return np.where(a > 0.0, 2.0 * b / (a + root), (a - root) / (2.0 * c))


def _bracketed(tau, lo, hi):
    """tau where it lies strictly inside (lo, hi), else the middle of the bracket."""
    return np.where((tau > lo) & (tau < hi), tau, 0.5 * (lo + hi))


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
    The first term is the z^2-weighted mean of those d times the share
    z_t+1^2 / r_t+1^2, so it forms no product larger than the sums of
    z^2 d that the cluster's pole needs (factorization_fits).
    """
    r2 = np.cumsum(zc * zc)
    head = np.cumsum(zc * zc * dc)[:-1] / r2[:-1] * (zc[1:] ** 2 / r2[1:])
    return np.sqrt(head + r2[:-1] / r2[1:] * dc[1:])


def factorization_fits(coupling: float, w_max: float) -> bool:
    """True when the normal modes of baths up to frequency w_max stay finite.

    coupling is sum N m / M over the baths.  The largest products the
    factorization forms are sums over the oscillators, or over one
    cluster of them: of c = (m / M) w^2 in the corner alpha, of
    z^2 = (m / M) w^4 in deflation, and of z^2 d = (m / M) w^6 for a
    merged cluster's pole and its Helmert frequencies.  Each is at most
    coupling max(1, w_max)^6, which must stay below the largest double.
    """
    return (math.log(max(coupling, np.finfo(float).tiny)) + 6.0 * math.log(max(1.0, w_max))
            < math.log(np.finfo(float).max))


def factorization_resolves(ratio: float, w_min: float) -> bool:
    """True when no product the factorization forms for baths from frequency w_min on underflows.

    ratio is one oscillator's m / M.  The smallest products it forms are
    per oscillator: c = (m / M) w^2, z^2 = (m / M) w^4 in deflation and
    z^2 d = (m / M) w^6 for a merged cluster.  Each is at least ratio
    min(1, w_min)^6, which must reach the smallest normal double: a z^2
    that underflowed to 0 left deflation dividing by it.  A bath with
    ratio <= 16 eps^2 resolves at any frequency: each |z| = sqrt(m / M)
    w^2 lies within half deflation's tolerance of 8 eps max d, so every
    oscillator is a mode on its own and its products go unused.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    return ratio <= 16.0 * eps * eps or (
        math.log(ratio) + 6.0 * math.log(min(1.0, w_min)) >= math.log(tiny))


def max_mode_frequency(cm: CouplingMatrix) -> float:
    """Largest normal mode frequency: the top secular root or a free oscillator."""
    df = _deflate(cm)
    top = float(np.max(cm.w[df.free], initial=0.0))
    if len(df.poles):
        origin, tau = _secular_roots(df.poles, df.weights, [len(df.poles) - 1])
        top = max(top, float(df.poles[origin[0]] + tau[0]))
    return top


def _d_minus_lam(w, nu0, tau, out=None, scratch=None):
    """w_a^2 - lam_k for poles w_a (rows) and roots nu_k = nu0_k + tau_k.

    Formed as (w_a - nu_k)(w_a + nu_k): the first factor exact through
    the stored (pole, offset) form of the root, the second without
    cancellation.  scratch, of out's shape, takes the second factor.
    """
    out = np.subtract.outer(w, nu0, out=out)
    out -= tau
    out *= np.add.outer(w, nu0 + tau, out=scratch)
    return out


# secular roots from which Loewner's z and the pass over the secular
# shapes sum over the poles and roots by transform.far_field_sums, O(N log N),
# rather than term by term, O(N^2).  On 2 CPUs (in-process medians of z
# plus a pass with a final state, BLAS on one thread, 11 alternating runs,
# the term-by-term sums then on two threads) the two broke even about
# N = 1000, 11.0 against 11.5 ms (the far field faster in 8 runs, in none
# on a busier machine), and the far field won every run from N = 1200 on:
# 12.3 against 19.2 ms, 16.8 against 35.3 ms at N = 2000 and 0.12 against
# 3.1 s at 2e4.  The bound stays where it was set: moving it changes the
# rounding of every bath size it passes
FAR_FIELD_ROOTS = 1200

INTERLACE = "secular roots do not interlace the bath poles"


def _loewner_z(bath, nu0, tau):
    """Loewner's z: the border for which the computed roots are exact eigenvalues.

    bath are the coupled poles above the particle's pole at 0, and the
    roots (nu0 + tau) interlace them.  Arm a is a product over every
    root and pole, O(N) each, and the arms go in blocks of SHAPE_BLOCK.
    From FAR_FIELD_ROOTS roots on, _far_loewner_z sums their logarithms
    instead.
    """
    n_s = len(bath)
    if n_s + 1 >= FAR_FIELD_ROOTS:
        return _far_loewner_z(bath, nu0, tau)
    zhat = np.empty(n_s)
    # every block's ratios, their denominators and the second factor of
    # each difference of squares
    ratios, dens, factors = np.empty((3, min(SHAPE_BLOCK, n_s), n_s))
    for first in range(0, n_s, SHAPE_BLOCK):
        arms = np.arange(first, min(first + SHAPE_BLOCK, n_s))
        k, w = len(arms), bath[arms]
        # (d_a - lam_j+1) / (d_a - d_j), and -(d_a - lam_a+1) for j = a
        ratio = _d_minus_lam(w, nu0[1:], tau[1:], out=ratios[:k], scratch=factors[:k])
        den = np.subtract.outer(w, bath, out=dens[:k])
        den *= np.add.outer(w, bath, out=factors[:k])
        den[np.arange(k), arms] = -1.0
        ratio /= den
        zhat[arms] = _d_minus_lam(w, nu0[:1], tau[:1])[:, 0] * np.prod(ratio, axis=1)
    if not np.all(zhat > 0.0):
        raise EigensolverError(INTERLACE)
    return np.sqrt(zhat)


def _far_loewner_z(bath, nu0, tau):
    """_loewner_z as a sum of logarithms, by far_field_sums.

    log z_a^2 = sum_k log|d_a - lam_k| - sum_(j != a) log|d_a - d_j|.  The
    roots between the lowest and the highest pole (all but the first and
    the last) and the poles are its sources, with charges +1 and -1; the
    first and the last root are added directly.  The logarithms lose the
    products' sign, so the interlacing that the sign checks is checked on
    the exact differences of each pole to the roots either side of it.
    """
    if not (np.all((bath - nu0[:-1]) - tau[:-1] > 0.0)
            and np.all((bath - nu0[1:]) - tau[1:] < 0.0)):
        raise EigensolverError(INTERLACE)
    n_s, poles = len(bath), (bath, np.zeros(len(bath)))
    sources = (np.r_[nu0[1:-1], bath], np.r_[tau[1:-1], np.zeros(n_s)])
    log_z2 = far_field_sums(poles, sources, np.r_[np.ones(n_s - 1), -np.ones(n_s)], ["log"])[0]
    log_z2 += np.sum(np.log(np.abs(_d_minus_lam(bath, nu0[[0, -1]], tau[[0, -1]]))), axis=1)
    return np.exp(0.5 * log_z2)


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


def _blocks(sh: _ModeShapes) -> list:
    """Every block of modes, in the order of a pass: (kind, lo, hi, at) each.

    kind is "secular", "free" or the index of a merged cluster in
    sh.clusters; the block holds that kind's modes lo to hi, which are
    modes at + lo to at + hi of sh.cols.  Each block has SHAPE_BLOCK
    modes but the last of its kind.
    """
    step, n_r = SHAPE_BLOCK, len(sh.nu0)
    n_free = len(sh.coord) - 1 - len(sh.pole)
    blocks = [("secular", lo, min(lo + step, n_r), 0) for lo in range(0, n_r, step)]
    blocks += [("free", lo, min(lo + step, n_free), n_r) for lo in range(0, n_free, step)]
    at = n_r + n_free
    for c, (_, zc) in enumerate(sh.clusters):
        n_t = len(zc) - 1
        blocks += [(c, lo, min(lo + step, n_t), at) for lo in range(0, n_t, step)]
        at += n_t
    return blocks


# rows of the scratch that takes the second factor of each lam_k - d_a in
# a block of secular modes, which is formed in row slices of this many
# poles: a fixed 256 KB per block buffer, where a full-height one grew
# with N.  The product is elementwise, so the slices change no bit
FACTOR_ROWS = 512


def _block_buffers(n, width=SHAPE_BLOCK):
    """The buffers of _mode_blocks over n coordinates and width modes: (block, scratch), flat."""
    step = min(width, n)
    return np.empty(n * step), np.empty(min(FACTOR_ROWS, n) * step)


def _mode_blocks(sh: _ModeShapes, blocks=None, buffers=None):
    """Yield (cols, block): the shapes of each block of modes, one column each.

    blocks lists blocks in _blocks(sh)'s form, all of _blocks(sh) when
    None, and buffers those of _block_buffers, fresh when None.
    block[:, j] is the mass-weighted shape of mode cols[j] over sh.coord.
    Every block is a view of the one block buffer, valid until the next
    block is drawn, so no n x n array is ever formed.
    """
    n, n_c = len(sh.coord), len(sh.pole)
    flat, factor = _block_buffers(n) if buffers is None else buffers
    minus_coef = -sh.coef[:, None]
    for kind, lo, hi, at in _blocks(sh) if blocks is None else blocks:
        # contiguous for any width, so row-wise operations stream
        block = view(flat, (n, hi - lo))
        if kind == "secular":
            # (1, zhat_a direction_i / (lam_k - d_a)), normalized
            amp = block[1:1 + n_c]
            for r in range(0, n_c, FACTOR_ROWS):
                rows = amp[r:r + FACTOR_ROWS]
                _d_minus_lam(sh.pole[r:r + FACTOR_ROWS], sh.nu0[lo:hi], sh.tau[lo:hi],
                             out=rows, scratch=view(factor, rows.shape))
            np.divide(minus_coef, amp, out=amp)
            block[0] = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->j", amp, amp))
            amp *= block[0]
            block[1 + n_c:] = 0.0
        elif kind == "free":
            # modes without particle motion: unit vectors
            block[:] = 0.0
            k = np.arange(hi - lo)
            block[1 + n_c + lo + k, k] = 1.0
        else:
            # a merged cluster's Helmert vectors, also without particle motion
            first, zc = sh.clusters[kind]
            block[:] = 0.0
            _helmert_columns(zc, np.arange(lo, hi), block[1 + first:1 + first + len(zc)])
        yield sh.cols[at + lo:at + hi], block


@dataclass
class EigenPropagator:
    """Real normal-mode solution of one initial value problem."""

    cm: CouplingMatrix
    nu: np.ndarray                # (n,) mode angular frequencies
    u0: np.ndarray                # (n,) particle entry of each mode u_k
    coef_cos: np.ndarray          # (n,) mode amplitudes a_k = u_k . M x0
    coef_sin: np.ndarray          # (n,) mode amplitudes b_k = u_k . p0
    shapes: _ModeShapes           # rebuilds the u_k, block by block
    final_state: SystemState | None = None   # the state at diagonalize's final time

    def sample_test_particle(self, times) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) at many times through the real mode form.

        The modes inside the bath band [min w_n, max w_n] go through the
        type-3 transform gridded_sums; the secular roots outside it, at
        most one below the lowest pole and one above the highest, go
        through mode_sums, so the grid does not grow with Omega
        (banded_sums).  Modes without particle motion (u_k[0] = 0) add
        nothing and are left out.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        live, rows = self._rows()
        q, p = banded_sums(t, self.nu[live], None, rows, self.cm.w)
        return q, self.cm.tp.mass * p

    def sample_rk4(self, steps, h: float) -> tuple[np.ndarray, np.ndarray]:
        """(Q, P) after integer numbers of classical RK4 steps of size h.

        One step multiplies mode k by R(i h nu_k) = rho_k e^{i phi_k}, so
        the mode form holds with nu_k t replaced by n phi_k and scaled by
        rho_k^n; no stepping.  Like sample_test_particle it grids the
        modes whose phase lies within those of the bath frequencies, in
        one transform of the (Q, P) pair whose frequencies phi_k - i log
        rho_k carry the decay (banded_sums): O(N + M + grid) for M samples.
        """
        phi, log_rho = rk4_mode_factors(self.nu, h)
        live, rows = self._rows()
        q, p = banded_sums(steps, phi[live], log_rho[live], rows,
                           rk4_mode_factors(self.cm.w, h)[0])
        return q, self.cm.tp.mass * p

    def _rows(self):
        """The modes with particle motion, and the rows (A, B) of Q and of P / M over them."""
        live = self.u0 != 0.0
        u0, a, b, nu = self.u0[live], self.coef_cos[live], self.coef_sin[live], self.nu[live]
        return live, [(u0 * a, u0 * b / nu), (u0 * b, -(u0 * a * nu))]



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


def flow_factors(nu, t: float):
    """(c, s, t): the factors cos nu_k t and sin nu_k t of the exact flow at time t."""
    ph = nu * t
    return np.cos(ph), np.sin(ph), t


def rk4_factors(nu, step: int, h: float):
    """(c, s, t): the factors rho_k^n cos n phi_k and rho_k^n sin n phi_k of n RK4 steps.

    n = step steps of size h, at t = n h.
    """
    phi, log_rho = rk4_mode_factors(nu, h)
    decay = np.exp(step * log_rho)
    ph = step * phi
    return decay * np.cos(ph), decay * np.sin(ph), step * h


def _as_vector(v0, dim):
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != (dim,):
        raise ValueError(f"initial state has shape {v0.shape}, expected ({dim},)")
    return v0


ZERO_MODE = ("system has a zero frequency mode (Omega = 0?); "
             "the spectral propagator does not apply")


def diagonalize(cm: CouplingMatrix, v0, final=None) -> EigenPropagator:
    """Factor the system and bind an initial state.

    final, if given, maps the mode frequencies to the factors (c, s, t)
    of one later time, flow_factors or rk4_factors with that time bound
    (functools.partial): the pass that projects v0 onto the modes then
    builds the state there as well, prop.final_state, without a second
    pass over the mode shapes.  For flow_factors it is, to the last bit,
    the state that mode_vector builds from the flowed amplitudes in a
    pass of its own (the tests' full_state).

    Raises EigensolverError if a secular root fails (dlasd4, or the
    far-field iteration within ROOT_STEPS) or the system has a zero
    frequency mode (Omega = 0).
    """
    v0 = _as_vector(v0, cm.dim)
    if cm.alpha0 <= 0.0:
        raise EigensolverError(ZERO_MODE)
    df = _deflate(cm)
    origin, tau = _secular_roots(df.poles, df.weights, np.arange(len(df.poles)))

    nu, shapes = _mode_shapes(cm, df, origin, tau)
    if not nu[0] > 0.0:
        raise EigensolverError(ZERO_MODE)
    rows = None
    if final is not None:
        c, s, t = final(nu)

        def rows(cols, ab):
            return _state_rows(ab[0, cols], ab[1, cols], nu[cols], c[cols], s[cols])
    ab, u0, vec = _sweep(cm, shapes, _weighted(cm, shapes, v0), rows)
    final_state = None if vec is None else SystemState.from_vector(vec, cm.bath_sizes, time=t)
    return EigenPropagator(cm=cm, nu=nu, u0=u0, coef_cos=ab[0], coef_sin=ab[1],
                           shapes=shapes, final_state=final_state)


def _weighted(cm: CouplingMatrix, shapes: _ModeShapes, v):
    """(2, n): mass-weighted positions M^(1/2) x and momenta M^(-1/2) p of v, over shapes.coord."""
    root_m = np.sqrt(cm.mass)
    return np.stack([root_m * v[0::2], v[1::2] / root_m])[:, shapes.coord]


def _state_rows(a, b, nu, c, s):
    """(k, 2) rows (f, g) of the state whose modes of amplitudes a, b carry the factors c, s."""
    return np.stack([a * c + b * s / nu, b * c - a * nu * s], axis=1)


def _sweep(cm: CouplingMatrix, shapes: _ModeShapes, y, rows):
    """One pass over the mode shapes: projections of y, and a state built from rows.

    Each block of modes projects the mass-weighted coordinate rows y
    (over shapes.coord; None for none) onto its shapes, ab = y U, then
    adds U (f, g) over its modes with (f, g) = rows(cols, ab), which may
    read the projections the block has just made.  Returns ab (None
    without y), U's particle row u_k[0] and the state vector with x = U f
    and p = M U g (None without rows).

    Each block (_blocks) adds its share of U (f, g) straight into the
    state, in block order, an order that depends on N alone; ab and u_k[0]
    are written column by column.  One set of block buffers, as wide as
    the widest block, serves every block.

    From FAR_FIELD_ROOTS roots on, _far_secular first takes the secular
    modes between the lowest and the highest pole, and its share of the
    state is added after the blocks'.
    """
    n, n_r = len(shapes.cols), len(shapes.nu0)
    ab = None if y is None else np.empty((len(y), n))
    u0 = np.empty(n)
    blocks = _blocks(shapes)
    far = None
    if n_r >= FAR_FIELD_ROOTS:
        # the first and the last root stay in blocks of their own
        far = _far_secular(shapes, y, rows, ab, u0)
        blocks = ([("secular", 0, 1, 0), ("secular", n_r - 1, n_r, 0)]
                  + [block for block in blocks if block[0] != "secular"])
    buffers = _block_buffers(n, max((hi - lo for _, lo, hi, _ in blocks), default=1))
    if rows is not None:
        # the state and one block's product
        acc, product = np.zeros((2, n, 2))
    for cols, block in _mode_blocks(shapes, blocks, buffers):
        if y is not None:
            ab[:, cols] = y @ block
        u0[cols] = block[0]
        if rows is not None:
            acc += np.matmul(block, rows(cols, ab), out=product)
    root_m = np.sqrt(cm.mass)
    vec = None
    if rows is not None:
        if far is not None:
            acc += far
        vec = np.empty(2 * n)
        vec[0::2][shapes.coord] = acc[:, 0]
        vec[1::2][shapes.coord] = acc[:, 1]
        vec[0::2] /= root_m
        vec[1::2] *= root_m
    return ab, u0 / root_m[0], vec


def _far_secular(sh: _ModeShapes, y, rows, ab, u0):
    """_sweep's share of secular modes 1 to n_r - 2, those between the lowest and highest pole.

    Mode k's shape is n_k (1, coef_a / (lam_k - d_a)) with n_k^-2 = 1 +
    sum_a coef_a^2 / (lam_k - d_a)^2, so its projection of y is n_k (y_0
    + sum_a coef_a y_a / (lam_k - d_a)): one far_field_sums call with the
    roots as targets gives both.  The state U (f, g) over these modes has
    the particle entry sum_k n_k (f, g)_k and at oscillator a coef_a sum_k
    n_k (f, g)_k / (lam_k - d_a): a second call, the poles as targets.
    Writes ab and u0 of these modes and returns their state over
    sh.coord (None without rows).
    """
    n_c, k = len(sh.pole), np.arange(1, len(sh.nu0) - 1)
    roots, poles = (sh.nu0[k], sh.tau[k]), (sh.pole, np.zeros(n_c))
    cols = sh.cols[k]
    ys = [] if y is None else list(y[:, 1:1 + n_c] * sh.coef)
    sums = far_field_sums(roots, poles, [sh.coef**2] + ys, ["cauchy2"] + ["cauchy"] * len(ys))
    norm = 1.0 / np.sqrt(1.0 + sums[0])
    u0[cols] = norm
    if y is not None:
        ab[:, cols] = norm * (y[:, :1] + sums[1:])
    if rows is None:
        return None
    charges = norm * rows(cols, ab).T
    state = np.zeros((len(sh.coord), 2))
    state[0] = np.sum(charges, axis=1)
    state[1:1 + n_c] = -(sh.coef * far_field_sums(poles, roots, charges, ["cauchy"] * 2)).T
    return state


def mode_amplitudes(prop: EigenPropagator, v) -> np.ndarray:
    """(2, n): the amplitudes a_k = u_k . M x and b_k = u_k . p of a state vector v."""
    v = _as_vector(v, prop.cm.dim)
    return _sweep(prop.cm, prop.shapes, _weighted(prop.cm, prop.shapes, v), None)[0]


def mode_vector(prop: EigenPropagator, f, g) -> np.ndarray:
    """The state vector with x = U f and p = M U g, the inverse of mode_amplitudes.

    One pass over the mode shapes.
    """
    fg = np.stack([f, g], axis=1)
    return _sweep(prop.cm, prop.shapes, None, lambda cols, _: fg[cols])[2]


def mode_residual(prop: EigenPropagator) -> float:
    """|| H V - V diag(nu^2) || / || H ||, the defining check of the modes.

    H = M^(-1/2) K M^(-1/2) is the arrowhead prop.cm and V = M^(1/2) U
    the orthonormal mass-weighted modes.  In this form the residual does not
    depend on the bath-to-particle mass ratio, as it would for K U - M U
    diag(nu^2) measured against || K ||.  H acts on each block of modes
    through alpha, z and d alone.  alpha, d, z and nu^2 are scaled by the
    power of two that brings H's largest entry into [1/2, 1), so that the
    squares do not underflow where H is tiny; the scaling is exact, so a
    residual whose terms stay in the normal range keeps its bits.
    """
    cm = prop.cm
    bath = prop.shapes.coord[1:] - 1
    scale = _scale([np.max(np.abs(np.r_[cm.alpha, cm.d, cm.z]))])
    alpha, all_d, all_z, nu2 = scale * cm.alpha, scale * cm.d, scale * cm.z, scale * prop.nu**2
    z, d = all_z[bath], all_d[bath]
    sq = 0.0
    size = len(prop.nu) * min(SHAPE_BLOCK, len(prop.nu))
    res_buf, d_buf, z_buf = np.empty((3, size))
    for cols, v in _mode_blocks(prop.shapes):
        res = np.multiply(v, -nu2[cols], out=view(res_buf, v.shape))
        res[0] += alpha * v[0] + z @ v[1:]
        dv = np.multiply(d[:, None], v[1:], out=view(d_buf, v[1:].shape))
        dv += np.multiply(z[:, None], v[0], out=view(z_buf, v[1:].shape))
        res[1:] += dv
        sq += float(np.einsum("ij,ij->", res, res))
    hnorm = np.sqrt(alpha**2 + np.sum(all_d**2) + 2.0 * np.sum(all_z**2))
    return float(np.sqrt(sq) / hnorm)
