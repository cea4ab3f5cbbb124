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
   a time, for each pass over them (_sweep).  A sampled point makes
   one: diagonalize's pass projects the initial state onto each block,
   giving the amplitudes a_k, b_k and the particle's entries u_k[0]
   that the samplers read, and, given a final time, adds the same
   block's share of the state there, which needs only a_k, b_k and
   that time.  full_state and mode_vector (the switched period map's
   state) make a pass of their own, and so does mode_residual.  The
   samplers need no shapes after that: Q and P are two coefficient
   rows (A, B) of the mode sums below, built from u_k[0], a_k and b_k.

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
theta_k).  The exact form has x = t, theta = nu and no decay, RK4 x = n,
theta = phi and d = log rho, and the switched module's period map x =
periods and d + i theta = log of its multipliers.  All three go through
banded_sums: a type-3 nonuniform FFT, gridded_sums, for the modes whose
theta lies within that of the bath band, O(N + M + grid) for M samples
and within NUFFT_TOL of sum_k |A_k - i B_k| at every sample.  A decay
is small over a run (|n log rho| <= 5e-4 for RK4 at 50 steps per
period), so it enters the grid as a short series in x d whose order
follows from NUFFT_TOL (_decay_order): a few more gridded rows, none for
the exact form.  The secular roots interlace the bath poles, so at most
two modes lie outside the band (the particle-like mode at an out-of-band
Omega, and one above the band); those go through the direct sum
mode_sums, chunked real tables of O(N) work per sample, which keeps the
grid independent of Omega.  Inputs whose grid would outgrow its memory
cap (grid_fits), or hold more points than the direct sum has terms, are
summed directly too.

Buffers.  Beyond its O(N) data a pass over the modes holds a few buffers
of SHAPE_BLOCK by N + 1 entries, and the transform chunk buffers of
GRID_CHUNK entries plus its FFT rows.  Each pass allocates its buffers
once per call and writes every block's temporaries into them (out= and
in-place ufuncs): an array allocated afresh per block or per call is
often handed back to the kernel by malloc when it is freed, and the
next one is page-faulted in and zeroed again.  The FFT rows persist from
call to call in one module buffer that only grows, to at most two rows
of _MAX_FFT points (4 MB) for the whole process: a transform holds a
module lock from taking its rows until it has gathered from them, so
concurrent samplers take the buffer in turn.  A buffer backs at most
one live array at a time, and no array a function returns shares
memory with one.

Start-up and threads.  dlasd4 is bound through ctypes from the library
behind scipy's compiled LAPACK wrapper, the file of
scipy.linalg._flapack, without running the scipy or scipy.linalg
package __init__: importing scipy.linalg star-imports numpy through
scipy's array-API layer, which loads numpy.f2py, numpy.testing,
numpy.ma and numpy.random: 116 of the 160 ms and 19 MB of the peak
memory of importing the command line module.  Unlike the f2py wrapper,
a ctypes call releases the GIL, so the secular roots, and Loewner's
products, whose numpy operations release it too, run on worker
threads: plain threads started per call, one per ROOTS_PER_WORKER
roots and at most one per CPU the process may run on, all joined
before the call returns (_workers, _in_ranges).  Smaller systems stay
on the calling thread.  A thread runs in a copy of the caller's
context, so np.errstate holds there too, and a range whose thread
cannot start runs on the calling thread.  The switched module's period
map runs its passes over its roots (the Aberth sweeps' steps, the
eigenvectors, the left products) on the same threads, but only while
numpy's BLAS runs on one thread (blas_threads reads OpenBLAS's count
through ctypes): those passes call BLAS in every piece, and next to
BLAS's own threads they ran three times slower.  The command line runs
with BLAS on one thread and restores the count it found
(blas_on_one_thread).  The pass over the shapes (_sweep) and the period
map's sum over its roots stay serial: their accumulation order fixes
the bits of the final state.

A sweep (experiments._sweep) runs its points on one thread per CPU
instead, all but single-bath RK4 sweeps; on those point threads
_workers gives every call one thread (point_thread), so the CPUs are
shared out once per run, and only a run of a single point threads
inside it.  The points' sampler transforms share the one FFT buffer
under its lock, and a switched point's period map holds the work
buffers of one thread.
numpy.fft, which numpy loads lazily, is imported here so that a run
does not import it inside its first transform.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import numpy.fft

from .model import SystemState, TestParticleSpec


def _load_dlasd4():
    """LAPACK's dlasd4 from the library behind scipy's compiled _flapack, through ctypes.

    The symbol is scipy_dlasd4_ in the scipy-openblas wheels and dlasd4_
    elsewhere.  Every argument is passed by address, as Fortran takes it.
    """
    linalg = [os.path.join(d, "linalg")
              for d in importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", linalg)
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK wrapper _flapack is not in {linalg}")
    lib = ctypes.CDLL(spec.origin)
    for name in ("scipy_dlasd4_", "dlasd4_"):
        routine = getattr(lib, name, None)
        if routine is not None:
            # n, i, d, z, delta, rho, sigma, work, info
            routine.argtypes = [ctypes.c_void_p] * 9
            routine.restype = None
            return routine
    raise ImportError(f"{spec.origin} exports neither scipy_dlasd4_ nor dlasd4_")


dlasd4 = _load_dlasd4()


def _load_blas():
    """The thread count getter and setter and the config string of numpy's BLAS, through ctypes.

    OpenBLAS's openblas_get_num_threads, openblas_set_num_threads and
    openblas_get_config, under the names numpy's builds give them, or
    MKL's MKL_Get_Max_Threads and MKL_Set_Num_Threads, looked up through
    numpy's core extension, which links the BLAS.  None for each one
    that is not found.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return None, None, None
    for get, put, config in (("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_set_num_threads64_", "scipy_openblas_get_config64_"),
                             ("openblas_get_num_threads64_", "openblas_set_num_threads64_",
                              "openblas_get_config64_"),
                             ("openblas_get_num_threads", "openblas_set_num_threads",
                              "openblas_get_config"),
                             ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads", None)):
        getter = getattr(lib, get, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter = getattr(lib, put, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
            describe = config and getattr(lib, config, None)
            if describe is not None:
                describe.argtypes, describe.restype = [], ctypes.c_char_p
            return getter, setter, describe
    return None, None, None


blas_threads, _set_blas_threads, _blas_config = _load_blas()


def blas_config() -> str | None:
    """The build and core numpy's BLAS reports (OpenBLAS's get_config), None where not found."""
    return None if _blas_config is None else _blas_config().decode(errors="replace")


# (count found, count used) of numpy's BLAS threads inside blas_on_one_thread
_blas_counts = contextvars.ContextVar("blas_counts", default=None)


@contextlib.contextmanager
def blas_on_one_thread():
    """Run the block with numpy's BLAS on one thread, then restore the count found.

    A multithreaded BLAS rounds a product by how it splits it among its
    threads, and its threads compete with the program's own (the point
    threads of a sweep, the period map's passes).  Where no setter is
    found the count stays as it is (blas_counts).
    """
    found = None if blas_threads is None else blas_threads()
    used = None if _set_blas_threads is None or found is None else 1
    if used is not None:
        _set_blas_threads(used)
    token = _blas_counts.set((found, used))
    try:
        yield
    finally:
        _blas_counts.reset(token)
        if used is not None:
            _set_blas_threads(found)


def blas_counts():
    """(found, used): numpy's BLAS threads before blas_on_one_thread and inside it.

    used is None where no setter is found, found where no getter is.
    Outside blas_on_one_thread both are the count in effect.
    """
    counts = _blas_counts.get()
    if counts is None:
        now = None if blas_threads is None else blas_threads()
        counts = (now, now)
    return counts


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


# secular roots (or Loewner arms) per worker thread.  A worker pays a
# thread start and GIL hand-offs of a few microseconds per root, which the
# root work it takes over must outweigh.  On 2 CPUs (in-process medians,
# roots plus arms) two threads broke even at N = 400, 2.0 ms either way,
# and won from N = 600 on: 4.1 against 2.7 ms, and 0.135 against 0.071 s
# at N = 4000.  So N = 400 stays on the calling thread and N = 600 splits
ROOTS_PER_WORKER = 300


def usable_cpus() -> int:
    """The CPUs the process may run on, where the platform says (sched_getaffinity), else all."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# True on a point thread of a sweep (experiments._sweep), whose points
# already take every CPU: a call there keeps its work on its own thread.
# Worker threads run in a copy of the caller's context, so it reaches
# every nested call
point_thread = contextvars.ContextVar("point_thread", default=False)


def _workers(n, per_worker=ROOTS_PER_WORKER):
    """Worker threads for n independent roots: one per per_worker roots, at most one per CPU.

    One on a point thread (point_thread).
    """
    if point_thread.get():
        return 1
    return max(1, min(usable_cpus(), n // per_worker))


def _in_ranges(task, n, workers):
    """task(lo, hi, j) on each of `workers` contiguous ranges j that split range(n).

    The calling thread takes the first range and a new thread each other
    one; j lets a task take its own slice of a shared buffer.  A thread
    runs its range in a copy of the caller's context, so the caller's
    numpy error state (np.errstate, a context variable) holds there too.
    A range whose thread cannot start (RuntimeError, as at a limit on
    threads or processes) runs on the calling thread after the first.
    All threads are joined before this returns.  An exception in a range
    is raised after the joins, the lowest range's first.
    """
    bounds = [n * j // workers for j in range(workers + 1)]
    errors = [None] * workers

    def run(j):
        try:
            task(bounds[j], bounds[j + 1], j)
        except Exception as exc:    # raised below, on the calling thread
            errors[j] = exc

    threads, unstarted = [], []
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, j))
            try:
                thread.start()
            except RuntimeError:
                unstarted.append(j)
            else:
                threads.append(thread)
        run(0)
        for j in unstarted:
            run(j)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _secular_roots(poles, weights, which):
    """Roots nu of 1 + sum_j weights_j / (poles_j^2 - nu^2) = 0, as (origin, tau).

    poles are frequencies that ascend from 0 or above, and weights are
    positive, so root k lies in (poles[k], poles[k+1]) and the last one
    above poles[-1].  Root k is poles[origin] + tau with poles[origin]
    its nearer pole.  One call of LAPACK's dlasd4 per root (R.-C. Li's
    middle way, LAPACK Working Note 89) returns every poles_j - nu_k
    relative to that pole.  The roots are split into contiguous ranges,
    one per worker thread (_workers), each with its own output buffers:
    a ctypes call releases the GIL, so the ranges run side by side.  A
    failed call raises EigensolverError for the lowest failing root.
    """
    which = np.asarray(which, dtype=np.intp)
    if len(poles) == 1:
        # dlasd4 returns no offset for a single pole
        p, c = float(poles[0]), float(weights[0])
        return (np.zeros(len(which), np.intp),
                np.full(len(which), c / (p + np.sqrt(p * p + c))))
    # dlasd4 reads n entries behind each address, for root i in 1..n
    n = len(poles)
    if len(weights) != n or np.any((which < 0) | (which >= n)):
        raise ValueError(f"{n} poles need {n} weights and roots 0 to {n - 1}")
    # rho = 1 and z = sqrt(weights), although LAPACK documents |z| = 1:
    # scaled that way (rho = sum(weights)), the top root of a heavy bath
    # (m/M ~ 700) came out 1.5e-12 off a 50-digit reference, unscaled 2e-16.
    # The equation is scale-free but dlasd4 is not: with the top pole at
    # 1e8 or above it failed (info = 1) on half of a scan of small baths.
    # So poles and z are multiplied by the power of two that brings the
    # top pole into [1/2, 1), which is exact, and the offsets divided by it
    scale = math.ldexp(1.0, -math.frexp(float(poles[-1]))[1])
    d = np.asarray(poles, dtype=float) * scale
    z = np.sqrt(np.asarray(weights, dtype=float)) * scale
    # Python lists, cheaper than arrays to write one entry at a time; each
    # thread writes only its own range
    ks = which.tolist()
    origin = np.minimum(which + 1, n - 1).tolist()
    tau = [0.0] * len(ks)

    def roots(lo, hi, _):
        # delta as a ctypes array: reading one entry is a plain float
        delta, work = (ctypes.c_double * n)(), (ctypes.c_double * n)()
        size, i, info = ctypes.c_int(n), ctypes.c_int(), ctypes.c_int()
        rho, sigma = ctypes.c_double(1.0), ctypes.c_double()
        args = [ctypes.addressof(size), ctypes.addressof(i), d.ctypes.data, z.ctypes.data,
                ctypes.addressof(delta), ctypes.addressof(rho), ctypes.addressof(sigma),
                ctypes.addressof(work), ctypes.addressof(info)]
        for j in range(lo, hi):
            k = ks[j]
            i.value = k + 1
            dlasd4(*args)
            if info.value != 0:
                raise EigensolverError(
                    f"dlasd4 failed on secular root {k} (info = {info.value})")
            o = origin[j]
            if abs(delta[k]) <= abs(delta[o]):
                origin[j] = o = k
            tau[j] = -delta[o]

    _in_ranges(roots, len(ks), _workers(len(ks)))
    return np.array(origin, dtype=np.intp), np.array(tau) / scale


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


def max_mode_frequency(cm: CouplingMatrix) -> float:
    """Largest normal mode frequency: the top secular root or a free oscillator."""
    df = _deflate(cm)
    top = float(np.max(cm.w[df.free], initial=0.0))
    if len(df.poles):
        origin, tau = _secular_roots(df.poles, df.weights, [len(df.poles) - 1])
        top = max(top, float(df.poles[origin[0]] + tau[0]))
    return top


def _view(buf, shape):
    """The leading entries of the flat buffer buf as a contiguous array of this shape."""
    return buf[:math.prod(shape)].reshape(shape)


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


def _loewner_z(bath, nu0, tau):
    """Loewner's z: the border for which the computed roots are exact eigenvalues.

    bath are the coupled poles above the particle's pole at 0, and the
    roots (nu0 + tau) interlace them.  Arm a is a product over every
    root and pole, O(N) each.  As for the roots, the arms are split into
    contiguous ranges, one per worker thread (_workers): numpy releases
    the GIL inside each block's operations.  Each range works in blocks
    of SHAPE_BLOCK // workers arms, so all ranges together hold the
    buffers of one SHAPE_BLOCK block.
    """
    n_s = len(bath)
    zhat = np.empty(n_s)
    workers = _workers(n_s)
    step = max(1, SHAPE_BLOCK // workers)

    def arms_in(lo, hi, _):
        # every block's ratios, their denominators and the second factor
        # of each difference of squares
        ratios, dens, factors = np.empty((3, min(step, hi - lo), n_s))
        for first in range(lo, hi, step):
            arms = np.arange(first, min(first + step, hi))
            k, w = len(arms), bath[arms]
            # (d_a - lam_j+1) / (d_a - d_j), and -(d_a - lam_a+1) for j = a
            ratio = _d_minus_lam(w, nu0[1:], tau[1:], out=ratios[:k], scratch=factors[:k])
            den = np.subtract.outer(w, bath, out=dens[:k])
            den *= np.add.outer(w, bath, out=factors[:k])
            den[np.arange(k), arms] = -1.0
            ratio /= den
            zhat[arms] = _d_minus_lam(w, nu0[:1], tau[:1])[:, 0] * np.prod(ratio, axis=1)

    _in_ranges(arms_in, n_s, workers)
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
    # the blocks, and the second factor of each lam_k - d_a
    flat, factor = np.empty(n * min(step, n)), np.empty(n * min(step, n))

    def block_of(k):
        # contiguous for any k, so row-wise operations stream
        return _view(flat, (n, k))

    # secular modes (1, zhat_a direction_i / (lam_k - d_a)), normalized
    minus_coef = -sh.coef[:, None]
    for lo in range(0, n_r, step):
        hi = min(lo + step, n_r)
        block = block_of(hi - lo)
        amp = _d_minus_lam(sh.pole, sh.nu0[lo:hi], sh.tau[lo:hi], out=block[1:1 + n_c],
                           scratch=_view(factor, (n_c, hi - lo)))
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
        modes whose phase lies within those of the bath frequencies, the
        decay rho_k^n as a short series (banded_sums): O(N + M + grid)
        for M samples.
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


# entries of one table of mode_sums, 2 MB: the direct sum holds three
# (samples x modes) tables, allocated once per call.  Larger tables raise
# the peak memory of a run more than they save time
SAMPLE_CHUNK = 250_000


def mode_sums(x, theta, log_decay, rows) -> np.ndarray:
    """Direct sums over the modes k at each x, one per coefficient row.

    Row j of the result is sum_k e^{x d_k} (A_jk cos(x theta_k) +
    B_jk sin(x theta_k)) for the j-th pair (A_j, B_j) of rows, with
    d = log_decay (no decay when None).  Every sampler sends its modes
    outside the bath band here, and all of its modes where banded_sums
    cannot grid them; the tests check the transform against it.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((len(rows), len(x)))
    # chunked so the (samples x modes) tables stay cache friendly
    step = max(1, SAMPLE_CHUNK // max(len(theta), 1))
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


# FFT points of gridded_sums.  Its FFT buffer holds two rows, 32 bytes
# per point, and is transformed in place: 4 MB at the cap, kept from call
# to call, next to the direct sum's 6 MB of tables.  The benchmark sweeps
# need 2^15 points (band 0.8 wide, times 4e4 to 5e4 long); a band of that
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
       coefficients F_g, accumulated in order by np.add.at (real,
       imaginary) straight into the FFT row, F_g at index g mod its length.
    3. h sum_g F_g e^{i g h t'} = g(t') phi(t') up to truncation and
       aliasing, phi(t') = s sqrt(2 pi) e^{-s^2 t'^2 / 2} the kernel's
       transform.  Evaluate it at the t' by the Gaussian type-2 step:
       deconvolve, zero-padded np.fft in place, gather 2 _M_SP grid
       points per time.
    4. Divide by phi(t') and restore e^{i nu_c t}.

    The rows go through steps 2 and 3 two at a time, in the module's FFT
    buffer (_fft_rows), which grid_fits caps at two rows of _MAX_FFT
    points and which the call holds under _fft_lock meanwhile.
    Spreading and gathering go through buffers of GRID_CHUNK entries
    each, reused chunk after chunk.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nu = np.asarray(nu, dtype=float)
    # 1. centre; the c'_k are spread in grid units u_k = v_k / h
    g = _grid(t, nu)
    v = nu - g.nu_c
    spin = np.exp(1j * (v * g.t_c))
    u = v / g.h
    # 3. type-2 step: sum_|m|<=K F_m e^{i m x} at x = h t' in (-pi, pi).
    # The deconvolution is even in m: deconv[m] for m >= 0
    size, n_fft = 2 * g.half + 1, g.n_fft
    r = n_fft / size
    tau = np.pi * _M_SP / (size * size * r * (r - 0.5))
    m = np.arange(g.half + 1)
    deconv = np.sqrt(np.pi / tau) * np.exp(tau * m * m)
    tp = t - g.t_c
    xi = tp * (g.h * n_fft / (2.0 * np.pi))
    rate = -(2.0 * np.pi / n_fft) ** 2 / (4.0 * tau)
    # 4. Re e^{i nu_c t} (re + i im) h / phi(t')
    s = _KERNEL_A / g.half_span
    scale = (g.h / (s * np.sqrt(2.0 * np.pi))) * np.exp(0.5 * (s * tp) ** 2)
    phase = g.nu_c * t
    cos, sin = np.cos(phase) * scale, np.sin(phase) * scale
    out = np.empty((len(rows), len(t)))
    # 2.-4. for each pair of rows
    for lo in range(0, len(rows), 2):
        pair = rows[lo:lo + 2]
        coef = [(a - 1j * b) * spin for a, b in pair]
        with _fft_lock:
            grid = _fft_rows(len(pair), n_fft)
            _spread(u, coef, grid)
            grid[:, :g.half + 1] *= deconv
            grid[:, n_fft - g.half:] *= deconv[:0:-1]
            np.fft.ifft(grid, axis=1, out=grid)
            re_im = _gather(grid, xi, rate)
        out[lo:lo + 2] = re_im[:, 0] * cos - re_im[:, 1] * sin
    return out


# The transform's FFT rows persist from call to call in one buffer that
# only grows: at most two rows of _MAX_FFT points, 4 MB.  A caller holds
# the lock from taking its rows until it has gathered from them, so that
# concurrent transforms (the point threads of a sweep) share the one
# buffer in turn
_fft_buffer = np.empty(0, complex)
_fft_lock = threading.Lock()


def _fft_rows(n_rows, n_fft):
    """n_rows zeroed FFT rows of n_fft points, a view of the module's FFT buffer.

    The view is valid until the next call; the caller holds _fft_lock.
    """
    global _fft_buffer
    if len(_fft_buffer) < n_rows * n_fft:
        _fft_buffer = np.empty(n_rows * n_fft, complex)
    rows = _view(_fft_buffer, (n_rows, n_fft))
    rows[...] = 0.0
    return rows


# entries of one spreading or gathering buffer of gridded_sums, 256 KB, so
# that a chunk's three tables stay in a 1 MB L2 cache.  At N = 400 and 4000
# times, a quarter of that ran about 20 % slower, and four times that took
# its tables afresh from the kernel on every call
GRID_CHUNK = 32_768


def _spread(u, coef, rows):
    """Add to each row Gaussians at grid positions u: F_m at rows[j, m], m mod the length.

    Row j gains sum_k coef[j][k] exp(-(m - u_k)^2 / 2 _SIGMA^2) over the
    _WIDTH grid points m around each u_k.  np.add.at adds the terms in
    order of k, whatever the chunk size.
    """
    cut = _KERNEL_CUT * _SIGMA
    step = max(1, GRID_CHUNK // _WIDTH)
    shape = (min(step, len(u)), _WIDTH)
    index, weight, part = np.empty(shape, np.intp), np.empty(shape), np.empty(shape)
    points = np.arange(_WIDTH)
    for lo in range(0, len(u), step):
        uu = u[lo:lo + step]
        first = np.ceil(uu - cut)
        ix, w, pt = index[:len(uu)], weight[:len(uu)], part[:len(uu)]
        np.add.outer(first.astype(np.intp), points, out=ix)
        np.add.outer(first - uu, points, out=w)
        w *= w
        w *= -0.5 / _SIGMA**2
        np.exp(w, out=w)
        for row, c in zip(rows, coef):
            for out, values in ((row.real, c.real), (row.imag, c.imag)):
                np.multiply(w, values[lo:lo + step, None], out=pt)
                np.add.at(out, ix.ravel(), pt.ravel())


def _gather(smooth, xi, rate) -> np.ndarray:
    """(rows, 2, times): real and imaginary Gaussian sums of each smooth row.

    Entry [j, :, i] is sum_l smooth[j, l] exp(rate (xi_i - l)^2) over the
    2 _M_SP points l nearest xi_i, indices taken modulo the row length.
    """
    step = max(1, GRID_CHUNK // (2 * _M_SP))
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


def _decay_order(y_max):
    """The order J of the series of e^y that banded_sums grids, or None.

    J is the smallest order whose remainder |y|^(J+1) e^|y| / (J+1)! is
    within NUFFT_TOL for every |y| <= y_max.  None where e^y_max > 2:
    the transform's error on the series' terms, NUFFT_TOL e^y_max sum_k
    |A_k - i B_k|, and their rounding would exceed twice that of a sum
    without decay.
    """
    if not y_max <= np.log(2.0):      # NaN fails too
        return None
    order, rest = 0, y_max * np.exp(y_max)
    while rest > NUFFT_TOL:
        order += 1
        rest *= y_max / (order + 1)
    return order


def banded_sums(x, theta, log_decay, rows, band) -> np.ndarray:
    """mode_sums(x, theta, log_decay, rows), the in-band modes gridded.

    The modes whose theta lies within [min band, max band] go through
    gridded_sums, the others through mode_sums, so the grid does not
    grow with modes far outside the band; every sampler passes the
    theta of the bath frequencies as its band.  A decay enters the grid
    as the series e^{x d_k} = sum_{j<=J} (x d_k)^j / j!, J from
    _decay_order at the largest |x d| in the band: gridded_sums on the
    rows (A d^j, B d^j) for every j, recombined with the weights x^j /
    j!, O(N + M) in all.  Without decay J = 0 and the gridded rows are
    the rows themselves.  Every mode is summed directly where the series
    does not apply, grid_fits refuses the grid, or the grid would hold
    more points than the direct sum has terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (theta >= np.min(band)) & (theta <= np.max(band))
    order = 0
    if log_decay is not None and np.any(inside):
        order = _decay_order(np.max(np.abs(x), initial=0.0)
                             * np.max(np.abs(log_decay[inside])))
    # the grid must also be smaller than the direct sum it replaces: the
    # FFTs of gridded_sums, one per pair of rows, hold no more points than
    # the direct sum has terms.  A few times, as in each residue class of a
    # long switching period, are summed directly, which is exact to rounding
    ffts = 0 if order is None else (order + 1) * ((len(rows) + 1) // 2)
    if not (ffts and grid_fits(x, theta[inside])
            and ffts * _grid(x, theta[inside]).n_fft <= len(x) * np.count_nonzero(inside)):
        inside[:] = False
    out = mode_sums(x, theta[~inside], None if log_decay is None else log_decay[~inside],
                    [(a[~inside], b[~inside]) for a, b in rows])
    if not np.any(inside):
        return out
    powers = [1.0]                   # d^j for j <= J
    for _ in range(order):
        powers.append(powers[-1] * log_decay[inside])
    terms = gridded_sums(x, theta[inside],
                         [(a[inside] * dj, b[inside] * dj) for dj in powers for a, b in rows])
    out += _series(terms.reshape(order + 1, len(rows), len(x)), x)
    return out


def _series(terms, x):
    """sum_j terms[j] x^j / j! by Horner's rule."""
    acc = terms[-1]
    for j in range(len(terms) - 2, -1, -1):
        acc = terms[j] + acc * (x / (j + 1))
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
    pass over the mode shapes.  It is full_state(prop, t) for
    flow_factors, to the last bit.

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
    and p = M U g (None without rows), accumulated block by block in the
    order _mode_blocks yields them.
    """
    n = len(shapes.cols)
    ab = None if y is None else np.empty((len(y), n))
    u0 = np.empty(n)
    acc = np.zeros((n, 2))
    part = np.empty_like(acc)
    for cols, block in _mode_blocks(shapes):
        if y is not None:
            ab[:, cols] = y @ block
        u0[cols] = block[0]
        if rows is not None:
            acc += np.matmul(block, rows(cols, ab), out=part)
    root_m = np.sqrt(cm.mass)
    vec = None
    if rows is not None:
        vec = np.empty(2 * n)
        vec[0::2][shapes.coord] = acc[:, 0]
        vec[1::2][shapes.coord] = acc[:, 1]
        vec[0::2] /= root_m
        vec[1::2] *= root_m
    return ab, u0 / root_m[0], vec


def mode_amplitudes(prop: EigenPropagator, v) -> np.ndarray:
    """(2, n): the amplitudes a_k = u_k . M x and b_k = u_k . p of a state vector v."""
    v = _as_vector(v, prop.cm.dim)
    return _sweep(prop.cm, prop.shapes, _weighted(prop.cm, prop.shapes, v), None)[0]


def full_state(prop: EigenPropagator, t: float) -> SystemState:
    """Reconstruct every coordinate at time t (O(N^2))."""
    c, s, t = flow_factors(prop.nu, t)
    f, g = _state_rows(prop.coef_cos, prop.coef_sin, prop.nu, c, s).T
    return SystemState.from_vector(mode_vector(prop, f, g), prop.cm.bath_sizes, time=t)


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
    through alpha, z and d alone.
    """
    cm = prop.cm
    bath = prop.shapes.coord[1:] - 1
    z, d = cm.z[bath], cm.d[bath]
    sq = 0.0
    size = len(prop.nu) * min(SHAPE_BLOCK, len(prop.nu))
    res_buf, d_buf, z_buf = np.empty((3, size))
    for cols, v in _mode_blocks(prop.shapes):
        res = np.multiply(v, -prop.nu[cols] ** 2, out=_view(res_buf, v.shape))
        res[0] += cm.alpha * v[0] + z @ v[1:]
        dv = np.multiply(d[:, None], v[1:], out=_view(d_buf, v[1:].shape))
        dv += np.multiply(z[:, None], v[0], out=_view(z_buf, v[1:].shape))
        res[1:] += dv
        sq += float(np.einsum("ij,ij->", res, res))
    hnorm = np.sqrt(cm.alpha**2 + np.sum(cm.d**2) + 2.0 * np.sum(cm.z**2))
    return float(np.sqrt(sq) / hnorm)
