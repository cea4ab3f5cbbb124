"""Fast sums over normal modes: at many sample points, and over poles and roots.

Every sampler evaluates sum_k e^{x d_k} (A_k cos x theta_k + B_k sin x
theta_k).  The exact form has x = t, theta = nu and no decay, RK4 x = n,
theta = phi and d = log rho, and the switched module's period map x =
periods and d + i theta = log of its multipliers.  All three go through
banded_sums: a type-3 nonuniform FFT, gridded_sums, for the modes whose
theta lies within that of the bath band, O(N + M + grid) for M samples
and within NUFFT_TOL of sum_k |A_k - i B_k| at every sample.  A decay
is the imaginary part of each frequency, theta_k - i d_k, so that one
transform per pair of rows sums e^{x d_k} e^{i x theta_k} directly; it
widens the error bound by e^{DECAY_GROWTH y}, y = X max|d_k| over the
half span X, and beyond y = MAX_GRID_DECAY (an error of 2 NUFFT_TOL) the
modes are summed directly.  Over a run a decay is small (y = 2e-4 for
RK4 at 50 steps per period on rk4_dense), and the exact form has none:
its frequencies stay real.  The secular roots interlace the bath poles,
so at most two modes lie outside the band (the particle-like mode at an
out-of-band Omega, and one above the band); those go through the direct
sum mode_sums, chunked real tables of O(N) work per sample, which keeps
the grid independent of Omega.  Inputs whose grid would outgrow its
memory cap (grid_fits), or hold more points than the direct sum has
terms, are summed directly too.

The factorization's own sums run over the poles and roots of the
secular equation: the secular function and its derivative are sums of
1 / (lam - d) and its square over the poles, Loewner's z a sum of
log |d - lam|, and the mode shapes' norms, projections and states sums
of 1 / (lam - d) and its square.  far_field_sums evaluates them by a
one-dimensional fast multipole method, O(N) for points spread over a
band rather than O(N^2), with the terms near each target exact, in two
stages: far_field builds a tree over fixed sources with each leaf's far
field, and FarField.at sums at any targets, split by source if asked.
propagator uses them from propagator.FAR_FIELD_ROOTS roots on; its
secular roots evaluate one tree at every step of their iteration.

Buffers.  The direct sum allocates its tables once per call, the
transform its chunk buffers of GRID_CHUNK entries, far_field three of
FAR_CHUNK entries and FarField.at seven (once per call of the roots'
iteration, for all its steps); each writes every chunk's temporaries
into them (out= and in-place ufuncs), since an array allocated afresh
per chunk is often handed back to the kernel by malloc when it is freed,
and the next one is page-faulted in and zeroed again.
The FFT rows persist from call to call in one module buffer that only
grows, to at most two rows of _MAX_FFT points (4 MB) for the whole
process: a transform holds a module lock from taking its rows until it
has gathered from them, so concurrent samplers take the buffer in turn.
Each row is transformed in place on its own: a 2-D np.fft call allocates
pocketfft's scratch for the whole array (1 MB at 2^15 points), one row
needs almost none, and the bytes are the same.  No array a function
returns shares memory with a buffer.  numpy.fft, which numpy loads
lazily, is imported here so that a run does not import it inside its
first transform.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import numpy.fft


def view(buf, shape):
    """The leading entries of the flat buffer buf as a contiguous array of this shape."""
    return buf[:math.prod(shape)].reshape(shape)


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


# A decay d_k rides on the imaginary part of its frequency (gridded_sums).
# The nearest aliased image of each kernel lies _KERNEL_CUT / _KERNEL_A
# half spans X beyond the span, where its decay has grown by up to
# e^{y _KERNEL_CUT / _KERNEL_A} against the centre, y = X max|d_k|, and
# the Gaussian's cut tails grow by up to e^{y^2 / 2 _KERNEL_A^2} <= e^y
# (y <= 2 _KERNEL_A^2 = 12): the gridding error grows by at most
# e^{DECAY_GROWTH y}.  Both kernel parameters follow from NUFFT_TOL, and
# their ratio is sqrt(10) at any tolerance.  banded_sums grids a decay
# while that factor stays within 2, an error of at most 2 NUFFT_TOL:
# y <= MAX_GRID_DECAY = log 2 / DECAY_GROWTH = 0.167.  The benchmark's
# RK4 runs reach y = 2e-4 (rk4_dense) and the period map's about 3e-13
DECAY_GROWTH = 1.0 + _KERNEL_CUT / _KERNEL_A
MAX_GRID_DECAY = float(np.log(2.0) / DECAY_GROWTH)


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
    """mode_sums(t, nu.real, -nu.imag, rows) by a type-3 nonuniform FFT.

    Row j of the result is Re sum_k c_jk e^{i nu_k t}, c_jk = A_jk - i B_jk.
    A mode's decay d_k is the imaginary part of its frequency, nu_k =
    theta_k - i d_k, so that e^{i nu_k t} = e^{t d_k} e^{i theta_k t}; real
    frequencies have none.  Gaussian gridding holds for a complex frequency
    (Lee & Greengard, J. Comput. Phys. 206, 1 (2005)):

    1. Centre: nu = nu_c + v and t = t_c + t', |t'| <= X, so the sum is
       e^{i nu_c t} g(t') with g(t') = sum_k c'_k e^{i v_k t'} and
       c'_k = c_k e^{i v_k t_c}, which holds e^{d_k t_c}.  N + M trig
       evaluations.
    2. Spread each c'_k onto the grid v = g h with the Gaussian
       exp(-(v - v_k)^2 / 2 s^2), s = a / X, cut at _KERNEL_CUT s about
       Re v_k (_spread; complex weights only where v_k is complex): grid
       coefficients F_g, accumulated in order by np.add.at straight into
       the FFT row, F_g at index g mod its length.
    3. h sum_g F_g e^{i g h t'} = g(t') phi(t') up to truncation and
       aliasing, phi(t') = s sqrt(2 pi) e^{-s^2 t'^2 / 2}: the kernel's
       transform s sqrt(2 pi) e^{-s^2 t'^2 / 2} e^{i v_k t'} is a contour
       shift away from that of a real v_k.  Evaluate it at the t' by the
       Gaussian type-2 step: deconvolve, zero-padded np.fft in place,
       gather 2 _M_SP grid points per time.
    4. Divide by phi(t') and restore e^{i nu_c t}.

    The error is within NUFFT_TOL e^{(1 + _KERNEL_CUT / _KERNEL_A) y}
    sum_k |c_jk| e^{d_k t_c} at each time, y = X max|d_k| (DECAY_GROWTH),
    so NUFFT_TOL sum_k |c_jk| without decay.  The rows go through steps
    2 and 3 two at a time, in the module's FFT buffer (_fft_rows), which
    grid_fits caps at two rows of _MAX_FFT points and which the call
    holds under _fft_lock meanwhile.  Spreading and gathering go through
    buffers of GRID_CHUNK entries each, reused chunk after chunk.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nu = np.asarray(nu)
    nu = nu.astype(complex if np.iscomplexobj(nu) else float, copy=False)
    # 1. centre; the c'_k are spread in grid units u_k + i beta_k = v_k / h
    g = _grid(t, nu.real)
    v = nu - g.nu_c
    spin = np.exp(1j * (v * g.t_c))
    u = v.real / g.h
    beta = v.imag / g.h if np.iscomplexobj(v) else None
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
            _spread(u, beta, coef, grid)
            grid[:, :g.half + 1] *= deconv
            grid[:, n_fft - g.half:] *= deconv[:0:-1]
            for row in grid:
                np.fft.ifft(row, out=row)
            re_im = _gather(grid, xi, rate)
        out[lo:lo + 2] = re_im[:, 0] * cos - re_im[:, 1] * sin
    return out


# The transform's FFT rows persist from call to call in one buffer that
# only grows: at most two rows of _MAX_FFT points, 4 MB.  A caller holds
# the lock from taking its rows until it has gathered from them, so that
# concurrent transforms on threads share the one buffer in turn
_fft_buffer = np.empty(0, complex)
_fft_lock = threading.Lock()


def _fft_rows(n_rows, n_fft):
    """n_rows zeroed FFT rows of n_fft points, a view of the module's FFT buffer.

    The view is valid until the next call; the caller holds _fft_lock.
    """
    global _fft_buffer
    if len(_fft_buffer) < n_rows * n_fft:
        _fft_buffer = np.empty(n_rows * n_fft, complex)
    rows = view(_fft_buffer, (n_rows, n_fft))
    rows[...] = 0.0
    return rows


# entries of one spreading or gathering buffer of gridded_sums, 256 KB, so
# that a chunk's three tables stay in a 1 MB L2 cache.  At N = 400 and 4000
# times, a quarter of that ran about 20 % slower, and four times that took
# its tables afresh from the kernel on every call
GRID_CHUNK = 32_768


def _spread(u, beta, coef, rows):
    """Add to each row Gaussians at grid positions u + i beta: F_m at rows[j, m], m mod the length.

    Row j gains sum_k coef[j][k] exp(-(m - u_k - i beta_k)^2 / 2 _SIGMA^2)
    over the _WIDTH grid points m around each u_k.  With x = m - u_k that
    weight is exp(-(x^2 - beta_k^2) / 2 _SIGMA^2) e^{i beta_k x / _SIGMA^2};
    it is real where beta is None, and the rows' real and imaginary parts
    are spread apart.  np.add.at adds the terms in order of k, whatever
    the chunk size.
    """
    cut = _KERNEL_CUT * _SIGMA
    step = max(1, GRID_CHUNK // _WIDTH)
    shape = (min(step, len(u)), _WIDTH)
    # the weights and terms are complex where there is a decay
    dtype = float if beta is None else complex
    index, weight, part = np.empty(shape, np.intp), np.empty(shape, dtype), np.empty(shape, dtype)
    points = np.arange(_WIDTH)
    for lo in range(0, len(u), step):
        uu = u[lo:lo + step]
        first = np.ceil(uu - cut)
        ix, w, pt = index[:len(uu)], weight[:len(uu)], part[:len(uu)]
        np.add.outer(first.astype(np.intp), points, out=ix)
        if beta is None:
            np.add.outer(first - uu, points, out=w)
            w *= w
            w *= -0.5 / _SIGMA**2
            np.exp(w, out=w)
            for row, c in zip(rows, coef):
                for out, values in ((row.real, c.real), (row.imag, c.imag)):
                    np.multiply(w, values[lo:lo + step, None], out=pt)
                    np.add.at(out, ix.ravel(), pt.ravel())
        else:
            # the exponent -(x^2 - beta^2) / 2 _SIGMA^2 + i beta x / _SIGMA^2
            bb, x = beta[lo:lo + step, None], w.real
            np.add.outer(first - uu, points, out=x)
            np.multiply(x, bb / _SIGMA**2, out=w.imag)
            x *= x
            x -= bb * bb
            x *= -0.5 / _SIGMA**2
            np.exp(w, out=w)
            for row, c in zip(rows, coef):
                np.multiply(w, c[lo:lo + step, None], out=pt)
                np.add.at(row, ix.ravel(), pt.ravel())


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


# Chebyshev nodes per box of far_field_sums.  Its far field pairs boxes at
# least one box apart, where interpolating a Cauchy kernel on either box
# converges as (3 + sqrt 8)^-nodes: 4e-16 at 20 nodes
FAR_NODES = 20
# points per leaf of far_field_sums' tree, at least half this on average:
# the depth follows from the count.  A target's near field is its own leaf
# and the two beside it
FAR_LEAF = 32
# entries of each of far_field_sums' buffers, 256 KB: (target, source)
# pairs of the near field, or points times FAR_NODES of the tree's weights.
# At N = 4000 twice this ran no faster and raised diagonalize's traced peak
# from 4.0 to 6.0 MB
FAR_CHUNK = 32_768


def _log_abs(u, out, where):
    np.abs(u, out=out, where=where)
    return np.log(out, out=out, where=where)


def _reciprocal(u, out, where):
    return np.divide(1.0, u, out=out, where=where)


def _reciprocal_square(u, out, where):
    np.multiply(u, u, out=out, where=where)
    return np.divide(1.0, out, out=out, where=where)


# each kernel writes K(u) into out where the mask holds, and leaves out alone elsewhere
_KERNELS = {"log": _log_abs, "cauchy": _reciprocal, "cauchy2": _reciprocal_square}
# K(h u) = h^-power K(u) for the Cauchy kernels; log |h u| = log h + log |u|
_POWERS = {"cauchy": 1, "cauchy2": 2}

# Chebyshev nodes of the first kind on [-1, 1], and the map from a point's
# Chebyshev polynomials T_0..T_n-1 to its Lagrange weights on those nodes
_NODES = np.cos((np.arange(FAR_NODES) + 0.5) * (np.pi / FAR_NODES))
_TO_WEIGHTS = (np.where(np.arange(FAR_NODES) == 0, 1.0, 2.0)[None, :] / FAR_NODES
               * np.cos(np.outer((np.arange(FAR_NODES) + 0.5) * (np.pi / FAR_NODES),
                                 np.arange(FAR_NODES))))


def far_field_sums(targets, sources, charges, kernels) -> np.ndarray:
    """(rows, targets): row r at target i sums charges[r, j] K_r(x_i - y_j) over the sources j.

    Targets and sources are frequencies given as (base, offset) pairs of
    arrays, each point on the real line at the square of base + offset:
    x_i = (tb_i + to_i)^2 and y_j = (sb_j + so_j)^2.  K_r = kernels[r] is
    "log" (log |u|), "cauchy" (1 / u) or "cauchy2" (1 / u^2); a zero
    difference, a point's own term, adds nothing.

    A one-dimensional fast multipole method by Chebyshev interpolation
    (Greengard & Rokhlin, J. Comput. Phys. 73, 325 (1987); Fong & Darve,
    J. Comput. Phys. 228, 8712 (2009)) in two stages.  far_field builds a
    binary tree of equal intervals over the sources and the span of the
    targets, with FAR_NODES nodes per box and leaves of FAR_LEAF points
    or fewer on average, and each leaf's far field at its nodes: charges
    interpolated onto each leaf's nodes, moved up to the parents, passed
    between boxes a box or more apart at each level and moved down
    (_far_locals).  FarField.at then evaluates at the targets: the far
    field interpolated there, plus a target's own leaf and the two beside
    it summed directly, each difference formed as the two factors
    ((tb - sb) + (to - so)) ((tb + to) + (sb + so)): a root held as its
    nearer pole plus an offset keeps its exact distance to the poles
    around it.  Each sum is within 32 eps of the sum of its terms'
    magnitudes (tests/test_far_field.py).  O((N + M) (FAR_LEAF +
    FAR_NODES)) time for N sources and M targets spread over their span;
    a leaf that holds many times FAR_LEAF points costs the square of its
    count in the near field.  The near field goes in chunks of FAR_CHUNK
    pairs and the tree's weights in chunks of FAR_CHUNK / FAR_NODES
    points, through seven buffers of FAR_CHUNK entries allocated once per
    call, 1.8 MB.
    """
    tb, to = (np.asarray(a, dtype=float) for a in targets)
    return far_field(sources, charges, kernels, (tb + to) ** 2).at((tb, to))


@dataclass(frozen=True)
class FarField:
    """A tree over fixed sources and the far field of each leaf: far_field_sums' first stage.

    far_field builds it; at() sums over the sources at any targets within
    its span.  Each leaf's far field is kept at its Chebyshev nodes: the
    whole, and for a tree built to split its sums the share of the boxes
    to the left of the leaf as well.  The share of those to the right is
    their difference.
    """

    lo: float                  # left end of the span, in squared frequencies
    width: float               # of a leaf
    centre: np.ndarray         # (leaves,) of each leaf
    low: np.ndarray            # (leaves,) its rounding error: centre + low is exact
    first: np.ndarray          # (leaves + 1,) first source of each leaf
    widest: int                # sources in the widest near field, a leaf and the two beside it
    # (3 + rows, sources + widest): the sources' base, base + offset and
    # offset, then each row's charges, in leaf order and padded by widest
    # zeros, so that every near field's window of widest entries fits
    padded: np.ndarray
    kernels: tuple
    local: np.ndarray | None   # (fields, rows, leaves, FAR_NODES); None below 4 leaves

    def buffers(self, widest=None):
        """The seven buffers of at(), for windows of up to widest sources (any leaf's if None)."""
        return np.empty((7, max(FAR_CHUNK, self.widest if widest is None else widest)))

    def at(self, targets, split=None, work=None) -> np.ndarray:
        """(rows, targets): the sums at targets (base, offset) within the span.

        With split, on a tree that far_field built to split, (2, rows,
        targets): the sums over the sources before split[i] (in leaf
        order) and over those from it on.  split[i] must lie within
        target i's near field (its leaf and the two beside it), so that
        the boxes left of that lie before it and those right of it after.
        work is buffers() for every window (fresh when None).
        """
        tb, to = (np.asarray(a, dtype=float) for a in targets)
        leaves = len(self.centre)
        leaf = np.minimum((((tb + to) ** 2 - self.lo) / self.width).astype(np.intp), leaves - 1)
        start, stop = self.first[np.maximum(leaf - 1, 0)], self.first[np.minimum(leaf + 2, leaves)]
        if work is None:
            work = self.buffers(int(np.max(stop - start, initial=1)))
        out = _near_sums((tb, to), self.padded, self.kernels, start, stop, work, split)
        if self.local is None:
            return out
        centre = (self.centre[leaf], self.low[leaf])
        for i0, i1, weights in _weights(tb, to, centre, 0.5 * self.width, work[5], work[6]):
            field = view(work[2], (i1 - i0, FAR_NODES))
            for r in range(len(self.kernels)):
                np.take(self.local[0, r], leaf[i0:i1], axis=0, out=field)
                whole = np.einsum("mi,im->i", weights, field)
                if split is None:
                    out[r, i0:i1] += whole
                    continue
                np.take(self.local[1, r], leaf[i0:i1], axis=0, out=field)
                left = np.einsum("mi,im->i", weights, field)
                out[0, r, i0:i1] += left
                out[1, r, i0:i1] += whole - left
        return out


def far_field(sources, charges, kernels, targets=(), leaf=FAR_LEAF, split=False) -> FarField:
    """The FarField of these sources, charges and kernels (far_field_sums).

    targets are the squared points to be summed at, or as many points
    within the span: the tree spans them and the sources, and its leaves
    hold leaf of these points or fewer on average.  With split it keeps
    the left far field too, for FarField.at(split=...).  The weights go
    through three buffers of FAR_CHUNK entries, allocated once per call.
    """
    sb, so = (np.asarray(a, dtype=float) for a in sources)
    charges = np.asarray(charges, dtype=float).reshape(len(kernels), len(sb))
    xt, xs = np.asarray(targets, dtype=float), (sb + so) ** 2
    lo = min(np.min(xt, initial=np.inf), np.min(xs))
    span = max(np.max(xt, initial=-np.inf), np.max(xs)) - lo
    depth = 0
    if span > 0.0:
        depth = max(0, math.ceil(math.log2((len(xt) + len(xs)) / leaf)))
    leaves = 1 << depth
    width = span / leaves if span > 0.0 else 1.0
    leaf_s = np.minimum(((xs - lo) / width).astype(np.intp), leaves - 1)
    # sources in leaf order, so that each leaf's are a contiguous range
    order = np.argsort(leaf_s, kind="stable")
    sb, so, leaf_s, charges = sb[order], so[order], leaf_s[order], charges[:, order]
    # each leaf's centre, and what its rounding left out (_from)
    offset, product_error = _two_product(np.arange(leaves) + 0.5, width)
    centre = lo + offset
    rest = centre - lo
    low = ((lo - (centre - rest)) + (offset - rest)) + product_error
    first = np.searchsorted(leaf_s, np.arange(leaves + 1))
    at = np.arange(leaves)
    widest = max(1, int(np.max(first[np.minimum(at + 2, leaves)] - first[np.maximum(at - 1, 0)])))
    padded = np.zeros((3 + len(kernels), len(sb) + widest))
    padded[:3, :len(sb)] = sb, sb + so, so
    padded[3:, :len(sb)] = charges
    local = None
    if depth >= 2:
        # the charges' moments on each leaf's nodes, and each leaf's total
        # charge, padded by three empty boxes at either end
        rows = len(kernels)
        moments, total = np.zeros((rows, leaves + 6, FAR_NODES)), np.zeros((rows, leaves + 6))
        product, chebyshev, interpolation = np.empty((3, FAR_CHUNK))
        for j0, j1, weights in _weights(sb, so, (centre[leaf_s], low[leaf_s]), 0.5 * width,
                                        chebyshev, interpolation):
            # the chunk's leaves: each a run of its sources
            runs = np.flatnonzero(np.r_[True, np.diff(leaf_s[j0:j1]) != 0])
            boxes = 3 + leaf_s[j0:j1][runs]
            for r, charge in enumerate(charges[:, j0:j1]):
                terms = np.multiply(weights, charge, out=view(product, weights.shape))
                moments[r, boxes] += np.add.reduceat(terms, runs, axis=1).T
                total[r, boxes] += np.add.reduceat(charge, runs)
        local = _far_locals(moments, total, kernels, depth, span, split)
    return FarField(lo=lo, width=width, centre=centre, low=low, first=first, widest=widest,
                    padded=padded, kernels=tuple(kernels), local=local)


def _from(base, offset, centre, low):
    """(base + offset)^2 - (centre + low), within a few eps of its two parts' magnitudes.

    The parts are centre - base^2 and offset (2 base + offset).  base^2
    is split exactly into its rounding and the error of that (Dekker's
    product), and the box's centre is exact as centre + low, so a point's
    place in its box carries neither the rounding of its square nor that
    of the centre, eps (base + offset)^2 each.  Against a long double
    reference at N = 4000 (m N = 0.4), Loewner's z by the far field was
    within 7.4e-14 with the square split and 1.9e-13 without; the dense
    product, 8.2e-14.  The centre's rounding moves a point by eps x, a
    share eps x / width of its box that doubles with each level: at
    N = 2e4 on leaves of 8 poles (12 levels) it took the secular sums to
    100 eps of their terms' magnitudes, with low to 8 eps.
    """
    square, error = _two_product(base, base)
    return (square - centre) + (error + offset * (2.0 * base + offset) - low)


def _two_product(a, b):
    """(p, e): the rounded product p = a b and its error, p + e = a b exactly (Dekker)."""
    product = a * b
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    return product, ((ah * bh - product) + ah * bl + al * bh) + al * bl


def _halves(x):
    """x as high + low, each of at most 26 significant bits (Veltkamp's split)."""
    scaled = x * 134217729.0         # 2^27 + 1
    high = scaled - (scaled - x)
    return high, x - high


def _near_sums(targets, padded, kernels, start, stop, work, split=None):
    """(rows, targets): the terms of sources start[i] to stop[i] at each target i, exactly.

    padded is FarField.padded, whose padding holds every window and is
    never summed.  With split, (2, rows, targets): those before split[i]
    and those from it on.  The targets go in chunks of at most FAR_CHUNK
    (target, source) pairs (or one target), each target's sources one row
    of the chunk's widest window; the entries beyond a target's own
    window add nothing.  Every chunk writes its temporaries into the rows
    of work.
    """
    tb, to = targets
    counts = stop - start
    # points without offsets (poles) skip their share of the first factor
    offset_t, offset_s = np.any(to), np.any(padded[2])
    u, other, value, indices, flags = work[0], work[1], work[2], work[3].view(np.intp), work[4]
    live, nonzero, before, after = np.split(flags.view(bool)[:4 * len(u)], 4)
    sides = 1 if split is None else 2
    out = np.empty((sides, len(kernels), len(tb)))
    i0 = 0
    while i0 < len(tb):
        # the most targets from i0 on whose count times their widest window fits a chunk
        head = counts[i0:i0 + max(1, FAR_CHUNK // max(1, counts[i0]))]
        fits = np.arange(1, len(head) + 1) * np.maximum.accumulate(head) <= FAR_CHUNK
        i1 = i0 + max(1, int(np.count_nonzero(fits)))
        m = max(1, int(np.max(counts[i0:i1])))
        shape = (i1 - i0, m)
        # each target's m sources from its start on
        index = np.add(start[i0:i1, None], np.arange(m), out=view(indices, shape))
        du = np.subtract(tb[i0:i1, None], np.take(padded[0], index, out=view(other, shape)),
                         out=view(u, shape))
        if offset_s:
            shift = np.take(padded[2], index, out=view(other, shape))
            du += np.subtract(to[i0:i1, None], shift, out=shift)
        elif offset_t:
            du += to[i0:i1, None]
        factor = np.take(padded[1], index, out=view(other, shape))
        factor += (tb + to)[i0:i1, None]
        du *= factor
        mask = np.less(np.arange(m), counts[i0:i1, None], out=view(live, shape))
        mask &= np.not_equal(du, 0.0, out=view(nonzero, shape))
        masks, tables = [mask], [view(value, shape)]
        if split is not None:
            cut = (split - start)[i0:i1, None]
            masks = [np.less(np.arange(m), cut, out=view(before, shape)),
                     np.greater_equal(np.arange(m), cut, out=view(after, shape))]
            for side in masks:
                side &= mask
            tables.append(view(work[5], shape))
        for terms in tables:
            terms[...] = 0.0
        for name in dict.fromkeys(kernels):
            for terms, side in zip(tables, masks):
                _KERNELS[name](du, terms, side)
            for r in (r for r, k in enumerate(kernels) if k == name):
                charge = np.take(padded[3 + r], index, out=view(other, shape))
                for s, terms in enumerate(tables):
                    np.einsum("ij,ij->i", terms, charge, out=out[s, r, i0:i1])
        i0 = i1
    return out[0] if split is None else out


def _weights(base, offset, centre, half, chebyshev, out):
    """Yield (lo, hi, weights): points lo to hi and their Lagrange weights on their box's nodes.

    The points are (base + offset)^2 in boxes of half width half about
    centre; weights[m, i] = L_m(xi_i) = (1 + 2 sum_k>=1 T_k(xi_m) T_k(xi_i))
    / FAR_NODES at xi_i = ((base + offset)^2 - centre) / half, with T_k by
    its recurrence in the flat buffer chebyshev and the weights in out, of
    its size, valid until the next chunk.
    """
    step = len(chebyshev) // FAR_NODES
    for lo in range(0, len(base), step):
        hi = min(lo + step, len(base))
        xi = np.clip(_from(base[lo:hi], offset[lo:hi], centre[0][lo:hi], centre[1][lo:hi]) / half,
                     -1.0, 1.0)
        yield lo, hi, _interpolation(xi, view(chebyshev, (FAR_NODES, hi - lo)),
                                     view(out, (FAR_NODES, hi - lo)))


def _interpolation(xi, chebyshev, out):
    """(FAR_NODES, len(xi)) into out: the Lagrange weight of each xi in [-1, 1] on each node.

    chebyshev, of out's shape, takes T_0..T_n-1 at xi.
    """
    chebyshev[0] = 1.0
    chebyshev[1] = xi
    for k in range(2, FAR_NODES):
        np.multiply(xi, chebyshev[k - 1], out=chebyshev[k])
        chebyshev[k] *= 2.0
        chebyshev[k] -= chebyshev[k - 2]
    return np.matmul(_TO_WEIGHTS, chebyshev, out=out)


def _far_locals(moments, total, kernels, depth, span, split):
    """(fields, rows, leaves, FAR_NODES): each leaf's far field at its Chebyshev nodes.

    moments are the charges interpolated onto each leaf's nodes and total
    each leaf's charge, both padded by three empty boxes at either end.
    Each box at level l >= 2 takes the field of the boxes a box or more
    away whose parents neighbour its own (offsets -2, 2 and 3 from a left
    child, -3, -2 and 2 from a right one) and passes what it has on to
    its children.  Both children of a parent take theirs from the eight
    boxes from three before the pair to three after it, through one
    matrix per kernel: the kernels at box width h are those at width 1
    scaled, or for log shifted by log h times each box's charge.  That
    charge is summed exactly rather than read from the moments, whose
    rounding log h would scale: with charges of either sign that cancel,
    as in Loewner's z, it ran to 3e-13 of log z^2 at N = 4000.  The
    fields are the whole and, with split, the share of the boxes left of
    the leaf: every box that passes a field lies wholly to one side of
    the box it passes it to, so that is the same pass with the boxes at
    negative offsets alone.  At N = 4000 it added 1.2 ms to an 8 ms
    far_field_sums call, which does not split.
    """
    rows, p = len(kernels), FAR_NODES
    # from a parent's nodes to those of its children, on [-1, 0] and [0, 1]
    down = np.concatenate([_interpolation(0.5 * (_NODES + side), np.empty((p, p)),
                                          np.empty((p, p))) for side in (-1.0, 1.0)], axis=1)
    levels = [(moments, total)]
    for level in range(depth - 1, 1, -1):
        child, child_total = levels[-1]
        parent = np.zeros((rows, (1 << level) + 6, p))
        parent[:, 3:-3] = child[:, 3:-3].reshape(rows, 1 << level, 2 * p) @ down.T
        parent_total = np.zeros((rows, (1 << level) + 6))
        parent_total[:, 3:-3] = child_total[:, 3:-3:2] + child_total[:, 4:-3:2]
        levels.append((parent, parent_total))
    # box w of the window (2a - 3 + w) against child t of the pair (2a + t):
    # their offset, and whether it is far while their parents neighbour
    window = np.arange(8)[:, None]
    offset = window - 3 - np.arange(2)[None, :]
    far = (window >= 1) & (window <= 6) & (np.abs(offset) >= 2)
    # node i of the child minus node j of the window's box, in box widths
    diff = (0.5 * np.subtract.outer(np.tile(-_NODES, 8), np.tile(-_NODES, 2))
            - np.kron(offset, np.ones((p, p))))
    sides = (far, far & (offset < 0))[:1 + split]
    fields = np.empty((len(sides), rows, 1 << depth, p))
    for side, out in zip(sides, fields):
        unit = {name: _KERNELS[name](diff, np.zeros(diff.shape),
                                     np.kron(side, np.ones((p, p), bool)))
                for name in dict.fromkeys(kernels)}
        local = np.zeros((rows, 2, p))
        for level in range(2, depth + 1):
            boxes, h = 1 << level, span / (1 << level)
            here = (local @ down).reshape(rows, boxes, p)
            moments, total = levels[depth - level]
            for r, name in enumerate(kernels):
                windows = np.lib.stride_tricks.sliding_window_view(moments[r].ravel(),
                                                                   8 * p)[::2 * p]
                field = (windows @ unit[name]).reshape(boxes, p)
                if name == "log":
                    far_total = np.lib.stride_tricks.sliding_window_view(total[r], 8)[::2] @ side
                    field += math.log(h) * far_total.reshape(boxes, 1)
                else:
                    field *= h ** -_POWERS[name]
                here[r] += field
            local = here
        out[...] = local
    return fields


def banded_sums(x, theta, log_decay, rows, band) -> np.ndarray:
    """mode_sums(x, theta, log_decay, rows), the in-band modes gridded.

    The modes whose theta lies within [min band, max band] go through
    gridded_sums in one call, with the rows themselves and the
    frequencies theta_k - i d_k that carry each decay d = log_decay (real
    frequencies where log_decay is None); the others go through
    mode_sums, so the grid does not grow with modes far outside the band.
    Every sampler passes the theta of the bath frequencies as its band.
    Every mode is summed directly where a decay exceeds MAX_GRID_DECAY
    over the grid's half span, grid_fits refuses the grid, or the grid
    would hold more points than the direct sum has terms.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    inside = (theta >= np.min(band)) & (theta <= np.max(band))
    nu = theta[inside] if log_decay is None else theta[inside] - 1j * log_decay[inside]
    # a decay must stay within MAX_GRID_DECAY over the half span, and the
    # grid must also be smaller than the direct sum it replaces: the FFTs
    # of gridded_sums, one per pair of rows, hold no more points than the
    # direct sum has terms.  A few times, as in each residue class of a
    # long switching period, are summed directly, which is exact to rounding
    gridded = grid_fits(x, nu.real)
    if gridded:
        g = _grid(x, nu.real)
        y = g.half_span * np.max(np.abs(nu.imag))
        gridded = (y <= MAX_GRID_DECAY       # NaN fails too
                   and (len(rows) + 1) // 2 * g.n_fft <= len(x) * len(nu))
    if not gridded:
        inside[:] = False
    out = mode_sums(x, theta[~inside], None if log_decay is None else log_decay[~inside],
                    [(a[~inside], b[~inside]) for a, b in rows])
    if np.any(inside):
        out += gridded_sums(x, nu, [(a[inside], b[inside]) for a, b in rows])
    return out
