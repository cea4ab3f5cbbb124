"""Sums over normal modes at many sample points: direct, or by a type-3 nonuniform FFT.

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

Buffers.  The direct sum allocates its tables once per call, and the
transform its chunk buffers of GRID_CHUNK entries; each writes every
chunk's temporaries into them (out= and in-place ufuncs), since an array
allocated afresh per chunk is often handed back to the kernel by malloc
when it is freed, and the next one is page-faulted in and zeroed again.
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
