"""Product-integration discretization of the weakly singular convolution.

The operator f -> int_0^t f(s) (t - s)^(nu - 1) ds is discretized by
integrating the power kernel exactly against the piecewise-linear interpolant
of f.  Cell moments have closed forms, so the weights are exact on
piecewise-linear integrands and no kernel value is ever taken at s = t.

Weights on a uniform grid depend only on the node distance d = i - j, so the
full lower-triangular array is represented by two stencil vectors:
``w_left[d]`` (left endpoint of the cell at distance d) and ``w_right[d]``
(right endpoint).  ``SingularWeights.block`` (a fresh block) and
``SingularWeights.slab`` (a row block whose column slices are every weight
block of those rows) are the two places that lay rows out from the stencils.
The lower-triangular Toeplitz product with a horizon prefix,
``SingularWeights.apply_horizon``, is the one place that sums by convolution:
one FFT-based linear convolution with the stencil plus a rank-one boundary
correction.  Every convolution in the library and the
state-operator row sums of the Volterra solver go through it; the delay
shift s = h + u of a delayed product lives in ``SingularWeights.apply_delayed``
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, StructuralError
from .grid import GridFunction, GridSpec

__all__ = [
    "SingularWeights",
    "build_singular_weights",
    "singular_convolution",
    "delayed_singular_convolution",
    "delayed_product_convolution",
]


def _power_diff(d: np.ndarray, a: float) -> np.ndarray:
    """d^a - (d-1)^a for integer d >= 1, computed without cancellation."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    first = d <= 1.0
    out[first] = 1.0
    rest = ~first
    dr = d[rest]
    out[rest] = -(dr**a) * np.expm1(a * np.log1p(-1.0 / dr))
    return out


def _linear_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution; FFT path for long inputs."""
    n = len(a) + len(b) - 1
    if n < 512:
        return np.convolve(a, b)
    nfft = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]


@dataclass(frozen=True)
class SingularWeights:
    """Lower-triangular weights approximating int_0^{t_i} f(s) (t_i - s)^(nu-1) ds.

    Stored as distance stencils; ``block(i0, i1, lo, hi)`` materializes a block
    of the conventional array, and ``slab(b)`` lays out b rows of the stencil
    once so that any weight block of b rows (column 0 aside) is a zero-copy
    view of it; the blocked triangular solves of ``gronwall`` read their
    weights that way.  All weights are nonnegative, rows sum to t_i^nu / nu,
    and first moments match the exact Beta-function value.
    """

    spec: GridSpec
    nu: float
    w_left: np.ndarray  # index d = 1 .. n_points + 1 (0 unused)
    w_right: np.ndarray

    @cached_property
    def _kernel(self) -> np.ndarray:
        """Convolution stencil: k[0] = w_right[1], k[d] = w_left[d] + w_right[d+1]."""
        n = self.spec.n_points
        k = np.empty(n + 1)
        k[0] = self.w_right[1]
        k[1:] = self.w_left[1 : n + 1] + self.w_right[2 : n + 2]
        k.flags.writeable = False
        return k

    @cached_property
    def _edge(self) -> np.ndarray:
        """Correction column: w_right[d+1] subtracted from the j = 0 weight."""
        e = self.w_right[1 : self.spec.n_points + 2].copy()
        e.flags.writeable = False
        return e

    def block(self, i0: int, i1: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Weights w[i][j] for rows i0..i1 and columns lo..hi; hi defaults to i1.

        Row i is w_left[i] at j = 0, the reversed stencil ``_kernel[i - j]``
        for 0 < j <= i (w_right[1] = ``_kernel[0]`` on the diagonal) and zero
        for j > i, so the i = 0 row is zero.  Every row is a window of one
        zero-padded stretch of the stencil; the result is a fresh array.
        """
        hi = i1 if hi is None else hi
        d0 = i0 - hi  # smallest distance i - j in the block; d < 0 is above the diagonal
        ext = self._kernel[max(d0, 0) : i1 - lo + 1]
        if d0 < 0:
            ext = np.concatenate([np.zeros(-d0), ext])
        # row r is the reversed window ext[r : r + width]: a sliding-window view
        # built directly, since numpy's helper costs more than a one-row block
        shape, stride = (i1 - i0 + 1, hi - lo + 1), ext.strides[0]
        out = np.ndarray(shape, ext.dtype, ext, strides=(stride, stride))[:, ::-1].copy()
        if lo == 0:
            out[:, 0] = self.w_left[i0 : i1 + 1]
        return out

    def slab(self, rows: int) -> np.ndarray:
        """Toeplitz layout T[r, s] = ``_kernel[r - s + n]``, zero off the stencil.

        T has ``rows`` rows and n + rows columns.  Weights w[i][j] of rows
        r0 .. r0 + rows - 1 and columns 0 < j <= r0 + rows - 1 are the column
        slice ``T[:, n - r0 + j]``: every such block of a row block is a
        zero-copy view with unit column stride, ready for BLAS.  Column
        j = 0 (w_left, not the stencil) is left to the caller, and so are
        rows past n.  The result is a fresh array of O(n rows) doubles, not
        cached: a problem that keeps its weights would keep it too.
        """
        n = self.spec.n_points
        ext = np.zeros(n + 2 * rows - 1)  # the stencil reversed, zero-padded both sides
        ext[rows - 1 : rows + n] = self._kernel[::-1]
        window = np.lib.stride_tricks.sliding_window_view(ext, n + rows)
        return window[::-1].copy()

    def row(self, i: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Weights w[i][lo..hi] of the i-th horizon node; hi defaults to i.

        No library code calls it; the tests build reference rows with it.
        """
        return self.block(i, i, lo, hi)[0]

    def matrix(self) -> np.ndarray:
        """Dense (n+1) x (n+1) lower-triangular weight array.

        No library code calls it; it is the tests' dense reference.
        """
        return self.block(0, self.spec.n_points)

    def apply_horizon(self, f: np.ndarray) -> np.ndarray:
        """Convolve a horizon prefix f[0..k], k <= n: g[i] = sum_{j<=i} w[i][j] f[j].

        The lower-triangular Toeplitz product of the first k + 1 rows, by one
        FFT of the stencil (``_linear_convolve``) and the w_left edge fix at
        j = 0.  Rows i <= k read only f[0..i], so a prefix gives the same rows
        as the full horizon, up to the FFT round-off of the longer transform.
        """
        size = len(f)
        if f.ndim == 1:
            g = _linear_convolve(f, self._kernel[:size])[:size]
            g -= f[0] * self._edge[:size]
            g[0] = 0.0
            return g
        return np.stack(
            [self.apply_horizon(f[:, k]) for k in range(f.shape[1])], axis=1
        )

    def apply_delayed(self, a: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Rows 0..k of int_0^t a(s) f(s - h) (t - s)^(nu-1) ds from prefixes a, f[0..k].

        Substituting s = h + u turns the integral into the plain convolution
        of u -> a(u + h) f(u) over [0, t - h]: row i >= m = h/dt is row i - m
        of ``apply_horizon`` on the shifted horizon, and rows i < m are zero.
        Row i reads f[0..i - m] only.  A 2-D f is taken column by column.
        """
        m = self.spec.delay_steps
        size = len(f)
        g = np.zeros(f.shape)
        if size > m:
            prod = np.zeros(f.shape)
            prod[: size - m] = a[m:size].reshape((-1,) + (1,) * (f.ndim - 1)) * f[: size - m]
            g[m:] = self.apply_horizon(prod)[: size - m]
        return g


def build_singular_weights(spec: GridSpec, nu: float) -> SingularWeights:
    """Exact piecewise-linear product-integration weights for exponent nu."""
    if not 0.0 < nu < 1.0:
        raise ParameterError(f"exponent nu must lie in (0, 1), got {nu}")
    n = spec.n_points
    d = np.arange(0, n + 2, dtype=float)
    d[0] = 1.0  # placeholder, index 0 never used
    a = _power_diff(d, nu) / nu
    b = _power_diff(d, nu + 1.0) / (nu + 1.0)
    scale = spec.dt**nu
    w_left = scale * (b - (d - 1.0) * a)
    w_right = scale * (d * a - b)
    w_left[0] = w_right[0] = 0.0
    w_left.flags.writeable = False
    w_right.flags.writeable = False
    return SingularWeights(spec=spec, nu=nu, w_left=w_left, w_right=w_right)


def _check_same_spec(f: GridFunction, weights: SingularWeights):
    if f.spec != weights.spec:
        raise StructuralError("grid function and weights use different grids")


def singular_convolution(f: GridFunction, weights: SingularWeights) -> GridFunction:
    """g(t_i) = sum_{j<=i} w[i][j] f(t_j) on [0, T]; prehistory zero."""
    _check_same_spec(f, weights)
    g = weights.apply_horizon(f.horizon_values)
    return GridFunction.from_horizon_values(f.spec, g)


def delayed_singular_convolution(
    f: GridFunction, weights: SingularWeights
) -> GridFunction:
    """Approximation of int_0^t f(s - h) (t - s)^(nu-1) ds.

    The delayed integrand vanishes on [0, h), so the quadrature runs on the
    shifted horizon: the result at t is the plain convolution of f evaluated
    at t - h.  This keeps the scheme exact for piecewise-linear f even though
    f(. - h) jumps at s = h, and is identical to convolving shift_by_delay(f)
    except for that jump cell.  It is ``SingularWeights.apply_delayed`` with
    a unit weight.
    """
    _check_same_spec(f, weights)
    g = weights.apply_delayed(np.ones(f.spec.n_points + 1), f.horizon_values)
    return GridFunction.from_horizon_values(f.spec, g)


def delayed_product_convolution(
    weight_fn: GridFunction, f: GridFunction, weights: SingularWeights
) -> GridFunction:
    """Approximation of int_0^t weight_fn(s) f(s - h) (t - s)^(nu-1) ds.

    The plain singular convolution of u -> weight_fn(u + h) f(u) over
    [0, t - h], evaluated on the shifted horizon with the same stencil
    (``SingularWeights.apply_delayed``).
    """
    _check_same_spec(f, weights)
    _check_same_spec(weight_fn, weights)
    g = weights.apply_delayed(weight_fn.horizon_values, f.horizon_values)
    return GridFunction.from_horizon_values(f.spec, g)
