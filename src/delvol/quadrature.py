"""Product-integration discretization of the weakly singular convolution.

The operator f -> int_0^t f(s) (t - s)^(nu - 1) ds is discretized by
integrating the power kernel exactly against the piecewise-linear interpolant
of f.  Cell moments have closed forms, so the weights are exact on
piecewise-linear integrands and no kernel value is ever taken at s = t.

Weights on a uniform grid depend only on the node distance d = i - j, so the
full lower-triangular array is represented by two stencil vectors:
``w_left[d]`` (left endpoint of the cell at distance d) and ``w_right[d]``
(right endpoint).  ``SingularWeights.slab`` is the one place that lays rows
out from the stencils: a Toeplitz row block whose column slices are every
weight block of those rows, column 0 (w_left alone) left to the caller as a
rank-one term.  Two helpers sum rows without laying any out.
``SingularWeights.apply_rows`` sums by direct correlation with the stencil:
every product as it is, so a row reads only the values it weighs and zero
values give exact zeros; the Picard history and the kappa-difference curve of
the Volterra solver go through it.  ``SingularWeights.apply_horizon`` sums a
horizon prefix by convolution: one FFT-based linear convolution with the
stencil plus a rank-one boundary correction.  Every convolution in the
library and the state-operator row sums of the Volterra solver go through it;
the delay shift s = h + u of a delayed product lives in
``SingularWeights.apply_delayed`` alone.
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

    Stored as distance stencils; ``slab(b)`` lays out b rows of the stencil
    once so that any weight block of b rows (column 0 aside) is a zero-copy
    view of it.  The blocked triangular solves of ``gronwall`` and the row
    sums of ``volterra`` that read t read their weights that way.  Row i is
    w_left[i] at j = 0, ``_kernel[i - j]`` for 0 < j <= i (w_right[1] on the
    diagonal) and zero for j > i, so the i = 0 row is zero.  All weights are
    nonnegative, rows sum to t_i^nu / nu, and first moments match the exact
    Beta-function value.
    """

    spec: GridSpec
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

    def slab(self, rows: int, back: int | None = None) -> np.ndarray:
        """Toeplitz layout T[r, s] = ``_kernel[r - s + back]``, zero off the stencil.

        T has ``rows`` rows and back + rows columns; back defaults to n.
        Weights w[i][j] of rows r0 .. r0 + rows - 1 and columns
        max(1, r0 - back) <= j <= r0 + rows - 1 are the column slice
        ``T[:, back - r0 + j]``: every such block of a row block is a
        zero-copy view with unit column stride, ready for BLAS.  With the
        default every column j >= 1 of every row block is there; back = 0
        lays out only the square block whose rows and columns start
        together.  Column j = 0 (w_left, not the stencil) is left to the
        caller, and so are rows past n.  The result is a fresh array, not
        cached: a problem that keeps its weights would keep it too.
        """
        n = self.spec.n_points
        width = (n if back is None else back) + rows
        d = min(width, n + 1)  # distances 0 .. d - 1 lie on the stencil
        ext = np.zeros(width + rows - 1)  # the stencil reversed, zero-padded both sides
        ext[width - d : width] = self._kernel[d - 1 :: -1]
        window = np.lib.stride_tricks.sliding_window_view(ext, width)
        return window[::-1].copy()

    def apply_rows(self, f: np.ndarray, i0: int, i1: int) -> np.ndarray:
        """Rows i0..i1 of g[i] = sum_{j <= min(i, k)} w[i][j] f[j] for a prefix f[0..k].

        Direct correlation with the stencil ``_kernel`` plus the w_left edge
        at j = 0; no weights are laid out and no FFT is taken.  Every product
        is summed as it is, row i reads f[0..i] only (a non-finite f[j]
        reaches the rows i >= j and no other), and zero leading values give
        exact zeros.  Rows at or past k are one valid correlation over
        f[1..k]; rows below k add the columns 1..i0 that each of them reads
        and a triangle, one convolution.  A 2-D f is taken column by column.
        """
        if f.ndim > 1:
            return np.stack(
                [self.apply_rows(f[:, c], i0, i1) for c in range(f.shape[1])], axis=1
            )
        k = min(len(f), i1 + 1) - 1  # no row up to i1 reads a later column
        kern = self._kernel
        g = self.w_left[i0 : i1 + 1] * f[0]
        if k == 0:
            return g
        a = max(i0, k)  # rows a..i1 read every column 1..k
        g[a - i0 :] += np.correlate(kern[a - k : i1], f[k:0:-1], "valid")
        if 0 < i0 < k:  # rows i0..k-1, columns 1..i0
            g[: k - i0] += np.correlate(kern[: k - 1], f[i0:0:-1], "valid")
        if i0 + 1 < k:  # rows i0+1..k-1, columns i0+1..i
            tri = k - i0 - 1
            g[1 : k - i0] += np.convolve(f[i0 + 1 : k], kern[:tri])[:tri]
        return g

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
            g -= f[0] * self.w_right[1 : size + 1]
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
    return SingularWeights(spec=spec, w_left=w_left, w_right=w_right)


def _check_same_spec(f: GridFunction, weights: SingularWeights):
    if f.spec != weights.spec:
        raise StructuralError("grid function and weights use different grids")


def singular_convolution(f: GridFunction, weights: SingularWeights) -> GridFunction:
    """g(t_i) = sum_{j<=i} w[i][j] f(t_j) on [0, T]; prehistory zero."""
    _check_same_spec(f, weights)
    g = weights.apply_horizon(f.horizon_values)
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
