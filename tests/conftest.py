import numpy as np
import pytest

from delvol import GridFunction, GridSpec

SEED = 20250808


def random_piecewise_linear(rng, spec, lo=0.0, hi=2.0, knots=None):
    """Nonnegative piecewise-linear function sampled on the horizon nodes."""
    k = knots if knots is not None else int(rng.integers(3, 9))
    xs = np.linspace(0.0, spec.t_end, k)
    ys = rng.uniform(lo, hi, size=k)
    t = spec.times[spec.delay_steps :]
    return GridFunction.from_horizon_values(spec, np.interp(t, xs, ys))


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def _weights_at(W, i, j):
    """w[i][j] for j <= i, from the stencils w_left and w_right alone.

    Node j weighs the left end of the cell [s_j, s_{j+1}] (distance i - j,
    when j < i) and the right end of the cell [s_{j-1}, s_j] (distance
    i - j + 1, when j > 0).  Nothing here goes through ``SingularWeights.slab``,
    so comparing a slab view with it is not comparing the slab with itself.
    """
    d = i - j
    return np.where(d > 0, W.w_left[d], 0.0) + np.where(j > 0, W.w_right[d + 1], 0.0)


def weight_row(W, i):
    """Row i of the weights, w[i][0..i]."""
    return _weights_at(W, i, np.arange(i + 1))


def dense_weights(W):
    """The dense (n+1) x (n+1) lower-triangular weight array."""
    n = W.spec.n_points
    i, j = np.tril_indices(n + 1)
    out = np.zeros((n + 1, n + 1))
    out[i, j] = _weights_at(W, i, j)
    return out


def with_n_points(spec, n_points):
    """Same horizon and delay at a different resolution."""
    return GridSpec(t_end=spec.t_end, n_points=n_points, h=spec.h)


def shift_by_delay(f):
    """g with g(t) = f(t - h), using the stored prehistory zeros."""
    m = f.spec.delay_steps
    if m == 0:
        return f
    vals = np.zeros_like(f.values)
    vals[m:] = f.values[:-m]
    return GridFunction(f.spec, vals)
