import math

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


def mittag_leffler(alpha, beta, z):
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta), for alpha, beta > 0.

    Term k is exp(k ln|z| - ln Gamma(alpha k + beta)), signed for z < 0, until
    one falls below 1e-16 of the sum.  For moderate |z|: past the double range
    math.exp raises OverflowError, and for z < 0 cancellation costs accuracy.
    """
    total = math.exp(-math.lgamma(beta))
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf
    for k in range(1, 50_000):
        term = math.exp(k * log_z - math.lgamma(alpha * k + beta))
        total += -term if z < 0.0 and k % 2 else term
        if term < 1e-16 * abs(total):
            break
    return total


def delayed_linear_exact(t, nu, h, c1, c2, c0=0.0):
    """x(t) for x = 1 + int_0^t (c0 + c1 x(s) + c2 x(s - h)) (t - s)^(nu-1) ds, x = 0 before 0.

    The Laplace transform (Bellman & Cooke, Differential-Difference Equations,
    1963) gives a finite sum over the delay windows k <= t/h:

        x(t) = sum_k sum_{j >= k} C(j, k) a^(j-k) b^k (t - kh)^(nu j) / Gamma(nu j + 1)

    with a = c1 Gamma(nu) and b = c2 Gamma(nu); each inner sum is a
    three-parameter Mittag-Leffler function (Prabhakar 1971).  c0 adds
    c0 Gamma(nu) times the same sum with nu j replaced by nu (j + 1).  With
    c1, c2 >= 0 every term is nonnegative and is summed from its logarithm.
    The terms of a window are unimodal in j, so a window stops past its peak
    once a term falls below 1e-17 of the running total; a test relative to
    the window's own sum would never fire in late windows, which underflow.
    """
    assert c1 >= 0.0 and c2 >= 0.0 and h > 0.0 and t >= 0.0
    g = math.gamma(nu)
    log_a = math.log(c1 * g) if c1 > 0.0 else -math.inf
    log_b = math.log(c2 * g) if c2 > 0.0 else -math.inf

    def windows(shift):
        total = 0.0
        k = 0
        while k * h < t:
            log_tau = math.log(t - k * h)
            log_bk = k * log_b - math.lgamma(k + 1) if k else 0.0
            prev = 0.0
            for j in range(k, 100_000):
                log_term = (
                    log_bk
                    + math.lgamma(j + 1)
                    - math.lgamma(j - k + 1)
                    + ((j - k) * log_a if j > k else 0.0)
                    + nu * (j + shift) * log_tau
                    - math.lgamma(nu * (j + shift) + 1.0)
                )
                term = math.exp(log_term)
                total += term
                if term <= prev and term < 1e-17 * total:
                    break
                prev = term
            k += 1
        return total

    if t == 0.0:
        return 1.0
    return windows(0) + (c0 * g * windows(1) if c0 else 0.0)
