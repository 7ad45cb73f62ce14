"""Numerical checks of the convolution-norm inequalities.

``young_check`` verifies ||f * g||_p <= ||f||_q ||g||_r under the exponent
relation 1/p + 1 = 1/q + 1/r; ``corollary_check`` verifies the windowed bound
for the singular convolution with exponent beta.  The discrete convolution
carries trapezoid endpoint weights on both factors, so the L1 equality case
factorizes and the discrete inequalities inherit l^p Young bounds, exact up to
FFT round-off (about 1e-16, far inside the checks' 1e-6 slack) rather than
relying on quadrature margins.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HypothesisError, ParameterError, StructuralError
from .grid import GridFunction, GridSpec, lp_norm
from .quadrature import _linear_convolve, build_singular_weights
from .reports import CheckRecord

__all__ = ["young_check", "corollary_check", "discrete_convolution"]


def _inv(p: float) -> float:
    return 0.0 if p == math.inf else 1.0 / p


def _check_exponent_relation(p, q, r):
    for name, e in (("p", p), ("q", q), ("r", r)):
        if not 1.0 <= e <= math.inf:  # False for nan
            raise ParameterError(f"exponent {name} must be >= 1 or inf, got {e}")
    if abs(_inv(p) + 1.0 - _inv(q) - _inv(r)) > 1e-12:
        raise ParameterError(
            f"exponents violate 1/p + 1 = 1/q + 1/r: p={p}, q={q}, r={r}"
        )


def _trapezoid_weighted(values: np.ndarray) -> np.ndarray:
    w = values.copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def discrete_convolution(f: GridFunction, g: GridFunction) -> GridFunction:
    """Samples of (f * g) on [0, 2T], trapezoid-consistent in both factors."""
    if f.spec != g.spec:
        raise StructuralError("convolution factors live on different grids")
    spec = f.spec
    fv = _trapezoid_weighted(f.horizon_values)
    gv = _trapezoid_weighted(g.horizon_values)
    conv = spec.dt * _linear_convolve(fv, gv)
    out_spec = GridSpec(t_end=2.0 * spec.t_end, n_points=2 * spec.n_points, h=0.0)
    return GridFunction.from_horizon_values(out_spec, conv)


def young_check(
    f: GridFunction, g: GridFunction, p: float, q: float, r: float
) -> CheckRecord:
    """lhs = ||f * g||_p via direct discrete convolution; rhs = ||f||_q ||g||_r."""
    _check_exponent_relation(p, q, r)
    conv = discrete_convolution(f, g)
    lhs = lp_norm(conv, p)
    rhs = lp_norm(f, q) * lp_norm(g, r)
    return CheckRecord(
        name="young",
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs * (1.0 + 1e-6),
        constants={"p": p if p != math.inf else float("inf"), "q": q, "r": r},
    )


def corollary_check(
    phi: GridFunction,
    a: float,
    b: float,
    delta: float,
    beta: float,
    r: float,
    p: float,
    q: float,
) -> CheckRecord:
    """Windowed singular-convolution bound on [a, a + delta] within [a, b].

    lhs = ( int_a^{a+delta} | int_a^t phi(s) (t-s)^(beta-1) ds |^p dt )^(1/p)
    rhs = ( delta^(1 - r(1-beta)) / (1 - r(1-beta)) )^(1/r) * ||phi||_{L^q(a,b)}
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    if not 1.0 <= r < 1.0 / (1.0 - beta):  # False for nan
        raise HypothesisError(
            f"requires 1 <= r < 1/(1-beta) = {1.0 / (1.0 - beta)}, got r={r}"
        )
    _check_exponent_relation(p, q, r)
    spec = phi.spec
    i_a, i_b = spec.index_at(a), spec.index_at(b)
    if not 0.0 < delta <= b - a + 1e-12 * max(1.0, b - a):  # False for nan
        raise ParameterError(f"delta must lie in (0, b-a], got {delta}")
    n_win = i_b - i_a
    shifted_spec = GridSpec(t_end=b - a, n_points=n_win, h=0.0)
    shifted = GridFunction(shifted_spec, phi.values[i_a : i_b + 1])
    weights = build_singular_weights(shifted_spec, beta)
    conv = GridFunction(shifted_spec, weights.apply_horizon(shifted.values))
    lhs = lp_norm(conv, p, window=(0.0, delta))
    e1 = 1.0 - r * (1.0 - beta)
    rhs = (delta**e1 / e1) ** (1.0 / r) * lp_norm(phi, q, window=(a, b))
    return CheckRecord(
        name="corollary",
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs * (1.0 + 1e-6),
        constants={"beta": beta, "r": r, "p": p, "q": q, "delta": delta},
    )
