"""Special functions used by the constants and by test oracles.

Built on the standard library: Beta sums three values of ``math.lgamma``, and
E_{1/2}(z) = exp(z^2) erfc(-z) comes from ``math.erfc``.
"""

from __future__ import annotations

import math

from .errors import ParameterError

__all__ = ["beta", "mittag_leffler_half"]


def beta(a: float, b: float) -> float:
    """Euler Beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), for finite a, b > 0."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ParameterError(f"beta requires finite positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def mittag_leffler_half(z: float) -> float:
    """E_{1/2}(z) = sum_k z^k / Gamma(k/2 + 1) = exp(z^2) erfc(-z), for |z| <= 30.

    Past z ~ 26.64 the value exceeds the double range and inf is returned.
    Below z = -26, where exp(z^2) nears overflow and erfc(-z) underflow, eight
    terms of the asymptotic series of erfc(x) exp(x^2) in 1 / (2 x^2), x = -z,
    are summed instead; the eighth is below 1e-16.
    """
    if not abs(z) <= 30.0:  # False for nan
        raise ParameterError(f"mittag_leffler_half defined for |z| <= 30, got {z}")
    if z >= -26.0:
        try:
            return math.exp(z * z) * math.erfc(-z)
        except OverflowError:
            return math.inf
    term = total = 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) / (2.0 * z * z)
        total += term
    return total / (-z * math.sqrt(math.pi))
