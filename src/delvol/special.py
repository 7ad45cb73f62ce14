"""Special functions used by the constants and by test oracles.

Self-contained: log-gamma via a Lanczos approximation with fixed published
coefficients, Beta through it, and the Mittag-Leffler functions by direct
series summation.
"""

from __future__ import annotations

import math

from .errors import ParameterError

__all__ = ["beta", "log_gamma", "mittag_leffler", "mittag_leffler_half"]

# Lanczos g=7, 9-term coefficient set (double precision).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ParameterError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (x + 0.5) * math.log(t) - t + math.log(acc)


def beta(a: float, b: float) -> float:
    """Euler Beta B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b), a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ParameterError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))


_ML_MAX_ARG = 30.0
# exp(z^2) overflows double precision past z ~ 26.64; the series saturates to inf
_ML_TERM_CAP = 50_000


def mittag_leffler_half(z: float) -> float:
    """E_{1/2}(z) = sum_k z^k / Gamma(k/2 + 1), for |z| <= 30.

    Equals exp(z^2) * erfc(-z).  Summed with separate even/odd term
    recurrences until the combined term drops below 1e-16 of the partial sum.
    For z above ~26.6 the value exceeds the double range and inf is returned;
    for z below about -5.5 cancellation limits the attainable accuracy.
    """
    if abs(z) > _ML_MAX_ARG:
        raise ParameterError(f"mittag_leffler_half defined for |z| <= 30, got {z}")
    z2 = z * z
    even = 1.0  # z^(2j) / j!
    odd = z * 2.0 / math.sqrt(math.pi)  # z^(2j+1) / Gamma(j + 3/2)
    total = even + odd
    j = 0
    # terms grow until roughly j ~ z^2, then decay factorially
    hump = z2 + 2.0
    while j < _ML_TERM_CAP:
        j += 1
        even *= z2 / j
        odd *= z2 / (j + 0.5)
        total += even + odd
        if not math.isfinite(total):
            return math.inf if z > 0 else math.nan
        if j > hump and abs(even) + abs(odd) < 1e-16 * abs(total):
            break
    return total


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta), for alpha, beta > 0.

    Term k is exp(k ln|z| - ln Gamma(alpha k + beta)), signed for z < 0, until
    one falls below 1e-16 of the sum.  For moderate |z|: past the double range
    math.exp raises OverflowError, and for z < 0 cancellation costs accuracy.
    """
    if not (alpha > 0.0 and beta > 0.0 and math.isfinite(z)):
        raise ParameterError(f"mittag_leffler needs alpha, beta > 0 and finite z, got {alpha, beta, z}")
    total = math.exp(-log_gamma(beta))
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf
    for k in range(1, _ML_TERM_CAP):
        term = math.exp(k * log_z - log_gamma(alpha * k + beta))
        total += -term if z < 0.0 and k % 2 else term
        if term < 1e-16 * abs(total):
            break
    return total
