import math

import numpy as np
import pytest
from scipy import integrate

from delvol import ParameterError, beta, log_gamma, mittag_leffler, mittag_leffler_half


def test_log_gamma_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)


def test_log_gamma_against_stdlib():
    for x in np.geomspace(1e-3, 200.0, 60):
        ref = math.lgamma(x)
        got = log_gamma(float(x))
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_log_gamma_domain():
    with pytest.raises(ParameterError):
        log_gamma(0.0)
    with pytest.raises(ParameterError):
        log_gamma(-1.0)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_symmetric_bitwise():
    for a, b in [(0.3, 4.0), (1.5, 0.5), (7.25, 0.03)]:
        assert beta(a, b) == beta(b, a)


def test_beta_against_adaptive_quadrature():
    # integrand s^(a-1) (1-s)^(b-1) handled by quad's algebraic weight option
    for a in (0.3, 0.5, 1.5, 4.0):
        for b in (0.3, 0.5, 1.5, 4.0):
            ref, _ = integrate.quad(
                lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0)
            )
            assert beta(a, b) == pytest.approx(ref, rel=1e-8)


def test_beta_domain():
    with pytest.raises(ParameterError):
        beta(0.0, 1.0)
    with pytest.raises(ParameterError):
        beta(1.0, -2.0)


def _erfc_continued_fraction(x: float) -> float:
    """erfc for x > 0 by a modified Lentz continued fraction (test oracle)."""
    tiny = 1e-300
    b = x
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    f = d
    for k in range(1, 300):
        a_k = 0.5 * k
        b_k = x if k % 2 else x  # the CF has constant b = x with a_k = k/2
        d = b_k + a_k * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b_k + a_k / c
        c = c if abs(c) > tiny else tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x * x) / math.sqrt(math.pi) * f


def test_erfc_oracle_sanity():
    from scipy.special import erfc

    # the continued fraction is sharp for x >= 1 (slowly convergent below)
    for x in (1.0, 1.5, 2.0, 3.0):
        assert _erfc_continued_fraction(x) == pytest.approx(erfc(x), rel=1e-12)
    assert _erfc_continued_fraction(0.5) == pytest.approx(erfc(0.5), rel=1e-9)


def test_mittag_leffler_basic():
    assert mittag_leffler_half(0.0) == 1.0
    for z in (0.1, 0.7, 2.0, 5.0):
        assert mittag_leffler_half(z) >= 1.0 + z


def test_mittag_leffler_against_erfc_continued_fraction():
    z = math.sqrt(math.pi)
    got = mittag_leffler_half(z)
    # E_{1/2}(z) = exp(z^2) erfc(-z) = exp(z^2) (2 - erfc(z))
    ref = math.exp(z * z) * (2.0 - _erfc_continued_fraction(z))
    assert got == pytest.approx(ref, rel=1e-10)


def test_mittag_leffler_monotone():
    zs = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 22.0, 26.0]
    vals = [mittag_leffler_half(z) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mittag_leffler_domain():
    with pytest.raises(ParameterError):
        mittag_leffler_half(31.0)
    with pytest.raises(ParameterError):
        mittag_leffler_half(-30.5)


@pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.5, 6.0, 14.0, 25.0, -0.5, -2.0])
def test_general_mittag_leffler_at_half_order(z):
    # negative z sums an alternating series, which costs digits to cancellation
    rel = 1e-12 if z >= 0.0 else 1e-13 * math.exp(z * z)
    assert mittag_leffler(0.5, 1.0, z) == pytest.approx(mittag_leffler_half(z), rel=rel)


@pytest.mark.parametrize("z", [0.0, 0.1, 1.0, 3.0, 20.0, 60.0, -1.0, -3.0])
def test_general_mittag_leffler_at_order_one(z):
    # E_{1,1} = exp and E_{1,2}(z) = (e^z - 1) / z
    rel = 1e-13 if z >= 0.0 else 1e-13 * math.exp(2.0 * abs(z))
    assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=rel)
    if z != 0.0:
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=rel)


def test_general_mittag_leffler_domain():
    for args in ((0.0, 1.0, 1.0), (0.5, 0.0, 1.0), (-1.0, 1.0, 1.0), (math.nan, 1.0, 1.0),
                 (0.5, 1.0, math.nan), (0.5, 1.0, math.inf)):
        with pytest.raises(ParameterError):
            mittag_leffler(*args)

