import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delvol import (
    DomainError,
    GridFunction,
    GridSpec,
    HypothesisError,
    ParameterError,
    StructuralError,
    corollary_check,
    discrete_convolution,
    young_check,
)
from conftest import SEED, random_piecewise_linear

SPEC = GridSpec(t_end=1.0, n_points=1024)
YOUNG_TRIPLES = [(1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (math.inf, 2.0, 2.0)]
COROLLARY_PARAMS = [(0.5, 1.0, 2.0, 2.0), (0.7, 1.5, 6.0, 2.0)]  # (beta, r, p, q)


def indicator(spec=SPEC):
    return GridFunction.constant(spec, 1.0)


def test_young_equality_case_l1():
    record = young_check(indicator(), indicator(), 1.0, 1.0, 1.0)
    assert record.passed
    assert record.lhs == pytest.approx(record.rhs, rel=1e-6)
    assert record.rhs == pytest.approx(1.0, rel=1e-12)


def test_young_triangle_peak():
    record = young_check(indicator(), indicator(), math.inf, 2.0, 2.0)
    assert record.passed
    assert record.lhs == pytest.approx(1.0, rel=2e-3)
    assert record.rhs == pytest.approx(1.0, rel=1e-12)


def test_young_exponent_relation_enforced():
    with pytest.raises(ParameterError):
        young_check(indicator(), indicator(), 2.0, 2.0, 2.0)
    with pytest.raises(ParameterError):
        young_check(indicator(), indicator(), 1.0, 0.5, 1.0)


def test_young_random_suite():
    for idx in range(50):
        rng = np.random.default_rng(SEED + idx)
        f = random_piecewise_linear(rng, SPEC)
        g = random_piecewise_linear(rng, SPEC)
        p, q, r = YOUNG_TRIPLES[idx % 3]
        assert young_check(f, g, p, q, r).passed


@given(scale=st.floats(0.01, 100.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_young_scale_covariant(scale):
    spec = GridSpec(t_end=1.0, n_points=128)
    t = spec.times
    f = GridFunction(spec, np.abs(np.sin(5.0 * t)) + 0.1)
    g = GridFunction(spec, np.abs(np.cos(3.0 * t)) + 0.2)
    base = young_check(f, g, 2.0, 2.0, 1.0)
    scaled = young_check(scale * f, g, 2.0, 2.0, 1.0)
    assert scaled.lhs == pytest.approx(scale * base.lhs, rel=1e-9)
    assert scaled.rhs == pytest.approx(scale * base.rhs, rel=1e-9)
    assert scaled.passed == base.passed


def test_corollary_zero():
    zero = GridFunction.zeros(SPEC)
    record = corollary_check(zero, 0.0, 1.0, 1.0, 0.5, 1.0, 2.0, 2.0)
    assert record.passed
    assert record.lhs == 0.0 and record.rhs == 0.0


def test_corollary_unit_closed_form():
    record = corollary_check(indicator(), 0.0, 1.0, 1.0, 0.5, 1.0, 2.0, 2.0)
    assert record.passed
    assert record.lhs == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert record.rhs == pytest.approx(2.0, rel=1e-12)


def test_corollary_hypothesis_guard():
    with pytest.raises(HypothesisError):
        corollary_check(indicator(), 0.0, 1.0, 1.0, 0.5, 2.0, 2.0, 2.0)  # r >= 2
    with pytest.raises(ParameterError):
        corollary_check(indicator(), 0.0, 1.0, 2.0, 0.5, 1.0, 2.0, 2.0)  # delta > b-a


@pytest.mark.parametrize(
    "args, error, match",
    [
        (dict(r=math.nan), HypothesisError, "r=nan"),  # returned passed=False, rhs = nan
        (dict(q=math.nan), ParameterError, "exponent q"),  # was reported as "exponent p"
        (dict(p=math.nan), ParameterError, "exponent p"),
        (dict(delta=math.nan), ParameterError, "delta"),
        (dict(a=math.nan), DomainError, "not a finite time"),
        (dict(b=math.inf), DomainError, "not a finite time"),
    ],
    ids=["r", "q", "p", "delta", "a", "b"],
)
def test_corollary_non_finite_argument_is_named(args, error, match):
    base = dict(a=0.0, b=1.0, delta=1.0, beta=0.5, r=1.0, p=2.0, q=2.0)
    with pytest.raises(error, match=match):
        corollary_check(indicator(), **{**base, **args})


@pytest.mark.parametrize("name", ["p", "q", "r"])
def test_young_nan_exponent_is_named(name):
    exps = {"p": 1.0, "q": 1.0, "r": 1.0}
    exps[name] = math.nan
    with pytest.raises(ParameterError, match=f"exponent {name} "):
        young_check(indicator(), indicator(), exps["p"], exps["q"], exps["r"])


def test_corollary_random_suite():
    for idx in range(50):
        rng = np.random.default_rng(SEED + 1000 + idx)
        phi = random_piecewise_linear(rng, SPEC)
        beta, r, p, q = COROLLARY_PARAMS[idx % 2]
        delta = round(float(rng.uniform(0.2, 1.0)) * SPEC.n_points) / SPEC.n_points
        record = corollary_check(phi, 0.0, 1.0, max(delta, SPEC.dt), beta, r, p, q)
        assert record.passed


def test_corollary_rhs_monotone_in_delta(rng):
    phi = random_piecewise_linear(rng, SPEC)
    deltas = (0.25, 0.5, 0.75, 1.0)
    records = [
        corollary_check(phi, 0.0, 1.0, d, 0.5, 1.0, 2.0, 2.0) for d in deltas
    ]
    rhs = [r.rhs for r in records]
    lhs = [r.lhs for r in records]
    assert all(b > a for a, b in zip(rhs, rhs[1:]))
    assert all(b >= a - 1e-14 for a, b in zip(lhs, lhs[1:]))


def test_corollary_interior_window(rng):
    phi = random_piecewise_linear(rng, SPEC)
    record = corollary_check(phi, 0.25, 0.75, 0.25, 0.5, 1.0, 2.0, 2.0)
    assert record.passed


def test_corollary_scale_covariant(rng):
    phi = random_piecewise_linear(rng, SPEC)
    lam = 37.5
    base = corollary_check(phi, 0.0, 1.0, 0.5, 0.5, 1.0, 2.0, 2.0)
    scaled = corollary_check(lam * phi, 0.0, 1.0, 0.5, 0.5, 1.0, 2.0, 2.0)
    assert scaled.lhs == pytest.approx(lam * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(lam * base.rhs, rel=1e-12)
    assert scaled.passed == base.passed


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: discrete_convolution(indicator(), indicator(GridSpec(t_end=1.0, n_points=512))),
            StructuralError,
            "different grids",
        ),
        (
            lambda: corollary_check(indicator(), 0.0, 1.0, 0.5, 1.0, 1.0, 2.0, 2.0),
            ParameterError,
            "beta must lie in",
        ),
        (
            lambda: corollary_check(indicator(), 0.0, 1.0, 0.5, 0.0, 1.0, 2.0, 2.0),
            ParameterError,
            "beta must lie in",
        ),
    ],
    ids=["convolution-grids", "beta-one", "beta-zero"],
)
def test_estimates_reject(call, error, message):
    with pytest.raises(error, match=message):
        call()
