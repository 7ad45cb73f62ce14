import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delvol import (
    DomainError,
    GridFunction,
    GridSpec,
    ParameterError,
    StructuralError,
    lp_norm,
)
from conftest import shift_by_delay


def test_spec_validation():
    with pytest.raises(ParameterError):
        GridSpec(t_end=-1.0, n_points=10)
    with pytest.raises(ParameterError):
        GridSpec(t_end=1.0, n_points=1)
    with pytest.raises(ParameterError):
        GridSpec(t_end=1.0, n_points=10, h=-0.5)
    with pytest.raises(ParameterError):
        # 0.3 is not a multiple of dt = 0.1... within rounding it is 3 steps
        GridSpec(t_end=1.0, n_points=10, h=0.15)
    spec = GridSpec(t_end=1.0, n_points=10, h=0.5)
    assert spec.t_start == -0.5
    assert spec.delay_steps == 5
    assert spec.n_nodes == 16
    assert spec.times[spec.delay_steps] == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["t_end", "h"])
def test_spec_rejects_non_finite_before_the_delay_ratio(field, bad):
    # nan passes a bare `h < 0`, and inf reached round(h / dt) as OverflowError
    args = {"t_end": 1.0, "n_points": 8, "h": 0.25, field: bad}
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        GridSpec(**args)


def test_prehistory_enforced():
    spec = GridSpec(t_end=1.0, n_points=4, h=0.5)
    vals = np.ones(spec.n_nodes)
    with pytest.raises(StructuralError):
        GridFunction(spec, vals)
    ok = np.ones(spec.n_nodes)
    ok[: spec.delay_steps] = 0.0
    GridFunction(spec, ok)


def test_lp_norm_constant_one():
    spec = GridSpec(t_end=1.0, n_points=256)
    f = GridFunction.constant(spec, 1.0)
    assert lp_norm(f, 2) == pytest.approx(1.0, rel=1e-13)
    assert lp_norm(f, math.inf) == 1.0


def test_lp_norm_linear_closed_form():
    spec = GridSpec(t_end=1.0, n_points=512)
    f = GridFunction.from_callable(spec, lambda t: t)
    assert lp_norm(f, 2) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-5)


def test_lp_norm_window_and_errors():
    spec = GridSpec(t_end=1.0, n_points=100, h=0.5)
    f = GridFunction.constant(spec, 2.0)
    assert lp_norm(f, 1, window=(0.0, 0.5)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ParameterError):
        lp_norm(f, 0.5)
    with pytest.raises(ParameterError, match="got nan"):
        lp_norm(f, math.nan)  # used to return 2.0, the sup
    with pytest.raises(DomainError):
        lp_norm(f, 2, window=(0.0, 2.0))
    with pytest.raises(DomainError):
        lp_norm(f, 2, window=(-1.0, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_non_finite_time_is_domain_error(bad):
    # int(round(t / dt)) raised a bare ValueError for nan and OverflowError for
    # +-inf (and for a finite t whose step count overflows)
    spec = GridSpec(t_end=1.0, n_points=100, h=0.5)
    f = GridFunction.constant(spec, 2.0)
    window = (bad, 1.0) if bad < 0.0 else (0.0, bad)  # not empty
    for call in (
        lambda: spec.index_at(bad),
        lambda: f.at_time(bad),
        lambda: lp_norm(f, 2, window=window),
    ):
        with pytest.raises(DomainError, match="not a finite time"):
            call()


def test_lp_norm_window_monotone(rng):
    spec = GridSpec(t_end=1.0, n_points=128)
    vals = rng.uniform(0.0, 3.0, spec.n_nodes)
    f = GridFunction(spec, vals)
    inner = lp_norm(f, 3, window=(0.25, 0.75))
    outer = lp_norm(f, 3, window=(0.0, 1.0))
    assert inner <= outer + 1e-14


@given(alpha=st.floats(-10.0, 10.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_lp_norm_homogeneous(alpha):
    spec = GridSpec(t_end=1.0, n_points=64)
    base = np.zeros(spec.n_nodes)
    base[spec.delay_steps :] = np.sin(np.linspace(0.0, 5.0, spec.n_points + 1)) + 2.0
    f = GridFunction(spec, base)
    g = GridFunction(spec, alpha * base)
    assert lp_norm(g, 2) == pytest.approx(abs(alpha) * lp_norm(f, 2), abs=1e-12)


@pytest.mark.parametrize("value, p", [(1e3, 103.0), (1e-3, 200.0)])
def test_lp_norm_large_exponent_keeps_its_scale(value, p):
    # the plain sum of value^p overflows (1e3) or underflows (1e-3) here
    spec = GridSpec(t_end=1.0, n_points=64)
    f = GridFunction.constant(spec, value)
    assert lp_norm(f, p) == pytest.approx(value, rel=1e-12)


def test_lp_norm_refinement_second_order():
    closed = math.sqrt(0.5 + math.sin(2.0) / 4.0)
    errs = []
    for n in (64, 128, 256):
        spec = GridSpec(t_end=1.0, n_points=n)
        f = GridFunction.from_callable(spec, np.cos)
        errs.append(abs(lp_norm(f, 2) - closed))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


def test_shift_ramp():
    # the reference of the delayed-convolution composition test
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    f = GridFunction.from_callable(spec, lambda t: t)
    g = shift_by_delay(f)
    t = spec.times
    expect = np.where(t >= 0.5, t - 0.5, 0.0)
    expect[t < 0] = 0.0
    assert np.allclose(g.values, expect, atol=1e-14)


def test_csv_round_trip(tmp_path, rng):
    spec = GridSpec(t_end=1.0, n_points=32, h=0.25)
    vals = np.zeros(spec.n_nodes)
    vals[spec.delay_steps :] = rng.normal(size=spec.n_points + 1)
    f = GridFunction(spec, vals)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    g = GridFunction.read_csv(path, spec)
    assert np.array_equal(f.values, g.values)
    header = path.read_text().splitlines()[0]
    assert header == "t,value"


def test_csv_vector_header(tmp_path):
    spec = GridSpec(t_end=1.0, n_points=8)
    f = GridFunction(spec, np.ones((spec.n_nodes, 2)))
    path = tmp_path / "vec.csv"
    f.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,xi_1,xi_2"
    g = GridFunction.read_csv(path, spec)
    assert np.array_equal(f.values, g.values)


def test_csv_from_another_horizon_rejected(tmp_path):
    # same node count, different t column: T = 1 table onto a T = 2 grid
    f = GridFunction.from_callable(GridSpec(t_end=1.0, n_points=32), lambda t: t)
    path = tmp_path / "f.csv"
    f.to_csv(path)
    with pytest.raises(StructuralError):
        GridFunction.read_csv(path, GridSpec(t_end=2.0, n_points=32))


def test_values_immutable():
    spec = GridSpec(t_end=1.0, n_points=8)
    f = GridFunction.constant(spec, 1.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


# -0, subnormals, +-inf, nan and 1e+-300: values whose text a CSV writer may
# render differently from the per-value f"{v:.17g}"
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan, 1e300, -1e-300, 1.0 / 3.0]


def per_value_rows(times, table) -> str:
    return "".join(
        f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n" for t, row in zip(times, table)
    )


@pytest.mark.parametrize("dim", [1, 3])
def test_csv_bytes_match_the_per_value_format(tmp_path, rng, dim):
    spec = GridSpec(t_end=1.0, n_points=40)
    vals = rng.choice(SPECIAL_VALUES, size=(spec.n_nodes, dim))
    vals[: len(SPECIAL_VALUES), 0] = SPECIAL_VALUES
    f = GridFunction(spec, vals[:, 0] if dim == 1 else vals)
    path = tmp_path / "f.csv"
    f.to_csv(path, header_lines=("seed 1",))
    cols = "value" if dim == 1 else "xi_1,xi_2,xi_3"
    expect = f"# seed 1\nt,{cols}\n" + per_value_rows(spec.times, vals)
    assert path.read_bytes() == expect.encode()
