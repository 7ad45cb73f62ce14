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
from conftest import run_in_c_locale, shift_by_delay


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


def test_to_csv_writes_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale a non-ASCII header line raised UnicodeEncodeError
    header = "r\u00e9sum\u00e9"
    script = (
        "import sys; from delvol import GridFunction, GridSpec; "
        "GridFunction.constant(GridSpec(t_end=1.0, n_points=8), 1.0)"
        f".to_csv(sys.argv[1], header_lines=[{ascii(header)}])"
    )
    proc = run_in_c_locale("-c", script, str(tmp_path / "c.csv"))
    assert proc.returncode == 0, proc.stderr
    f = GridFunction.constant(GridSpec(t_end=1.0, n_points=8), 1.0)
    f.to_csv(tmp_path / "utf8.csv", header_lines=[header])
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "utf8.csv").read_bytes()
    assert (tmp_path / "c.csv").read_bytes().startswith(f"# {header}\n".encode("utf-8"))



def test_from_callable_falls_back_to_per_node_calls():
    # a scalar answer to the vectorized call is not a sample of every node
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    calls = []
    f = GridFunction.from_callable(spec, lambda t: calls.append(t) or 2.0)
    assert len(calls) == 1 + spec.n_points + 1
    assert np.array_equal(f.values, GridFunction.constant(spec, 2.0).values)


def test_from_callable_vector_valued():
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    f = GridFunction.from_callable(spec, lambda t: np.column_stack([t, 2.0 * t]))
    m = spec.delay_steps
    assert f.values.shape == (spec.n_nodes, 2) and f.dim == 2
    assert np.all(f.values[:m] == 0.0)
    assert np.array_equal(f.values[m:, 1], 2.0 * spec.times[m:])


def test_zeros_with_a_dimension():
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    f = GridFunction.zeros(spec, 3)
    assert f.values.shape == (spec.n_nodes, 3) and not np.any(f.values)


@pytest.mark.parametrize(
    "arr", [np.ones(16), np.ones(21), 1.0], ids=["short", "all-nodes", "scalar"]
)
def test_from_horizon_values_rejects_a_wrong_length(arr):
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)  # 17 horizon nodes, 21 in all
    with pytest.raises(StructuralError, match="expected 17 horizon values"):
        GridFunction.from_horizon_values(spec, arr)


@pytest.mark.parametrize("n_points", [100.0, 100.5, "100"])
def test_spec_requires_an_integer_node_count(n_points):
    # 100.0 used to pass and fail later with a bare TypeError; 100.5 gave 101.5 nodes
    with pytest.raises(ParameterError, match="n_points must be an integer"):
        GridSpec(t_end=1.0, n_points=n_points)


def test_spec_accepts_numpy_integers():
    spec = GridSpec(t_end=1.0, n_points=np.int64(16))
    assert spec == GridSpec(t_end=1.0, n_points=16)
    assert GridFunction.constant(spec, 1.0).values.shape == (17,)


GRID = GridSpec(t_end=1.0, n_points=16, h=0.25)
OTHER_GRID = GridSpec(t_end=1.0, n_points=8, h=0.25)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda tmp: GridSpec(t_end=1.0, n_points=512, h=1e-12),
            ParameterError,
            "at least one step",
        ),
        (lambda tmp: GRID.index_at(0.03), DomainError, "does not lie on a grid node"),
        (
            lambda tmp: GridFunction(GRID, np.zeros((GRID.n_nodes, 2, 2))),
            StructuralError,
            "does not match",
        ),
        (
            lambda tmp: GridFunction.constant(GRID, 1.0) * GridFunction.constant(OTHER_GRID, 1.0),
            StructuralError,
            "different grids",
        ),
        (
            lambda tmp: GridFunction.constant(GRID, 1.0).to_csv(tmp / "f.csv")
            or GridFunction.read_csv(tmp / "f.csv", OTHER_GRID),
            StructuralError,
            "CSV has 21 rows, grid has 11 nodes",
        ),
        (
            lambda tmp: lp_norm(GridFunction.constant(GRID, 1.0), 2.0, window=(0.5, 0.25)),
            DomainError,
            "empty window",
        ),
    ],
    ids=[
        "delay-below-one-step", "off-node-time", "values-shape", "mixed-grids", "table-rows",
        "empty-window",
    ],
)
def test_grid_rejects(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_one_node_window_norm_is_zero():
    assert lp_norm(GridFunction.constant(GRID, 3.0), 2.0, window=(0.5, 0.5)) == 0.0


def test_vector_magnitude_is_euclidean():
    f = GridFunction.from_horizon_values(GRID, np.tile([3.0, 4.0], (GRID.n_points + 1, 1)))
    mag = f.magnitude()
    assert mag.values.ndim == 1
    assert np.array_equal(mag.horizon_values, np.full(GRID.n_points + 1, 5.0))
    assert np.all(mag.values[: GRID.delay_steps] == 0.0)
