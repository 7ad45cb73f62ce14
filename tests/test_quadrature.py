import math

import numpy as np
import pytest
from scipy import integrate

from delvol import (
    GridFunction,
    GridSpec,
    ParameterError,
    StructuralError,
    beta,
    build_singular_weights,
    delayed_product_convolution,
    singular_convolution,
)
from conftest import dense_weights, random_piecewise_linear, shift_by_delay, weight_row


def horizon_times(spec):
    return spec.times[spec.delay_steps :]


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
def test_row_identities(nu):
    spec = GridSpec(t_end=2.0, n_points=128, h=0.5)
    W = build_singular_weights(spec, nu)
    t = horizon_times(spec)
    for i in (1, 2, 17, 64, 128):
        row = weight_row(W, i)
        assert np.all(row >= 0.0)
        assert row.sum() == pytest.approx(t[i] ** nu / nu, rel=1e-12)
        moment = float(np.dot(row, t[: i + 1]))
        assert moment == pytest.approx(
            t[i] ** (nu + 1.0) * beta(2.0, nu), rel=1e-10
        )
    # the rows are those of the dense array, and it equals the array built
    # from the convolution stencil directly: w_left in column 0, the
    # stencil at distance i - j inside, zero above the diagonal and in row 0
    n = spec.n_points
    dist = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    expect = np.where(dist >= 0, W._kernel[np.clip(dist, 0, n)], 0.0)
    expect[:, 0] = W.w_left[: n + 1]
    dense = dense_weights(W)
    assert np.array_equal(dense, expect)
    for i in (0, 1, 2, 17, 64, 128):
        assert np.array_equal(weight_row(W, i), dense[i, : i + 1])


@pytest.mark.parametrize(
    "rows, back",
    [(1, None), (7, None), (16, None), (48, None), (49, None), (60, None),
     (1, 0), (7, 0), (16, 0), (48, 0), (5, 12)],
)
def test_slab_views_are_blocks_of_the_dense_array(rows, back):
    # row starts at every block edge and off them; back = 0 is the narrow
    # band of a t-free Picard solve, the square block alone
    spec = GridSpec(t_end=1.0, n_points=48, h=0.25)
    W = build_singular_weights(spec, 0.35)
    n = spec.n_points
    dense = dense_weights(W)
    T = W.slab(rows, back)
    b = n if back is None else back
    assert T.shape == (rows, b + rows)
    for r0 in sorted(set(range(0, n + 1, rows)) | {1, 17, n}):
        h = min(rows, n + 1 - r0)  # rows past n are not weights
        lo, hi = max(1, r0 - b), min(r0 + rows - 1, n)  # column 0 is w_left
        view = T[:h, b - r0 + lo : b - r0 + hi + 1]
        assert view.base is T and view.strides[1] == T.itemsize
        assert np.array_equal(view, dense[r0 : r0 + h, lo : hi + 1])


def test_single_cell_row_sum():
    # unit step: row 1 on a dt = 1 grid reproduces the one-cell identity
    spec = GridSpec(t_end=2.0, n_points=2)
    W = build_singular_weights(spec, 0.3)
    assert weight_row(W, 1).sum() == pytest.approx(1.0 / 0.3, rel=1e-13)


def test_invalid_exponent():
    spec = GridSpec(t_end=1.0, n_points=8)
    for nu in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ParameterError):
            build_singular_weights(spec, nu)


def test_convolution_constant_closed_form():
    spec = GridSpec(t_end=1.0, n_points=256, h=0.25)
    W = build_singular_weights(spec, 0.5)
    f = GridFunction.constant(spec, 1.0)
    g = singular_convolution(f, W)
    t = horizon_times(spec)
    assert np.allclose(g.horizon_values, 2.0 * np.sqrt(t), rtol=1e-12, atol=1e-14)


def test_convolution_zero():
    spec = GridSpec(t_end=1.0, n_points=64)
    W = build_singular_weights(spec, 0.7)
    z = GridFunction.zeros(spec)
    assert np.array_equal(singular_convolution(z, W).values, z.values)


def test_convolution_spec_mismatch():
    spec = GridSpec(t_end=1.0, n_points=64)
    other = GridSpec(t_end=1.0, n_points=32)
    W = build_singular_weights(spec, 0.5)
    with pytest.raises(StructuralError):
        singular_convolution(GridFunction.constant(other, 1.0), W)


def test_convolution_against_adaptive_reference():
    # f(s) = 1/(1+s), nu = 0.7, value at t = 1
    nu = 0.7
    spec = GridSpec(t_end=1.0, n_points=512)
    W = build_singular_weights(spec, nu)
    f = GridFunction.from_callable(spec, lambda t: 1.0 / (1.0 + t))
    got = singular_convolution(f, W).at_time(1.0)
    ref, _ = integrate.quad(
        lambda s: 1.0 / (1.0 + s), 0.0, 1.0, weight="alg", wvar=(0.0, nu - 1.0)
    )
    assert got == pytest.approx(ref, rel=1e-4)


def test_convolution_linear(rng):
    spec = GridSpec(t_end=1.0, n_points=128)
    W = build_singular_weights(spec, 0.4)
    f = random_piecewise_linear(rng, spec)
    g = random_piecewise_linear(rng, spec)
    a, b = 2.2, -0.7
    combo = GridFunction(spec, a * f.values + b * g.values)
    lhs = singular_convolution(combo, W).values
    rhs = a * singular_convolution(f, W).values + b * singular_convolution(g, W).values
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale


def test_convolution_monotone(rng):
    spec = GridSpec(t_end=1.0, n_points=128)
    W = build_singular_weights(spec, 0.6)
    f = random_piecewise_linear(rng, spec, lo=0.0, hi=3.0)
    assert np.all(singular_convolution(f, W).values >= 0.0)


def test_exact_on_piecewise_linear():
    # exact moments of a hat function against the kernel, independent reference
    nu = 0.45
    spec = GridSpec(t_end=1.0, n_points=16)
    W = build_singular_weights(spec, nu)
    t = horizon_times(spec)
    hat = np.maximum(0.0, 1.0 - np.abs(t - 0.5) / 0.25)
    f = GridFunction.from_horizon_values(spec, hat)
    got = singular_convolution(f, W)
    interp = lambda s: np.interp(s, t, hat)
    for i in (6, 10, 16):
        ref, _ = integrate.quad(
            interp, 0.0, t[i], weight="alg", wvar=(0.0, nu - 1.0), limit=200
        )
        assert got.horizon_values[i] == pytest.approx(ref, rel=1e-9)


def test_second_order_convergence():
    # Richardson reference from the finest grid
    nu = 0.5
    vals = {}
    for n in (128, 256, 512):
        spec = GridSpec(t_end=1.0, n_points=n)
        W = build_singular_weights(spec, nu)
        f = GridFunction.from_callable(spec, np.cos)
        vals[n] = singular_convolution(f, W).at_time(1.0)
    ref = vals[512] + (vals[512] - vals[256]) / 3.0
    e1, e2 = abs(vals[128] - ref), abs(vals[256] - ref)
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


def test_delayed_conv_total_lag():
    spec = GridSpec(t_end=1.0, n_points=32, h=2.0)
    W = build_singular_weights(spec, 0.5)
    f = GridFunction.constant(spec, 3.0)
    g = delayed_product_convolution(GridFunction.constant(spec, 1.0), f, W)
    assert np.all(g.values == 0.0)


def test_delayed_conv_zero_lag():
    spec = GridSpec(t_end=1.0, n_points=32, h=0.0)
    W = build_singular_weights(spec, 0.5)
    f = GridFunction.from_callable(spec, lambda t: 1.0 + t)
    a = delayed_product_convolution(GridFunction.constant(spec, 1.0), f, W)
    b = singular_convolution(f, W)
    assert np.array_equal(a.values, b.values)


def test_delayed_conv_indicator_closed_form():
    # f == 1, so f(s-h) is the unit step at h: integral is 2 sqrt((t-h)+)
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    W = build_singular_weights(spec, 0.5)
    f = GridFunction.constant(spec, 1.0)
    g = delayed_product_convolution(GridFunction.constant(spec, 1.0), f, W)
    t = horizon_times(spec)
    expect = 2.0 * np.sqrt(np.maximum(t - 0.25, 0.0))
    assert np.allclose(g.horizon_values, expect, rtol=1e-12, atol=1e-14)


def test_delayed_conv_matches_shift_composition_on_vanishing_start(rng):
    # when f(0) = 0 the delayed trace has no jump and the two routes agree
    spec = GridSpec(t_end=1.0, n_points=64, h=0.25)
    W = build_singular_weights(spec, 0.6)
    f = GridFunction.from_callable(spec, lambda t: t * (1.0 - t))
    direct = delayed_product_convolution(GridFunction.constant(spec, 1.0), f, W)
    composed = singular_convolution(shift_by_delay(f), W)
    assert np.allclose(direct.values, composed.values, atol=1e-13)


def test_delayed_product_convolution_closed_form():
    # weight 1, f = 1: int_h^t (t-s)^(nu-1) ds with nu = 1/2
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    W = build_singular_weights(spec, 0.5)
    one = GridFunction.constant(spec, 1.0)
    g = delayed_product_convolution(one, one, W)
    t = horizon_times(spec)
    expect = 2.0 * np.sqrt(np.maximum(t - 0.5, 0.0))
    assert np.allclose(g.horizon_values, expect, rtol=1e-12, atol=1e-14)


def test_matrix_consistent_with_apply(rng):
    spec = GridSpec(t_end=1.0, n_points=48)
    W = build_singular_weights(spec, 0.35)
    f = random_piecewise_linear(rng, spec)
    dense = dense_weights(W) @ f.horizon_values
    fast = W.apply_horizon(f.horizon_values)
    assert np.allclose(dense, fast, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("size", [1, 2, 17, 49])
def test_apply_horizon_prefix_is_the_leading_rows(rng, size):
    # a prefix f[0..k] gives the first k + 1 rows of the full product
    spec = GridSpec(t_end=1.0, n_points=48)
    W = build_singular_weights(spec, 0.35)
    f = random_piecewise_linear(rng, spec).horizon_values[:size]
    dense = dense_weights(W)[:size, :size] @ f
    assert np.allclose(W.apply_horizon(f), dense, rtol=1e-13, atol=1e-15)
    vec = np.column_stack([f, 2.0 * f])
    both = np.column_stack([dense, 2.0 * dense])
    assert np.allclose(W.apply_horizon(vec), both, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("size", [1, 12, 13, 30, 49])
@pytest.mark.parametrize("h", [0.0, 0.25])
def test_apply_delayed_prefix_is_the_leading_rows(rng, size, h):
    # rows 0..k of the delayed product read only the prefixes a, f[0..k]
    spec = GridSpec(t_end=1.0, n_points=48, h=h)
    W = build_singular_weights(spec, 0.35)
    a = random_piecewise_linear(rng, spec)
    f = random_piecewise_linear(rng, spec)
    full = delayed_product_convolution(a, f, W).horizon_values
    a_pre, f_pre = a.horizon_values[:size], f.horizon_values[:size].copy()
    f_pre[max(size - spec.delay_steps, 0) :] = np.nan  # nodes no row may read
    got = W.apply_delayed(a_pre, f_pre)
    assert np.all(got[: spec.delay_steps] == 0.0)
    assert np.allclose(got, full[:size], rtol=1e-13, atol=1e-15)
    # a 2-D f is taken column by column
    both = W.apply_delayed(a_pre, np.column_stack([f_pre, 2.0 * f_pre]))
    assert np.array_equal(both, np.column_stack([got, W.apply_delayed(a_pre, 2.0 * f_pre)]))


@pytest.mark.parametrize("size", [1, 2, 17, 40, 49])
@pytest.mark.parametrize("i0, i1", [(0, 48), (1, 48), (5, 30), (17, 17), (30, 48), (40, 44)])
def test_apply_rows_matches_rows_of_the_dense_array(rng, size, i0, i1):
    # prefixes shorter and longer than the rows; a row reads no column past it
    spec = GridSpec(t_end=1.0, n_points=48)
    W = build_singular_weights(spec, 0.35)
    f = random_piecewise_linear(rng, spec).horizon_values[:size]
    padded = np.zeros(spec.n_points + 1)
    padded[:size] = f
    dense = dense_weights(W)[i0 : i1 + 1] @ padded
    got = W.apply_rows(f, i0, i1)
    assert got.shape == (i1 - i0 + 1,)
    assert np.allclose(got, dense, rtol=1e-13, atol=1e-15)
    # a 2-D f is taken column by column
    both = W.apply_rows(np.column_stack([f, -3.0 * f]), i0, i1)
    assert np.array_equal(both, np.column_stack([got, W.apply_rows(-3.0 * f, i0, i1)]))


@pytest.mark.parametrize("j", [0, 1, 9, 30, 48])
def test_apply_rows_nan_reaches_only_later_rows(rng, j):
    spec = GridSpec(t_end=1.0, n_points=48)
    W = build_singular_weights(spec, 0.6)
    f = random_piecewise_linear(rng, spec).horizon_values.copy()
    clean = W.apply_rows(f, 0, 48)
    f[j] = np.nan
    got = W.apply_rows(f, 0, 48)
    assert np.isnan(got[j:]).all()
    assert np.array_equal(got[:j], clean[:j])
    # rows of a later block see it as well, without a mask
    assert np.isnan(W.apply_rows(f[: j + 1], j, 48)).all()


def test_apply_rows_zero_leading_values_give_exact_zeros():
    # the kappa-difference curve is a certified forcing: exactly 0 where the
    # two problems agree, which an FFT's round-off of either sign would break
    spec = GridSpec(t_end=1.0, n_points=256)
    W = build_singular_weights(spec, 0.4)
    f = np.zeros(spec.n_points + 1)
    f[100:] = np.linspace(1.0, 1e6, spec.n_points - 99)
    got = W.apply_rows(f, 0, spec.n_points)
    assert np.all(got[:100] == 0.0)
    assert np.all(got[100:] > 0.0)
    assert np.allclose(got, dense_weights(W) @ f, rtol=1e-13, atol=0.0)
