import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delvol import (
    ConvergenceError,
    GridFunction,
    GridSpec,
    GronwallProblem,
    HypothesisError,
    ParameterError,
    StructuralError,
    build_singular_weights,
    certify,
    comparison_constant,
    delayed_product_convolution,
    gronwall_bound,
    lemma1_constant,
    lp_norm,
    mittag_leffler_half,
    resolvent_majorant,
    singular_convolution,
    step_constant_k1,
    theta_n,
)
from conftest import (
    SEED,
    delayed_linear_exact,
    dense_weights,
    mittag_leffler,
    random_piecewise_linear,
    weight_row,
    with_n_points,
)


def make_problem(L, theta, nu, q):
    return GronwallProblem.build(L, theta, nu, q)


def unit_problem(n_points=256, h=0.5, nu=0.5, q=4.0, T=1.0, L_val=1.0, th_val=1.0):
    spec = GridSpec(t_end=T, n_points=n_points, h=h)
    return make_problem(
        GridFunction.constant(spec, L_val),
        GridFunction.constant(spec, th_val),
        nu,
        q,
    )


def test_problem_validation():
    spec = GridSpec(t_end=1.0, n_points=16, h=0.5)
    L = GridFunction.constant(spec, 1.0)
    th = GridFunction.constant(spec, 1.0)
    with pytest.raises(HypothesisError):
        make_problem(L, th, nu=0.5, q=1.5)  # q <= 1/nu
    finer = GridFunction.constant(GridSpec(t_end=1.0, n_points=32, h=0.5), 1.0)
    with pytest.raises(StructuralError, match="theta must live on L's grid"):
        make_problem(L, finer, nu=0.5, q=4.0)
    spec0 = GridSpec(t_end=1.0, n_points=16, h=0.0)
    with pytest.raises(HypothesisError):
        make_problem(
            GridFunction.constant(spec0, 1.0),
            GridFunction.constant(spec0, 1.0),
            0.5,
            4.0,
        )
    for bad in (math.nan, math.inf):  # non-finite L or theta
        nonfinite = GridFunction.constant(spec, bad)
        with pytest.raises(ParameterError):
            make_problem(L, nonfinite, nu=0.5, q=4.0)
        with pytest.raises(ParameterError):
            make_problem(nonfinite, th, nu=0.5, q=4.0)


def test_vector_valued_L_or_theta_is_structural_error():
    spec = GridSpec(t_end=1.0, n_points=16, h=0.5)
    one = GridFunction.constant(spec, 1.0)
    two = GridFunction(spec, np.column_stack([one.values, one.values]))
    with pytest.raises(StructuralError, match="L must be scalar-valued"):
        make_problem(two, one, nu=0.5, q=4.0)
    with pytest.raises(StructuralError, match="theta must be scalar-valued"):
        make_problem(one, two, nu=0.5, q=4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_q_is_rejected_by_name(bad):
    # q * nu <= 1 is False for nan and inf, which then surfaced only later
    spec = GridSpec(t_end=1.0, n_points=16, h=0.5)
    L = GridFunction.constant(spec, 1.0)
    for build in (
        lambda: make_problem(L, L, nu=0.5, q=bad),
        lambda: step_constant_k1(L, 0.5, bad),
        lambda: lemma1_constant(L, 0.5, bad),
    ):
        with pytest.raises(HypothesisError, match=f"q={bad}"):
            build()


@pytest.mark.parametrize(
    "fn", [lemma1_constant, step_constant_k1], ids=["lemma1", "k1"]
)
@pytest.mark.parametrize(
    "fill, message",
    [
        ("all-nan", "L must be finite at every node"),
        ("one-inf", "L must be finite at every node"),
        ("minus-one", "L must be node-wise nonnegative"),
    ],
    ids=["all-nan", "one-inf", "minus-one"],
)
def test_bad_L_is_rejected_by_name(fn, fill, message):
    # unchecked, these give 0.0 or nan, or a warning and an error blaming the grid
    spec = GridSpec(t_end=1.0, n_points=16, h=0.5)
    one = GridFunction.constant(spec, 1.0).values
    L = {
        "all-nan": GridFunction.constant(spec, math.nan),
        "one-inf": GridFunction(spec, np.where(spec.times == 0.75, math.inf, one)),
        "minus-one": GridFunction.constant(spec, -1.0),
    }[fill]
    with pytest.raises(ParameterError, match=message):
        fn(L, 0.5, 4.0)


def _no_constants(*args):
    raise AssertionError("the argument check must come before the constants")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_bad_K_and_tol_are_rejected_before_the_constants(monkeypatch, bad):
    import delvol.gronwall as gronwall

    prob = unit_problem(n_points=16)
    report = gronwall_bound(prob, 1.0)
    monkeypatch.setattr(gronwall, "_report", _no_constants)
    monkeypatch.setattr(gronwall, "_window_sum", _no_constants)
    with pytest.raises(ParameterError, match="K must be finite"):
        gronwall_bound(prob, bad)
    with pytest.raises(ParameterError, match="tol must be finite"):
        certify(prob, tol=bad)
    with pytest.raises(ParameterError, match="tol must be finite"):
        report.verdict(bad)
    with pytest.raises(ParameterError, match="K must be finite"):
        theta_n(prob, bad)


def test_step_constant_k1_closed_form():
    spec = GridSpec(t_end=1.0, n_points=256, h=0.5)
    L = GridFunction.constant(spec, 1.0)
    got = step_constant_k1(L, nu=0.75, q=2.0)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_step_constant_k1_zero_L():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    assert step_constant_k1(GridFunction.constant(spec, 0.0), 0.75, 2.0) == 0.0


def test_step_constant_k1_adaptive_cross_check():
    from scipy import integrate

    spec = GridSpec(t_end=1.0, n_points=2048, h=0.5)
    L = GridFunction.from_callable(spec, lambda t: t)
    nu, q = 0.6, 3.0
    got = step_constant_k1(L, nu, q)
    norm_ref = integrate.quad(lambda s: s**q, 0.0, 1.0)[0] ** (1.0 / q)
    arg = (nu * q - 1.0) / (q - 1.0)
    beta_ref, _ = integrate.quad(
        lambda s: 1.0, 0.0, 1.0, weight="alg", wvar=(arg - 1.0, arg - 1.0)
    )
    ref = norm_ref * beta_ref ** ((q - 1.0) / q)
    assert got == pytest.approx(ref, rel=1e-6)


def test_step_constant_hypothesis():
    spec = GridSpec(t_end=1.0, n_points=32, h=0.5)
    with pytest.raises(HypothesisError):
        step_constant_k1(GridFunction.constant(spec, 1.0), nu=0.5, q=2.0)


def test_comparison_constant():
    assert comparison_constant(0.3, 0.5, 1.0) == 1.0
    assert comparison_constant(0.5, 0.75, 4.0) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(HypothesisError):
        comparison_constant(0.5, 0.5, 1.0)


def test_comparison_constant_rejects_nan():
    # a nan T used to give C = nan, and a nan nu or nu1 passed the bare
    # nu1 <= nu check
    for bad_T in (math.nan, math.inf, 0.0):
        with pytest.raises(ParameterError, match="T must be finite"):
            comparison_constant(0.5, 0.7, bad_T)
    for nu, nu1 in ((0.5, math.nan), (math.nan, 0.7)):
        with pytest.raises(HypothesisError, match="requires nu1 > nu"):
            comparison_constant(nu, nu1, 1.0)


def test_comparison_constant_dominates_sampled(rng):
    for _ in range(20):
        nu = rng.uniform(0.1, 0.9)
        nu1 = nu + rng.uniform(0.01, 0.5)
        T = rng.uniform(0.5, 5.0)
        C = comparison_constant(nu, nu1, T)
        gaps = rng.uniform(1e-6, T, size=50)
        assert np.all(C * gaps ** (nu - 1.0) - gaps ** (nu1 - 1.0) >= -1e-12)


def test_majorant_zero_L_is_theta():
    prob = unit_problem(L_val=0.0)
    M = resolvent_majorant(prob)
    assert np.array_equal(M.values, prob.theta.values)


def test_majorant_mittag_leffler_oracle():
    prob = unit_problem(n_points=2000, h=1.0, q=4.0)
    M = resolvent_majorant(prob)
    got = M.at_time(1.0)
    exact = mittag_leffler_half(math.sqrt(math.pi))
    assert got == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize(
    "nu, order, err_4096", [(0.4, 1.25, 3.6e-5), (0.6, 1.5, 9.5e-7), (0.8, 1.65, 4.6e-8)]
)
def test_oracle_first_window_converges_to_mittag_leffler(nu, order, err_4096):
    # for t <= h the delayed term vanishes, so with L = theta = 1 the oracle
    # solves x = 1 + int_0^t (t-s)^(nu-1) x ds, whose solution is
    # E_nu(Gamma(nu) t^nu); the observed order is about 1 + nu
    exact = mittag_leffler(nu, 1.0, math.gamma(nu) * 0.5**nu)
    errors = []
    for n in (256, 512, 1024, 2048, 4096):
        prob = unit_problem(n_points=n, h=0.5, nu=nu, q=2.0 / nu)
        errors.append(abs(resolvent_majorant(prob).at_time(0.5) - exact) / exact)
    assert math.log2(errors[-2] / errors[-1]) >= order
    assert err_4096 / 2.0 <= errors[-1] <= 2.0 * err_4096


@pytest.mark.parametrize(
    "nu, h, order, err_8192",
    [
        (0.6, 1 / 4, 1.5, 7.10e-7),
        (0.4, 1 / 4, 1.3, 1.90e-5),
        (0.8, 1 / 4, 1.6, 2.99e-8),
        (0.6, 1 / 16, 1.45, 1.11e-6),
        (0.4, 1 / 16, 1.2, 3.70e-5),
        (0.6, 1 / 256, 1.35, 1.36e-6),
    ],
)
def test_oracle_converges_to_the_exact_delayed_solution(nu, h, order, err_8192):
    # with L = theta = 1 the oracle solves x = 1 + int_0^t (x(s) + x(s - h))
    # (t-s)^(nu-1) ds; at t = 1 every delay window and its s = h split cell
    # count.  Orders 1.55, 1.33, 1.67, 1.50, 1.23 and 1.40 were measured
    # between n = 4096 and 8192, and err_8192 at n = 8192
    exact = delayed_linear_exact(1.0, nu, h, 1.0, 1.0)
    errors = []
    for n in (4096, 8192):
        prob = unit_problem(n_points=n, h=h, nu=nu, q=2.0 / nu)
        errors.append(abs(resolvent_majorant(prob).at_time(1.0) - exact) / exact)
    assert math.log2(errors[0] / errors[1]) >= order
    assert errors[1] <= 1.1 * err_8192


def test_majorant_delay_inactive_prefix():
    # up to t = h the delayed term vanishes, so h = 1/2 and h >= T agree there
    delayed = unit_problem(n_points=512, h=0.5)
    undelayed = unit_problem(n_points=512, h=1.0)
    Md = resolvent_majorant(delayed)
    Mu = resolvent_majorant(undelayed)
    i_half_d = delayed.spec.index_at(0.5)
    i_half_u = undelayed.spec.index_at(0.5)
    a = Md.values[delayed.spec.delay_steps : i_half_d + 1]
    b = Mu.values[undelayed.spec.delay_steps : i_half_u + 1]
    assert np.max(np.abs(a - b)) < 1e-10


def test_lemma1_zero_L():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    assert lemma1_constant(GridFunction.constant(spec, 0.0), 0.5, 3.0) == 0.0


def test_lemma1_refinement_stability():
    vals = {}
    for n in (200, 400):
        spec = GridSpec(t_end=1.0, n_points=n, h=0.5)
        vals[n] = lemma1_constant(GridFunction.constant(spec, 1.0), 0.5, 3.0)
    assert abs(vals[400] - vals[200]) / vals[200] < 0.05


def test_lemma1_monotone_in_scale():
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    base = lemma1_constant(GridFunction.constant(spec, 1.0), 0.5, 3.0)
    scaled = lemma1_constant(GridFunction.constant(spec, 1.5), 0.5, 3.0)
    assert scaled >= base


@pytest.mark.parametrize("nu", [0.4, 0.6, 0.8])
def test_lemma1_constant_mittag_leffler_limit(nu):
    # constant L = 1 on [0, 1]: the resolvent over the first kernel is
    # Gamma(nu) E_{nu,nu}(Gamma(nu) (t - s)^nu), largest at t - s = 1; the
    # grid constant approaches it at first order
    exact = math.gamma(nu) * mittag_leffler(nu, nu, math.gamma(nu))
    errors = []
    for n in (128, 256, 512):
        spec = GridSpec(t_end=1.0, n_points=n)
        K = lemma1_constant(GridFunction.constant(spec, 1.0), nu, 2.0 / nu)
        errors.append(abs(K - exact) / exact)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 0.8
    assert errors[-1] <= 0.02


def test_theta_n_prefix_bitwise(rng):
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        0.6,
        4.0,
    )
    tn = theta_n(prob, 3.7)
    i_h = spec.index_at(spec.h)
    assert np.array_equal(tn.values[: i_h + 1], prob.theta.values[: i_h + 1])


def test_theta_n_zero_L():
    prob = unit_problem(L_val=0.0)
    tn = theta_n(prob, 11.0)
    assert np.allclose(tn.values, prob.theta.values, atol=0.0)


def test_theta_n_closed_form():
    # L = theta = 1, nu = 1/2, h = 1/2, K = 1: both sums give 2 sqrt(t - 1/2)
    prob = unit_problem(n_points=512, h=0.5)
    tn = theta_n(prob, 1.0)
    t = prob.spec.times[prob.spec.delay_steps :]
    expect = 1.0 + 4.0 * np.sqrt(np.maximum(t - 0.5, 0.0))
    assert np.allclose(tn.horizon_values, expect, rtol=1e-12, atol=1e-12)
    assert tn.at_time(1.0) == pytest.approx(1.0 + 4.0 * math.sqrt(0.5), rel=1e-12)


def test_theta_n_against_explicit_row_assembly(rng):
    # independent evaluation of both shifted sums from explicit weight rows, on
    # whole windows, a short last window (34 windows, the last of 1 node) and
    # one-node windows (h = dt)
    from delvol.gronwall import _lemma_row_max, _steps_curve

    for n_points, h in ((96, 0.25), (100, 0.03), (64, 1.0 / 64)):
        spec = GridSpec(t_end=1.0, n_points=n_points, h=h)
        prob = make_problem(
            random_piecewise_linear(rng, spec),
            random_piecewise_linear(rng, spec),
            0.55,
            4.0,
        )
        K = 2.3
        got = theta_n(prob, K).horizon_values
        W = build_singular_weights(spec, prob.nu)
        m, npts = spec.delay_steps, spec.n_points
        n = prob.n_delay_intervals
        L, th = prob.L.horizon_values, prob.theta.horizon_values
        expect = th.copy()
        for ell in range(npts + 1):
            for k in range(1, n + 1):
                r = ell - k * m
                if r >= 1:
                    expect[ell] += K * float(np.dot(weight_row(W, r), (L * th)[: r + 1]))
            for k in range(0, n):
                r = ell - k * m - m
                if r >= 1:
                    expect[ell] += K * float(
                        np.dot(weight_row(W, r), L[m : m + r + 1] * th[: r + 1])
                    )
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-13)
    # K_steps on the short-last-window grid, by its per-window definition
    spec = GridSpec(t_end=1.0, n_points=100, h=0.03)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        0.55,
        4.0,
    )
    ratio_max = _lemma_row_max(prob.L, prob.weights)
    curve = _steps_curve(prob, prob.weights, ratio_max[-1]).horizon_values
    th = prob.theta.horizon_values
    gain = theta_n(prob, 1.0).horizon_values - th
    gain += singular_convolution(prob.L * prob.theta, prob.weights).horizon_values
    want = []
    for lo in range(0, spec.n_points, spec.delay_steps):
        hi = min(lo + spec.delay_steps, spec.n_points)
        seg_gain, seg_exc = gain[lo + 1 : hi + 1], curve[lo + 1 : hi + 1] - th[lo + 1 : hi + 1]
        pos = seg_gain > 0.0
        fold = float(np.max(seg_exc[pos] / seg_gain[pos])) if np.any(pos) else 0.0
        want.append(max(float(ratio_max[hi]), fold))
    got = gronwall_bound(prob, 0.0).K_steps
    assert len(got) == len(want) == 34 and hi - lo == 1
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _dense_operators(prob):
    """A1 = w[i][j] L_j and the delayed A2, assembled densely from weight rows."""
    spec = prob.spec
    W = build_singular_weights(spec, prob.nu)
    m, npts = spec.delay_steps, spec.n_points
    L = prob.L.horizon_values
    A1 = dense_weights(W) * L[None, :]
    A2 = np.zeros_like(A1)
    for i in range(m + 1, npts + 1):
        r = i - m
        A2[i, : r + 1] = weight_row(W, r) * L[m : m + r + 1]
    return A1, A2


def test_majorant_against_direct_linear_solve(rng):
    # the fixed point solves (I - A1 - A2) M = theta; assemble both operators
    # densely and solve directly, then compare with the forward-substitution
    # oracle, which must agree to rounding
    spec = GridSpec(t_end=1.0, n_points=80, h=0.25)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        0.6,
        4.0,
    )
    npts = spec.n_points
    A1, A2 = _dense_operators(prob)
    direct = np.linalg.solve(np.eye(npts + 1) - A1 - A2, prob.theta.horizon_values)
    oracle = resolvent_majorant(prob).horizon_values
    scale = 1.0 + np.max(np.abs(direct))
    assert np.max(np.abs(direct - oracle)) < 1e-13 * scale


@pytest.mark.parametrize("draw", [(28, 3), (35, 0), (6, 15)])
def test_certify_slow_contraction_problems(draw):
    # valid problems whose monotone iteration grows for a long while before it
    # contracts; a stall heuristic on the increments used to reject them
    b = draw[1]
    rng = np.random.default_rng(list(draw))
    nu, h = (0.4, 0.6, 0.8)[b % 3], (0.25, 0.5)[b % 2]
    spec = GridSpec(t_end=1.0, n_points=256, h=h)
    prob = make_problem(
        random_piecewise_linear(rng, spec),  # L, drawn before theta
        random_piecewise_linear(rng, spec),
        nu,
        2.0 / nu,
    )
    assert certify(prob).passed


def test_ratio_row_max_is_running_masked_max(rng):
    from delvol.gronwall import _ratio_row_max

    A1 = np.tril(rng.uniform(0.0, 1.0, (12, 12)))
    A1[rng.uniform(size=A1.shape) < 0.4] = 0.0
    A1[:2] = 0.0
    R = A1 * rng.uniform(1.0, 3.0, A1.shape)
    got = _ratio_row_max(R, A1)
    for i in range(12):
        pos = A1[: i + 1] > 0.0
        expect = np.max(R[: i + 1][pos] / A1[: i + 1][pos]) if pos.any() else 0.0
        assert got[i] == expect


@pytest.mark.parametrize("nu", [0.4, 0.8])
@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_lemma_row_max_matches_dense_resolvent(n, nu, rng):
    # strips and row blocks end ragged at these n; L vanishes on a stretch,
    # so whole columns of A1 are 0 and masked
    from delvol.gronwall import _lemma_row_max, _ratio_row_max

    spec = GridSpec(t_end=1.0, n_points=n)
    t = spec.times[spec.delay_steps :]
    vals = random_piecewise_linear(rng, spec).horizon_values.copy()
    vals[(t > 0.3) & (t < 0.6)] = 0.0
    L = GridFunction.from_horizon_values(spec, vals)
    W = build_singular_weights(spec, nu)
    A1 = dense_weights(W) * vals[None, :]
    dense = _ratio_row_max(np.linalg.solve(np.eye(n + 1) - A1, A1), A1)
    got = _lemma_row_max(L, W)
    assert dense[-1] > 0.0
    assert np.all(np.abs(got - dense) <= 1e-12 * dense)


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_blocked_lemma_and_oracle_match_dense_at_block_edges(blocks, extra, rng):
    # n = b - 1, b, b + 1 and 2b + 1 for the lemma's row-block height b, which
    # the oracle's divides; the delay windows end at node 3b/4 + 4 and its
    # multiples, inside a row block of either
    from delvol.gronwall import _ORACLE_BLOCK, _STRIP, _lemma_row_max, _ratio_row_max

    assert _STRIP % _ORACLE_BLOCK == 0
    n = blocks * _STRIP + extra
    m = 3 * _STRIP // 4 + 4
    spec = GridSpec(t_end=1.0, n_points=n, h=m / n)
    assert spec.delay_steps == m and m % _ORACLE_BLOCK != 0
    for nu in (0.4, 0.8):
        prob = make_problem(
            random_piecewise_linear(rng, spec), random_piecewise_linear(rng, spec, 0.1), nu, 2.0 / nu
        )
        A1, A2 = _dense_operators(prob)
        dense = _ratio_row_max(np.linalg.solve(np.eye(n + 1) - A1, A1), A1)
        got = _lemma_row_max(prob.L, prob.weights)
        assert dense[-1] > 0.0
        assert np.all(np.abs(got - dense) <= 1e-12 * dense)
        direct = np.linalg.solve(np.eye(n + 1) - A1 - A2, prob.theta.horizon_values)
        oracle = resolvent_majorant(prob).horizon_values
        assert np.all(np.abs(oracle - direct) <= 1e-12 * direct)


@pytest.mark.parametrize("n, nu", [(64, 0.4), (128, 0.6), (128, 0.8)])
def test_lemma_constant_is_tight_on_a_dense_reference(n, nu, rng):
    # K_lemma is the least K with R <= K A1 entrywise: R stays below it up to
    # the round-off of the dense solve, and some entry exceeds K (1 - 1e-9) A1
    spec = GridSpec(t_end=1.0, n_points=n, h=0.25)
    L = random_piecewise_linear(rng, spec)
    K = lemma1_constant(L, nu, 2.0 / nu)
    A1 = dense_weights(build_singular_weights(spec, nu)) * L.horizon_values[None, :]
    R = np.linalg.solve(np.eye(n + 1) - A1, A1)
    assert np.all(R <= K * (1.0 + 1e-12) * A1)
    assert np.any(R > K * (1.0 - 1e-9) * A1)


def test_lemma_row_max_peaks_below_one_dense_array():
    import tracemalloc

    from delvol.gronwall import _lemma_row_max

    spec = GridSpec(t_end=1.0, n_points=2048, h=0.25)
    t = spec.times[spec.delay_steps :]
    L = GridFunction.from_horizon_values(spec, 1.0 + 0.5 * np.sin(3.0 * t))
    W = build_singular_weights(spec, 0.6)
    dense_bytes = (spec.n_points + 1) ** 2 * np.dtype(float).itemsize  # 33.6 MB
    tracemalloc.start()
    try:
        _lemma_row_max(L, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_lemma_row_max_keeps_one_strip():
    # the running L R strip, the slab and the diagonal resolvents are about a
    # strip each; R and A1 of a strip are only b x b block temporaries
    import tracemalloc

    from delvol.gronwall import _STRIP, _lemma_row_max

    spec = GridSpec(t_end=1.0, n_points=2048, h=0.25)
    t = spec.times[spec.delay_steps :]
    L = GridFunction.from_horizon_values(spec, 1.0 + 0.5 * np.sin(3.0 * t))
    W = build_singular_weights(spec, 0.6)
    strip_bytes = (spec.n_points + 1) * _STRIP * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        _lemma_row_max(L, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * strip_bytes


def _full_horizon_steps_curve(problem, weights, K_lemma, dense=None):
    """The method-of-steps curve recomputed on the whole horizon in every window.

    With the FFT convolutions the round-off of the late, large values reaches
    the early nodes.  With dense rows (``dense``, the weight matrix) each node
    sums only its own row, so the curve is the accurate reference.
    """
    m, n = problem.spec.delay_steps, problem.spec.n_points
    L = problem.L.horizon_values
    cur = problem.theta
    for _ in range(problem.n_delay_intervals + 1):
        if dense is None:
            lag = delayed_product_convolution(problem.L, cur, weights)
        else:
            g = np.zeros(n + 1)
            g[m:] = dense[: n + 1 - m, : n + 1 - m] @ (L[m:] * cur.horizon_values[: n + 1 - m])
            lag = GridFunction.from_horizon_values(problem.spec, g)
        forcing = problem.theta + lag
        if dense is None:
            conv = singular_convolution(problem.L * forcing, weights)
        else:
            conv = GridFunction.from_horizon_values(
                problem.spec, dense @ (L * forcing.horizon_values)
            )
        cur = forcing + K_lemma * conv
    return cur


def test_steps_curve_keeps_late_round_off_out_of_early_windows(monkeypatch, rng):
    # at nu = 0.4 the curve climbs to about 1e17 by T; on the first window the
    # fold excess / gain is K_lemma exactly in exact arithmetic
    from delvol import gronwall

    spec = GridSpec(t_end=1.0, n_points=2048, h=0.25)
    t = spec.times[spec.delay_steps :]
    L = GridFunction.from_horizon_values(
        spec, np.interp(t, (0.0, 0.3, 0.7, 1.0), (1.0, 0.5, 1.5, 0.8))
    )
    prob = make_problem(L, random_piecewise_linear(rng, spec), 0.4, 5.0)
    K_lemma = gronwall._lemma_row_max(prob.L, prob.weights)[-1]
    got = certify(prob).report
    assert got.K_steps[-1] > 1e12
    assert abs(got.K_steps[0] - K_lemma) <= 1e-10 * K_lemma
    dense = dense_weights(prob.weights)
    monkeypatch.setattr(
        gronwall, "_steps_curve",
        lambda p, w, K: _full_horizon_steps_curve(p, w, K, dense),
    )
    ref = certify(prob).report
    for g, want in zip(got.K_steps, ref.K_steps):
        assert abs(g - want) <= 1e-12 * want
    assert abs(got.K - ref.K) <= 1e-12 * ref.K
    # the whole-horizon FFT curve leaks into the first window
    monkeypatch.setattr(gronwall, "_steps_curve", _full_horizon_steps_curve)
    leaky = gronwall_bound(prob, 0.0)
    assert abs(leaky.K_steps[0] - K_lemma) > 1e-3 * K_lemma


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_oracle_is_monotone_and_below_the_certified_bound(data):
    # the theorem: the equality solution for any (theta' <= theta, L' <= L)
    # satisfies the inequality for (theta, L), so it lies below the oracle,
    # which lies below the certified bound
    n = data.draw(st.sampled_from([16, 32, 64, 128]))
    nu = data.draw(st.sampled_from([0.4, 0.6, 0.8]))
    spec = GridSpec(t_end=1.0, n_points=n, h=data.draw(st.sampled_from([0.25, 0.5])))
    t = spec.times[spec.delay_steps :]

    def piecewise_linear(lo, hi):
        k = data.draw(st.integers(2, 6))
        ys = data.draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))
        return np.interp(t, np.linspace(0.0, 1.0, k), ys)

    L, theta = piecewise_linear(0.0, 1.5), piecewise_linear(0.1, 2.0)
    L_small, theta_small = L * piecewise_linear(0.0, 1.0), theta * piecewise_linear(0.0, 1.0)

    def build(L, theta):
        return make_problem(
            GridFunction.from_horizon_values(spec, L),
            GridFunction.from_horizon_values(spec, theta),
            nu,
            2.0 / nu,
        )

    prob = build(L, theta)
    oracle = resolvent_majorant(prob).values
    below = resolvent_majorant(build(L_small, theta_small)).values
    bound = certify(prob).report.bound.values
    tol = 1e-12 * (1.0 + float(np.max(oracle)))
    assert np.all(below <= oracle + tol)
    assert np.all(oracle <= bound + tol)


def test_certify_builds_weights_once(monkeypatch):
    import delvol.gronwall as gronwall

    calls = []
    real = gronwall.build_singular_weights
    monkeypatch.setattr(
        gronwall, "build_singular_weights", lambda *a: calls.append(a) or real(*a)
    )
    certify(unit_problem(n_points=64, h=0.25))
    assert len(calls) == 1


def test_bound_reports_the_K_it_used():
    # with K = 0 the bound is theta_n itself; the report must say K = 0
    prob = unit_problem(n_points=128, h=0.25, nu=0.6, q=2.0 / 0.6)
    report = gronwall_bound(prob, 0.0)
    assert report.K == 0.0
    assert np.array_equal(report.bound.values, report.theta_n.values)
    assert max(report.K_steps) > 0.0
    assert gronwall_bound(prob, 3.5).K == 3.5


def test_bound_zero_L_margins():
    prob = unit_problem(L_val=0.0)
    report = gronwall_bound(prob, 0.0)
    assert np.all(report.margin.values == 0.0)
    assert np.array_equal(report.bound.values, report.majorant.values)


def test_bound_dominates_mittag_leffler():
    prob = unit_problem(n_points=512, h=1.0, q=3.0)
    K = lemma1_constant(prob.L, prob.nu, prob.q)
    report = gronwall_bound(prob, K)
    t = prob.spec.times[prob.spec.delay_steps :]
    exact = np.array([mittag_leffler_half(math.sqrt(math.pi * tt)) for tt in t])
    assert np.all(report.bound.horizon_values >= exact - 1e-6)


def test_bound_dominates_the_exact_delayed_solution():
    # the delayed companion of the test above: with L = theta = 1 and h = 1/4
    # the bound must lie on or above x = 1 + int_0^t (x(s) + x(s - h))
    # (t-s)^(nu-1) ds at every node, all four delay windows included
    prob = unit_problem(n_points=512, h=0.25, nu=0.6, q=2.0 / 0.6)
    bound = certify(prob).report.bound.horizon_values
    t = prob.spec.times[prob.spec.delay_steps :]
    exact = np.array([delayed_linear_exact(tt, 0.6, 0.25, 1.0, 1.0) for tt in t])
    assert np.all(bound >= exact)


def test_certify_zero_L_passes_with_zero_margin():
    res = certify(unit_problem(L_val=0.0))
    assert res.passed
    assert np.all(res.report.margin.values == 0.0)


def test_certify_zero_L_builds_no_dense_array(monkeypatch):
    import delvol.gronwall as gronwall
    from delvol.quadrature import SingularWeights

    prob = unit_problem(n_points=128, L_val=0.0)
    W = prob.weights
    A1 = dense_weights(W) * prob.L.horizon_values[None, :]
    dense = gronwall._ratio_row_max(np.linalg.solve(np.eye(A1.shape[0]) - A1, A1), A1)

    def no_slab(self, *args):
        raise AssertionError("weights laid out for L = 0")

    monkeypatch.setattr(SingularWeights, "slab", no_slab)
    assert np.array_equal(gronwall._lemma_row_max(prob.L, W), dense)
    monkeypatch.undo()  # the oracle lays out its slab whatever L is
    res = certify(prob)
    assert res.passed and res.report.K == 0.0
    assert res.report.K_steps == (0.0, 0.0)
    assert np.all(res.report.margin.values == 0.0)


def test_verdict_rule_is_shared(rng):
    prob = make_problem(
        GridFunction.constant(GridSpec(1.0, 128, h=0.25), 1.0),
        random_piecewise_linear(rng, GridSpec(1.0, 128, h=0.25)),
        0.6,
        4.0,
    )
    res = certify(prob)
    passed, tol = res.report.verdict()
    assert (passed, tol) == (res.passed, res.tol)
    assert tol == 1e-8 * (1.0 + float(np.max(res.report.majorant.values)))
    assert res.report.verdict(0.0) == (float(np.min(res.report.margin.values)) >= 0.0, 0.0)
    assert certify(prob, tol=0.0).tol == 0.0


def test_certify_min_margin_is_over_positive_t():
    # on t <= 0 bound and oracle both equal theta, so the margin there is 0
    prob = unit_problem(n_points=128, h=0.25, nu=0.6, q=2.0 / 0.6)
    res = certify(prob)
    m = prob.spec.delay_steps
    assert res.passed
    assert np.all(res.report.margin.values[: m + 1] == 0.0)
    assert res.min_margin > 0.0
    assert res.min_margin == float(np.min(res.report.margin.values[m + 1 :]))


@pytest.mark.parametrize("case", range(6))
def test_certify_randomized(case):
    rng = np.random.default_rng(SEED + case)
    nu = [0.4, 0.6, 0.8][case % 3]
    h = [0.25, 0.5][case % 2]
    spec = GridSpec(t_end=1.0, n_points=256, h=h)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        nu,
        2.0 / nu,
    )
    res = certify(prob)
    assert res.passed
    assert res.min_margin >= -res.tol


def test_certify_adversarial_spike():
    spec = GridSpec(t_end=1.0, n_points=256, h=0.25)
    vals = np.zeros(spec.n_nodes)
    vals[spec.delay_steps :] = 0.05
    vals[spec.delay_steps + 37] = 50.0
    prob = make_problem(
        GridFunction.constant(spec, 1.0), GridFunction(spec, vals), 0.6, 4.0
    )
    res = certify(prob)
    assert res.passed


def test_certify_monotone_in_theta():
    # enlarging theta node-wise does not decrease the bound
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    L = GridFunction.constant(spec, 1.0)
    small = make_problem(L, GridFunction.constant(spec, 1.0), 0.5, 4.0)
    big = make_problem(L, GridFunction.constant(spec, 1.5), 0.5, 4.0)
    K = 2.0
    b_small = theta_n(small, K).values
    b_big = theta_n(big, K).values
    assert np.all(b_big >= b_small - 1e-14)


def test_majorant_monotone_in_L():
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    th = GridFunction.constant(spec, 1.0)
    M1 = resolvent_majorant(make_problem(GridFunction.constant(spec, 0.5), th, 0.5, 4.0))
    M2 = resolvent_majorant(make_problem(GridFunction.constant(spec, 1.0), th, 0.5, 4.0))
    assert np.all(M2.values >= M1.values - 1e-14)


def test_reduction_h_ge_T():
    # the delay sums are empty, so theta_n == theta and the bound is the
    # plain resolvent-constant form
    prob = unit_problem(n_points=128, h=1.0)
    tn = theta_n(prob, 5.0)
    assert np.array_equal(tn.values, prob.theta.values)
    res = certify(prob)
    assert res.passed
    W = build_singular_weights(prob.spec, prob.nu)
    direct = singular_convolution(prob.L * prob.theta, W)
    expect = prob.theta.values + res.report.K * direct.values
    assert np.allclose(res.report.bound.values, expect, rtol=1e-12)


def test_consistency_of_constants():
    prob = unit_problem(n_points=128, h=0.25, nu=0.6, q=5.0)
    res = certify(prob)
    rep = res.report
    assert rep.nu1 > prob.nu
    assert rep.n == 4
    assert rep.K >= step_constant_k1(prob.L, prob.nu, prob.q) - 1e-12
    assert rep.K == max(rep.K_steps + (rep.K,))


def test_certification_chain_white_box(rng):
    # the internal chain: oracle <= steps curve <= folded bound, node-wise
    from delvol.gronwall import _lemma_row_max, _steps_curve

    spec = GridSpec(t_end=1.0, n_points=192, h=0.25)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        0.6,
        4.0,
    )
    W = build_singular_weights(spec, prob.nu)
    curve = _steps_curve(prob, W, _lemma_row_max(prob.L, W)[-1])
    oracle = resolvent_majorant(prob)
    assert np.all(curve.values >= oracle.values - 1e-10 * (1.0 + oracle.values))
    res = certify(prob)
    assert np.all(
        res.report.bound.values >= curve.values - 1e-10 * (1.0 + curve.values)
    )


def test_certify_grid_stability(rng):
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    prob = make_problem(
        random_piecewise_linear(rng, spec),
        random_piecewise_linear(rng, spec),
        0.6,
        2.0 / 0.6,
    )
    res1 = certify(prob)
    spec2 = with_n_points(spec, 256)
    prob2 = make_problem(
        GridFunction.from_horizon_values(
            spec2,
            np.interp(
                spec2.times[spec2.delay_steps :],
                spec.times[spec.delay_steps :],
                prob.L.horizon_values,
            ),
        ),
        GridFunction.from_horizon_values(
            spec2,
            np.interp(
                spec2.times[spec2.delay_steps :],
                spec.times[spec.delay_steps :],
                prob.theta.horizon_values,
            ),
        ),
        0.6,
        2.0 / 0.6,
    )
    res2 = certify(prob2)
    assert res1.passed == res2.passed


def test_majorant_divergence_detected():
    # coarse grid with L large enough that the node self-weight exceeds 1
    spec = GridSpec(t_end=1.0, n_points=4, h=0.5)
    prob = make_problem(
        GridFunction.constant(spec, 6.0), GridFunction.constant(spec, 1.0), 0.5, 4.0
    )
    with pytest.raises(ConvergenceError) as err:
        resolvent_majorant(prob)
    assert err.value.history


def test_overflowing_steps_curve_is_named_and_reads_inf():
    # 257 one-node delay windows at nu = 0.4: the method-of-steps curve grows
    # by K_lemma (1240) a window and leaves the float range, while the oracle
    # peaks at 8.2e9.  pytest turns any escaping RuntimeWarning into an error.
    spec = GridSpec(t_end=1.0, n_points=257, h=1.0 / 257)
    rng = np.random.default_rng(35)
    L = random_piecewise_linear(rng, spec, 0.0, 1.0)
    prob = make_problem(L, random_piecewise_linear(rng, spec), 0.4, 5.0)
    with pytest.raises(ConvergenceError, match="curve overflows the float range in delay window") as err:
        certify(prob)
    assert 0 < err.value.window < 257
    K_steps = np.array(gronwall_bound(prob, 1.0).K_steps)
    assert not np.isnan(K_steps).any()
    assert np.isfinite(K_steps[: err.value.window]).all()
    assert np.all(K_steps[err.value.window :] == math.inf)


@pytest.mark.parametrize("nu", [0.0, 1.0, -0.5, math.nan])
def test_build_with_default_q_rejects_a_bad_nu(nu):
    spec = GridSpec(t_end=1.0, n_points=16, h=0.5)
    one = GridFunction.constant(spec, 1.0)
    with pytest.raises(ParameterError, match="nu must lie in"):
        GronwallProblem.build(one, one, nu)


def test_lemma1_divergence_detected():
    spec = GridSpec(t_end=1.0, n_points=4, h=0.5)
    with pytest.raises(ConvergenceError):
        lemma1_constant(GridFunction.constant(spec, 6.0), 0.5, 4.0)


def test_certify_zero_forcing():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.25)
    prob = make_problem(
        GridFunction.constant(spec, 1.0), GridFunction.constant(spec, 0.0), 0.5, 4.0
    )
    res = certify(prob)
    assert res.passed
    assert np.all(res.report.majorant.values == 0.0)
    assert np.all(res.report.bound.values == 0.0)


def test_bound_report_csv(tmp_path):
    res = certify(unit_problem(n_points=64))
    path = tmp_path / "report.csv"
    res.report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,theta,theta_n,bound,majorant,margin"
    assert len(lines) == 1 + res.report.bound.spec.n_nodes
    sidecar = (tmp_path / "report_constants.txt").read_text()
    assert "K_steps" in sidecar and "nu1" in sidecar


def test_bound_report_sidecar_stays_in_the_report_directory(tmp_path):
    # the sidecar name comes from the file name, not from a dot in a directory
    report = gronwall_bound(unit_problem(n_points=16), 1.0)
    out = tmp_path / "out" / "run.d"
    out.mkdir(parents=True)
    report.to_csv(str(out / "report"))
    assert sorted(p.name for p in out.iterdir()) == ["report", "report_constants.txt"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["run.d"]


def test_bound_report_csv_bytes_match_the_per_value_format(tmp_path):
    from dataclasses import replace

    from test_grid import SPECIAL_VALUES, per_value_rows

    report = certify(unit_problem(n_points=64)).report
    spec = report.bound.spec
    odd = np.resize(np.array(SPECIAL_VALUES), spec.n_nodes)
    odd[: spec.delay_steps] = 0.0  # the prehistory stays zero
    report = replace(report, majorant=GridFunction(spec, odd), margin=GridFunction(spec, -odd))
    path = tmp_path / "report.csv"
    report.to_csv(path)
    curves = (report.theta, report.theta_n, report.bound, report.majorant, report.margin)
    table = np.column_stack([c.values for c in curves])
    expect = "t,theta,theta_n,bound,majorant,margin\n" + per_value_rows(spec.times, table)
    assert path.read_bytes() == expect.encode()


def test_problem_holds_only_its_data_and_reads_the_grid_from_L():
    problem = unit_problem(n_points=16, h=0.25)
    assert [f.name for f in dataclasses.fields(problem)] == ["L", "theta", "nu", "q"]
    assert problem.spec is problem.L.spec and problem.h == 0.25
