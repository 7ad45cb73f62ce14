import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delvol import (
    ConvergenceError,
    EvaluationError,
    GeneratorKernel,
    GridFunction,
    GridSpec,
    HypothesisError,
    ParameterError,
    SolverConfig,
    StructuralError,
    VolterraProblem,
    apply_state_operator,
    apriori_check,
    build_singular_weights,
    certify,
    check_generator_hypotheses,
    choose_epsilon,
    contraction_window,
    delayed_product_convolution,
    difference_forcing,
    difference_problem,
    fixed_point_residual,
    lp_norm,
    mittag_leffler_half,
    picard_solve,
    singular_convolution,
    stability_check,
)
from delvol.volterra import _norm_exponent
from conftest import delayed_linear_exact, dense_weights, mittag_leffler


def linear_kernel(spec, c0=0.0, c1=0.0, c2=0.0):
    def kappa(t, s, xi, xi_h, u):
        return c0 + c1 * np.asarray(xi, dtype=float) + c2 * np.asarray(xi_h, dtype=float)

    return GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, abs(c0)),
        L=GridFunction.constant(spec, max(abs(c1), abs(c2))),
        u0=np.zeros(1),
    )


def make_problem(spec, kernel, zeta_val=1.0, nu=0.5, p=4.0, zeta=None):
    return VolterraProblem(
        zeta=zeta if zeta is not None else GridFunction.constant(spec, zeta_val),
        kernel=kernel,
        control=GridFunction.zeros(spec),
        nu=nu,
        h=spec.h,
        p=p,
        spec=spec,
    )


def abel_problem(n_points=500, T=1.0, p=4.0):
    spec = GridSpec(t_end=T, n_points=n_points, h=T)
    return make_problem(spec, linear_kernel(spec, c1=1.0), p=p)


def scanned_config(prob):
    """The epsilon of the three-case scan and its certified window."""
    eps, _, _ = choose_epsilon(prob.p, prob.nu, prob.kernel.L)
    return SolverConfig(epsilon=eps, delta=contraction_window(prob.kernel.L, prob.nu, prob.p, eps))


def delayed_problem(n_points=512):
    spec = GridSpec(t_end=1.0, n_points=n_points, h=0.5)
    return make_problem(spec, linear_kernel(spec, c2=1.0))


# -- contraction window -------------------------------------------------------


def test_contraction_window_zero_L():
    spec = GridSpec(t_end=1.0, n_points=64)
    L = GridFunction.constant(spec, 0.0)
    assert contraction_window(L, 0.5, 4.0, 0.5) == 1.0


def test_contraction_window_is_capped_at_the_grid_horizon():
    spec = GridSpec(t_end=0.5, n_points=64)
    assert contraction_window(GridFunction.constant(spec, 0.0), 0.5, 4.0, 0.5) == 0.5


def test_choose_epsilon_scans_windows_up_to_the_grid_horizon():
    # nu = 0.7, p = 3, L = 1/2: on [0, 1/2] the first candidate already reaches
    # the horizon, while windows capped at 1 would peak at the fifth
    nu, p = 0.7, 3.0
    spec = GridSpec(t_end=0.5, n_points=64)
    L = GridFunction.constant(spec, 0.5)
    eps, _, case = choose_epsilon(p, nu, L)
    eps_hi = p - 1.0  # case 2: 1 < p <= 1/(1-nu)
    assert case == 2
    candidates = [contraction_window(L, nu, p, eps_hi * k / 21.0) for k in range(1, 21)]
    assert max(candidates) == 0.5
    assert eps == eps_hi * (1 + candidates.index(max(candidates))) / 21.0
    assert contraction_window(L, nu, p, eps) == 0.5


def test_contraction_window_example():
    # nu = 1/2, p = 4, eps = 1/2, ||L|| = 1: condition 2 (4 delta^(1/4))^(2/3)
    spec = GridSpec(t_end=1.0, n_points=256)
    L = GridFunction.constant(spec, 1.0)
    delta = contraction_window(L, 0.5, 4.0, 0.5)

    def gain(d):
        return 2.0 * (4.0 * d**0.25) ** (2.0 / 3.0)

    assert gain(delta) <= 0.99 + 1e-9
    assert gain(min(1.0, delta * 1.01)) > 0.99


def test_contraction_window_shrinks_with_L():
    spec = GridSpec(t_end=1.0, n_points=256)
    d1 = contraction_window(GridFunction.constant(spec, 1.0), 0.5, 4.0, 0.5)
    d2 = contraction_window(GridFunction.constant(spec, 2.0), 0.5, 4.0, 0.5)
    assert d2 < d1


def test_contraction_window_hypothesis():
    spec = GridSpec(t_end=1.0, n_points=64)
    L = GridFunction.constant(spec, 1.0)
    with pytest.raises(HypothesisError):
        contraction_window(L, 0.3, 4.0, 3.0)  # (1+eps)(1-nu) >= 1


def test_contraction_window_rejects_nan_arguments():
    # a nan p used to return a window (0.0304 for this L)
    spec = GridSpec(t_end=1.0, n_points=64)
    L = GridFunction.constant(spec, 1.0)
    with pytest.raises(HypothesisError, match="p must be finite"):
        contraction_window(L, 0.5, math.nan, 0.1)
    for nu, eps in ((math.nan, 0.1), (0.5, math.nan)):
        with pytest.raises(HypothesisError, match="must stay below 1"):
            contraction_window(L, nu, 4.0, eps)


def _bisection_window(norm, nu, epsilon, T):
    """Reference: 200 bisection steps on the monotone gain, as the solver once did."""
    e1 = 1.0 - (1.0 + epsilon) * (1.0 - nu)

    def gain(delta):
        return 2.0 * (delta**e1 / e1) ** (1.0 / (1.0 + epsilon)) * norm

    if gain(T) <= 0.99:
        return T
    lo, hi = 0.0, T
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain(mid) <= 0.99:
            lo = mid
        else:
            hi = mid
    return lo


@given(
    nu=st.floats(0.05, 0.95),
    p=st.floats(1.0, 10.0),
    eps_frac=st.floats(0.0, 0.95),
    level=st.floats(0.0, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_contraction_window_closed_form_matches_bisection(nu, p, eps_frac, level):
    # epsilon spans the admissible range: q >= 1 needs eps <= p - 1, e1 > 0
    # needs eps < nu / (1 - nu)
    epsilon = eps_frac * min(p - 1.0, nu / (1.0 - nu))
    spec = GridSpec(t_end=1.0, n_points=64)
    L = GridFunction.constant(spec, level)
    norm = lp_norm(L, _norm_exponent(p, epsilon)[1])
    ref = _bisection_window(norm, nu, epsilon, 1.0)
    assume(ref >= 2.0**-150)  # below that the bisection itself has few bits
    delta = contraction_window(L, nu, p, epsilon)
    assert abs(delta - ref) <= 1e-12 * ref
    e1 = 1.0 - (1.0 + epsilon) * (1.0 - nu)
    gain = 2.0 * (delta**e1 / e1) ** (1.0 / (1.0 + epsilon)) * norm
    assert gain <= 0.99 * (1.0 + 1e-12)


@pytest.mark.parametrize("field", ["epsilon", "delta", "picard_tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solver_config_rejects_non_finite(field, bad):
    with pytest.raises(ParameterError):
        SolverConfig(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite_p(bad):
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    with pytest.raises(HypothesisError, match="exponent p must be finite"):
        make_problem(spec, linear_kernel(spec, c1=1.0), p=bad)


@pytest.mark.parametrize("delta", [0.0, -0.5])
def test_solver_config_rejects_non_positive_delta(delta):
    with pytest.raises(ParameterError, match="delta must be finite and > 0"):
        SolverConfig(delta=delta, force_delta=True)


def test_choose_epsilon_cases():
    spec = GridSpec(t_end=1.0, n_points=128)
    L = GridFunction.constant(spec, 1.0)
    eps, q, case = choose_epsilon(1.0, 0.5, L)
    assert case == 3 and eps == 0.0 and q == pytest.approx(1.0)
    eps, q, case = choose_epsilon(4.0, 0.5, L)  # p > 1/(1-nu) = 2
    assert case == 1 and 0.0 < eps < 1.0
    eps, q, case = choose_epsilon(1.5, 0.5, L)  # 1 < p <= 2
    assert case == 2 and 0.0 < eps < 0.5
    with pytest.raises(HypothesisError):
        choose_epsilon(0.5, 0.5, L)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_choose_epsilon_rejects_non_finite_p(bad):
    # nan used to fall through to case 2 and return (nan, nan, 2)
    spec = GridSpec(t_end=1.0, n_points=64)
    with pytest.raises(HypothesisError, match=f"p must be finite and >= 1, got {bad}"):
        choose_epsilon(bad, 0.5, GridFunction.constant(spec, 1.0))


# -- solver --------------------------------------------------------------------


def test_zero_kernel_returns_free_term():
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    zeta = GridFunction.from_callable(spec, lambda t: 1.0 + np.sin(3.0 * t))
    prob = make_problem(spec, linear_kernel(spec), zeta=zeta)
    xi = picard_solve(prob)
    assert np.allclose(xi.values, zeta.values, atol=1e-14)


def test_abel_oracle():
    prob = abel_problem(n_points=500)
    xi = picard_solve(prob)
    for t in (0.25, 0.5, 1.0):
        exact = mittag_leffler_half(math.sqrt(math.pi * t))
        assert xi.at_time(t) == pytest.approx(exact, rel=1e-3)


def test_delayed_closed_form():
    prob = delayed_problem(n_points=512)
    xi = picard_solve(prob)
    assert xi.at_time(1.0) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-6)
    # flat on [0, h]
    i_h = prob.spec.index_at(0.5)
    seg = xi.values[prob.spec.delay_steps : i_h + 1]
    assert np.max(np.abs(seg - 1.0)) == 0.0


def test_delayed_linear_kernel_converges_to_the_exact_solution():
    # kappa = xi + xi_h / 2 at nu = h = 1/2 past t = h, against the delayed
    # Laplace-transform sum; relative errors 1.53e-5 and 5.64e-6 (order 1.44)
    # were measured at n = 2048 and 4096
    exact = delayed_linear_exact(1.0, 0.5, 0.5, 1.0, 0.5)
    errors = []
    for n in (2048, 4096):
        spec = GridSpec(t_end=1.0, n_points=n, h=0.5)
        xi = picard_solve(make_problem(spec, linear_kernel(spec, c1=1.0, c2=0.5)))
        errors.append(abs(xi.at_time(1.0) - exact) / exact)
    assert math.log2(errors[0] / errors[1]) >= 1.4
    assert errors[1] <= 1.1 * 5.64e-6


def test_abel_convergence_order():
    # error at T = 1 against E_{1/2}(sqrt(pi)) falls like n^-1.4 on this scheme
    exact = mittag_leffler_half(math.sqrt(math.pi))
    errors = [
        abs(picard_solve(abel_problem(n_points=n)).at_time(1.0) - exact)
        for n in (500, 1000, 2000, 4000)
    ]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.3, orders


@pytest.mark.parametrize("nu, min_order, max_err", [(0.3, 1.2, 4e-5), (0.7, 1.5, 7e-7)])
def test_linear_kernel_converges_to_mittag_leffler(nu, min_order, max_err):
    # kappa = lam xi and zeta = 1 give xi(t) = E_nu(lam Gamma(nu) t^nu); with
    # lam = 1/Gamma(nu), xi(1) = E_nu(1).  The relative error at T = 1 falls
    # like n^-(1 + nu) (orders 1.28-1.29 and 1.58-1.63 measured at these n)
    exact = mittag_leffler(nu, 1.0, 1.0)
    errors = []
    for n in (250, 500, 1000, 2000):
        spec = GridSpec(t_end=1.0, n_points=n, h=1.0)
        prob = make_problem(spec, linear_kernel(spec, c1=1.0 / math.gamma(nu)), nu=nu)
        errors.append(abs(picard_solve(prob).at_time(1.0) - exact) / exact)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= min_order, orders
    assert errors[-1] <= max_err, errors


def test_delayed_convergence_order():
    # kappa = xi_h, h = 1/4: xi(1) = sum_k pi^(k/2) (1 - k/4)^(k/2) / Gamma(k/2 + 1)
    exact = sum(
        math.pi ** (k / 2) * (1.0 - k / 4) ** (k / 2) / math.gamma(k / 2 + 1)
        for k in range(4)
    )
    errors = []
    for n in (240, 480, 960, 1920):
        spec = GridSpec(t_end=1.0, n_points=n, h=0.25)
        xi = picard_solve(make_problem(spec, linear_kernel(spec, c2=1.0)))
        errors.append(abs(xi.at_time(1.0) - exact))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.4, orders


def test_problem_builds_weights_once(monkeypatch):
    import delvol.volterra as volterra

    calls = []
    real = volterra.build_singular_weights
    monkeypatch.setattr(
        volterra, "build_singular_weights", lambda *a: calls.append(a) or real(*a)
    )
    prob = delayed_problem(n_points=64)
    xi = picard_solve(prob)
    fixed_point_residual(prob, xi)
    apriori_check(prob, xi, K=1.0)
    assert len(calls) == 1
    assert prob.weights is prob.weights


def test_zero_delay_doubles_linear_gain():
    # h = 0 makes xi_h == xi, so kappa = xi + xi_h solves the 2x Abel equation
    spec = GridSpec(t_end=1.0, n_points=1000, h=0.0)
    prob = make_problem(spec, linear_kernel(spec, c1=1.0, c2=1.0))
    xi = picard_solve(prob)
    exact = mittag_leffler_half(2.0 * math.sqrt(math.pi * 0.5))
    assert xi.at_time(0.5) == pytest.approx(exact, rel=1e-3)


def _wavy(spec, offset):
    """Positive state with z(0) = offset + 1 != 0, so the delayed trace jumps."""
    return GridFunction.from_callable(
        spec, lambda t: offset + np.cos(3.0 * t) + 0.5 * t**2
    )


def test_state_operator_matches_fft_convolutions():
    # n = 384 sends the convolutions down the FFT path, which splits the s = h
    # cell by shifting the horizon rather than by a row correction
    a, b = 0.7, 1.3
    spec = GridSpec(t_end=1.0, n_points=384, h=0.25)
    zeta = GridFunction.from_callable(spec, lambda t: 1.0 + t)
    prob = make_problem(spec, linear_kernel(spec, c1=a, c2=b), zeta=zeta)
    z = _wavy(spec, 1.0)
    W = build_singular_weights(spec, prob.nu)
    expect = (
        zeta
        + a * singular_convolution(z, W)
        + b * delayed_product_convolution(GridFunction.constant(spec, 1.0), z, W)
    )
    got = apply_state_operator(prob, z)
    np.testing.assert_allclose(got.values, expect.values, rtol=1e-12, atol=0.0)


def test_difference_forcing_matches_fft_convolution():
    c = 0.8
    spec = GridSpec(t_end=1.0, n_points=384, h=0.25)
    kernel = linear_kernel(spec, c2=c)
    p1 = make_problem(spec, kernel, zeta=_wavy(spec, 1.0))
    p2 = make_problem(spec, kernel, zeta=_wavy(spec, 0.5))
    x1 = _wavy(spec, 2.0)
    x2 = GridFunction.from_callable(spec, lambda t: np.sin(5.0 * t))
    W = build_singular_weights(spec, p1.nu)
    expect = (p1.zeta - p2.zeta).magnitude() + c * delayed_product_convolution(
        GridFunction.constant(spec, 1.0), (x1 - x2).magnitude(), W
    )
    got = difference_forcing(p1, p2, x1, x2)
    np.testing.assert_allclose(got.values, expect.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_problem_rejects_non_finite(bad):
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    kernel = linear_kernel(spec, c1=1.0)
    with pytest.raises(ParameterError):
        make_problem(spec, kernel, zeta_val=bad)
    for field in ("L0", "L"):
        envelopes = {"L0": kernel.L0, "L": kernel.L}
        envelopes[field] = GridFunction.constant(spec, bad)
        with pytest.raises(ParameterError):
            GeneratorKernel(kappa=kernel.kappa, u0=np.zeros(1), **envelopes)


def test_fixed_point_residual_small():
    prob = abel_problem(n_points=300)
    cfg = scanned_config(prob)
    xi = picard_solve(prob, cfg)
    res = fixed_point_residual(prob, xi)
    scale = 1.0 + float(np.max(np.abs(xi.values)))
    assert res <= 10.0 * cfg.picard_tol * scale


def test_delayed_fixed_point_residual_small():
    # many windows and a jumping lag: every sweep must see the lag of the
    # current iterate, which the residual recomputes from scratch
    spec = GridSpec(t_end=1.0, n_points=256, h=0.25)
    zeta = GridFunction.from_callable(spec, lambda t: 1.0 + np.sin(4.0 * t))
    prob = make_problem(spec, linear_kernel(spec, c1=0.5, c2=1.0), zeta=zeta)
    cfg = scanned_config(prob)
    xi = picard_solve(prob, cfg)
    res = fixed_point_residual(prob, xi)
    scale = 1.0 + float(np.max(np.abs(xi.values)))
    assert res <= 10.0 * cfg.picard_tol * scale


def test_window_independence():
    prob = abel_problem(n_points=256)
    cfg = scanned_config(prob)
    xi1 = picard_solve(prob, cfg)
    half = SolverConfig(
        epsilon=cfg.epsilon, delta=cfg.delta / 2.0, picard_tol=cfg.picard_tol
    )
    xi2 = picard_solve(prob, half)
    tol = 10.0 * cfg.picard_tol * (1.0 + float(np.max(np.abs(xi1.values))))
    assert np.max(np.abs(xi1.values - xi2.values)) <= tol


def test_delta_override_guard():
    prob = abel_problem(n_points=128)
    cfg = scanned_config(prob)
    with pytest.raises(ParameterError):
        picard_solve(prob, SolverConfig(epsilon=cfg.epsilon, delta=1.0))
    xi = picard_solve(
        prob, SolverConfig(epsilon=cfg.epsilon, delta=1.0, force_delta=True)
    )
    assert np.isfinite(xi.values).all()


def test_method_of_steps_prefix_independence():
    # on [0, h] the delayed argument reads prehistory only, so the delayed
    # coefficient cannot influence that prefix
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    p1 = make_problem(spec, linear_kernel(spec, c1=0.5, c2=3.0))
    p2 = make_problem(spec, linear_kernel(spec, c1=0.5, c2=0.0))
    xi1, xi2 = picard_solve(p1), picard_solve(p2)
    i_h = spec.index_at(0.5)
    assert np.allclose(xi1.values[: i_h + 1], xi2.values[: i_h + 1], atol=1e-11)


def test_monotone_picard_iterates():
    # nonnegative monotone kernel: operator iterates from zeta never decrease
    prob = delayed_problem(n_points=128)
    cur = prob.zeta
    for _ in range(4):
        nxt = apply_state_operator(prob, cur)
        assert np.all(nxt.values >= cur.values - 1e-14)
        cur = nxt


def test_vector_state():
    spec = GridSpec(t_end=1.0, n_points=128, h=1.0)

    def kappa(t, s, xi, xi_h, u):
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        out[:, 0] = xi[:, 0]
        out[:, 1] = 0.5 * xi[:, 1]
        return out

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
        dim_state=2,
    )
    zeta = GridFunction(spec, np.column_stack([
        GridFunction.constant(spec, 1.0).values,
        GridFunction.constant(spec, 1.0).values,
    ]))
    prob = VolterraProblem(
        zeta=zeta, kernel=kernel, control=GridFunction.zeros(spec),
        nu=0.5, h=1.0, p=4.0, spec=spec,
    )
    xi = picard_solve(prob)
    # first component is the unit Abel solution; second solves the half-rate one
    exact1 = mittag_leffler_half(math.sqrt(math.pi))
    exact2 = mittag_leffler_half(0.5 * math.sqrt(math.pi))
    assert xi.at_time(1.0)[0] == pytest.approx(exact1, rel=1e-3)
    assert xi.at_time(1.0)[1] == pytest.approx(exact2, rel=1e-3)


def test_evaluation_error():
    spec = GridSpec(t_end=1.0, n_points=64)

    def kappa(t, s, xi, xi_h, u):
        return np.where(np.asarray(s) > 0.5, np.nan, 1.0)

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 1.0),
        L=GridFunction.constant(spec, 0.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    with pytest.raises(EvaluationError):
        picard_solve(prob)


def test_nonconvergence_error():
    # huge gain on a coarse grid: the grid fixed point has a diagonal gain > 1
    spec = GridSpec(t_end=1.0, n_points=4)
    prob = make_problem(spec, linear_kernel(spec, c1=50.0), p=1.0)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(
            prob,
            SolverConfig(epsilon=0.0, delta=1.0, force_delta=True, max_iter=40),
        )
    assert err.value.history


# -- well-posedness checks -----------------------------------------------------


def test_apriori_zero_kernel():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    prob = make_problem(spec, linear_kernel(spec))
    xi = picard_solve(prob)
    record = apriori_check(prob, xi, K=0.0)
    assert record.passed
    assert record.lhs == pytest.approx(record.rhs, rel=1e-12)


def test_apriori_module_derived():
    prob = abel_problem(n_points=400)
    xi = picard_solve(prob)
    record = apriori_check(prob, xi)
    assert record.passed
    assert record.constants["K"] > 0.0


def test_apriori_control_sweep():
    # control-independent kernel: moving the control inflates rhs only
    spec = GridSpec(t_end=1.0, n_points=200, h=1.0)
    kernel = linear_kernel(spec, c1=1.0)
    margins = []
    for shift in (0.0, 1.0, 3.0):
        prob = VolterraProblem(
            zeta=GridFunction.constant(spec, 1.0),
            kernel=kernel,
            control=GridFunction.constant(spec, shift),
            nu=0.5,
            h=1.0,
            p=4.0,
            spec=spec,
        )
        xi = picard_solve(prob)
        record = apriori_check(prob, xi, K=50.0)
        assert record.passed
        margins.append(record.rhs - record.lhs)
    assert margins[0] < margins[1] < margins[2]


def test_stability_same_problem():
    prob = delayed_problem(n_points=128)
    xi = picard_solve(prob)
    record = stability_check(prob, prob, xi, xi, K=1.0)
    assert record.passed
    assert record.lhs == 0.0
    assert record.rhs == 0.0


def test_stability_free_term_shift():
    # kappa == 0: solutions equal free terms, lhs = ||zeta1 - zeta2||_p
    spec = GridSpec(t_end=1.0, n_points=128, h=0.5)
    kernel = linear_kernel(spec)
    p1 = make_problem(spec, kernel, zeta_val=1.0)
    p2 = make_problem(spec, kernel, zeta_val=1.1)
    xi1, xi2 = picard_solve(p1), picard_solve(p2)
    record = stability_check(p1, p2, xi1, xi2, K=1.0)
    assert record.passed
    expect = lp_norm(p1.zeta - p2.zeta, p1.p, window=(spec.t_start, spec.t_end))
    assert record.lhs == pytest.approx(expect, rel=1e-12)
    assert record.rhs == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(0.1, rel=2.0 / spec.n_points)


def test_stability_module_derived_and_link():
    spec = GridSpec(t_end=1.0, n_points=256, h=0.5)
    kernel = linear_kernel(spec, c1=1.0, c2=0.5)
    p1 = make_problem(spec, kernel, zeta_val=1.0)
    p2 = make_problem(spec, kernel, zeta_val=1.25)
    xi1, xi2 = picard_solve(p1), picard_solve(p2)
    record = stability_check(p1, p2, xi1, xi2)
    assert record.passed
    # the difference inequality feeds the comparison certification
    dprob = difference_problem(p1, p2, xi1, xi2)
    res = certify(dprob)
    assert res.passed
    # and |xi1 - xi2| is node-wise below the certified majorant
    diff = (xi1 - xi2).magnitude()
    assert np.all(diff.values <= res.report.majorant.values + 1e-9)


def test_stability_perturbed_control():
    # control enters the generator: kappa = xi + u
    spec = GridSpec(t_end=1.0, n_points=256, h=0.5)

    def kappa(t, s, xi, xi_h, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            u = u[:, 0]
        return np.asarray(xi, dtype=float) + u

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )

    def build(control_val):
        return VolterraProblem(
            zeta=GridFunction.constant(spec, 1.0),
            kernel=kernel,
            control=GridFunction.constant(spec, control_val),
            nu=0.5,
            h=0.5,
            p=4.0,
            spec=spec,
        )

    p1, p2 = build(0.0), build(0.3)
    xi1, xi2 = picard_solve(p1), picard_solve(p2)
    assert np.max(np.abs(xi1.values - xi2.values)) > 0.01  # controls matter
    record = stability_check(p1, p2, xi1, xi2)
    assert record.passed
    dprob = difference_problem(p1, p2, xi1, xi2)
    assert certify(dprob).passed


def test_stability_controls_that_differ_late_only():
    # the problems agree on [0, 1/2], so the kappa-difference curve is exactly
    # 0 there and the certified forcing it feeds stays non-negative
    spec = GridSpec(t_end=1.0, n_points=512, h=0.5)

    def kappa(t, s, xi, xi_h, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            u = u[:, 0]
        return np.asarray(xi, dtype=float) + u

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )

    def build(late):
        control = GridFunction.from_callable(spec, lambda t: np.where(t > 0.5, late, 0.0))
        return VolterraProblem(
            zeta=GridFunction.constant(spec, 1.0),
            kernel=kernel,
            control=control,
            nu=0.5,
            h=0.5,
            p=4.0,
            spec=spec,
        )

    p1, p2 = build(0.0), build(3.0)
    xi1, xi2 = picard_solve(p1), picard_solve(p2)
    curve = difference_forcing(p1, p2, xi1, xi2).horizon_values
    early = spec.times[spec.delay_steps :] <= 0.5
    assert np.all(curve[early] == 0.0)
    assert np.all(curve >= 0.0) and curve.max() > 10.0
    record = stability_check(p1, p2, xi1, xi2)
    assert record.passed


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_increment_of_finite_iterates_is_not_an_evaluation_error():
    # sweep 1 gives xi = c t^nu / nu > 0 and sweep 2 flips its sign: every
    # iterate is finite, but the increment overflows to inf
    spec = GridSpec(t_end=1.0, n_points=64)
    c = 0.48e308

    def kappa(t, s, xi, xi_h, u):
        return np.where(np.asarray(xi) > 0.0, -c, c)

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, c),
        L=GridFunction.constant(spec, 0.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel, zeta_val=0.0)
    config = SolverConfig(delta=1.0, force_delta=True, max_iter=4)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(prob, config)
    assert math.isfinite(err.value.history[0])
    assert err.value.history[1:] == [math.inf] * 3


def test_evaluation_error_carries_location():
    spec = GridSpec(t_end=1.0, n_points=64)

    def kappa(t, s, xi, xi_h, u):
        return np.where(np.asarray(s) > 0.5, np.nan, 1.0)

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 1.0),
        L=GridFunction.constant(spec, 0.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    with pytest.raises(EvaluationError) as err:
        picard_solve(prob)
    assert err.value.t is not None
    assert err.value.s is not None and err.value.s > 0.5


@pytest.mark.parametrize("row_axis", [False, True], ids=["s-shaped", "row-axis"])
def test_evaluation_error_names_the_nan_node_inside_a_window(row_axis):
    # windows of 16 nodes: s_40 is inside the third (rows 33..48), and the
    # nan there makes rows 40.. non-finite, not the whole window
    spec = GridSpec(t_end=1.0, n_points=64)
    s_j = float(spec.times[spec.delay_steps + 40])

    def kappa(t, s, xi, xi_h, u):
        xi = np.asarray(xi, dtype=float)
        return np.where(s == s_j, np.nan, (1.0 + t) * xi if row_axis else xi)

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 2.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    with pytest.raises(EvaluationError) as err:
        picard_solve(prob, SolverConfig(delta=16 * spec.dt, force_delta=True))
    assert (err.value.t, err.value.s) == (s_j, s_j)


def test_stability_structure_mismatch():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    k1 = linear_kernel(spec, c1=1.0)
    k2 = linear_kernel(spec, c1=1.0)
    p1 = make_problem(spec, k1)
    p2 = make_problem(spec, k2)  # distinct kernel object
    xi = picard_solve(p1)
    with pytest.raises(StructuralError):
        stability_check(p1, p2, xi, xi)


def test_vector_control_distance():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    kernel = GeneratorKernel(
        kappa=lambda t, s, xi, xi_h, u: np.asarray(xi, dtype=float),
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.array([1.0, 0.0]),
        dim_control=2,
    )
    control_vals = np.zeros((spec.n_nodes, 2))
    control_vals[spec.delay_steps :, 0] = 1.0 + 3.0
    control_vals[spec.delay_steps :, 1] = 4.0
    prob = VolterraProblem(
        zeta=GridFunction.constant(spec, 1.0),
        kernel=kernel,
        control=GridFunction(spec, control_vals),
        nu=0.5,
        h=0.5,
        p=2.0,
        spec=spec,
    )
    dist = prob.control_distance()
    assert dist.at_time(1.0) == pytest.approx(5.0)  # 3-4-5 triangle
    assert np.all(dist.values[: spec.delay_steps] == 0.0)


def test_generator_spot_check():
    spec = GridSpec(t_end=1.0, n_points=64, h=0.5)
    prob = make_problem(spec, linear_kernel(spec, c0=0.5, c1=1.0, c2=0.25))
    report = check_generator_hypotheses(prob, samples=200, rng=1)
    assert report["growth_slack"] >= -1e-12
    assert report["lipschitz_slack"] >= -1e-12
    assert report["combined_slack"] >= -1e-12
    assert report["t_continuity_ratio"] <= 1e-12  # t-independent kernel


# -- block kernel evaluation ----------------------------------------------------


def per_row_operator(prob, z):
    """zeta + integral(kappa(., z, z(.-h), u)) one row at a time, with scalar t.

    The reference for the blocked sums: row i of the dense weights against
    kappa(t_i, ...), plus the s = h split-cell correction when the lag jumps.
    """
    spec, W = prob.spec, prob.weights
    m, n = spec.delay_steps, spec.n_points
    t = spec.times[m:]
    zv = z.horizon_values
    zh = np.zeros_like(zv)
    zh[m:] = zv[: n + 1 - m]
    u = prob.control.horizon_values
    kappa = prob.kernel.kappa
    dense = dense_weights(W)
    out = prob.zeta.horizon_values.astype(float)
    for i in range(1, n + 1):
        vals = np.asarray(kappa(t[i], t[: i + 1], zv[: i + 1], zh[: i + 1], u[: i + 1]))
        vals = np.broadcast_to(vals, zv[: i + 1].shape)  # a scalar answer serves every s
        acc = dense[i, : i + 1] @ vals
        if 0 < m <= i and np.any(zv[0] != 0.0):
            js = slice(m, m + 1)
            left = kappa(t[i], t[js], zv[js], 0.0 * zh[js], u[js])
            left = np.broadcast_to(left, zv[js].shape)[0]
            acc = acc + W.w_right[i - m + 1] * (left - vals[m])
        out[i] += acc
    return out


def _example414_problem():
    from delvol.cases import ExampleParams, example_problem

    spec = GridSpec(t_end=0.9, n_points=90, h=0.3)  # no node at the singular s = 1
    return example_problem(ExampleParams(2 / 3, 1 / 2, 1 / 2, 1, 1 / 2), spec)


def _t_dependent_vector_problem():
    spec = GridSpec(t_end=1.0, n_points=96, h=0.25)

    def kappa(t, s, xi, xi_h, u):
        xi, xi_h = np.asarray(xi, dtype=float), np.asarray(xi_h, dtype=float)
        return (1.0 + t) * xi * np.array([1.0, 0.5]) + np.cos(t - s[:, None]) * xi_h[:, ::-1]

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 2.0),
        u0=np.zeros(1),
        dim_state=2,
    )
    zeta = GridFunction(spec, np.column_stack([_wavy(spec, 1.0).values, _wavy(spec, -0.5).values]))
    return VolterraProblem(
        zeta=zeta, kernel=kernel, control=GridFunction.zeros(spec),
        nu=0.4, h=0.25, p=4.0, spec=spec,
    )


@pytest.mark.parametrize("budget", [None, 97])
@pytest.mark.parametrize("build", [_example414_problem, _t_dependent_vector_problem])
def test_blocked_operator_matches_per_row_reference(monkeypatch, build, budget):
    # t-dependent kernels take the row-axis path; a small pair budget cuts the
    # triangle into many row blocks, some of them straddling the split node
    import delvol.volterra as volterra

    if budget is not None:
        monkeypatch.setattr(volterra, "_PAIR_BUDGET", budget)
    prob = build()
    z = prob.zeta  # z(0) != 0, so the lag jumps at s = h
    got = apply_state_operator(prob, z).horizon_values
    expect = per_row_operator(prob, z)
    assert np.max(np.abs(got - expect)) <= 1e-13 * (1.0 + np.max(np.abs(expect)))


def test_kernel_undefined_above_the_diagonal_solves():
    # kappa = sqrt(t - s) xi_h is nan only at s > t, which carries no weight
    spec = GridSpec(t_end=1.0, n_points=256, h=0.25)

    def kappa(t, s, xi, xi_h, u):
        with np.errstate(invalid="ignore"):
            return np.sqrt(t - s) * np.asarray(xi_h, dtype=float)

    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    cfg = scanned_config(prob)
    xi = picard_solve(prob, cfg)
    assert np.all(np.isfinite(xi.values))
    res = fixed_point_residual(prob, xi)
    assert res <= 10.0 * cfg.picard_tol * (1.0 + float(np.max(np.abs(xi.values))))
    expect = per_row_operator(prob, xi)
    assert np.max(np.abs(apply_state_operator(prob, xi).horizon_values - expect)) <= 1e-13 * (
        1.0 + np.max(np.abs(expect))
    )


def test_picard_calls_kappa_per_block_not_per_row(monkeypatch):
    # one call per window history, one per sweep, and at most one more for
    # the split's left limit in a block that holds s = h
    import delvol.volterra as volterra

    calls = []
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    base = linear_kernel(spec, c1=0.5, c2=1.0)
    kernel = GeneratorKernel(
        kappa=lambda *args: calls.append(1) or base.kappa(*args),
        L0=base.L0,
        L=base.L,
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    starts = []
    real_store = volterra._RowEngine.store
    monkeypatch.setattr(
        volterra._RowEngine, "store",
        lambda self, start, seg: starts.append(start) or real_store(self, start, seg),
    )
    picard_solve(prob, SolverConfig(delta=16 * spec.dt, force_delta=True))
    sweeps = starts[1:]  # the first store is the initial load
    windows = len(set(sweeps))
    assert windows == 8
    assert len(calls) <= 2 * (windows + len(sweeps))
    assert len(calls) * 8 < len(sweeps) * 16  # a per-row loop makes 16 per sweep


@pytest.mark.parametrize(
    "answer",
    [lambda s: np.ones(len(s) + 1), lambda s: np.ones((len(s), 2)), lambda s: np.ones((2, 3, 4))],
)
def test_wrongly_shaped_kernel_answer_is_structural_error(answer):
    spec = GridSpec(t_end=1.0, n_points=32, h=0.25)
    kernel = GeneratorKernel(
        kappa=lambda t, s, xi, xi_h, u: answer(s),
        L0=GridFunction.constant(spec, 1.0),
        L=GridFunction.constant(spec, 0.0),
        u0=np.zeros(1),
    )
    prob = make_problem(spec, kernel)
    with pytest.raises(StructuralError):
        picard_solve(prob)
    with pytest.raises(StructuralError):
        apply_state_operator(prob, prob.zeta)


def test_scalar_and_row_column_answers_broadcast():
    # a constant answer and one that depends on t alone (shape (R, 1)) both
    # integrate to c t^nu / nu on the horizon
    spec = GridSpec(t_end=1.0, n_points=64, h=0.25)
    t = spec.times[spec.delay_steps :]
    for kappa in (lambda t, s, xi, xi_h, u: 2.0, lambda t, s, xi, xi_h, u: 2.0 + 0.0 * t):
        kernel = GeneratorKernel(
            kappa=kappa,
            L0=GridFunction.constant(spec, 2.0),
            L=GridFunction.constant(spec, 0.0),
            u0=np.zeros(1),
        )
        prob = make_problem(spec, kernel, zeta_val=0.0)
        got = apply_state_operator(prob, prob.zeta).horizon_values
        np.testing.assert_allclose(got, 2.0 * t**0.5 / 0.5, rtol=1e-12, atol=1e-15)


# -- t-free kernels: one evaluation, Toeplitz sums -------------------------------


def _t_free_problem(kappa, dim=1, n_points=384, h=0.25):
    """A problem whose kernel ignores t, with z(0) != 0 so that the lag jumps."""
    spec = GridSpec(t_end=1.0, n_points=n_points, h=h)
    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 2.0),
        L=GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
        dim_state=dim,
    )
    cols = [_wavy(spec, 1.0).values, _wavy(spec, -0.5).values][:dim]
    zeta = GridFunction(spec, cols[0] if dim == 1 else np.column_stack(cols))
    return VolterraProblem(
        zeta=zeta, kernel=kernel, control=GridFunction.zeros(spec),
        nu=0.4, h=h, p=4.0, spec=spec,
    )


def _sine_lag(t, s, xi, xi_h, u):
    return np.sin(np.asarray(xi, dtype=float)) + 0.5 * np.asarray(xi_h, dtype=float)


def _vector_lag(t, s, xi, xi_h, u):
    xi, xi_h = np.asarray(xi, dtype=float), np.asarray(xi_h, dtype=float)
    return xi * np.array([1.0, 0.5]) + np.cos(s)[:, None] * xi_h[:, ::-1]


def _constant_answer(t, s, xi, xi_h, u):
    return 2.0


_NAN_NODE = 200


def _nan_at_one_node(t, s, xi, xi_h, u):
    out = np.asarray(xi, dtype=float) + np.asarray(xi_h, dtype=float)
    return np.where(np.isclose(s, _NAN_NODE / 384.0, rtol=0.0, atol=1e-12), np.nan, out)


@pytest.mark.parametrize(
    "kappa, dim, budget, fft",
    [
        (_sine_lag, 1, None, True),
        (_vector_lag, 2, None, True),
        (_constant_answer, 1, None, True),
        (_sine_lag, 1, 97, True),
        (_nan_at_one_node, 1, None, False),  # a non-finite answer takes the masked path
    ],
    ids=["scalar-jump", "vector", "constant", "small-budget", "nan-node"],
)
def test_full_horizon_sum_by_fft_matches_per_row_reference(monkeypatch, kappa, dim, budget, fft):
    import delvol.volterra as volterra
    from delvol.quadrature import SingularWeights

    if budget is not None:
        monkeypatch.setattr(volterra, "_PAIR_BUDGET", budget)
    calls = []
    real = SingularWeights.apply_horizon
    monkeypatch.setattr(
        SingularWeights, "apply_horizon", lambda self, f: calls.append(1) or real(self, f)
    )
    prob = _t_free_problem(kappa, dim)
    z = prob.zeta
    got = apply_state_operator(prob, z).horizon_values
    expect = per_row_operator(prob, z)
    assert bool(calls) == fft
    if kappa is _nan_at_one_node:
        # the nan at s_j poisons exactly the rows i >= j
        bad = ~np.isfinite(got)
        assert not bad[:_NAN_NODE].any() and bad[_NAN_NODE:].all()
        assert np.array_equal(bad, ~np.isfinite(expect))
        got, expect = got[:_NAN_NODE], expect[:_NAN_NODE]
    err = np.abs(got - expect)
    assert np.all(err <= 1e-13 * (1.0 + np.max(np.abs(expect))))


def test_t_free_history_is_one_kernel_call_per_sum(monkeypatch):
    # a frozen history far into the horizon would span many row blocks; the
    # s-shaped answer of one call at the last row serves them all
    import delvol.volterra as volterra

    monkeypatch.setattr(volterra, "_PAIR_BUDGET", 1000)
    calls = []
    prob = _t_free_problem(lambda *args: calls.append(1) or _sine_lag(*args))
    engine = volterra._RowEngine(prob).load(prob.zeta.horizon_values)
    assert engine.jumps and engine.t_free and len(calls) == 1  # the load's one call
    calls.clear()
    lo, hi = 300, 360  # 301 columns: 3 rows per block at this budget
    got = volterra._block_sum(engine, lo + 1, hi, lo)
    assert len(calls) == 2  # the answer plus the left limit at s = h
    dense = dense_weights(prob.weights)
    W, m = prob.weights, prob.spec.delay_steps
    vals = _sine_lag(None, engine.t, engine.z, engine.state[: len(engine.z)], None)
    left = _sine_lag(None, engine.t[m], engine.z[m], 0.0, None)
    expect = dense[lo + 1 : hi + 1, : lo + 1] @ vals[: lo + 1]
    expect += W.w_right[lo + 1 - m + 1 : hi - m + 2] * (left - vals[m])
    assert np.max(np.abs(got - expect)) <= 1e-13 * (1.0 + np.max(np.abs(expect)))
    calls.clear()
    apply_state_operator(prob, prob.zeta)
    assert len(calls) == 3  # the load, the last row and the left limit at s = h


def _t_dependent_scalar_problem(calls):
    """A kernel that reads t and records the (t, s) of every call in calls."""

    def kappa(t, s, xi, xi_h, u):
        calls.append((np.ravel(t).copy(), np.array(s)))
        xi, xi_h = np.asarray(xi, dtype=float), np.asarray(xi_h, dtype=float)
        return np.cos(t - s) * xi_h + (1.0 + t) * xi

    spec = GridSpec(t_end=1.0, n_points=32, h=0.25)
    kernel = GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, 0.0),
        L=GridFunction.constant(spec, 2.0),
        u0=np.zeros(1),
    )
    return make_problem(spec, kernel, zeta=_wavy(spec, 1.0))  # z(0) != 0: the lag jumps


def test_t_dependent_full_prefix_calls_once_per_row_block(monkeypatch):
    # after the load's call at (t_1, s_0) the row-axis sum makes one call per
    # row block, and each block that holds node m adds one left-limit call for
    # the s = h split; no call probes the last row first
    import delvol.volterra as volterra

    monkeypatch.setattr(volterra, "_PAIR_BUDGET", 97)
    calls = []
    prob = _t_dependent_scalar_problem(calls)
    spec = prob.spec
    got = apply_state_operator(prob, prob.zeta).horizon_values
    m, t = spec.delay_steps, spec.times[spec.delay_steps :]
    expect = [(t[1:2], t[:1])]  # the load
    for r0 in range(1, 33, 2):  # 97 // 33 = 2 rows per block
        expect.append((t[r0 : r0 + 2], t[: r0 + 2]))
        if r0 + 1 >= m:
            expect.append((t[max(r0, m) : r0 + 2], t[m : m + 1]))
    assert len(expect) == 1 + 16 + 13
    assert len(calls) == len(expect)
    for (ct, cs), (et, es) in zip(calls, expect):
        assert np.array_equal(ct, et) and np.array_equal(cs, es)
    ref = per_row_operator(prob, prob.zeta)
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


def test_t_dependent_picard_makes_only_load_history_sweep_and_split_calls(monkeypatch):
    # windows of 5 nodes; each history is one row block at the default budget,
    # and no window probes its history before summing it
    import delvol.volterra as volterra

    calls, starts = [], []
    prob = _t_dependent_scalar_problem(calls)
    real_store = volterra._RowEngine.store
    monkeypatch.setattr(
        volterra._RowEngine, "store",
        lambda self, start, seg: starts.append(start) or real_store(self, start, seg),
    )
    spec, step = prob.spec, 5
    picard_solve(prob, SolverConfig(delta=step * spec.dt, force_delta=True))
    n, m, t = spec.n_points, spec.delay_steps, spec.times[spec.delay_steps :]
    expect = [(t[1:2], t[:1])]  # the load
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = t[lo + 1 : hi + 1]
        expect.append((rows, t[: lo + 1]))  # the history
        if m <= lo:
            expect.append((rows, t[m : m + 1]))  # its split
        for _ in range(starts[1:].count(lo + 1)):  # the first store is the load's
            expect.append((rows, rows))  # a sweep
            if lo < m <= hi:
                expect.append((t[m : hi + 1], t[m : m + 1]))  # its split
    assert len(calls) == len(expect)
    for (ct, cs), (et, es) in zip(calls, expect):
        assert np.array_equal(ct, et) and np.array_equal(cs, es)


def test_kernel_that_gains_a_row_axis_is_structural_error():
    # the load's s-shaped answer says kappa ignores t; a later answer with a
    # row axis breaks that and is refused, not summed down another path
    spec = GridSpec(t_end=1.0, n_points=32, h=0.25)

    def build():
        calls = []

        def kappa(t, s, xi, xi_h, u):
            calls.append(1)
            out = np.asarray(xi, dtype=float) + 0.5 * np.asarray(xi_h, dtype=float)
            return out if len(calls) == 1 else out + 0.0 * t

        kernel = GeneratorKernel(
            kappa=kappa,
            L0=GridFunction.constant(spec, 0.0),
            L=GridFunction.constant(spec, 1.0),
            u0=np.zeros(1),
        )
        return make_problem(spec, kernel)

    prob = build()
    with pytest.raises(StructuralError, match="first answer ignored t"):
        picard_solve(prob, SolverConfig(delta=4 * spec.dt, force_delta=True))
    prob = build()
    with pytest.raises(StructuralError, match="first answer ignored t"):
        apply_state_operator(prob, _wavy(spec, 1.0))


def _slab_shapes(monkeypatch) -> list:
    """The shape of every weight layout made from now on, in order."""
    from delvol.quadrature import SingularWeights

    shapes, real = [], SingularWeights.slab

    def slab(self, *args):
        out = real(self, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(SingularWeights, "slab", slab)
    return shapes


def test_picard_builds_one_window_block_per_window(monkeypatch):
    # the in-window weights are one Toeplitz block shared by every sweep of
    # every window, and a t-free history is a correlation that lays out none
    import delvol.volterra as volterra

    blocks, starts = _slab_shapes(monkeypatch), []
    real_store = volterra._RowEngine.store
    monkeypatch.setattr(
        volterra._RowEngine, "store",
        lambda self, start, seg: starts.append(start) or real_store(self, start, seg),
    )
    spec = GridSpec(t_end=1.0, n_points=120, h=0.25)
    prob = make_problem(spec, linear_kernel(spec, c1=0.5, c2=1.0))
    picard_solve(prob, SolverConfig(delta=16 * spec.dt, force_delta=True))
    sweeps = len(starts) - 1  # the first store is the initial load
    windows = len(set(starts[1:]))
    assert windows == 8  # the last of them holds 8 nodes, not 16
    assert blocks == [(16, 16)]  # one step x step layout per t-free solve
    assert sweeps > 2 * len(blocks)


def test_t_dependent_picard_lays_out_one_slab_per_solve(monkeypatch):
    # every frozen-history row block and every in-window block of Example
    # 4.14 (its kernel reads t) is a view of one slab
    from delvol.cases import ExampleParams, example_problem

    shapes = _slab_shapes(monkeypatch)
    T = 0.9
    spec = GridSpec(t_end=T, n_points=512, h=T)
    prob = example_problem(ExampleParams(2 / 3, 1 / 2, 1 / 2, 1, 1 / 2), spec)
    xi = picard_solve(prob, SolverConfig(delta=T, force_delta=True))
    assert np.all(np.isfinite(xi.values))
    assert shapes == [(128, 512 + 128)]  # 4 windows of 128 rows, back to column 1


def test_t_free_picard_lays_out_no_weights_across_the_horizon():
    # a t-free solve lays out its step x step window block alone; a layout
    # spanning n columns would be a 128 x 2^14 array of 16.8 MB
    import tracemalloc

    from delvol.volterra import _WINDOW_NODES

    n = 1 << 14
    spec = GridSpec(t_end=1.0, n_points=n, h=0.25)
    prob = make_problem(spec, linear_kernel(spec, c1=1.0, c2=0.5))
    spanning = _WINDOW_NODES * n * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        xi = picard_solve(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(xi.values))
    assert peak < spanning / 4


def test_picard_evaluates_each_t_free_value_once(monkeypatch):
    # a counting kernel sees the in-window sweeps, one fill pair per node
    # (node 0 at load, each window once it converged) and one left-limit pair
    # per s = h split, and no more: no history evaluates a solved pair again
    import delvol.volterra as volterra

    pairs, starts = [], []
    prob = _t_free_problem(lambda t, s, *rest: pairs.append(np.size(s)) or _sine_lag(t, s, *rest))
    real_store = volterra._RowEngine.store
    monkeypatch.setattr(
        volterra._RowEngine, "store",
        lambda self, start, seg: starts.append(start) or real_store(self, start, seg),
    )
    spec, step = prob.spec, 10
    n, m = spec.n_points, spec.delay_steps
    picard_solve(prob, SolverConfig(delta=step * spec.dt, force_delta=True))
    expect = n + 1  # the fills
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        sweeps = starts[1:].count(lo + 1)  # the first store is the initial load
        expect += sweeps * (hi - lo)
        expect += m <= lo  # the history holds node m: one split
        expect += sweeps * (lo < m <= hi)  # node m in the window: a split per sweep
    assert sum(pairs) == expect


def _linear_wavy_problem():
    spec = GridSpec(t_end=1.0, n_points=120, h=0.25)
    zeta = GridFunction.from_callable(spec, lambda t: 1.0 + np.sin(4.0 * t))
    return make_problem(spec, linear_kernel(spec, c1=0.5, c2=1.0), zeta=zeta)


@pytest.mark.parametrize(
    "build, step",
    [
        (lambda: _t_free_problem(_sine_lag), 10),
        (lambda: _t_free_problem(_vector_lag, 2), 10),
        (_t_dependent_vector_problem, 10),
        (_linear_wavy_problem, 16),
    ],
    ids=["scalar-jump", "vector", "row-axis", "linear-kernel"],
)
def test_window_sweep_keeps_solutions_of_per_sweep_block_sums(monkeypatch, build, step):
    # the jump cell s = h (z(0) != 0) lies inside a window, and the last
    # window is shorter, so its sweep takes a corner of the shared block; the
    # reference lays out a fresh block and prepares a fresh call every sweep
    import delvol.volterra as volterra

    prob = build()
    spec = prob.spec
    assert spec.delay_steps % step > 1 and spec.n_points % step > 0
    cfg = SolverConfig(delta=step * spec.dt, force_delta=True)
    xi = picard_solve(prob, cfg)
    real = volterra._window_sweep
    dense = dense_weights(prob.weights)
    monkeypatch.setattr(
        volterra,
        "_window_sweep",
        lambda g, i0, i1, w: lambda: real(
            g, i0, i1, np.ascontiguousarray(dense[i0 : i1 + 1, i0 : i1 + 1])
        )(),
    )
    assert np.array_equal(picard_solve(prob, cfg).values, xi.values)


def test_auto_config_scans_epsilon_on_one_magnitude_of_L(monkeypatch):
    # the 20 candidates share |L|, and the solve takes the chosen epsilon's
    # window from the scan, bitwise the one contraction_window gives
    prob = abel_problem(n_points=128)
    L = prob.kernel.L
    seen = []
    real = GridFunction.magnitude
    monkeypatch.setattr(
        GridFunction, "magnitude", lambda self: seen.append(self is L) or real(self)
    )
    xi = picard_solve(prob)
    assert sum(seen) == 1
    monkeypatch.undo()
    assert np.array_equal(xi.values, picard_solve(prob, scanned_config(prob)).values)
    eps, _, _ = choose_epsilon(prob.p, prob.nu, L)
    delta = contraction_window(L, prob.nu, prob.p, eps)
    eps_hi = prob.nu / (1.0 - prob.nu)  # case 1 at p = 4, nu = 1/2
    candidates = [
        contraction_window(L, prob.nu, prob.p, eps_hi * k / 21.0)
        for k in range(1, 21)
    ]
    assert delta == max(candidates)  # bitwise
    assert eps == eps_hi * (1 + candidates.index(max(candidates))) / 21.0


def test_state_operator_at_two_to_the_sixteen_nodes():
    # kappa = xi on z = 1: rows sum to t^nu / nu, so the image is 1 + t^nu / nu
    # (2e9 kernel pairs summed row by row; one FFT here)
    n, nu = 1 << 16, 0.5
    spec = GridSpec(t_end=1.0, n_points=n, h=0.25)
    prob = make_problem(spec, linear_kernel(spec, c1=1.0), nu=nu)
    got = apply_state_operator(prob, prob.zeta).horizon_values
    t = spec.times[spec.delay_steps :]
    np.testing.assert_allclose(got, 1.0 + t**nu / nu, rtol=1e-12, atol=0.0)



SPEC16 = GridSpec(t_end=1.0, n_points=16, h=0.25)
SPEC8 = GridSpec(t_end=1.0, n_points=8, h=0.25)
INF_L = GridFunction.constant(SPEC16, math.inf)


def _problem16(**changes):
    """A linear problem on SPEC16, with fields changed as given."""
    fields = dict(
        zeta=GridFunction.constant(SPEC16, 1.0),
        kernel=linear_kernel(SPEC16, c1=1.0),
        control=GridFunction.zeros(SPEC16),
        nu=0.5,
        h=0.25,
        p=4.0,
        spec=SPEC16,
    )
    return VolterraProblem(**{**fields, **changes})


def _vector_state_problem():
    kernel = GeneratorKernel(
        kappa=lambda t, s, xi, xi_h, u: np.asarray(xi, dtype=float),
        L0=GridFunction.zeros(SPEC16),
        L=GridFunction.constant(SPEC16, 1.0),
        u0=np.zeros(1),
        dim_state=2,
    )
    zeta = GridFunction.from_horizon_values(SPEC16, np.ones((SPEC16.n_points + 1, 2)))
    return _problem16(kernel=kernel, zeta=zeta)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _problem16(nu=1.0), ParameterError, "nu must lie in"),
        (
            lambda: _problem16(zeta=GridFunction.constant(SPEC8, 1.0)),
            StructuralError,
            "zeta does not live on the problem grid",
        ),
        (lambda: _problem16(h=0.5), StructuralError, "problem delay differs from the grid delay"),
        (
            lambda: _problem16(control=GridFunction.constant(SPEC16, math.inf)),
            ParameterError,
            "control must be finite-distance from u0",
        ),
        (
            lambda: GeneratorKernel(
                kappa=None,
                L0=GridFunction.zeros(SPEC16),
                L=GridFunction.constant(SPEC16, -1.0),
                u0=0.0,
            ),
            ParameterError,
            "must be node-wise nonnegative",
        ),
        (lambda: SolverConfig(max_iter=0), ParameterError, "max_iter must be >= 1"),
        (
            lambda: contraction_window(GridFunction.constant(SPEC16, 1.0), 0.8, 1.5, 1.0),
            HypothesisError,
            "gives q < 1",
        ),
        (lambda: contraction_window(INF_L, 0.5, 4.0, 0.5), HypothesisError, "is not finite"),
        (lambda: choose_epsilon(4.0, 0.5, INF_L), HypothesisError, "no admissible epsilon"),
        (
            lambda: apply_state_operator(_problem16(), GridFunction.constant(SPEC8, 1.0)),
            StructuralError,
            "iterate does not live on the problem grid",
        ),
        (
            lambda: check_generator_hypotheses(_vector_state_problem()),
            StructuralError,
            "scalar state only",
        ),
    ],
    ids=[
        "nu", "zeta-grid", "delay", "control-distance", "negative-L", "max-iter", "window-q",
        "window-non-finite-L", "epsilon-non-finite-L", "iterate-grid", "vector-hypotheses",
    ],
)
def test_volterra_rejects(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_stability_check_on_identical_data_passes_with_K_zero():
    # the brace is 0, so no comparison problem is certified
    prob = delayed_problem(64)
    xi = picard_solve(prob)
    record = stability_check(prob, prob, xi, xi)
    assert record.lhs == 0.0 and record.rhs == 0.0 and record.passed
    assert record.constants["K"] == 0.0 and "gronwall_K" not in record.constants
