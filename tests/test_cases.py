import math
import re
from fractions import Fraction

import numpy as np
import pytest

from delvol import (
    ExampleParams,
    GridFunction,
    GridSpec,
    HypothesisError,
    ParameterError,
    SolverConfig,
    admissible_p_interval,
    apply_state_operator,
    blowup_diagnostic,
    build_singular_weights,
    example_problem,
    picard_solve,
    singular_convolution,
)
from delvol.cases import lower_bound_integral

BLOWUP_SET = ExampleParams(
    nu_e=Fraction(2, 3), beta_e=Fraction(1, 2), delta_e=Fraction(1, 2), sigma_e=1
)


def test_interval_paper_set_exact():
    lo, hi = admissible_p_interval(BLOWUP_SET)
    assert float(lo) == 1.5
    assert float(hi) == 3.0


def test_interval_infinite_top():
    params = ExampleParams(nu_e=0.9, beta_e=0.9, delta_e=0.9, sigma_e=1)
    lo, hi = admissible_p_interval(params)
    assert hi == math.inf
    assert lo == pytest.approx(1.0 / 0.9)


def test_interval_formula():
    params = ExampleParams(nu_e=0.8, beta_e=0.6, delta_e=0.9, sigma_e=0.5)
    lo, hi = admissible_p_interval(params)
    assert lo == pytest.approx(1.25, abs=1e-15)
    assert hi == pytest.approx(2.0, abs=1e-15)


def test_interval_hypothesis_guard():
    with pytest.raises(HypothesisError):
        admissible_p_interval(
            ExampleParams(nu_e=0.3, beta_e=0.5, delta_e=0.9, sigma_e=1)
        )
    with pytest.raises(HypothesisError):
        admissible_p_interval(
            ExampleParams(nu_e=0.6, beta_e=0.9, delta_e=0.3, sigma_e=1)
        )


def test_params_validation():
    with pytest.raises(ParameterError):
        ExampleParams(nu_e=1.2, beta_e=0.5, delta_e=0.5)
    with pytest.raises(ParameterError):
        ExampleParams(nu_e=0.5, beta_e=0.5, delta_e=0.0)


def test_problem_constant_free_term_at_sigma_one():
    T = 0.75
    spec = GridSpec(t_end=T, n_points=96, h=T)
    prob = example_problem(BLOWUP_SET, spec)
    assert np.allclose(prob.zeta.horizon_values, 1.0)


def test_problem_rejects_singular_node():
    spec = GridSpec(t_end=2.0, n_points=64, h=2.0)  # node at t = 1 exactly
    with pytest.raises(ParameterError):
        example_problem(BLOWUP_SET, spec)


def test_growth_bound_holds_at_zero_state():
    # kappa(t, s, 0, 0, u0) equals L0(s) exactly (the t-factors cancel)
    T = 0.9
    spec = GridSpec(t_end=T, n_points=128, h=T)
    prob = example_problem(BLOWUP_SET, spec)
    t_pos = spec.times[spec.delay_steps :]
    rng = np.random.default_rng(7)
    for _ in range(100):
        i = int(rng.integers(1, len(t_pos)))
        j = int(rng.integers(1, i + 1))
        t, s = float(t_pos[i]), float(t_pos[j])
        val = prob.kernel.kappa(
            t, np.array([s]), np.array([0.0]), np.array([0.0]), np.zeros((1, 1))
        )[0]
        assert val <= prob.kernel.L0.horizon_values[j] * (1.0 + 1e-12)


def test_sqrt_lipschitz_envelope_sampled():
    # |sqrt(c + x) - sqrt(c + y)| <= |x - y| / (2 sqrt(c)) transfers to kappa
    T = 0.9
    spec = GridSpec(t_end=T, n_points=128, h=T)
    prob = example_problem(BLOWUP_SET, spec)
    t_pos = spec.times[spec.delay_steps :]
    rng = np.random.default_rng(11)
    for _ in range(200):
        i = int(rng.integers(1, len(t_pos)))
        j = int(rng.integers(1, i + 1))
        t, s = float(t_pos[i]), float(t_pos[j])
        x1, x2, y1, y2 = rng.uniform(0.0, 3.0, size=4)
        v1 = prob.kernel.kappa(t, np.array([s]), np.array([x1]), np.array([y1]), np.zeros((1, 1)))[0]
        v2 = prob.kernel.kappa(t, np.array([s]), np.array([x2]), np.array([y2]), np.zeros((1, 1)))[0]
        bound = prob.kernel.L.horizon_values[j] * (abs(x1 - x2) + abs(y1 - y2))
        assert abs(v1 - v2) <= bound + 1e-12


def test_lower_bound_integral_values():
    assert lower_bound_integral(BLOWUP_SET, 1e-3) == pytest.approx(27.0, rel=1e-12)
    assert lower_bound_integral(BLOWUP_SET, 0.1) == pytest.approx(
        3.0 * (0.1 ** (-1.0 / 3.0) - 1.0), rel=1e-12
    )


def test_lower_bound_requires_divergent_regime():
    convergent = ExampleParams(nu_e=0.9, beta_e=0.9, delta_e=0.9, sigma_e=1)
    with pytest.raises(HypothesisError):
        lower_bound_integral(convergent, 1e-3)
    with pytest.raises(HypothesisError):
        blowup_diagnostic(convergent, [0.1, 0.05])


def test_blowup_requires_continuous_free_term():
    params = ExampleParams(
        nu_e=Fraction(2, 3), beta_e=Fraction(1, 2), delta_e=Fraction(1, 2),
        sigma_e=Fraction(1, 2),
    )
    with pytest.raises(ParameterError):
        blowup_diagnostic(params, [0.1, 0.05])


def test_blowup_small_run():
    report = blowup_diagnostic(BLOWUP_SET, [0.1, 0.05, 0.025], resolutions=(256, 512))
    assert report.monotone_in_eps[512]
    assert report.resolution_agreement < 5e-3
    assert all(b > a for a, b in zip(report.lower_bounds, report.lower_bounds[1:]))
    assert "diverges" in report.verdict


def test_blowup_iterates_stay_above_one():
    # sigma = 1: every operator application keeps values >= 1
    T = 0.9
    spec = GridSpec(t_end=T, n_points=128, h=T)
    prob = example_problem(BLOWUP_SET, spec)
    cur = prob.zeta
    for _ in range(3):
        cur = apply_state_operator(prob, cur)
        assert np.all(cur.horizon_values >= 1.0 - 1e-14)


def test_solution_dominates_drive_convolution():
    # xi >= 1 + int L0 (t-s)^(beta-1) ds, quadrature-consistent both sides
    T = 0.95
    spec = GridSpec(t_end=T, n_points=512, h=T)
    prob = example_problem(BLOWUP_SET, spec)
    xi = picard_solve(prob, SolverConfig(delta=T, force_delta=True))
    W = build_singular_weights(spec, prob.nu)
    drive = singular_convolution(prob.kernel.L0, W)
    slack = xi.horizon_values - (1.0 + drive.horizon_values)
    assert np.min(slack) >= -1e-8


def test_gamma_above_one_reading():
    # the |t+1| powers flip from decay to growth at gamma = 1; both readings
    # must assemble, with the Lipschitz rate rescaled to keep the envelope
    T = 0.9
    spec = GridSpec(t_end=T, n_points=128, h=T)
    params = ExampleParams(
        nu_e=Fraction(2, 3), beta_e=Fraction(1, 2), delta_e=Fraction(1, 2),
        sigma_e=1, gamma_e=1.5,
    )
    prob = example_problem(params, spec)
    t_pos = spec.times[spec.delay_steps :]
    rng = np.random.default_rng(3)
    for _ in range(100):
        i = int(rng.integers(1, len(t_pos)))
        j = int(rng.integers(1, i + 1))
        t, s = float(t_pos[i]), float(t_pos[j])
        val = prob.kernel.kappa(
            t, np.array([s]), np.array([0.0]), np.array([0.0]), np.zeros((1, 1))
        )[0]
        assert val <= prob.kernel.L0.horizon_values[j] * (1.0 + 1e-12)
        x1, x2, y1, y2 = rng.uniform(0.0, 3.0, size=4)
        v1 = prob.kernel.kappa(t, np.array([s]), np.array([x1]), np.array([y1]), np.zeros((1, 1)))[0]
        v2 = prob.kernel.kappa(t, np.array([s]), np.array([x2]), np.array([y2]), np.zeros((1, 1)))[0]
        bound = prob.kernel.L.horizon_values[j] * (abs(x1 - x2) + abs(y1 - y2))
        assert abs(v1 - v2) <= bound + 1e-12
    xi = picard_solve(prob, SolverConfig(delta=T, force_delta=True))
    assert np.all(xi.horizon_values >= 1.0 - 1e-12)


def test_blowup_csv(tmp_path):
    report = blowup_diagnostic(BLOWUP_SET, [0.1, 0.05], resolutions=(128, 256))
    path = tmp_path / "blowup.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,lower_bound,xi_near_1,resolution"
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 2 * 2


def test_blowup_csv_bytes_match_the_per_value_format(tmp_path):
    # the table goes through the shared CSV writer; its bytes are those of
    # the per-value f"{v:.17g}" rows, special values and integer resolutions too
    from dataclasses import replace

    from test_grid import SPECIAL_VALUES

    report = blowup_diagnostic(BLOWUP_SET, [0.1, 0.05], resolutions=(128, 256))
    cutoffs = (0.1, 1.0 / 3.0, 5e-324, 1e-300, 0.05)
    odd = iter(SPECIAL_VALUES * 2)
    report = replace(
        report,
        cutoffs=cutoffs,
        resolutions=(128, 4096),
        lower_bounds=(-0.0, np.inf, np.nan, 1e300, 2.5),
        xi_near_1={(eps, n): next(odd) for eps in cutoffs for n in (128, 4096)},
    )
    path = tmp_path / "blowup.csv"
    report.to_csv(path, header_lines=("seed 1",))
    expect = "# seed 1\nepsilon,lower_bound,xi_near_1,resolution\n"
    for eps, lb in zip(report.cutoffs, report.lower_bounds):
        for n in report.resolutions:
            expect += f"{eps:.17g},{lb:.17g},{report.xi_near_1[(eps, n)]:.17g},{n}\n"
    expect += f"# verdict: {report.verdict}\n"
    assert path.read_bytes() == expect.encode()


def _generator_closed_form(params, t, s, xi, xi_h):
    # the generator as the module docstring writes it
    nu, delta, gamma = float(params.nu_e), float(params.delta_e), float(params.gamma_e)
    d, r = np.abs(s - 1.0), np.abs(t + 1.0)
    root = np.sqrt(d ** (2.0 * delta - 2.0) * r ** (2.0 - 2.0 * gamma) + np.abs(xi) + np.abs(xi_h))
    return root / (d ** (1.0 - nu) * r ** (1.0 - gamma))


@pytest.mark.parametrize(
    "params",
    [BLOWUP_SET, ExampleParams(0.8, 0.6, 0.9, 0.5, Fraction(3, 4)), ExampleParams(0.6, 0.7, 1, 1, 1.4)],
    ids=["paper-set", "gamma-3/4", "gamma-1.4"],
)
def test_example_generator_matches_its_closed_form(rng, params):
    spec = GridSpec(t_end=0.95, n_points=190, h=0.95)  # no node at s = 1
    kappa = example_problem(params, spec).kernel.kappa
    s = np.sort(rng.uniform(0.0, 0.95, size=60))
    xi, xi_h = rng.uniform(-3.0, 3.0, size=(2, 60))
    u = np.zeros(60)
    for t in (0.0, 0.5, 0.95, np.linspace(0.0, 0.95, 7)[:, None]):
        got = kappa(t, s, xi, xi_h, u)
        want = _generator_closed_form(params, t, s, xi, xi_h)
        assert got.shape == np.broadcast(t, s).shape
        assert np.max(np.abs(got - want) / want) <= 1e-14


def test_blowup_values_keep_the_direct_generator():
    # xi_near_1 as the direct form of the generator (a square root over a
    # quotient) gave them; the generator is now evaluated in three passes
    recorded = {
        (0.1, 256): 8.866455333477038,
        (0.1, 512): 8.866166316374686,
        (0.05, 256): 11.41169808137898,
        (0.05, 512): 11.410054184633475,
    }
    report = blowup_diagnostic(BLOWUP_SET, [0.1, 0.05], resolutions=(256, 512))
    for key, want in recorded.items():
        assert report.xi_near_1[key] == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExampleParams(beta_e=1), "beta_e must lie in (0, 1)"),
        (lambda: ExampleParams(sigma_e=0), "sigma_e must lie in (0, 1]"),
        (lambda: blowup_diagnostic(BLOWUP_SET, [0.05, 0.1]), "cutoffs must be strictly decreasing"),
        (
            lambda: blowup_diagnostic(BLOWUP_SET, [0.1, 0.0]),
            "cutoff eps must lie in (0, 1), got 0.0",
        ),
        (lambda: blowup_diagnostic(BLOWUP_SET, [0.1, -0.05]), "got -0.05"),
        (lambda: lower_bound_integral(BLOWUP_SET, 1.0), "got 1.0"),
        (lambda: lower_bound_integral(BLOWUP_SET, math.nan), "got nan"),
    ],
    ids=[
        "beta", "sigma", "increasing", "zero-cutoff", "negative-cutoff", "unit-cutoff",
        "nan-cutoff",
    ],
)
def test_cases_reject_before_any_solve(monkeypatch, call, message):
    # a zero cutoff raised ZeroDivisionError; a negative one solved past s = 1
    monkeypatch.setattr("delvol.cases.picard_solve", lambda *args: pytest.fail("solved"))
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()
