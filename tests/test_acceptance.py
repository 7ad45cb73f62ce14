"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints a single CRITERION line so the suite doubles as a checklist.
Shared expensive artifacts (the randomized certification suite) are built once
per module.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import erfc

import delvol as dv
from delvol.cases import lower_bound_integral
from conftest import SEED, random_piecewise_linear, weight_row, with_n_points


def _announce(k, started, limit):
    elapsed = time.time() - started
    print(f"\nCRITERION {k}: PASS ({elapsed:.1f}s < {limit}s)")
    assert elapsed < limit


# -- 1: quadrature exactness ---------------------------------------------------


def test_criterion_1_quadrature_exactness():
    started = time.time()
    for nu in (0.3, 0.5, 0.8):
        for n in (64, 512, 4096):
            spec = dv.GridSpec(t_end=1.0, n_points=n)
            W = dv.build_singular_weights(spec, nu)
            t = spec.times
            b2 = dv.beta(2.0, nu)
            for i in range(1, n + 1):
                row = weight_row(W, i)
                rs = row.sum()
                assert abs(rs - t[i] ** nu / nu) <= 1e-10 * (t[i] ** nu / nu)
                fm = float(np.dot(row, t[: i + 1]))
                ref = t[i] ** (nu + 1.0) * b2
                assert abs(fm - ref) <= 1e-10 * ref
    _announce(1, started, 5.0)


# -- 2: Abel oracle -------------------------------------------------------------


def _abel_problem(n_points, T=1.0):
    spec = dv.GridSpec(t_end=T, n_points=n_points, h=T)

    def kappa(t, s, xi, xi_h, u):
        return np.asarray(xi, dtype=float)

    kernel = dv.GeneratorKernel(
        kappa=kappa,
        L0=dv.GridFunction.constant(spec, 0.0),
        L=dv.GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )
    return dv.VolterraProblem(
        zeta=dv.GridFunction.constant(spec, 1.0),
        kernel=kernel,
        control=dv.GridFunction.zeros(spec),
        nu=0.5,
        h=T,
        p=4.0,
        spec=spec,
    )


def test_criterion_2_abel_oracle():
    started = time.time()
    prob = _abel_problem(2000)
    xi = dv.picard_solve(prob)
    for t in (0.25, 0.5, 1.0):
        exact = math.exp(math.pi * t) * erfc(-math.sqrt(math.pi * t))
        got = float(xi.at_time(t))
        assert abs(got - exact) <= 1e-3 * exact
    _announce(2, started, 10.0)


# -- 3: delayed closed form -----------------------------------------------------


def test_criterion_3_delayed_closed_form():
    started = time.time()
    spec = dv.GridSpec(t_end=1.0, n_points=2048, h=0.5)

    def kappa(t, s, xi, xi_h, u):
        return np.asarray(xi_h, dtype=float)

    kernel = dv.GeneratorKernel(
        kappa=kappa,
        L0=dv.GridFunction.constant(spec, 0.0),
        L=dv.GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )
    prob = dv.VolterraProblem(
        zeta=dv.GridFunction.constant(spec, 1.0),
        kernel=kernel,
        control=dv.GridFunction.zeros(spec),
        nu=0.5,
        h=0.5,
        p=4.0,
        spec=spec,
    )
    xi = dv.picard_solve(prob)
    exact = 1.0 + math.sqrt(2.0)
    assert abs(float(xi.at_time(1.0)) - exact) <= 1e-4 * exact
    _announce(3, started, 5.0)


# -- 4 and 5: certification suite ------------------------------------------------


def _suite_problem(case, n_points):
    rng = np.random.default_rng(SEED + case)
    nu = (0.4, 0.6, 0.8)[case % 3]
    h = (0.25, 0.5)[case % 2]
    spec = dv.GridSpec(t_end=1.0, n_points=n_points, h=h)
    L = random_piecewise_linear(rng, spec, lo=0.0, hi=2.0)
    theta = random_piecewise_linear(rng, spec, lo=0.0, hi=2.0)
    return dv.GronwallProblem.build(L, theta, nu, 2.0 / nu)


def _refined(problem, factor=2):
    spec2 = with_n_points(problem.spec, problem.spec.n_points * factor)
    t_old = problem.spec.times[problem.spec.delay_steps :]
    t_new = spec2.times[spec2.delay_steps :]
    interp = lambda g: dv.GridFunction.from_horizon_values(
        spec2, np.interp(t_new, t_old, g.horizon_values)
    )
    return dv.GronwallProblem.build(
        interp(problem.L), interp(problem.theta), problem.nu, problem.q
    )


_SUITE_CACHE = {}


def _certification_suite():
    if "suite" not in _SUITE_CACHE:
        problems = [_suite_problem(case, 512) for case in range(20)]
        results = [dv.certify(p) for p in problems]
        _SUITE_CACHE["suite"] = (problems, results)
    return _SUITE_CACHE["suite"]


def test_criterion_4_certification_suite():
    started = time.time()
    problems, results = _certification_suite()
    for prob, res in zip(problems, results):
        sup_major = float(np.max(res.report.majorant.values))
        assert res.passed
        assert res.min_margin >= -1e-8 * (1.0 + sup_major)
    for case in range(20):  # doubled-N verdict stability
        res2 = dv.certify(_refined(problems[case]))
        assert res2.passed == results[case].passed
    _announce(4, started, 60.0)


def test_criterion_5_step1_reduction():
    started = time.time()
    problems, results = _certification_suite()
    for prob, res in zip(problems, results):
        i_h = prob.spec.index_at(prob.h)
        assert np.array_equal(
            res.report.theta_n.values[: i_h + 1], prob.theta.values[: i_h + 1]
        )
    _announce(5, started, 60.0)


# -- 6: closed-form step constant ------------------------------------------------


def test_criterion_6_step_constant_formula():
    started = time.time()
    spec = dv.GridSpec(t_end=1.0, n_points=512, h=0.5)
    L = dv.GridFunction.constant(spec, 1.0)
    got = dv.step_constant_k1(L, nu=0.75, q=2.0)
    assert abs(got - math.sqrt(math.pi)) <= 1e-10 * math.sqrt(math.pi)
    _announce(6, started, 5.0)


# -- 7: preliminary estimates -----------------------------------------------------


def test_criterion_7_preliminary_estimates():
    started = time.time()
    spec = dv.GridSpec(t_end=1.0, n_points=1024)
    young_triples = [(1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (math.inf, 2.0, 2.0)]
    for idx in range(50):
        rng = np.random.default_rng(SEED + idx)
        f = random_piecewise_linear(rng, spec)
        g = random_piecewise_linear(rng, spec)
        p, q, r = young_triples[idx % 3]
        assert dv.young_check(f, g, p, q, r).passed
    corollary_params = [(0.5, 1.0, 2.0, 2.0), (0.7, 1.5, 6.0, 2.0)]
    for idx in range(50):
        rng = np.random.default_rng(SEED + 1000 + idx)
        phi = random_piecewise_linear(rng, spec)
        beta, r, p, q = corollary_params[idx % 2]
        delta = round(float(rng.uniform(0.2, 1.0)) * spec.n_points) / spec.n_points
        assert dv.corollary_check(
            phi, 0.0, 1.0, max(delta, spec.dt), beta, r, p, q
        ).passed
    unit = dv.GridFunction.constant(spec, 1.0)
    record = dv.corollary_check(unit, 0.0, 1.0, 1.0, 0.5, 1.0, 2.0, 2.0)
    assert record.passed
    assert abs(record.lhs - math.sqrt(2.0)) <= 1e-6 * math.sqrt(2.0)
    assert abs(record.rhs - 2.0) <= 1e-12
    _announce(7, started, 30.0)


# -- 8: well-posedness estimates ---------------------------------------------------


def _delayed_linear_problem(n_points, zeta_val=1.0, control_shift=0.0):
    spec = dv.GridSpec(t_end=1.0, n_points=n_points, h=0.5)

    def kappa(t, s, xi, xi_h, u):
        return np.asarray(xi, dtype=float) + 0.5 * np.asarray(xi_h, dtype=float)

    kernel = dv.GeneratorKernel(
        kappa=kappa,
        L0=dv.GridFunction.constant(spec, 0.0),
        L=dv.GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
    )
    return kernel, spec


def test_criterion_8_wellposedness_estimates():
    started = time.time()
    # Abel example
    abel = _abel_problem(2000)
    xi_abel = dv.picard_solve(abel)
    rec = dv.apriori_check(abel, xi_abel)
    assert rec.passed

    # delayed-linear example: shared kernel, perturbed free term
    kernel, spec = _delayed_linear_problem(2000)

    def build(zeta_val):
        return dv.VolterraProblem(
            zeta=dv.GridFunction.constant(spec, zeta_val),
            kernel=kernel,
            control=dv.GridFunction.zeros(spec),
            nu=0.5,
            h=0.5,
            p=4.0,
            spec=spec,
        )

    p1, p2 = build(1.0), build(1.2)
    xi1, xi2 = dv.picard_solve(p1), dv.picard_solve(p2)
    rec1 = dv.apriori_check(p1, xi1)
    assert rec1.passed
    rec2 = dv.stability_check(p1, p2, xi1, xi2)
    assert rec2.passed

    # difference-inequality link: |xi1 - xi2| fed to the certifier
    dprob = dv.difference_problem(p1, p2, xi1, xi2)
    res = dv.certify(dprob)
    assert res.passed
    diff = (xi1 - xi2).magnitude()
    assert np.all(diff.values <= res.report.majorant.values + 1e-9)
    _announce(8, started, 60.0)


# -- 9: concrete example -------------------------------------------------------------


def test_criterion_9_example_and_blowup():
    started = time.time()
    params = dv.ExampleParams(
        nu_e=Fraction(2, 3), beta_e=Fraction(1, 2), delta_e=Fraction(1, 2), sigma_e=1
    )
    lo, hi = dv.admissible_p_interval(params)
    assert float(lo) == 1.5 and float(hi) == 3.0

    cutoffs = [0.1 * 2.0**-k for k in range(6)] + [1e-3]
    report = dv.blowup_diagnostic(params, cutoffs, resolutions=(4096,))
    assert abs(report.lower_bounds[-1] - 27.0) <= 1e-12 * 27.0
    assert abs(lower_bound_integral(params, 1e-3) - 27.0) <= 1e-12 * 27.0
    assert report.monotone_in_eps[4096]
    seq = [report.xi_near_1[(eps, 4096)] for eps in cutoffs]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    _announce(9, started, 120.0)


# -- 10: CLI determinism and exit codes -------------------------------------------------


def test_criterion_10_cli_contract(tmp_path):
    started = time.time()
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(
        """
command = verify
problem.nu = 0.6
problem.h = 0.25
problem.T = 1.0
problem.L = constant(1)
problem.theta = constant(1)
grid.n_points = 256
seed = 12345
"""
    )

    def invoke(out, extra=()):
        return subprocess.run(
            [sys.executable, "-m", "delvol", "--config", str(cfg), "--out", str(out),
             *extra],
            capture_output=True,
            text=True,
        )

    r1 = invoke(tmp_path / "a")
    r2 = invoke(tmp_path / "b")
    assert r1.returncode == 0 and r2.returncode == 0
    for name in ("bound_report.csv", "bound_report_constants.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    cfg_fail = tmp_path / "fail.cfg"
    cfg_fail.write_text(cfg.read_text() + "bound.K = 0\n")
    r3 = subprocess.run(
        [sys.executable, "-m", "delvol", "--config", str(cfg_fail),
         "--out", str(tmp_path / "c")],
        capture_output=True,
        text=True,
    )
    assert r3.returncode == 3
    _announce(10, started, 60.0)
