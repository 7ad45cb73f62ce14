"""Concrete singular-generator study: admissible exponents and the blowup demo.

The generator

    kappa(t, s, xi, xi_h, u) =
        sqrt(|s-1|^(2 delta - 2) |t+1|^(2 - 2 gamma) + |xi| + |xi_h|)
        / (|s-1|^(1 - nu) |t+1|^(1 - gamma))

with free term |t-1|^(sigma-1) is weakly singular at s = 1 in its data, yet
well posed in L^p for p in an explicit interval; with a continuous free term
(sigma = 1) the solution still fails to stay bounded as t -> 1 whenever
nu + beta + delta < 2.  Grids must exclude the node s = 1; blowup runs use
horizons T = 1 - eps < 1 so the singular site stays outside the domain.

Exponent arithmetic preserves ``fractions.Fraction`` inputs, so interval
endpoints like (3/2, 3) come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisError, ParameterError
from .grid import GridFunction, GridSpec, _csv_rows
from .volterra import GeneratorKernel, SolverConfig, VolterraProblem, picard_solve

__all__ = [
    "ExampleParams",
    "BlowupReport",
    "example_problem",
    "admissible_p_interval",
    "blowup_diagnostic",
    "lower_bound_integral",
]


@dataclass(frozen=True)
class ExampleParams:
    """Exponents of the concrete generator; ``delta_e`` is the square-root
    exponent (distinct from the solver's contraction window length).  The
    defaults are Example 4.14's set, admissible for p in (3/2, 3)."""

    nu_e: object = Fraction(2, 3)  # |s-1| power, in (0, 1)
    beta_e: object = Fraction(1, 2)  # convolution singularity, in (0, 1); the solver exponent
    delta_e: object = Fraction(1, 2)  # inside the square root, in (0, 1]
    sigma_e: object = 1  # free-term power, in (0, 1]
    gamma_e: object = Fraction(1, 2)  # |t+1| power; either sign of 1-gamma works

    def __post_init__(self):
        if not 0 < self.nu_e < 1:
            raise ParameterError(f"nu_e must lie in (0, 1), got {self.nu_e}")
        if not 0 < self.beta_e < 1:
            raise ParameterError(f"beta_e must lie in (0, 1), got {self.beta_e}")
        if not 0 < self.delta_e <= 1:
            raise ParameterError(f"delta_e must lie in (0, 1], got {self.delta_e}")
        if not 0 < self.sigma_e <= 1:
            raise ParameterError(f"sigma_e must lie in (0, 1], got {self.sigma_e}")


def _require_wellposed(params: ExampleParams):
    if not params.nu_e + params.beta_e > 1:
        raise HypothesisError(
            f"needs nu + beta > 1, got {params.nu_e} + {params.beta_e}"
        )
    if not params.nu_e + params.delta_e > 1:
        raise HypothesisError(
            f"needs nu + delta > 1, got {params.nu_e} + {params.delta_e}"
        )


def admissible_p_interval(params: ExampleParams):
    """Open interval (1/nu, 1/max(1-sigma, (2-nu-beta-delta)+)), 1/0 = inf.

    Fraction inputs give exact endpoints.
    """
    _require_wellposed(params)
    one = Fraction(1) if isinstance(params.nu_e, Fraction) else 1
    p_lo = one / params.nu_e
    gap = max(1 - params.sigma_e, max(2 - params.nu_e - params.beta_e - params.delta_e, 0))
    p_hi = math.inf if gap == 0 else one / gap
    return p_lo, p_hi


def _default_p(params: ExampleParams) -> float:
    lo, hi = admissible_p_interval(params)
    lo = float(lo)
    hi_f = float(hi) if hi != math.inf else lo + 4.0
    if lo < 2.0 < hi_f:
        return 2.0
    return 0.5 * (lo + hi_f)


def example_problem(
    params: ExampleParams, spec: GridSpec, p: float | None = None
) -> VolterraProblem:
    """Assemble the concrete problem on a grid that excludes the node s = 1."""
    t_pos = spec.times[spec.delay_steps :]
    if np.any(np.abs(t_pos - 1.0) < 0.5 * spec.dt * 1e-6):
        raise ParameterError(
            "grid contains the singular node s = 1; use an offset grid "
            "(pick T < 1, or n_points such that n_points / T is not an integer)"
        )
    nu = float(params.nu_e)
    beta = float(params.beta_e)
    delta = float(params.delta_e)
    sigma = float(params.sigma_e)
    gamma = float(params.gamma_e)

    def kappa(t, s, xi, xi_h, u):
        # the generator above as sqrt(|s-1|^(2 (nu + delta) - 4)
        #   + (|xi| + |xi_h|) |s-1|^(2 nu - 2) |t+1|^(2 gamma - 2)):
        # s-axis factors first, then three passes over the (R, C) answer
        d = np.abs(np.asarray(s, dtype=float) - 1.0)
        slope = (np.abs(xi) + np.abs(xi_h)) * d ** (2.0 * nu - 2.0)
        out = np.multiply(abs(t + 1.0) ** (2.0 * gamma - 2.0), slope)
        out += d ** (2.0 * (nu + delta) - 4.0)
        return np.sqrt(out, out=out)

    zeta = GridFunction.from_callable(
        spec, lambda t: np.abs(t - 1.0) ** (sigma - 1.0)
    )
    L0 = GridFunction.from_callable(
        spec, lambda t: np.abs(t - 1.0) ** (nu + delta - 2.0)
    )
    L = GridFunction.from_callable(spec, lambda t: np.abs(t - 1.0) ** (nu - 1.0))
    # t-factor Lipschitz scale: sup over [0, T] of |t+1|^(2 gamma - 2) / 2
    t_scale = max((1.0 + spec.t_end) ** (2.0 * gamma - 2.0), 1.0) / 2.0
    kernel = GeneratorKernel(
        kappa=kappa,
        L0=L0,
        L=L * max(1.0, t_scale),
        u0=np.zeros(1),
        omega=lambda r: r,
    )
    control = GridFunction.zeros(spec)
    return VolterraProblem(
        zeta=zeta,
        kernel=kernel,
        control=control,
        nu=beta,
        h=spec.h,
        p=p if p is not None else _default_p(params),
        spec=spec,
    )


@dataclass(frozen=True)
class BlowupReport:
    """Closed-form lower-bound integrals and solver values approaching t = 1."""

    params: ExampleParams
    cutoffs: tuple
    resolutions: tuple
    lower_bounds: tuple
    xi_near_1: dict  # (eps, n_points) -> xi(1 - eps)
    monotone_in_eps: dict  # n_points -> strictly increasing as eps decreases
    resolution_agreement: float  # worst relative gap between successive resolutions
    verdict: str

    def to_csv(self, path, header_lines=()) -> None:
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("epsilon,lower_bound,xi_near_1,resolution\n")
            rows = [
                (eps, lb, self.xi_near_1[(eps, n)], n)
                for eps, lb in zip(self.cutoffs, self.lower_bounds)
                for n in self.resolutions
            ]
            fh.write(_csv_rows(np.array(rows, dtype=float).reshape(-1, 4)))
            fh.write(f"# verdict: {self.verdict}\n")


def lower_bound_integral(params: ExampleParams, eps: float) -> float:
    """int_0^{1-eps} (1-s)^-(3 - nu - beta - delta) ds in closed form, 0 < eps < 1."""
    if not 0.0 < eps < 1.0:  # False for nan
        raise ParameterError(f"cutoff eps must lie in (0, 1), got {eps}")
    expo = float(3 - (params.nu_e + params.beta_e + params.delta_e))
    if expo <= 1.0:
        raise HypothesisError(
            f"divergent regime requires nu + beta + delta < 2, exponent {expo}"
        )
    return (eps ** (1.0 - expo) - 1.0) / (expo - 1.0)


def blowup_diagnostic(
    params: ExampleParams,
    cutoffs=tuple(0.1 * 2.0**-k for k in range(6)),
    resolutions=(2048, 4096),
) -> BlowupReport:
    """Certify unboundedness at t = 1 for sigma = 1 and nu + beta + delta < 2.

    For each cutoff eps the closed-form lower-bound integral is reported, and
    the problem is solved on [0, 1 - eps] at each resolution (delay set to the
    horizon: the blowup mechanism discards the delayed term, and this keeps
    every grid delay-aligned).  Divergence of the closed-form lower bound plus
    monotone growth of xi(1 - eps) is the certificate; no numerical infinity
    is asserted.
    """
    if params.sigma_e != 1:
        raise ParameterError("blowup demonstration requires sigma = 1")
    _require_wellposed(params)
    cutoffs = tuple(float(e) for e in cutoffs)
    if any(e2 >= e1 for e1, e2 in zip(cutoffs, cutoffs[1:])):
        raise ParameterError("cutoffs must be strictly decreasing")
    resolutions = tuple(int(n) for n in resolutions)
    lower = tuple(lower_bound_integral(params, eps) for eps in cutoffs)
    values = {}
    for eps in cutoffs:
        T = 1.0 - eps
        for n in resolutions:
            spec = GridSpec(t_end=T, n_points=n, h=T)
            prob = example_problem(params, spec)
            cfg = SolverConfig(delta=T, force_delta=True)
            xi = picard_solve(prob, cfg)
            values[(eps, n)] = float(xi.at_time(T))
    mono_eps = {}
    for n in resolutions:
        seq = [values[(eps, n)] for eps in cutoffs]
        mono_eps[n] = all(b > a for a, b in zip(seq, seq[1:]))
    agreement = 0.0
    for eps in cutoffs:
        for n1, n2 in zip(resolutions, resolutions[1:]):
            gap = abs(values[(eps, n2)] - values[(eps, n1)]) / (
                1.0 + abs(values[(eps, n2)])
            )
            agreement = max(agreement, gap)
    verdict = (
        "lower bound diverges as eps -> 0 (exponent "
        f"{float(3 - (params.nu_e + params.beta_e + params.delta_e)):.6g} > 1); "
        f"solver values strictly increasing: {mono_eps[resolutions[-1]]}"
    )
    return BlowupReport(
        params=params,
        cutoffs=cutoffs,
        resolutions=resolutions,
        lower_bounds=lower,
        xi_near_1=values,
        monotone_in_eps=mono_eps,
        resolution_agreement=agreement,
        verdict=verdict,
    )
