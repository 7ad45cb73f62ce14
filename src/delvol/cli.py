"""Command-line front end.

Runs solves, bound evaluations, certifications, the blowup demonstration, and
the randomized estimate suites from a flat key-value config file with dotted
section prefixes (see README for the full schema).  All outputs carry a
reproducibility header (config echo, seed, grid) and identical config + seed
produce byte-identical files.

Exit codes: 0 success / certification pass, 1 config error, 2 numerical
non-convergence, 3 certification failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cases import ExampleParams, blowup_diagnostic
from .errors import ConvergenceError, DelvolError, EvaluationError
from .estimates import corollary_check, young_check
from .grid import GridFunction, GridSpec
from .gronwall import GronwallProblem, certify, gronwall_bound
from .quadrature import build_singular_weights
from .reports import CheckRecord
from .volterra import (
    GeneratorKernel,
    SolverConfig,
    VolterraProblem,
    fixed_point_residual,
    picard_solve,
)

__all__ = ["RunConfig", "run", "main"]

DEFAULT_SEED = 20250808
_COMMANDS = ("solve", "bound", "verify", "example414", "estimates")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_CERTIFICATION = 3


class ConfigError(DelvolError, ValueError):
    pass


_KNOWN_KEYS = frozenset(
    {
        "command",
        "seed",
        "problem.nu",
        "problem.h",
        "problem.T",
        "problem.p",
        "problem.q",
        "problem.kernel",
        "problem.zeta",
        "problem.L",
        "problem.theta",
        "grid.n_points",
        "solver.epsilon",
        "solver.delta",
        "solver.force_delta",
        "solver.picard_tol",
        "solver.max_iter",
        "bound.K",
        "output.tol",
        "example.nu",
        "example.beta",
        "example.delta",
        "example.sigma",
        "example.gamma",
        "example.epsilons",
        "example.resolutions",
        "estimates.cases",
    }
)


# '#' opens a comment at the start of a line or after whitespace, so a value
# such as table(th#1.csv) keeps its '#'
_COMMENT_RE = re.compile(r"(?:^|\s)#")


class RunConfig:
    """Parsed flat key-value configuration."""

    def __init__(self, entries: dict, source_lines: list):
        self.entries = entries
        self.source_lines = source_lines
        self.command = entries.get("command")
        if self.command not in _COMMANDS:
            raise ConfigError(
                f"command must be one of {', '.join(_COMMANDS)}; got {self.command!r}"
            )
        unknown = sorted(set(entries) - _KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        entries = {}
        source = []
        for raw in text.splitlines():
            line = _COMMENT_RE.split(raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"empty key in line {raw!r}")
            entries[key] = value
            source.append(f"{key} = {value}")
        return cls(entries, source)

    # -- typed getters ------------------------------------------------------

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def get_float(self, key, default=None):
        raw = self.entries.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return float(Fraction(raw)) if "/" in raw else float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad numeric value for {key!r}: {raw!r}") from exc

    def get_number(self, key, default=None):
        """Float, keeping exact Fractions when written as a/b."""
        raw = self.entries.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return Fraction(raw) if "/" in raw else float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad numeric value for {key!r}: {raw!r}") from exc

    def get_int(self, key, default=None):
        raw = self.entries.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer value for {key!r}: {raw!r}") from exc

    def get_bool(self, key, default=False):
        raw = self.entries.get(key)
        if raw is None or raw == "":
            return default
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean value for {key!r}: {raw!r}")


_SELECTOR_RE = re.compile(r"^([a-zA-Z0-9_\-]+)\s*(?:\((.*)\))?$")


def parse_selector(raw: str):
    match = _SELECTOR_RE.match(raw.strip())
    if not match:
        raise ConfigError(f"bad selector syntax: {raw!r}")
    name = match.group(1)
    args = match.group(2)
    if args is None or args.strip() == "":
        return name, []
    return name, [a.strip() for a in args.split(",")]


def _selector_number(arg: str) -> float:
    try:
        return float(Fraction(arg)) if "/" in arg else float(arg)
    except ValueError as exc:
        raise ConfigError(f"bad selector argument {arg!r}") from exc


def build_grid(cfg: RunConfig, grid_override=None) -> GridSpec:
    n = grid_override or cfg.get_int("grid.n_points", 512)
    T = cfg.get_float("problem.T", 1.0)
    h = cfg.get_float("problem.h", 0.0)
    return GridSpec(t_end=T, n_points=n, h=h)


def build_function(cfg: RunConfig, key: str, spec: GridSpec, default=None) -> GridFunction:
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    name, args = parse_selector(raw)
    if name == "constant":
        if len(args) != 1:
            raise ConfigError(f"constant(c) takes one argument, got {raw!r}")
        return GridFunction.constant(spec, _selector_number(args[0]))
    if name == "power":
        if len(args) != 1:
            raise ConfigError(f"power(sigma) takes one argument, got {raw!r}")
        sigma = _selector_number(args[0])
        return GridFunction.from_callable(
            spec, lambda t: np.abs(t - 1.0) ** (sigma - 1.0)
        )
    if name == "table":
        if len(args) != 1:
            raise ConfigError(f"table(path) takes one argument, got {raw!r}")
        path = Path(args[0])
        if not path.exists():
            raise ConfigError(f"table file does not exist: {path}")
        return GridFunction.read_csv(path, spec)
    raise ConfigError(f"unknown function selector {name!r} for {key!r}")


def _linear_kernel(c0: float, c1: float, c2: float, spec: GridSpec) -> GeneratorKernel:
    def kappa(t, s, xi, xi_h, u):
        return c0 + c1 * np.asarray(xi, dtype=float) + c2 * np.asarray(xi_h, dtype=float)

    return GeneratorKernel(
        kappa=kappa,
        L0=GridFunction.constant(spec, abs(c0)),
        L=GridFunction.constant(spec, max(abs(c1), abs(c2))),
        u0=np.zeros(1),
    )


def build_volterra_problem(cfg: RunConfig, spec: GridSpec) -> VolterraProblem:
    raw = cfg.get("problem.kernel")
    if raw is None:
        raise ConfigError("missing required key 'problem.kernel'")
    name, args = parse_selector(raw)
    nu = cfg.get_float("problem.nu")
    p = cfg.get_float("problem.p", 4.0)
    if name == "zero":
        kernel = _linear_kernel(0.0, 0.0, 0.0, spec)
    elif name == "linear":
        if len(args) != 3:
            raise ConfigError("linear kernel needs linear(c0,c1,c2)")
        kernel = _linear_kernel(*(_selector_number(a) for a in args), spec)
    elif name == "delayed-linear":
        kernel = _linear_kernel(0.0, 0.0, 1.0, spec)
    elif name == "example414":
        from .cases import example_problem

        if len(args) != 5:
            raise ConfigError(
                "example414 kernel needs example414(nu,beta,delta,sigma,gamma)"
            )
        params = ExampleParams(
            nu_e=_selector_number(args[0]),
            beta_e=_selector_number(args[1]),
            delta_e=_selector_number(args[2]),
            sigma_e=_selector_number(args[3]),
            gamma_e=_selector_number(args[4]),
            h=spec.h,
        )
        return example_problem(params, spec.t_end, spec, p=p)
    else:
        raise ConfigError(f"unknown kernel selector {name!r}")
    zeta = build_function(cfg, "problem.zeta", spec, default="constant(1)")
    return VolterraProblem(
        zeta=zeta,
        kernel=kernel,
        control=GridFunction.zeros(spec),
        nu=nu,
        h=spec.h,
        p=p,
        spec=spec,
    )


def build_gronwall_problem(cfg: RunConfig, spec: GridSpec) -> GronwallProblem:
    nu = cfg.get_float("problem.nu")
    q = cfg.get_float("problem.q", 2.0 / nu)
    L = build_function(cfg, "problem.L", spec, default="constant(1)")
    theta = build_function(cfg, "problem.theta", spec, default="constant(1)")
    return GronwallProblem(L=L, theta=theta, nu=nu, h=spec.h, q=q, spec=spec)


def build_solver_config(cfg: RunConfig, prob: VolterraProblem) -> SolverConfig:
    overrides = {}
    if cfg.get("solver.picard_tol"):
        overrides["picard_tol"] = cfg.get_float("solver.picard_tol")
    if cfg.get("solver.max_iter"):
        overrides["max_iter"] = cfg.get_int("solver.max_iter")
    if cfg.get("solver.delta"):
        overrides["delta"] = cfg.get_float("solver.delta")
    if cfg.get("solver.force_delta"):
        overrides["force_delta"] = cfg.get_bool("solver.force_delta")
    if cfg.get("solver.epsilon"):
        eps = cfg.get_float("solver.epsilon")
        return SolverConfig(epsilon=eps, **overrides)
    return SolverConfig.auto(prob, **overrides)


def _header(cfg: RunConfig, seed: int, spec: GridSpec | None) -> list:
    lines = [f"seed = {seed}"]
    if spec is not None:
        lines.append(
            f"grid: t_end={spec.t_end:.17g} n_points={spec.n_points} h={spec.h:.17g}"
        )
    lines.extend(cfg.source_lines)
    return lines


def _random_piecewise_linear(rng, spec: GridSpec, lo=0.0, hi=2.0) -> GridFunction:
    knots = rng.integers(3, 9)
    xs = np.linspace(0.0, spec.t_end, knots)
    ys = rng.uniform(lo, hi, size=knots)
    t = spec.times[spec.delay_steps :]
    return GridFunction.from_horizon_values(spec, np.interp(t, xs, ys))


def _estimate_suite(cfg: RunConfig, seed: int):
    """Seeded randomized runs of both norm checks; deterministic ordering."""
    cases = cfg.get_int("estimates.cases", 50)
    n_points = cfg.get_int("grid.n_points", 1024)
    spec = GridSpec(t_end=1.0, n_points=n_points, h=0.0)
    young_exponents = [(1.0, 1.0, 1.0), (2.0, 2.0, 1.0), (math.inf, 2.0, 2.0)]
    corollary_params = [(0.5, 1.0, 2.0, 2.0), (0.7, 1.5, 6.0, 2.0)]

    def young_case(idx: int) -> CheckRecord:
        rng = np.random.default_rng(seed + idx)
        f = _random_piecewise_linear(rng, spec)
        g = _random_piecewise_linear(rng, spec)
        p, q, r = young_exponents[idx % len(young_exponents)]
        return young_check(f, g, p, q, r)

    def corollary_case(idx: int) -> CheckRecord:
        rng = np.random.default_rng(seed + 10_000 + idx)
        phi = _random_piecewise_linear(rng, spec)
        beta, r, p, q = corollary_params[idx % len(corollary_params)]
        delta = float(rng.uniform(0.2, 1.0))
        delta = round(delta * n_points) / n_points
        return corollary_check(phi, 0.0, 1.0, max(delta, 1.0 / n_points), beta, r, p, q)

    return [young_case(i) for i in range(cases)] + [
        corollary_case(i) for i in range(cases)
    ]


def run(cfg: RunConfig, out_dir: Path, seed: int, tol=None, grid_override=None) -> int:
    """Execute one command; writes artifacts into out_dir and returns the exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    command = cfg.command

    if command == "solve":
        spec = build_grid(cfg, grid_override)
        prob = build_volterra_problem(cfg, spec)
        solver_cfg = build_solver_config(cfg, prob)
        xi = picard_solve(prob, solver_cfg)
        # solution files carry state columns xi_1..xi_n even for scalar states
        out_fn = xi if xi.values.ndim == 2 else GridFunction(spec, xi.values[:, None])
        out_fn.to_csv(out_dir / "solution.csv", header_lines=_header(cfg, seed, spec))
        residual = fixed_point_residual(prob, xi)
        with open(out_dir / "residual.txt", "w") as fh:
            for line in _header(cfg, seed, spec):
                fh.write(f"# {line}\n")
            fh.write(f"fixed_point_residual = {residual:.17g}\n")
        return EXIT_OK

    if command in ("bound", "verify"):
        spec = build_grid(cfg, grid_override)
        prob = build_gronwall_problem(cfg, spec)
        k_override = cfg.get("bound.K")
        if k_override is not None and k_override != "":
            report = gronwall_bound(prob, cfg.get_float("bound.K"))
            margin_tol = tol if tol is not None else cfg.get_float(
                "output.tol", 1e-8 * (1.0 + float(np.max(report.majorant.values)))
            )
            passed = float(np.min(report.margin.values)) >= -margin_tol
        else:
            raw_tol = tol if tol is not None else (
                cfg.get_float("output.tol", 0.0) or None
            )
            result = certify(prob, tol=raw_tol)
            report, passed = result.report, result.passed
        report.to_csv(out_dir / "bound_report.csv", header_lines=_header(cfg, seed, spec))
        if command == "bound":
            return EXIT_OK
        return EXIT_OK if passed else EXIT_CERTIFICATION

    if command == "example414":
        params = ExampleParams(
            nu_e=cfg.get_number("example.nu", Fraction(2, 3)),
            beta_e=cfg.get_number("example.beta", Fraction(1, 2)),
            delta_e=cfg.get_number("example.delta", Fraction(1, 2)),
            sigma_e=cfg.get_number("example.sigma", 1),
            gamma_e=cfg.get_number("example.gamma", Fraction(1, 2)),
        )
        eps_raw = cfg.get("example.epsilons", "")
        if eps_raw:
            cutoffs = tuple(float(e) for e in eps_raw.split(","))
        else:
            cutoffs = tuple(0.1 * 2.0**-k for k in range(6))
        res_raw = cfg.get("example.resolutions", "")
        if res_raw:
            resolutions = tuple(int(n) for n in res_raw.split(","))
        else:
            resolutions = (2048, 4096)
        report = blowup_diagnostic(params, cutoffs, resolutions)
        report.to_csv(out_dir / "blowup.csv", header_lines=_header(cfg, seed, None))
        with open(out_dir / "verdict.txt", "w") as fh:
            for line in _header(cfg, seed, None):
                fh.write(f"# {line}\n")
            fh.write(report.verdict + "\n")
        return EXIT_OK

    if command == "estimates":
        records = _estimate_suite(cfg, seed)
        all_pass = all(r.passed for r in records)
        with open(out_dir / "estimates_report.txt", "w") as fh:
            for line in _header(cfg, seed, None):
                fh.write(f"# {line}\n")
            for record in records:
                fh.write(record.to_text())
                fh.write("\n")
            fh.write(f"suite: {'pass' if all_pass else 'fail'}\n")
        return EXIT_OK if all_pass else EXIT_CERTIFICATION

    raise ConfigError(f"unhandled command {command!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delvol",
        description="Delayed weakly singular Volterra equations: solve, bound, certify.",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tol", type=float, default=None, help="certification tolerance")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--grid", type=int, default=None, help="override grid.n_points")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: {EXIT_CONFIG}: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = RunConfig.parse(text)
        seed = args.seed if args.seed is not None else int(
            cfg.get("seed", DEFAULT_SEED)
        )
        return run(
            cfg,
            Path(args.out),
            seed=seed,
            tol=args.tol,
            grid_override=args.grid,
        )
    except (ConfigError, ValueError) as exc:
        print(f"error: {EXIT_CONFIG}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, EvaluationError) as exc:
        print(f"error: {EXIT_NONCONVERGENCE}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
