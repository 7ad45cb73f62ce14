"""Command-line front end.

Runs solves, bound evaluations, certifications, the blowup demonstration, and
the randomized estimate suites from a flat key-value config file with dotted
section prefixes (see README for the full schema).  All outputs carry a
reproducibility header (config echo, seed, grid) and identical config + seed
produce byte-identical files.

Exit codes: 0 success / certification pass, 1 config or usage error, 2
numerical non-convergence, 3 certification failure.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .cases import ExampleParams, blowup_diagnostic, example_problem
from .errors import ConvergenceError, DelvolError, EvaluationError, StructuralError
from .estimates import corollary_check, young_check
from .grid import GridFunction, GridSpec
from .gronwall import GronwallProblem, _check_nonnegative, certify, gronwall_bound
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


def _number(raw: str):
    """Float, keeping exact Fractions when written as a/b."""
    return Fraction(raw) if "/" in raw else float(raw)


def _float(raw: str) -> float:
    return float(_number(raw))


def _bool(raw: str) -> bool:
    word = raw.lower()
    if word not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {raw!r}")
    return word in ("true", "1", "yes")


def _tuple_of(parse):
    return lambda raw: tuple(parse(part) for part in raw.split(","))


# what a malformed value raises: ValueError, ZeroDivisionError for a/0, or
# OverflowError for a fraction beyond the float range
_BAD_VALUE = (ValueError, ArithmeticError)

# every accepted key and the parser of its value; str keeps the value as
# written (the command and the function/kernel selectors), and an empty value
# of any other key counts as absent
_SCHEMA = {
    "command": str,
    "seed": int,
    "problem.nu": _float,
    "problem.h": _float,
    "problem.T": _float,
    "problem.p": _float,
    "problem.q": _float,
    "problem.kernel": str,
    "problem.zeta": str,
    "problem.L": str,
    "problem.theta": str,
    "grid.n_points": int,
    "solver.epsilon": _float,
    "solver.delta": _float,
    "solver.force_delta": _bool,
    "solver.picard_tol": _float,
    "solver.max_iter": int,
    "bound.K": _float,
    "output.tol": _float,
    "example.nu": _number,
    "example.beta": _number,
    "example.delta": _number,
    "example.sigma": _number,
    "example.gamma": _number,
    "example.epsilons": _tuple_of(float),
    "example.resolutions": _tuple_of(int),
    "estimates.cases": int,
}

_REQUIRED = object()

# '#' opens a comment at the start of a line or after whitespace, so a value
# such as table(th#1.csv) keeps its '#'
_COMMENT_RE = re.compile(r"(?:^|\s)#")


class RunConfig:
    """Parsed flat key-value configuration, every value converted by ``_SCHEMA``."""

    def __init__(self, entries: dict, source_lines: list):
        self.source_lines = source_lines
        self.command = entries.get("command")
        if self.command not in _COMMANDS:
            raise ConfigError(
                f"command must be one of {', '.join(_COMMANDS)}; got {self.command!r}"
            )
        unknown = sorted(set(entries) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.values = {}
        for key, raw in entries.items():
            parse = _SCHEMA[key]
            if parse is str:
                self.values[key] = raw
            elif raw:
                try:
                    self.values[key] = parse(raw)
                except _BAD_VALUE as exc:
                    raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc

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
            if key in entries:
                raise ConfigError(f"repeated config key {key!r} in line {raw!r}")
            entries[key] = value
            source.append(f"{key} = {value}")
        return cls(entries, source)

    def get(self, key, default=_REQUIRED):
        """The parsed value of key; without a default, a missing key is an error."""
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default


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
        return _float(arg)
    except _BAD_VALUE as exc:
        raise ConfigError(f"bad selector argument {arg!r}") from exc


def build_grid(cfg: RunConfig) -> GridSpec:
    """The problem grid of grid.n_points, problem.T and problem.h."""
    n = cfg.get("grid.n_points", 512)
    T = cfg.get("problem.T", 1.0)
    h = cfg.get("problem.h", 0.0)
    return GridSpec(t_end=T, n_points=n, h=h)


def build_function(cfg: RunConfig, key: str, spec: GridSpec) -> GridFunction:
    raw = cfg.get(key, "constant(1)")
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
        try:
            return GridFunction.read_csv(path, spec)
        except StructuralError as exc:
            raise StructuralError(f"{key}: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{key}: cannot read table {path}: {exc}") from exc
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
    name, args = parse_selector(raw)
    if name == "example414":
        if len(args) != 5:
            raise ConfigError(
                "example414 kernel needs example414(nu,beta,delta,sigma,gamma)"
            )
        params = ExampleParams(*(_selector_number(a) for a in args))
        return example_problem(params, spec, p=cfg.get("problem.p", None))
    if name in ("zero", "delayed-linear"):  # linear(0,0,0) and linear(0,0,1)
        if args:
            raise ConfigError(f"{name} kernel takes no arguments, got {raw!r}")
        kernel = _linear_kernel(0.0, 0.0, 1.0 if name == "delayed-linear" else 0.0, spec)
    elif name == "linear":
        if len(args) != 3:
            raise ConfigError("linear kernel needs linear(c0,c1,c2)")
        kernel = _linear_kernel(*(_selector_number(a) for a in args), spec)
    else:
        raise ConfigError(f"unknown kernel selector {name!r}")
    return VolterraProblem(
        zeta=build_function(cfg, "problem.zeta", spec),
        kernel=kernel,
        control=GridFunction.zeros(spec),
        nu=cfg.get("problem.nu"),
        h=spec.h,
        p=cfg.get("problem.p", 4.0),
        spec=spec,
    )


def build_gronwall_problem(cfg: RunConfig, spec: GridSpec) -> GronwallProblem:
    return GronwallProblem.build(
        build_function(cfg, "problem.L", spec),
        build_function(cfg, "problem.theta", spec),
        cfg.get("problem.nu"),
        cfg.get("problem.q", None),
    )


def _section(cfg: RunConfig, prefix: str) -> dict:
    """{name: value} of the keys prefix + name that the config sets."""
    return {
        key.removeprefix(prefix): value
        for key, value in cfg.values.items()
        if key.startswith(prefix)
    }


def _header(cfg: RunConfig, spec: GridSpec | None) -> list:
    lines = [f"seed = {cfg.get('seed', DEFAULT_SEED)}"]
    if spec is not None:
        lines.append(
            f"grid: t_end={spec.t_end:.17g} n_points={spec.n_points} h={spec.h:.17g}"
        )
    lines.extend(cfg.source_lines)
    return lines


def _write_text(path: Path, header: list, body: str) -> None:
    """A text report: the header as '# ' lines, then the body as given."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(body)


def _random_piecewise_linear(rng, spec: GridSpec, lo=0.0, hi=2.0) -> GridFunction:
    knots = rng.integers(3, 9)
    xs = np.linspace(0.0, spec.t_end, knots)
    ys = rng.uniform(lo, hi, size=knots)
    t = spec.times[spec.delay_steps :]
    return GridFunction.from_horizon_values(spec, np.interp(t, xs, ys))


def _estimate_suite(cfg: RunConfig):
    """Seeded randomized runs of both norm checks; deterministic ordering."""
    cases = cfg.get("estimates.cases", 50)
    if cases < 1:
        raise ConfigError(f"estimates.cases must be >= 1, got {cases}")
    seed = cfg.get("seed", DEFAULT_SEED)
    n_points = cfg.get("grid.n_points", 1024)
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


def run(cfg: RunConfig, out_dir: Path) -> int:
    """Execute one command; writes artifacts into out_dir and returns the exit code.

    Reads cfg alone: ``main`` stores --seed, --tol and --grid as their keys.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    command = cfg.command

    if command == "solve":
        spec = build_grid(cfg)
        prob = build_volterra_problem(cfg, spec)
        xi = picard_solve(prob, SolverConfig(**_section(cfg, "solver.")))
        # solution files carry state columns xi_1..xi_n even for scalar states
        out_fn = xi if xi.values.ndim == 2 else GridFunction(spec, xi.values[:, None])
        out_fn.to_csv(out_dir / "solution.csv", header_lines=_header(cfg, spec))
        residual = fixed_point_residual(prob, xi)
        body = f"fixed_point_residual = {residual:.17g}\n"
        _write_text(out_dir / "residual.txt", _header(cfg, spec), body)
        return EXIT_OK

    if command in ("bound", "verify"):
        spec = build_grid(cfg)
        prob = build_gronwall_problem(cfg, spec)
        # output.tol (or --tol), else certify's default; 0 means 0
        tol = cfg.get("output.tol", None)
        if tol is not None:  # before any constant or oracle is built
            _check_nonnegative("tol", tol)
        K = cfg.get("bound.K", None)
        if K is not None:
            report = gronwall_bound(prob, K)
            passed, _ = report.verdict(tol)
        else:
            result = certify(prob, tol=tol)
            report, passed = result.report, result.passed
        report.to_csv(out_dir / "bound_report.csv", header_lines=_header(cfg, spec))
        if command == "bound":
            return EXIT_OK
        return EXIT_OK if passed else EXIT_CERTIFICATION

    if command == "example414":
        example = _section(cfg, "example.")
        grids = {
            arg: example.pop(key)
            for key, arg in (("epsilons", "cutoffs"), ("resolutions", "resolutions"))
            if key in example
        }
        params = ExampleParams(**{f"{name}_e": value for name, value in example.items()})
        report = blowup_diagnostic(params, **grids)
        report.to_csv(out_dir / "blowup.csv", header_lines=_header(cfg, None))
        _write_text(out_dir / "verdict.txt", _header(cfg, None), report.verdict + "\n")
        return EXIT_OK

    if command == "estimates":
        records = _estimate_suite(cfg)
        all_pass = all(r.passed for r in records)
        body = "".join(f"{record.to_text()}\n" for record in records)
        body += f"suite: {'pass' if all_pass else 'fail'}\n"
        _write_text(out_dir / "estimates_report.txt", _header(cfg, None), body)
        return EXIT_OK if all_pass else EXIT_CERTIFICATION

    raise ConfigError(f"unhandled command {command!r}")


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error: exit 1, one line
        self.exit(EXIT_CONFIG, f"error: {EXIT_CONFIG}: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="delvol",
        description="Delayed weakly singular Volterra equations: solve, bound, certify.",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--tol", type=float, default=None, help="certification tolerance")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--grid", type=int, default=None, help="override grid.n_points")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {EXIT_CONFIG}: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = RunConfig.parse(text)
        # a flag sets its key, so every reader of the key sees the flag
        flags = {"seed": args.seed, "output.tol": args.tol, "grid.n_points": args.grid}
        for key, flag in flags.items():
            if flag is not None:
                cfg.values[key] = flag
        return run(cfg, Path(args.out))
    except (ConfigError, ValueError) as exc:
        print(f"error: {EXIT_CONFIG}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, EvaluationError) as exc:
        print(f"error: {EXIT_NONCONVERGENCE}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:  # tables are read in build_function, so this is --out
        print(f"error: {EXIT_CONFIG}: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
