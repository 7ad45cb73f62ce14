"""The three benchmark workloads: inputs from a seed, one op, its correctness check.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one returned.  An op is one fixed bundle of library
calls, so a run's median never mixes two problem sizes.  ``Workload.op`` is the
timed part; ``Workload.check`` runs afterwards, untimed and untraced, against
oracles the benchmark computes itself.

Each workload also yields the three accuracy metrics.  Those that an op does not
produce are measured once in set-up on that workload's own data (see
``setup_accuracy``), so every workload reports every end-to-end metric.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import tempfile
from pathlib import Path

import numpy as np

import delvol as dv
import delvol.cli
from delvol.special import mittag_leffler_half


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _max_ratio_over_positive_t(times, bound, majorant) -> float:
    """max over t > 0 of bound / majorant (the oracle is positive there)."""
    mask = (times > 0.0) & (majorant > 0.0)
    return float(np.max(bound[mask] / majorant[mask]))


def _abel_kappa(t, s, xi, xi_h, u):
    return np.asarray(xi, dtype=float)


def _vector_kappa(t, s, xi, xi_h, u):
    out = np.array(xi, dtype=float)
    out[:, 1] *= 0.5
    return out


def _lag_kappa(t, s, xi, xi_h, u):
    return np.asarray(xi_h, dtype=float)


def _sine_kappa(t, s, xi, xi_h, u):
    return np.sin(np.asarray(xi, dtype=float)) + 0.5 * np.asarray(xi_h, dtype=float)


def _delayed_linear_kappa(t, s, xi, xi_h, u):
    return np.asarray(xi, dtype=float) + 0.5 * np.asarray(xi_h, dtype=float)


def _kernel(spec, kappa, dim=1):
    return dv.GeneratorKernel(
        kappa=kappa,
        L0=dv.GridFunction.constant(spec, 0.0),
        L=dv.GridFunction.constant(spec, 1.0),
        u0=np.zeros(1),
        dim_state=dim,
    )


def _problem(spec, kernel, zeta, nu=0.5):
    return dv.VolterraProblem(
        zeta=zeta, kernel=kernel, control=dv.GridFunction.zeros(spec),
        nu=nu, h=spec.h, p=4.0, spec=spec,
    )


def _delayed_linear_pair(spec):
    """Two problems sharing one kernel, as stability_check requires; zeta = 1, 1.2."""
    kernel = _kernel(spec, _delayed_linear_kappa)
    return tuple(_problem(spec, kernel, _constant_state(spec, [z])) for z in (1.0, 1.2))


def _constant_state(spec, values):
    cols = [dv.GridFunction.constant(spec, v).values for v in values]
    return dv.GridFunction(spec, cols[0] if len(cols) == 1 else np.column_stack(cols))


class Workload:
    name = ""

    def __init__(self, tiny: bool = False):
        self.digest = ""
        self.setup_accuracy: dict[str, float] = {}
        # closed-form tolerance; the tiny self-test grids are coarse
        self.rel_tol = 2e-2 if tiny else 1e-3
        self.tracer = None  # set while the per-layer run traces this workload

    def op(self, k: int):
        raise NotImplementedError

    def check(self, out, k: int) -> tuple[bool, dict]:
        raise NotImplementedError

    def accuracy(self, per_op: list[dict]) -> dict[str, float]:
        """solve_rel_err, residual_max, bound_over_oracle from op checks and set-up."""
        acc = dict(self.setup_accuracy)
        for key in ("solve_rel_err", "residual_max", "bound_over_oracle"):
            vals = [d[key] for d in per_op if key in d]
            if vals:
                acc[key] = max(vals) if key != "bound_over_oracle" else statistics.median(vals)
        return acc

    def close(self) -> None:
        pass


# -- solve ---------------------------------------------------------------------


class Solve(Workload):
    """Closed-form and nonlinear Picard solves at one grid size.

    volterra row assembly and kappa evaluation do the work and gronwall none:
    ROADMAP item 2 (block kernel evaluation, FFT history) shows here, item 3
    should not.

    The bundle is fixed and the seed changes nothing: with a seeded free term,
    where Picard stops (and so residual_max) moved by a quarter between seeds,
    more than any bound on that metric could absorb.
    """

    name = "solve"

    def __init__(self, seed, tiny=False):
        super().__init__(tiny)
        n = 64 if tiny else 1536

        abel_spec = dv.GridSpec(1.0, n, h=1.0)
        half = dv.GridSpec(1.0, n, h=0.5)
        quarter = dv.GridSpec(1.0, n, h=0.25)
        self.abel = _problem(
            abel_spec, _kernel(abel_spec, _abel_kappa), _constant_state(abel_spec, [1.0])
        )
        self.vector = _problem(
            abel_spec, _kernel(abel_spec, _vector_kappa, dim=2),
            _constant_state(abel_spec, [1.0, 1.0]),
        )
        self.delayed = _problem(half, _kernel(half, _lag_kappa), _constant_state(half, [1.0]))
        self.nonlinear = _problem(
            quarter, _kernel(quarter, _sine_kappa), _constant_state(quarter, [1.0])
        )
        self.pair = _delayed_linear_pair(half)
        self.K = self._stability_constant()
        self.digest = _digest("solve", n, self.K)

    def _stability_constant(self) -> float:
        """K for stability_check, certified once on a coarse copy of the pair.

        The certify work stays out of the timed op (and its dense memory out of
        this process's peak); the fine-grid check then uses this K.
        """
        spec = dv.GridSpec(1.0, 256, h=0.5)
        p1, p2 = _delayed_linear_pair(spec)
        x1, x2 = dv.picard_solve(p1), dv.picard_solve(p2)
        cert = dv.certify(dv.difference_problem(p1, p2, x1, x2))
        self.setup_accuracy["bound_over_oracle"] = _max_ratio_over_positive_t(
            spec.times, cert.report.bound.values, cert.report.majorant.values
        )
        return float(dv.stability_check(p1, p2, x1, x2).constants["K"])

    def op(self, k):
        out = {}
        for label in ("abel", "vector", "delayed", "nonlinear"):
            prob = getattr(self, label)
            xi = dv.picard_solve(prob)
            out[label] = (xi, dv.fixed_point_residual(prob, xi))
        p1, p2 = self.pair
        xi1, xi2 = dv.picard_solve(p1), dv.picard_solve(p2)
        out["pair"] = [(xi1, dv.fixed_point_residual(p1, xi1)), (xi2, dv.fixed_point_residual(p2, xi2))]
        out["stability"] = dv.stability_check(p1, p2, xi1, xi2, K=self.K)
        return out

    def check(self, out, k):
        e1 = mittag_leffler_half(math.sqrt(math.pi))
        e2 = mittag_leffler_half(0.5 * math.sqrt(math.pi))
        exact = {
            "abel": [(out["abel"][0].at_time(1.0), e1)],
            "vector": list(zip(out["vector"][0].at_time(1.0), (e1, e2))),
            "delayed": [(out["delayed"][0].at_time(1.0), 1.0 + math.sqrt(2.0))],
        }
        rel = max(abs(got - want) / want for pairs in exact.values() for got, want in pairs)
        # on [0, h] the delayed pair is zeta * E_{1/2}(sqrt(pi t)) exactly
        e_h = mittag_leffler_half(math.sqrt(0.5 * math.pi))
        pair_rel = max(
            abs(xi.at_time(0.5) - z * e_h) / (z * e_h)
            for (xi, _), z in zip(out["pair"], (1.0, 1.2))
        )
        solved = [out[label] for label in ("abel", "vector", "delayed", "nonlinear")] + out["pair"]
        residual = max(r / (1.0 + float(np.max(np.abs(xi.values)))) for xi, r in solved)
        ok = (
            rel <= self.rel_tol
            and pair_rel <= self.rel_tol
            and residual <= 1e-8
            and out["stability"].passed
            and all(np.all(np.isfinite(xi.values)) for xi, _ in solved)
        )
        return ok, {"solve_rel_err": rel, "residual_max": residual}


# -- certify -------------------------------------------------------------------

_NUS = (0.4, 0.6, 0.8)
_DELAYS = (0.25, 0.5)
_POOL = 60  # distinct problems per seed; a 6-op cycle covers every (nu, h) class

# L is piecewise linear and non-constant but fixed: K depends only on (L, nu, h),
# and with L drawn per seed K spreads over tens of decades between seeds, which
# no bound on bound_over_oracle could absorb.  theta is drawn per op.
_L_KNOTS = ((0.0, 0.3, 0.7, 1.0), (1.0, 0.5, 1.5, 0.8))


def _random_piecewise_linear(rng, spec, lo=0.0, hi=2.0):
    knots = int(rng.integers(3, 9))
    xs = np.linspace(0.0, spec.t_end, knots)
    ys = rng.uniform(lo, hi, size=knots)
    t = spec.times[spec.delay_steps:]
    return dv.GridFunction.from_horizon_values(spec, np.interp(t, xs, ys))


class Certify(Workload):
    """dv.certify with nu cycling over (0.4, 0.6, 0.8) and h over (1/4, 1/2).

    The dense resolvent dominates and volterra is idle; L is not constant, so a
    Toeplitz shortcut is bypassed.  ROADMAP item 3 shows here, item 2 should not.
    """

    name = "certify"

    def __init__(self, seed, tiny=False):
        super().__init__(tiny)
        self.n = 64 if tiny else 2048
        specs = {h: dv.GridSpec(1.0, self.n, h=h) for h in _DELAYS}
        L = {
            h: dv.GridFunction.from_horizon_values(
                spec, np.interp(spec.times[spec.delay_steps:], *_L_KNOTS)
            )
            for h, spec in specs.items()
        }
        self.pool = []
        for k in range(_POOL + 1):  # the last one is the warm-up problem
            nu, h = _NUS[k % 3], _DELAYS[k % 2]
            theta = _random_piecewise_linear(np.random.default_rng([seed, 2, k]), specs[h])
            self.pool.append(dv.GronwallProblem.build(L[h], theta, nu, 2.0 / nu))
        self.warmup = self.pool.pop()
        self.digest = _digest(
            "certify", self.n, *[(p.nu, p.h) for p in self.pool],
            *[p.theta.values for p in self.pool], *[L[h].values for h in _DELAYS],
        )
        self.setup_accuracy["solve_rel_err"] = self._abel_oracle_error()

    def _abel_oracle_error(self) -> float:
        """Relative error of the certify oracle on the one problem with a closed form.

        With L = theta = 1, nu = 1/2 and h = T the delayed term vanishes on
        [0, T], so the oracle is the unit Abel solution E_{1/2}(sqrt(pi t)).
        """
        spec = dv.GridSpec(1.0, self.n, h=1.0)
        one = dv.GridFunction.constant(spec, 1.0)
        major = dv.resolvent_majorant(dv.GronwallProblem.build(one, one, 0.5, 4.0))
        exact = mittag_leffler_half(math.sqrt(math.pi))
        return abs(float(major.at_time(1.0)) - exact) / exact

    def problem(self, k):
        return self.warmup if k < 0 else self.pool[k % _POOL]

    def op(self, k):
        return dv.certify(self.problem(k))

    def check(self, res, k):
        prob, rep = self.problem(k), res.report
        bound, major = rep.bound.values, rep.majorant.values
        # the oracle must be a fixed point of the equality version it claims to solve
        w = dv.build_singular_weights(prob.spec, prob.nu)
        sweep = (
            prob.theta
            + dv.singular_convolution(prob.L * rep.majorant, w)
            + dv.delayed_product_convolution(prob.L, rep.majorant, w)
        )
        residual = float(np.max(np.abs(sweep.values - major))) / (1.0 + float(np.max(major)))
        ok = bool(res.passed) and bool(np.all(bound >= major)) and residual <= 1e-9
        ratio = _max_ratio_over_positive_t(prob.spec.times, bound, major)
        return ok, {"residual_max": residual, "bound_over_oracle": ratio, "cls": (prob.nu, prob.h)}

    def accuracy(self, per_op):
        """bound_over_oracle: geometric mean over (nu, h) classes of the class median.

        The classes differ by up to sixteen decades (K grows fast as nu falls),
        so a plain median over ops would jump between classes with the op count.
        """
        acc = super().accuracy(per_op)
        classes = {}
        for d in per_op:
            classes.setdefault(d["cls"], []).append(d["bound_over_oracle"])
        logs = [math.log(statistics.median(v)) for v in classes.values()]
        acc["bound_over_oracle"] = math.exp(sum(logs) / len(logs))
        return acc


# -- cli -----------------------------------------------------------------------

_CLI_CONFIGS = {
    "example414": """
command = example414
example.nu = 2/3
example.beta = 1/2
example.delta = 1/2
example.sigma = 1
example.epsilons = {eps}
example.resolutions = {res}
""",
    "verify": """
command = verify
problem.nu = 0.6
problem.h = 0.25
problem.T = 1.0
problem.L = constant(1)
problem.theta = constant(1)
grid.n_points = {n}
""",
    "solve": """
command = solve
problem.nu = 0.5
problem.h = 0.5
problem.T = 1.0
problem.p = 4.0
problem.kernel = linear(0,1,0.5)
problem.zeta = constant(1)
grid.n_points = {n}
""",
    "estimates": """
command = estimates
estimates.cases = {cases}
grid.n_points = {n}
""",
}


class Cli(Workload):
    """One fixed command mix through delvol.cli.main, in process.

    The same layers used differently: example414's kernel depends on t and is
    singular (no FFT history), verify has constant L (the Toeplitz side of item
    3), estimates makes many O(n) checks, and solve writes CSV.  A gain tuned to
    the other two workloads that costs this one shows here.
    """

    name = "cli"

    def __init__(self, seed, tiny=False, workdir=None):
        super().__init__(tiny)
        size = dict(
            eps="0.1,0.05" if tiny else "0.1,0.05,0.025",
            res="64,128" if tiny else "256,512",
            n=64 if tiny else 512,
            cases=2 if tiny else 8,
        )
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.commands = []
        for command, template in _CLI_CONFIGS.items():
            text = template.format(**size)
            cfg = self.workdir / f"{command}.cfg"
            cfg.write_text(text)
            out = self.workdir / command
            # the seed drives the randomized estimate suites
            argv = ["--config", str(cfg), "--out", str(out), "--seed", str(seed)]
            self.commands.append((command, argv, out))
        self.digest = _digest("cli", seed, *[(c, t.format(**size)) for c, t in _CLI_CONFIGS.items()])

    def op(self, k):
        codes = {}
        for command, argv, out in self.commands:
            if self.tracer is None:
                codes[command] = delvol.cli.main(argv)
            else:
                with self.tracer.span(f"cli.{command}"):
                    codes[command] = delvol.cli.main(argv)
        return codes

    def output_bytes(self) -> int:
        return sum(f.stat().st_size for _, _, out in self.commands for f in out.iterdir())

    def check(self, codes, k):
        if any(code != 0 for code in codes.values()):
            return False, {}
        d = self.workdir
        verdict = (d / "example414" / "verdict.txt").read_text()
        suite = (d / "estimates" / "estimates_report.txt").read_text().strip()
        rep = _read_csv(d / "verify" / "bound_report.csv")
        t, bound, major = rep["t"], rep["bound"], rep["majorant"]
        sol = _read_csv(d / "solve" / "solution.csv")
        residual_line = (d / "solve" / "residual.txt").read_text().strip().splitlines()[-1]
        xi = sol["xi_1"]
        residual = float(residual_line.split("=")[1]) / (1.0 + float(np.max(np.abs(xi))))
        i_h = int(np.argmin(np.abs(sol["t"] - 0.5)))
        exact = mittag_leffler_half(math.sqrt(0.5 * math.pi))  # zeta * E_{1/2}(sqrt(pi h))
        rel = abs(xi[i_h] - exact) / exact
        ok = (
            "solver values strictly increasing: True" in verdict
            and suite.endswith("suite: pass")
            and bool(np.all(bound >= major))
            and rel <= self.rel_tol
            and residual <= 1e-8
        )
        return ok, {
            "solve_rel_err": rel,
            "residual_max": residual,
            "bound_over_oracle": _max_ratio_over_positive_t(t, bound, major),
        }

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _read_csv(path) -> dict:
    lines = [l for l in Path(path).read_text().splitlines() if l and not l.startswith("#")]
    cols = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    return {c: data[:, i] for i, c in enumerate(cols)}


WORKLOADS = {"solve": Solve, "certify": Certify, "cli": Cli}


def make(name: str, seed: int, tiny: bool, scratch: Path) -> Workload:
    if name == "cli":
        return Cli(seed, tiny, workdir=tempfile.mkdtemp(prefix="cli-", dir=scratch))
    return WORKLOADS[name](seed, tiny)
