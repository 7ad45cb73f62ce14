import contextlib
import io
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delvol.cli
from delvol import (
    ExampleParams,
    GeneratorKernel,
    GridFunction,
    GridSpec,
    GronwallProblem,
    SolverConfig,
    VolterraProblem,
    blowup_diagnostic,
    certify,
    mittag_leffler_half,
    picard_solve,
)
from delvol.cli import _SCHEMA, RunConfig, main, parse_selector, run
from conftest import delayed_linear_exact, run_in_c_locale

VERIFY_ZERO_L = """
command = verify
problem.nu = 0.5
problem.h = 0.25
problem.T = 1.0
problem.q = 4.0
problem.L = constant(0)
problem.theta = constant(1)
grid.n_points = 128
"""

VERIFY_ACTIVE = """
command = verify
problem.nu = 0.6
problem.h = 0.25
problem.T = 1.0
problem.L = constant(1)
problem.theta = constant(1)
grid.n_points = 128
"""


def cli(args):
    return subprocess.run(
        [sys.executable, "-m", "delvol", *args],
        capture_output=True,
        text=True,
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_selector():
    assert parse_selector("zero") == ("zero", [])
    assert parse_selector("linear(0, 1, 0)") == ("linear", ["0", "1", "0"])
    assert parse_selector("table(path/to.csv)") == ("table", ["path/to.csv"])


def test_config_rejects_unknown_command():
    with pytest.raises(Exception):
        RunConfig.parse("command = warp")


def test_verify_zero_L(tmp_path):
    cfg = write(tmp_path, "v.cfg", VERIFY_ZERO_L)
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    rows = [
        line
        for line in (tmp_path / "out" / "bound_report.csv").read_text().splitlines()
        if line and not line.startswith(("#", "t,"))
    ]
    margins = [float(line.split(",")[-1]) for line in rows]
    assert all(m == 0.0 for m in margins)


def test_verify_passes_and_is_deterministic(tmp_path):
    cfg = write(tmp_path, "v.cfg", VERIFY_ACTIVE)
    p1 = cli(["--config", str(cfg), "--out", str(tmp_path / "r1")])
    p2 = cli(["--config", str(cfg), "--out", str(tmp_path / "r2")])
    assert p1.returncode == 0 and p2.returncode == 0
    b1 = (tmp_path / "r1" / "bound_report.csv").read_bytes()
    b2 = (tmp_path / "r2" / "bound_report.csv").read_bytes()
    assert b1 == b2


def test_verify_forced_failure_exit_code(tmp_path):
    cfg = write(tmp_path, "f.cfg", VERIFY_ACTIVE + "bound.K = 0\n")
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 3


def test_config_error_exit_code(tmp_path):
    cfg = write(tmp_path, "bad.cfg", "command = bogus\n")
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: 1:")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_theta_is_config_error(tmp_path, bad):
    text = VERIFY_ACTIVE.replace("constant(1)\ngrid", f"constant({bad})\ngrid")
    assert f"problem.theta = constant({bad})" in text
    cfg = write(tmp_path, "nf.cfg", text)
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: 1:")


def test_missing_config_exit_code(tmp_path):
    proc = cli(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert proc.returncode == 1


def test_nonconvergence_exit_code(tmp_path):
    cfg = write(
        tmp_path,
        "n.cfg",
        """
command = solve
problem.nu = 0.5
problem.h = 0.0
problem.T = 1.0
problem.p = 1.0
problem.kernel = linear(0,50,0)
problem.zeta = constant(1)
grid.n_points = 4
solver.epsilon = 0
solver.delta = 1.0
solver.force_delta = true
solver.max_iter = 30
""",
    )
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: 2:")


def test_solve_abel(tmp_path):
    cfg = write(
        tmp_path,
        "s.cfg",
        """
command = solve
problem.nu = 0.5
problem.h = 1.0
problem.T = 1.0
problem.p = 4.0
problem.kernel = linear(0,1,0)
problem.zeta = constant(1)
grid.n_points = 500
""",
    )
    out = tmp_path / "out"
    proc = cli(["--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    last = (out / "solution.csv").read_text().splitlines()[-1]
    t_val, xi_val = (float(x) for x in last.split(","))
    assert t_val == 1.0
    exact = mittag_leffler_half(math.sqrt(math.pi))
    assert xi_val == pytest.approx(exact, rel=1e-3)
    assert (out / "residual.txt").exists()


def test_solve_delayed_linear(tmp_path):
    cfg = write(
        tmp_path,
        "d.cfg",
        """
command = solve
problem.nu = 0.5
problem.h = 0.5
problem.T = 1.0
problem.p = 4.0
problem.kernel = delayed-linear
problem.zeta = constant(1)
grid.n_points = 256
""",
    )
    out = tmp_path / "out"
    proc = cli(["--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    last = (out / "solution.csv").read_text().splitlines()[-1]
    xi_val = float(last.split(",")[1])
    assert xi_val == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-5)


def test_solve_linear_converges_to_the_exact_delayed_solution(tmp_path):
    # linear(c0, c1, c2) with c0 != 0 through main(): relative errors
    # 1.54e-5 and 5.68e-6 (order 1.44) were measured at n = 2048 and 4096
    cfg = write(
        tmp_path,
        "l.cfg",
        """
command = solve
problem.nu = 0.5
problem.h = 0.5
problem.T = 1.0
problem.kernel = linear(0.5,1,0.5)
problem.zeta = constant(1)
""",
    )
    exact = delayed_linear_exact(1.0, 0.5, 0.5, 1.0, 0.5, c0=0.5)
    errors = []
    for n in (2048, 4096):
        out = tmp_path / f"out{n}"
        assert main(["--config", str(cfg), "--out", str(out), "--grid", str(n)]) == 0
        last = (out / "solution.csv").read_text().splitlines()[-1]
        t_val, xi_val = (float(x) for x in last.split(","))
        assert t_val == 1.0
        errors.append(abs(xi_val - exact) / exact)
    assert math.log2(errors[0] / errors[1]) >= 1.4
    assert errors[1] <= 1.1 * 5.68e-6


def test_table_round_trip_same_verdict(tmp_path):
    # write theta/L tables from one run, reload them, verdict must repeat
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    theta = GridFunction.from_callable(spec, lambda t: 1.0 + 0.5 * np.sin(3 * t) ** 2)
    L = GridFunction.constant(spec, 0.8)
    theta.to_csv(tmp_path / "theta.csv")
    L.to_csv(tmp_path / "L.csv")
    text = f"""
command = verify
problem.nu = 0.6
problem.h = 0.25
problem.T = 1.0
problem.L = table({tmp_path / 'L.csv'})
problem.theta = table({tmp_path / 'theta.csv'})
grid.n_points = 128
"""
    cfg = write(tmp_path, "t.cfg", text)
    p1 = cli(["--config", str(cfg), "--out", str(tmp_path / "o1")])
    p2 = cli(["--config", str(cfg), "--out", str(tmp_path / "o2")])
    assert p1.returncode == p2.returncode == 0


def test_hash_inside_value_is_kept(tmp_path):
    # '#' opens a comment only at the start of a line or after whitespace
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    GridFunction.constant(spec, 1.0).to_csv(tmp_path / "th#1.csv")
    text = VERIFY_ACTIVE.replace(
        "problem.theta = constant(1)",
        f"# theta from a table\nproblem.theta = table({tmp_path / 'th#1.csv'})  # ok",
    )
    cfg = write(tmp_path, "h.cfg", text)
    assert RunConfig.parse(text).get("problem.theta") == f"table({tmp_path / 'th#1.csv'})"
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr


def _plain_value(v):
    return (
        v == v.strip()
        and "".join(v.splitlines()) == v
        and not re.search(r"(?:^|\s)#", v)
    )


@given(value=st.text(alphabet=st.characters(codec="utf-8")).filter(_plain_value))
@settings(max_examples=200, deadline=None)
def test_config_value_round_trip(value):
    cfg = RunConfig.parse(f"command = solve\nproblem.zeta = {value}  # comment\n")
    assert cfg.get("problem.zeta") == value


FLOAT_KEYS = [
    "problem.nu", "problem.h", "problem.T", "problem.p", "problem.q",
    "solver.epsilon", "solver.delta", "solver.picard_tol", "bound.K", "output.tol",
]
# written a/b, these keep the exact Fraction
NUMBER_KEYS = [
    "example.nu", "example.beta", "example.delta", "example.sigma", "example.gamma",
]
TYPED_KEYS = FLOAT_KEYS + NUMBER_KEYS + [
    "seed", "grid.n_points", "solver.max_iter", "solver.force_delta",
    "example.epsilons", "example.resolutions", "estimates.cases",
]
RAW_KEYS = ["command", "problem.kernel", "problem.zeta", "problem.L", "problem.theta"]


def test_schema_lists_every_key_once():
    assert sorted(_SCHEMA) == sorted(TYPED_KEYS + RAW_KEYS)
    assert len(_SCHEMA) == 27
    assert all(_SCHEMA[key] is str for key in RAW_KEYS)


def test_values_are_typed_at_parse_time():
    cfg = RunConfig.parse(
        "command = example414\nseed = 7\nsolver.force_delta = Yes\n"
        "example.epsilons = 0.1, 0.05\nexample.resolutions = 64,128\n"
        "example.nu = 2/3\noutput.tol =\n"
    )
    assert cfg.get("seed") == 7
    assert cfg.get("solver.force_delta") is True
    assert cfg.get("example.epsilons") == (0.1, 0.05)
    assert cfg.get("example.resolutions") == (64, 128)
    assert cfg.get("example.nu") == Fraction(2, 3)
    # an empty typed value counts as absent
    assert cfg.get("output.tol", None) is None
    with pytest.raises(Exception, match="missing required key 'problem.nu'"):
        cfg.get("problem.nu")


@given(key=st.sampled_from(FLOAT_KEYS + NUMBER_KEYS), x=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_typed_float_round_trip(key, x):
    assert RunConfig.parse(f"command = solve\n{key} = {x!r}\n").get(key) == x


@given(
    key=st.sampled_from(FLOAT_KEYS + NUMBER_KEYS),
    a=st.integers(-(10**15), 10**15),
    b=st.integers(1, 10**15),
)
@settings(max_examples=200, deadline=None)
def test_typed_fraction_round_trip(key, a, b):
    got = RunConfig.parse(f"command = solve\n{key} = {a}/{b}\n").get(key)
    want = Fraction(a, b) if key in NUMBER_KEYS else float(Fraction(a, b))
    assert got == want and type(got) is type(want)


def _exits_with_one_config_error(out_dir, text, message=""):
    """main exits 1 on the config text (str, or bytes as written) with one
    ``error: 1:`` line holding message."""
    cfg = out_dir / "bad.cfg"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    else:
        cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(out_dir / "out")])
    lines = err.getvalue().splitlines()
    one_line = len(lines) == 1 and lines[0].startswith("error: 1:")
    return code == 1 and one_line and message in lines[0]


# numbers no typed key or selector argument accepts
MALFORMED = st.one_of(
    st.builds("{}/0".format, st.integers()),
    st.builds("{}/{}/{}".format, st.integers(), st.integers(1), st.integers(1)),
    st.builds("{}.5/{}".format, st.integers(0), st.integers(1)),
    st.text(alphabet="bcdxz_@", min_size=1),
)

VERIFY_SMALL = "command = verify\nproblem.nu = 0.5\nproblem.h = 0.25\ngrid.n_points = 16\n"
SOLVE_SMALL = "command = solve\nproblem.nu = 0.5\nproblem.h = 0.25\ngrid.n_points = 16\n"
SELECTOR_CONFIGS = [
    VERIFY_SMALL + "problem.theta = constant({})\n",
    VERIFY_SMALL + "problem.L = power({})\n",
    SOLVE_SMALL + "problem.kernel = linear(0,{},0)\n",
    SOLVE_SMALL + "problem.kernel = zero\nproblem.zeta = constant({})\n",
    SOLVE_SMALL + "problem.kernel = example414({},1/2,1/2,1,1/2)\n",
]


@given(
    key=st.sampled_from(TYPED_KEYS),
    command=st.sampled_from(["solve", "bound", "verify", "example414", "estimates"]),
    bad=MALFORMED,
)
@settings(max_examples=200, deadline=None)
def test_malformed_typed_value_is_config_error(tmp_path_factory, key, command, bad):
    # checked at parse time, whether or not the command reads the key; the
    # small sizes keep a command that ignored the bad line short (a key is
    # given once: a repeated key is an error of its own)
    fast = "grid.n_points = 16\nestimates.cases = 1\nexample.epsilons = 0.1\nexample.resolutions = 16\n"
    fast = "".join(line + "\n" for line in fast.splitlines() if not line.startswith(key + " "))
    out = tmp_path_factory.mktemp("typed")
    assert _exits_with_one_config_error(out, f"command = {command}\n{fast}{key} = {bad}\n")


@given(template=st.sampled_from(SELECTOR_CONFIGS), bad=MALFORMED)
@settings(max_examples=200, deadline=None)
def test_malformed_selector_argument_is_config_error(tmp_path_factory, template, bad):
    out = tmp_path_factory.mktemp("selector")
    assert _exits_with_one_config_error(out, template.format(bad))


@pytest.mark.parametrize(
    "text",
    [
        VERIFY_SMALL.replace("0.5", "1/0", 1),
        VERIFY_SMALL + "problem.theta = constant(1/0)\n",
        "command = example414\nexample.nu = 1/0\n",
        "command = estimates\nestimates.cases = 1\ngrid.n_points = 16\nproblem.nu = 1/0\n",
        VERIFY_SMALL.replace("0.5", "0", 1),
    ],
    ids=["problem.nu", "constant", "example.nu", "unread-key", "zero-nu"],
)
def test_bad_number_is_config_error(tmp_path, text):
    assert _exits_with_one_config_error(tmp_path, text)


@pytest.mark.parametrize(
    "entries, field",
    [
        ("solver.delta = inf\nsolver.force_delta = true\n", "delta"),
        ("solver.epsilon = nan\n", "epsilon"),
        ("solver.picard_tol = inf\n", "picard_tol"),
    ],
    ids=["forced-inf-delta", "nan-epsilon", "inf-tol"],
)
def test_non_finite_solver_value_is_config_error(tmp_path, entries, field):
    # the error names the offending field, not a window derived from it
    cfg = write(tmp_path, "s.cfg", SOLVE_SMALL + "problem.kernel = linear(0,1,0)\n" + entries)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: 1:")
    assert field in lines[0]


SOLVE_LINEAR = SOLVE_SMALL + "problem.kernel = linear(0,1,0)\n"


@pytest.mark.parametrize(
    "text, flags, field",
    [
        (SOLVE_LINEAR.replace("problem.h = 0.25", "problem.h = nan"), [], "delay h must be finite"),
        (SOLVE_LINEAR.replace("problem.h = 0.25", "problem.h = inf"), [], "delay h must be finite"),
        (SOLVE_LINEAR + "problem.T = inf\n", [], "t_end must be finite"),
        (SOLVE_LINEAR + "problem.T = nan\n", [], "t_end must be finite"),
        (SOLVE_LINEAR + "problem.p = nan\n", [], "exponent p must be finite"),
        (VERIFY_SMALL + "problem.q = nan\n", [], "q=nan"),
        (VERIFY_SMALL + "problem.q = inf\n", [], "q=inf"),
        (VERIFY_SMALL + "bound.K = nan\n", [], "K must be finite"),
        (VERIFY_SMALL + "bound.K = inf\n", [], "K must be finite"),
        (VERIFY_SMALL + "output.tol = nan\n", [], "tol must be finite"),
        (VERIFY_SMALL + "output.tol = -1\n", [], "tol must be finite"),
        (VERIFY_SMALL, ["--tol", "nan"], "tol must be finite"),
        (VERIFY_SMALL, ["--tol=-1e-3"], "tol must be finite"),
        (VERIFY_SMALL + "bound.K = 1\n", ["--tol", "inf"], "tol must be finite"),
    ],
    ids=[
        "nan-h", "inf-h", "inf-T", "nan-T", "nan-p", "nan-q", "inf-q", "nan-K", "inf-K",
        "nan-output.tol", "negative-output.tol", "nan-flag", "negative-flag", "inf-flag-with-K",
    ],
)
def test_non_finite_input_exits_1_naming_its_field(tmp_path, text, flags, field):
    # each value used to reach a solve, a traceback or exit 3 before it was named
    cfg = write(tmp_path, "bad.cfg", text)
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(out), *flags])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: 1:")
    assert field in lines[0]
    assert list(out.iterdir()) == []


def test_bound_K_run_checks_tol_before_the_bound(tmp_path, monkeypatch):
    # the tolerance of a bound.K run used to be checked only by the verdict,
    # after every constant and the oracle had been built
    import delvol.cli

    def no_bound(*args):
        raise AssertionError("tol must be checked before the bound is built")

    monkeypatch.setattr(delvol.cli, "gronwall_bound", no_bound)
    cfg = write(tmp_path, "k.cfg", VERIFY_SMALL + "bound.K = 1\n")
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(out), "--tol", "inf"])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and "tol must be finite" in lines[0]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--config", "c.cfg", "--grid", "abc"], "invalid int value"),
        (["--out", "out"], "required: --config"),
        (["--config", "c.cfg", "--workers", "3"], "unrecognized arguments: --workers 3"),
    ],
    ids=["bad-grid", "no-config", "workers"],
)
def test_usage_error_is_one_config_error_line(capsys, argv, reason):
    # argparse's own exit code 2 would read as non-convergence
    with pytest.raises(SystemExit) as exc:
        main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert exc.value.code == 1
    assert len(lines) == 1 and lines[0].startswith("error: 1:") and reason in lines[0]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_explicit_zero_grid_is_honoured(tmp_path):
    # --grid 0 is an explicit value, not an absent one
    cfg = write(tmp_path, "v.cfg", VERIFY_ACTIVE)
    proc = cli(["--config", str(cfg), "--out", str(tmp_path / "out"), "--grid", "0"])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: 1: n_points must be >= 2, got 0"]
    estimates = RunConfig.parse("command = estimates\nestimates.cases = 1\n")
    with pytest.raises(ValueError, match="n_points must be >= 2, got 0"):
        run(estimates, tmp_path / "est", seed=1, grid_override=0)


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_empty_estimate_suite_rejected(tmp_path, cases):
    text = f"command = estimates\nestimates.cases = {cases}\ngrid.n_points = 64\n"
    assert _exits_with_one_config_error(tmp_path, text)
    assert not (tmp_path / "out" / "estimates_report.txt").exists()


@pytest.mark.parametrize(
    "output_tol, flag, expect",
    [(None, None, None), ("0", None, 0.0), ("1e-6", None, 1e-6), ("1e-6", 0.0, 0.0), (None, 1e-3, 1e-3)],
)
def test_verify_tolerance_rule(tmp_path, monkeypatch, output_tol, flag, expect):
    # --tol, else output.tol, else certify's default; an explicit 0 means 0
    import delvol.cli

    seen = []
    real = delvol.cli.certify
    monkeypatch.setattr(
        delvol.cli, "certify", lambda prob, tol=None: seen.append(tol) or real(prob, tol=tol)
    )
    text = VERIFY_SMALL + (f"output.tol = {output_tol}\n" if output_tol else "")
    assert run(RunConfig.parse(text), tmp_path, seed=1, tol=flag) == 0
    assert seen == [expect] and type(seen[0]) is type(expect)


def test_estimates_command(tmp_path):
    cfg = write(
        tmp_path,
        "e.cfg",
        """
command = estimates
estimates.cases = 6
grid.n_points = 256
""",
    )
    out = tmp_path / "out"
    proc = cli(["--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    report = (out / "estimates_report.txt").read_text()
    assert report.strip().endswith("suite: pass")


def test_grid_flag_sets_the_estimates_grid(tmp_path):
    # --grid overrides grid.n_points for the estimate suites too
    text = "command = estimates\nestimates.cases = 3\ngrid.n_points = {n}\n"
    reports = []
    for n, flag in ((128, 64), (64, None), (128, None)):
        out = tmp_path / f"out-{n}-{flag}"
        assert run(RunConfig.parse(text.format(n=n)), out, seed=3, grid_override=flag) == 0
        lines = (out / "estimates_report.txt").read_text().splitlines(keepends=True)
        # the header echoes the config, which names n; the records follow it
        reports.append("".join(l for l in lines if not l.startswith("#")))
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]


def test_example414_command(tmp_path):
    cfg = write(
        tmp_path,
        "x.cfg",
        """
command = example414
example.nu = 2/3
example.beta = 1/2
example.delta = 1/2
example.sigma = 1
example.epsilons = 0.1,0.05,0.001
example.resolutions = 128,256
""",
    )
    out = tmp_path / "out"
    proc = cli(["--config", str(cfg), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    lines = (out / "blowup.csv").read_text().splitlines()
    assert lines[-1].startswith("# verdict:")
    assert (out / "verdict.txt").read_text().count("diverges") == 1
    rows = [l.split(",") for l in lines if l and not l.startswith(("#", "epsilon"))]
    at_tail = [r for r in rows if float(r[0]) == 1e-3]
    assert at_tail and all(
        abs(float(r[1]) - 27.0) <= 1e-12 * 27.0 for r in at_tail
    )
    top = [float(r[2]) for r in rows if r[3] == "256"]
    assert all(b > a for a, b in zip(top, top[1:]))  # eps decreasing down the file


def test_grid_and_seed_flags(tmp_path):
    cfg = write(tmp_path, "v.cfg", VERIFY_ACTIVE)
    proc = cli(
        ["--config", str(cfg), "--out", str(tmp_path / "out"), "--grid", "64",
         "--seed", "7"]
    )
    assert proc.returncode == 0
    head = (tmp_path / "out" / "bound_report.csv").read_text().splitlines()[:2]
    assert head[0] == "# seed = 7"
    assert "n_points=64" in head[1]


@pytest.mark.parametrize(
    "columns, field",
    [(2, "L must be scalar-valued"), (0, "problem.L: CSV has a t column but no value column")],
    ids=["two-value-columns", "t-only"],
)
def test_non_scalar_table_exits_1_naming_its_field(tmp_path, columns, field):
    # numpy's broadcast error (two columns) or "need at least one array to
    # stack" (t only) used to be the whole message
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    table = np.column_stack([spec.times] + [np.zeros(spec.n_nodes)] * columns)
    np.savetxt(tmp_path / "L.csv", table, delimiter=",", header="t,a,b"[: 1 + 2 * columns])
    cfg = write(tmp_path, "v.cfg", VERIFY_SMALL + f"problem.L = table({tmp_path / 'L.csv'})\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: 1:")
    assert field in lines[0]


@pytest.mark.parametrize(
    "bad, message",
    [("0.0625,0,7", "problem.L: CSV line 7 has 3 cells, the first row 2"),
     ("0.0625,abc", "problem.L: CSV line 7: could not convert string to float: 'abc'")],
    ids=["extra-cell", "non-numeric"],
)
def test_malformed_table_exits_1_naming_its_key_and_line(tmp_path, bad, message):
    # numpy's "inhomogeneous shape" and float()'s message used to be all of it
    spec = GridSpec(t_end=1.0, n_points=16, h=0.25)
    lines = ["t,value"] + [f"{t:.17g},0" for t in spec.times]
    lines[6] = bad  # node t = 0.0625, line 7 of the file
    (tmp_path / "L.csv").write_text("\n".join(lines) + "\n")
    cfg = write(tmp_path, "v.cfg", VERIFY_SMALL + f"problem.L = table({tmp_path / 'L.csv'})\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1 and lines[0].startswith("error: 1:")
    assert lines[0].endswith(message)


def test_repeated_key_is_config_error(tmp_path):
    # the second line used to win silently while the header echoed both
    text = SOLVE_SMALL + "problem.kernel = linear(0,1,0)\ngrid.n_points = 32\n"
    assert _exits_with_one_config_error(tmp_path, text)
    with pytest.raises(ValueError, match="repeated config key 'grid.n_points'"):
        RunConfig.parse(text)


@pytest.mark.parametrize("kernel", ["zero(5)", "delayed-linear(1,2)"])
def test_fixed_kernels_reject_arguments(tmp_path, kernel):
    assert _exits_with_one_config_error(tmp_path, SOLVE_SMALL + f"problem.kernel = {kernel}\n")


@pytest.mark.parametrize("kernel", ["zero", "zero()"])
def test_zero_kernel_without_arguments_solves(tmp_path, kernel):
    cfg = write(tmp_path, "z.cfg", SOLVE_SMALL + f"problem.kernel = {kernel}\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _body(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def test_library_and_cli_share_their_defaults(tmp_path, monkeypatch):
    # each default has one owner: the library's, whichever way a run reaches it
    spec = GridSpec(t_end=1.0, n_points=128, h=1.0)
    prob = VolterraProblem(
        zeta=GridFunction.constant(spec, 1.0),
        kernel=GeneratorKernel(
            kappa=lambda t, s, xi, xi_h, u: np.asarray(xi, dtype=float),
            L0=GridFunction.constant(spec, 0.0),
            L=GridFunction.constant(spec, 1.0),
            u0=np.zeros(1),
        ),
        control=GridFunction.zeros(spec),
        nu=0.5,
        h=1.0,
        p=4.0,
        spec=spec,
    )
    assert np.array_equal(picard_solve(prob, SolverConfig()).values, picard_solve(prob).values)

    # verify without problem.q: the library's q = 2/nu
    cfg = write(tmp_path, "v.cfg", VERIFY_ACTIVE)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    vspec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    one = GridFunction.constant(vspec, 1.0)
    certify(GronwallProblem.build(one, one, 0.6)).report.to_csv(tmp_path / "lib.csv")
    for ran, lib in (("bound_report.csv", "lib.csv"), ("bound_report_constants.txt", "lib_constants.txt")):
        assert _body(tmp_path / "v" / ran) == _body(tmp_path / lib)
    # K does not show q here (K1 never binds), so check the q the CLI builds
    built = delvol.cli.build_gronwall_problem(RunConfig.parse(VERIFY_ACTIVE), vspec)
    assert built.q == GronwallProblem.build(one, one, 0.6).q

    # example414 without example.*: ExampleParams' set, blowup_diagnostic's grids
    cfg = write(tmp_path, "x.cfg", "command = example414\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    blowup_diagnostic(ExampleParams()).to_csv(tmp_path / "blowup.csv")
    assert _body(tmp_path / "x" / "blowup.csv") == _body(tmp_path / "blowup.csv")

    # an example414 kernel needs neither problem.p nor problem.nu; p is the
    # example's admissible default, 2 in (3/2, 3)
    seen = []
    real = delvol.cli.picard_solve
    monkeypatch.setattr(delvol.cli, "picard_solve", lambda pr, c: seen.append(pr.p) or real(pr, c))
    text = (
        "command = solve\nproblem.T = 0.9\nproblem.h = 0.45\ngrid.n_points = 32\n"
        "problem.kernel = example414(2/3,1/2,1/2,1,1/2)\n"
    )
    cfg = write(tmp_path, "s.cfg", text)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    assert seen == [2.0]


@pytest.mark.parametrize(
    "epsilons, message",
    [("0.1,0", "cutoff eps must lie in (0, 1), got 0.0"), ("0.1,-0.05", "got -0.05")],
    ids=["zero", "negative"],
)
def test_cutoff_outside_the_unit_interval_is_config_error(tmp_path, epsilons, message):
    # 0 raised ZeroDivisionError; -0.05 solved on [0, 1.05], across the
    # singular point s = 1, and then failed writing a complex lower bound
    text = f"command = example414\nexample.epsilons = {epsilons}\nexample.resolutions = 16,32\n"
    assert _exits_with_one_config_error(tmp_path, text, message)
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("target", ["directory", "missing", "not-utf8"])
def test_unreadable_table_is_config_error_naming_key_and_path(tmp_path, target):
    # a directory raised IsADirectoryError, and non-UTF-8 bytes UnicodeDecodeError
    path = tmp_path / {"directory": "adir", "missing": "nope.csv", "not-utf8": "t.csv"}[target]
    if target == "directory":
        path.mkdir()
    elif target == "not-utf8":
        path.write_bytes(b"t,value\n\xff,1\n")
    text = VERIFY_SMALL + f"problem.theta = table({path})\n"
    assert _exits_with_one_config_error(tmp_path, text, f"problem.theta: cannot read table {path}")
    assert not any((tmp_path / "out").glob("*"))


def test_config_that_is_not_utf8_is_config_error(tmp_path):
    # read_text raised UnicodeDecodeError past main's OSError handler
    text = VERIFY_SMALL.encode() + b"# caf\xe9\n"
    assert _exits_with_one_config_error(tmp_path, text, "cannot read config")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (VERIFY_SMALL + "problem.colour = red\n", "unknown config keys: problem.colour"),
        (VERIFY_SMALL + "problem.q 4\n", "expected 'key = value'"),
        (VERIFY_SMALL + "= 4\n", "empty key"),
        (VERIFY_SMALL + "problem.theta = constant(1\n", "bad selector syntax"),
        (VERIFY_SMALL + "problem.theta = constant(1,2)\n", "constant(c) takes one argument"),
        (VERIFY_SMALL + "problem.L = power()\n", "power(sigma) takes one argument"),
        (VERIFY_SMALL + "problem.L = table(a.csv,b.csv)\n", "table(path) takes one argument"),
        (SOLVE_SMALL + "problem.kernel = linear(0,1)\n", "linear kernel needs linear(c0,c1,c2)"),
        (SOLVE_SMALL + "problem.kernel = example414(2/3,1/2)\n", "example414 kernel needs"),
        (
            VERIFY_SMALL + "problem.theta = cosine(1)\n",
            "unknown function selector 'cosine' for 'problem.theta'",
        ),
        (SOLVE_SMALL + "problem.kernel = quadratic\n", "unknown kernel selector 'quadratic'"),
    ],
    ids=[
        "unknown-key", "no-equals", "empty-key", "selector-syntax", "constant-args", "power-args",
        "table-args", "linear-args", "example414-args", "function-selector", "kernel-selector",
    ],
)
def test_cli_rejects(tmp_path, text, message):
    assert _exits_with_one_config_error(tmp_path, text, message)


def test_verify_reads_a_utf8_config_whatever_the_locale(tmp_path):
    # under an ASCII locale a non-ASCII comment made the config unreadable
    cfg = tmp_path / "v.cfg"
    cfg.write_text("# r\u00e9sum\u00e9\n" + VERIFY_ZERO_L, encoding="utf-8")
    proc = run_in_c_locale("-m", "delvol", "--config", str(cfg), "--out", str(tmp_path / "c"))
    assert proc.returncode == 0, proc.stderr
    assert main(["--config", str(cfg), "--out", str(tmp_path / "utf8")]) == 0
    for name in ("bound_report.csv", "bound_report_constants.txt"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()


def test_table_with_a_utf8_header_reads_whatever_the_locale(tmp_path):
    # a table that to_csv wrote with a non-ASCII header line: under an ASCII
    # locale it could not be read back
    spec = GridSpec(t_end=1.0, n_points=128, h=0.25)
    table = tmp_path / "theta.csv"
    GridFunction.constant(spec, 1.0).to_csv(table, header_lines=["r\u00e9sum\u00e9"])
    text = VERIFY_ZERO_L.replace("constant(1)", f"table({table})")
    cfg = write(tmp_path, "v.cfg", text)
    proc = run_in_c_locale("-m", "delvol", "--config", str(cfg), "--out", str(tmp_path / "c"))
    assert proc.returncode == 0, proc.stderr


def test_unusable_out_exits_1_with_one_line(tmp_path, capsys):
    # an existing file, a path under one, and an output name taken by a
    # directory each printed a traceback
    cfg = write(tmp_path, "v.cfg", VERIFY_ZERO_L)
    afile = write(tmp_path, "afile", "")
    taken = tmp_path / "taken"
    (taken / "bound_report.csv").mkdir(parents=True)
    for out in (afile, afile / "sub", taken):
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: 1: cannot write output: ")
