import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delvol import GridFunction, GridSpec, mittag_leffler_half
from delvol.cli import RunConfig, parse_selector, run

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
    proc = cli(["--config", str(cfg), "--out", str(out), "--workers", "3"])
    assert proc.returncode == 0, proc.stderr
    report = (out / "estimates_report.txt").read_text()
    assert report.strip().endswith("suite: pass")


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
