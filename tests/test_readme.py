import contextlib
import io
import math
import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_prints_what_it_states():
    # the python block of "Library quick start" runs as written (about 0.5 s),
    # so a renamed function or a dropped argument cannot leave it stale
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quick_start(), str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    assert 45.9987 <= float(first) < 45.9988  # printed as 45.9987...
    passed, min_margin, K = second.split()
    assert passed == "True"
    assert round(float(min_margin), 2) == 17.78
    assert round(float(K), 1) == 451.6


def test_readme_config_block_lists_exactly_the_schema_keys():
    from delvol.cli import _SCHEMA

    text = README.read_text()
    block = re.search(r"Full schema:\n\n```ini\n(.*?)```", text, re.S).group(1)
    keys = re.findall(r"^([\w.]+) =", block, re.M)
    assert sorted(keys) == sorted(_SCHEMA)
    assert len(keys) == 27


def test_library_runs_on_numpy_alone():
    # README names numpy as the one runtime dependency: with every scipy
    # import failing, the quick start and the special functions still run
    script = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            _quick_start(),
            "from delvol import beta, mittag_leffler_half",
            "print(beta(0.5, 0.5), mittag_leffler_half(-10.0))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    b, e = (float(x) for x in proc.stdout.splitlines()[-1].split())
    assert abs(b / math.pi - 1.0) <= 1e-15
    assert abs(e / 0.05614099274382259 - 1.0) <= 1e-15  # exp(100) erfc(10)
