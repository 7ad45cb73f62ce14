import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_prints_what_it_states():
    # the python block of "Library quick start" runs as written (about 0.5 s),
    # so a renamed function or a dropped argument cannot leave it stale
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
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
