"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first python block of the README's "Library" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    found = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert found, "no python block under ## Library"
    return found.group(1)


def test_readme_library_snippet_runs_and_prints_what_its_comments_say(capsys):
    namespace: dict = {}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    s_lhs, s_q, ratio = map(float, lines[0].split())
    assert ratio == pytest.approx(s_q / s_lhs, rel=1e-12) and ratio > 1
    assert float(lines[1]) == pytest.approx(3.0, abs=1e-9)  # sqrt(9)
    assert float(lines[2]) == pytest.approx(9.0, abs=1e-9)
    assert float(lines[3]) == pytest.approx(9.0, abs=1e-9)
    assert lines[4] == str({"dichotomic": float(np.sqrt(2 * 9))})
    lower = namespace["lower"]
    assert lower.value > 0 and lower.iterations > 0
