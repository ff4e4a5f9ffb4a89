"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.MULTILINE | re.DOTALL)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_example_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
