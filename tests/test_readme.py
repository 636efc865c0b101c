"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# each block padded with blank lines, so a traceback names its README line
BLOCKS = ["\n" * TEXT.count("\n", 0, match.start(1)) + match.group(1)
          for match in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {})
