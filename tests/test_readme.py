"""Every Python block in README.md runs against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
# each block is padded with blank lines so tracebacks cite README line numbers
BLOCKS = ["\n" * TEXT.count("\n", 0, match.start(1)) + match.group(1)
          for match in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
