"""Every Python block in README.md runs against the current API, and every
example of its CLI section exits 0 printing the JSON fields it lists."""

import json
import re
import shlex
from pathlib import Path

import pytest

from prodsets import cli

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


CLI = TEXT[TEXT.index("\n## CLI\n"):TEXT.index("\n## Library sketch\n")]
# each example block with the prose after it, up to the next block
EXAMPLES = re.findall(r"^```\n(prodsets .*?)\n```\n(.*?)(?=^```|\Z)", CLI, re.M | re.S)


def listed_fields(prose):
    """The backquoted names of "JSON fields: ..." up to its full stop, or
    those of the "JSON summary (...)" that ``window --out`` prints."""
    prose = " ".join(prose.split())
    summary = re.search(r"JSON summary \((.*?)\)", prose)
    if summary:
        listed = summary.group(1)
    else:
        listed = prose[prose.index("JSON fields:"):]
        while re.search(r"\([^()]*\)", listed):     # drop the glosses, nested ones too
            listed = re.sub(r"\([^()]*\)", "", listed)
        listed = listed[:listed.index(".")]
    return set(re.findall(r"`(\w+)`", listed))


def test_readme_cli_section_has_an_example_per_subcommand():
    commands = [shlex.split(line)[1] for line, _ in EXAMPLES]
    assert commands == ["fib-extremal", "lucas-bound", "graph", "window", "witness", "cover"]


@pytest.mark.parametrize("line, prose", EXAMPLES, ids=[line.split()[1] for line, _ in EXAMPLES])
def test_readme_cli_example_prints_its_listed_fields(line, prose, capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)        # every file argument is written or read here
    (tmp_path / "graph.txt").write_text("b1 a1 a2\nb2 a2\n")
    argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == listed_fields(prose)
