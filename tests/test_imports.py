"""Every name a ``prodsets`` module imports is used in that module, every
module it imports from outside the package is in the standard library, and
the CLI starts without the costly ones.

The toolchain has no linter, so a deleted function could leave its imports
behind unnoticed.  ``__init__.py`` imports only to re-export and is exempt
from the first check.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prodsets"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_is_checked():
    assert {"arith.py", "cli.py", "polyseq.py", "sequences.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{module} imports but never uses {unused}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_standard_library_is_imported(module):
    tree = ast.parse((PACKAGE / module).read_text())
    absolute = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            absolute.add(node.module.split(".")[0])
    outside = sorted(absolute - sys.stdlib_module_names)
    assert not outside, f"{module} imports {outside}, outside the standard library"


def test_the_cli_starts_without_dataclasses_or_inspect():
    # importing dataclasses pulls in inspect, ast, dis and tokenize: about a
    # third of the CLI's start-up when the package records used it
    code = ("import prodsets, prodsets.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
