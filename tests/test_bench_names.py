"""Every per-layer name in BENCHMARK.json still names code in the package.

The benchmark stops when a listed metric is not computed, so deleting a
function it traces must fail here first.  Only BENCHMARK.json is read.
"""

import importlib
import json
from pathlib import Path

import pytest

from prodsets.acceptance import CHECKS

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
MODULES = {"arith", "auxgraph", "cli", "coverlemma", "extremal", "polyseq",
           "productset", "sequences"}
NAMES = [entry["name"].split(".") for entry in SPEC["per_layer"]]
FUNCTIONS = sorted({f"{parts[0]}.{parts[1]}" for parts in NAMES
                    if len(parts) == 3 and parts[0] in MODULES})
ACCEPTANCE = sorted({parts[1] for parts in NAMES
                     if len(parts) == 3 and parts[0] == "acceptance"})


@pytest.mark.parametrize("traced", FUNCTIONS)
def test_traced_function_exists(traced):
    module, name = traced.split(".")
    assert hasattr(importlib.import_module(f"prodsets.{module}"), name), traced


def test_every_acceptance_name_is_a_check():
    assert ACCEPTANCE
    assert set(ACCEPTANCE) <= {name for name, _ in CHECKS}
