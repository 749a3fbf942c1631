"""Acceptance suite: every bound the package promises, at its stated scale.

Each test prints one PASS line with the check's summary; `prodsets selftest`
runs the same checks from the command line.
"""

import pytest

from prodsets import acceptance


@pytest.mark.parametrize("name,check", acceptance.CHECKS,
                         ids=[name for name, _ in acceptance.CHECKS])
def test_acceptance(name, check):
    detail = check()   # raises CheckFailure on violation
    print(f"PASS {name}: {detail}")


def test_acyclic_check_reports_a_cycle(monkeypatch):
    # the failure messages are formatted only on failure: force one
    monkeypatch.setattr(acceptance.auxgraph, "find_cycle", lambda graph: [1, 2])
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^B = \(1,\): cycle under assignment \(\(1, \(\(1, 1\),\)\),\)$"):
        acceptance.check_07_acyclic_representations()
