import math

import pytest

from prodsets import arith


@pytest.fixture
def rho_calls(monkeypatch):
    """The composites of each ``arith._rho_lanes`` call, one list per call,
    recorded while the walk itself runs unchanged under the budget it is
    given."""
    calls = []
    lanes = arith._rho_lanes

    def recording_lanes(composites, budget=math.inf):
        calls.append(composites)
        return lanes(composites, budget)

    monkeypatch.setattr(arith, "_rho_lanes", recording_lanes)
    return calls


@pytest.fixture
def ecm_calls(monkeypatch):
    """Each ``arith._ecm_lanes`` call as (composites, factors): the
    composites it was given and the factors it returned, recorded while the
    curves themselves run unchanged."""
    calls = []
    lanes = arith._ecm_lanes

    def recording_lanes(composites):
        calls.append((composites, lanes(composites)))
        return calls[-1][1]

    monkeypatch.setattr(arith, "_ecm_lanes", recording_lanes)
    return calls
