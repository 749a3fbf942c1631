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
