"""Each DeskScaleError names its guard, the offending value and the limit."""

from fractions import Fraction

import pytest

from prodsets.arith import DeskScaleError, primes_in_range
from prodsets.extremal import max_fib_count
from prodsets.polyseq import (
    ABOVE_R,
    PolynomialZ,
    _beyond_power,
    window_stats,
)

GUARDS = {
    "PRIME_RANGE_LIMIT": (lambda: primes_in_range(0, 10**8 + 1),
                          ["100000000", "hi = 100000001"]),
    "MAX_UNIVERSE, MAX_SET_SIZE": (lambda: max_fib_count(41, 7),
                                   ["universe 40, size 6", "universe 41, size 7"]),
    "MAX_WINDOW_LENGTH": (lambda: window_stats(PolynomialZ([0, 1]), 0, 10**5 + 1, ABOVE_R),
                          ["100000", "R = 100001"]),
    "MAX_TERM_BITS": (lambda: window_stats(PolynomialZ([0, 2**100]), 0, 5, ABOVE_R),
                      ["96 bits", "x = 1 has 101 bits"]),
    "MAX_POWER_BITS": (lambda: _beyond_power(10**6, 20, Fraction(1, 10**6)),
                       ["1000000 bits", "gamma = 1/1000000", "r = 1000000",
                        "R = 20 need 20000005 bits"]),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_guard_message_names_guard_value_and_limit(guard):
    call, details = GUARDS[guard]
    with pytest.raises(DeskScaleError) as raised:
        call()
    message = str(raised.value)
    assert "capped" in message and f"({guard})" in message, message
    for detail in details:
        assert detail in message, message
