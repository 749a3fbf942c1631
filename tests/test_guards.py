"""Each DeskScaleError names its guard, the offending value and the limit."""

from fractions import Fraction

import pytest

from prodsets import cli
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


# (2^61 - 1)(2^89 - 1): a 150-bit constant term, so every term of a window at
# small r is over the cap; Pollard rho on it, or on a discriminant built from
# it, runs past 10 s, so the guard must come first
BIG = (2**61 - 1) * (2**89 - 1)


@pytest.mark.parametrize("argv", [
    ["witness", "--poly-factors", f"{BIG},0,0,1", "--r", "0", "--R", "5"],
    ["window", "--poly", f"{BIG},0,1", "--r", "0", "--R", "5", "--filter", "above",
     "--residue", "auto"],
    ["window", "--poly", f"{BIG},0,1", "--r", "0", "--R", "5", "--filter", "above"],
    None,   # the library call with no CLI in front of it
], ids=["witness-cubic", "window-residue", "window", "window-stats-admissible"])
def test_term_size_guard_runs_before_any_constant_is_factored(argv, capsys):
    if argv is None:
        with pytest.raises(DeskScaleError) as raised:
            window_stats(PolynomialZ([BIG, 0, 1]), 0, 5, ABOVE_R, admissible=True)
        err = str(raised.value)
    else:
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
    assert "(MAX_TERM_BITS)" in err and "x = 1 has 150 bits" in err, err
