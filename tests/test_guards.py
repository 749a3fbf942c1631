"""Each DeskScaleError names its guard, the offending value and the limit."""

from fractions import Fraction

import pytest
from sympy import integer_nthroot, nextprime

from prodsets import cli, polyseq
from prodsets.arith import DeskScaleError, primes_in_range
from prodsets.extremal import max_fib_count
from prodsets.polyseq import (
    ABOVE_R,
    MAX_TERM_BITS,
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
                       ["1000000 bits", "numerator and denominator have 1 and 20 bits",
                        "r = 1000000", "R = 20"]),
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


@pytest.fixture
def capped_factorer(monkeypatch):
    # a value past the cap may keep rho busy for minutes, so a missing set-up
    # guard fails here at once instead of hanging the suite
    factorize, factorize_batch = polyseq.factorize, polyseq.factorize_batch

    def under_cap(values):
        assert all(v.bit_length() <= MAX_TERM_BITS for v in values), \
            "a value past MAX_TERM_BITS reached the factorer"
        return values

    monkeypatch.setattr(polyseq, "factorize", lambda n: factorize(under_cap([n])[0]))
    monkeypatch.setattr(polyseq, "factorize_batch",
                        lambda values: factorize_batch(under_cap(list(values))))


A = nextprime(2**89)
K = nextprime(A)
P = nextprime(2**70)
Q = nextprime(P)
R0 = integer_nthroot(P * Q, 3)[0] + 1
L = 2**100 + 1


def csv(coeffs):
    return ",".join(map(str, coeffs))


@pytest.mark.parametrize("argv, detail", [
    # a(x - 10^6)^2 + k: terms of at most 94 bits, residue modulus 4ak
    (["window", "--poly", csv([A * 10**12 + K, -2 * 10**6 * A, A]), "--r", "1000000",
      "--R", "5", "--filter", "above", "--residue", "auto"],
     "the residue modulus |disc| * d^2 has 181 bits"),
    # (x - r0)^3 + r0^3 - pq: terms of at most 91 bits, constant term -pq
    (["witness", f"--poly-factors={csv([-P * Q, 3 * R0**2, -3 * R0, 1])}",
      "--r", str(R0), "--R", "5"],
     "the constant term has 141 bits"),
    # L x^3 - L x^2 + 7: the one term f(1) is 7
    (["witness", f"--poly-factors={csv([7, 0, -L, L])}", "--r", "0", "--R", "1"],
     "the leading coefficient has 101 bits"),
], ids=["residue-modulus", "cubic-constant", "cubic-leading"])
def test_set_up_values_are_held_to_the_term_cap(argv, detail, capped_factorer, capsys):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "capped at 96 bits (MAX_TERM_BITS)" in err and detail in err, err
