"""factorize and is_prime against sympy over 1-80 bits; crt_solve against
sympy's crt.

Covers random integers, prime powers and prime-square multiples just above
the trial-division cutover (and above 2^16, 10^6 and 2^31), exact powers of
primes above 2^31 and 2^40 (split by the perfect-power test, not by rho), and
Carmichael numbers, which fool the Fermat test for every coprime base.  The
gcd trial stage is checked at its edges: values with no trial prime, only
trial primes, every trial prime, and primes on both sides of 2^10.
"""

import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.ntheory.modular import crt

from prodsets.arith import (
    TRIAL_DIVISION_LIMIT,
    _PRIMORIAL,
    _iroot,
    _perfect_power,
    crt_solve,
    factorize,
    is_prime,
    primes_upto,
)

ORACLE = settings(max_examples=80, derandomize=True, deadline=None, database=None)

# least primes above 2^10 (the cutover), 2^16 and 10^6, with their successors
ABOVE_CUTOVERS = ((1031, 1033), (65537, 65539), (1000003, 1000033))
P_ABOVE_2_31 = 2147483659

# Carmichael numbers: the first few, and Chernick's (6k+1)(12k+1)(18k+1) with
# all three factors prime, at 60 and 80 bits
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
CARMICHAEL += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in (76491, 9770245)]


def assert_matches_oracle(n):
    assert dict(factorize(n).factors) == sympy.factorint(n), n


@ORACLE
@given(st.integers(min_value=1, max_value=2**48))
def test_factorize_matches_sympy_up_to_48_bits(n):
    assert_matches_oracle(n)


@ORACLE
@given(st.integers(min_value=1, max_value=2**40), st.integers(min_value=1, max_value=2**40))
def test_factorize_matches_sympy_on_products_up_to_80_bits(a, b):
    assert_matches_oracle(a * b)


@ORACLE
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=2**40))
def test_factorize_prime_powers_above_the_cutover(offset, exponent, cofactor):
    p = sympy.nextprime(TRIAL_DIVISION_LIMIT + offset)
    assert_matches_oracle(p**exponent * cofactor)


def test_factorize_prime_powers_above_each_cutover():
    for p, q in ABOVE_CUTOVERS:
        for e in (2, 3, 4):
            assert factorize(p**e).factors == ((p, e),)
        assert factorize(p**2 * q).factors == ((p, 2), (q, 1))
    assert factorize(P_ABOVE_2_31**2).factors == ((P_ABOVE_2_31, 2),)


@pytest.mark.parametrize("p", [sympy.nextprime(2**31), sympy.nextprime(2**40)])
@pytest.mark.parametrize("exponent", [2, 3, 4, 5])
def test_factorize_large_prime_powers(p, exponent):
    assert_matches_oracle(p**exponent)
    assert_matches_oracle(3 * 1031 * p**exponent)


def test_primorial_is_the_product_of_the_trial_primes():
    assert _PRIMORIAL == math.prod(primes_upto(TRIAL_DIVISION_LIMIT))


# 1021 is the largest prime below 2^10, 1019 the one before, 1031 the least above
@pytest.mark.parametrize("n", [1, 2, 1021, 1031, 2**10 * 1021, 1019 * 1021, 1021**3 * 1031,
                               _PRIMORIAL, _PRIMORIAL**2, _PRIMORIAL * (2**61 - 1)])
def test_factorize_gcd_trial_stage_edges(n):
    assert_matches_oracle(n)


@ORACLE
@given(st.lists(st.tuples(st.sampled_from(list(sympy.primerange(2, 1100))),
                          st.integers(min_value=1, max_value=3)), max_size=6),
       st.one_of(st.just(1), st.integers(min_value=2, max_value=2**60)))
def test_factorize_primes_around_the_trial_limit(prime_powers, cofactor):
    assert_matches_oracle(math.prod(p**e for p, e in prime_powers) * cofactor)


@ORACLE
@given(st.integers(min_value=1, max_value=2**200), st.integers(min_value=2, max_value=12))
def test_iroot_matches_sympy(n, k):
    assert _iroot(n, k) == sympy.integer_nthroot(n, k)[0]


def test_perfect_power_finds_prime_exponents():
    p = sympy.nextprime(2**40)
    assert _perfect_power(p**5) == (p, 5)
    assert _perfect_power(p**4) == (p**2, 2)
    assert _perfect_power(p**3 * 1031**3) == (p * 1031, 3)
    assert _perfect_power(p * 1031) == (p * 1031, 1)
    assert _perfect_power(p**2 * 1031) == (p**2 * 1031, 1)


def test_factorize_powers_of_composites_above_the_cutover():
    p, q = sympy.nextprime(2**40), ABOVE_CUTOVERS[0][0]
    for exponent in (2, 3, 6):
        assert_matches_oracle((p * q) ** exponent)
    assert_matches_oracle(p**4 * q**2)


@settings(ORACLE, max_examples=200)
@given(st.integers(min_value=0, max_value=2**80))
def test_is_prime_matches_sympy_up_to_80_bits(n):
    assert is_prime(n) == sympy.isprime(n), n


@ORACLE
@given(st.integers(min_value=2, max_value=80))
def test_is_prime_accepts_primes_up_to_80_bits(bits):
    assert is_prime(sympy.prevprime(2**bits + 1))
    assert is_prime(sympy.nextprime(2 ** (bits - 1)))


def test_carmichael_numbers_are_composite_and_factor():
    for n in CARMICHAEL:
        assert sympy.is_carmichael(n), n
        assert not is_prime(n), n
        assert_matches_oracle(n)


@ORACLE
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10**6),
                          st.integers(min_value=0, max_value=10**12)), max_size=8))
def test_crt_solve_matches_sympy(drawn):
    # keep each modulus coprime to those before it, so the system is solvable
    congruences, modulus = [], 1
    for m, r in drawn:
        if math.gcd(m, modulus) == 1:
            congruences.append((r % m, m))
            modulus *= m
    x = crt_solve(congruences)
    if congruences:
        moduli, residues = zip(*((m, r) for r, m in congruences))
        assert (x, modulus) == crt(moduli, residues)
    else:
        assert x == 0
