"""factorize against sympy over 1-80 bits, is_prime over 1-128 bits and its
strong Lucas round against sympy's; crt_solve against sympy's crt.

Covers random integers, prime powers and prime-square multiples just above
the trial-division cutover (and above 2^16, 10^6 and 2^31), exact powers of
primes above 2^31 and 2^40 (split by the perfect-power test, not by rho), and
Carmichael numbers, which fool the Fermat test for every coprime base.
is_prime is checked in each band of its Miller-Rabin base sets, near each
bound and at random inside.  The gcd trial stage is checked at its edges:
values with no trial prime, only trial primes, every trial prime, primes on
both sides of 2^10, and gcds whose last prime is above the square root of
the rest of the gcd.  The
medium stage of factorize_batch is checked against sympy and against
factorize of each value, at the primes on both sides of 2^10 and 2^16, at
the 2^32 bound below which it takes a factor as prime without a test, and at
the ends of its chunks of 128 cofactors; each cofactor's h is checked
against the product of the medium primes found dividing it by brute force.
The sieve behind primes_upto and primes_in_range is checked against sympy's
primerange on ranges below 2, across 2^16 and narrow ones above 10^7, and
ECM's tables against lcm(1..B1) and the primes in (B1, 50 B1].
"""

import math
import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.ntheory.modular import crt
from sympy.ntheory.primetest import is_strong_lucas_prp

from prodsets import arith
from prodsets.arith import (
    TRIAL_DIVISION_LIMIT,
    _ECM_D,
    _ECM_SCHEDULE,
    _MEDIUM_PRIME_LIMIT,
    _PRIMORIAL,
    _SMALL_PRIMES,
    _ecm_tables,
    _iroot,
    _medium_primorial,
    _perfect_power,
    _strong_lucas_prp,
    crt_solve,
    factorize,
    factorize_batch,
    is_prime,
    primes_in_range,
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


# the primes of gcd(n, _PRIMORIAL) end in one above the square root of what
# is left of the gcd: 1021 is the largest trial prime, 1019 the one before
@pytest.mark.parametrize("n", [2 * 1021, 1021**2, 1019 * 1021, 1021 * (2**61 - 1),
                               3**5 * 1021 * 65537])
def test_the_trial_stage_strips_the_last_prime_of_the_gcd(n):
    found, rest = arith._trial_stage(n)
    assert found[1021] == sympy.factorint(n)[1021] and math.gcd(rest, _PRIMORIAL) == 1
    assert dict(factorize(n).factors) == sympy.factorint(n)
    assert dict(factorize_batch([n])[n].factors) == sympy.factorint(n)


@ORACLE
@given(st.lists(st.tuples(st.sampled_from(list(sympy.primerange(2, 1100))),
                          st.integers(min_value=1, max_value=3)), max_size=6),
       st.one_of(st.just(1), st.integers(min_value=2, max_value=2**60)))
def test_factorize_primes_around_the_trial_limit(prime_powers, cofactor):
    assert_matches_oracle(math.prod(p**e for p, e in prime_powers) * cofactor)


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 1024, 2**16])
def test_primes_upto_matches_sympy(n):
    assert primes_upto(n) == list(sympy.primerange(n + 1))


def sieve_ranges(rng):
    """(lo, hi] ranges with lo < 0, with hi < 2, across 2^16 and narrow
    ones above 10^7."""
    for _ in range(20):
        lo = rng.randrange(-50, 0)
        yield lo, rng.randrange(lo + 1, 100)
        yield lo, rng.randrange(lo + 1, 2)
        lo = rng.randrange(2**16 - 5000, 2**16)
        yield lo, rng.randrange(2**16 + 1, 2**16 + 5000)
        lo = rng.randrange(10**7, 10**8 - 1000)
        yield lo, lo + rng.randrange(1, 1000)


def test_primes_in_range_matches_sympy():
    for lo, hi in sieve_ranges(random.Random(21)):
        assert primes_in_range(lo, hi) == list(sympy.primerange(lo + 1, hi + 1)), (lo, hi)


def test_a_narrow_range_below_the_cap_sieves_only_its_window():
    start = time.perf_counter()
    primes = primes_in_range(10**8 - 1000, 10**8)
    assert time.perf_counter() - start < 0.1
    assert primes == list(sympy.primerange(10**8 - 999, 10**8 + 1))


def test_medium_primorial_is_the_product_of_the_medium_primes():
    medium = list(sympy.primerange(TRIAL_DIVISION_LIMIT, _MEDIUM_PRIME_LIMIT + 1))
    assert (len(medium), medium[0], medium[-1]) == (6370, 1031, 65521)
    assert _medium_primorial() == math.prod(medium)
    assert _medium_primorial().bit_length() == 92608


@pytest.mark.parametrize("b1", [b1 for b1, _ in _ECM_SCHEDULE])
def test_ecm_tables_match_sympy(b1):
    multiplier, m0, stage2 = _ecm_tables(b1)
    assert multiplier == math.lcm(*range(1, b1 + 1))
    primes = set(sympy.primerange(b1 + 1, 50 * b1 + 1))
    listed = {(m0 + i, j) for i, js in enumerate(stage2) for j in js}
    for q in primes:
        m = (q + _ECM_D // 2) // _ECM_D
        assert (m, abs(q - m * _ECM_D)) in listed, q
    for m, j in listed:
        assert m * _ECM_D + j in primes or m * _ECM_D - j in primes, (m, j)


def assert_batch_matches_oracles(values):
    factored = factorize_batch(values)
    assert factored.keys() == set(values)
    for n, found in factored.items():
        assert found == factorize(n), n
        assert dict(found.factors) == sympy.factorint(n), n


M61 = 2**61 - 1
# 1021 | 1031 and 65521 | 65537 are the primes on each side of 2^10 and 2^16;
# h, the product of the medium primes dividing a cofactor, is composite for
# 1031 * 65521; 65537^2 is the
# least composite with no prime up to 2^16, and rho splits 65537 * 65539
BATCH_EDGES = [1, 1021, 1031, 65521, 65537, 65521**2, 1031 * 65521,
               1031**2 * 65521**3 * M61, 65537**2, 65537 * 65539, 2**20 * 65521,
               1021 * 1031 * 65521 * 65537]
# 96-bit terms: 2281 | 2^95+1 and 51109 | 3*2^94+1 are medium primes, 65537
# and a 25-bit prime are left in 2^96-1 after its medium primes
BATCH_96_BITS = [2**95 + 1, 2**96 - 1, 3 * 2**94 + 1, 65537**2 * M61 * 1031]


@pytest.mark.parametrize("n", BATCH_EDGES + BATCH_96_BITS)
def test_factorize_batch_edges(n):
    assert_batch_matches_oracles([n])


def test_factorize_batch_of_every_edge_with_duplicates():
    assert_batch_matches_oracles(BATCH_EDGES + BATCH_96_BITS + BATCH_EDGES[::-1])
    assert factorize_batch([]) == {}
    with pytest.raises(ValueError):
        factorize_batch([2, 0])


def test_factorize_batch_of_a_window_longer_than_one_remainder_tree():
    # 1,879 of these 2,000 terms leave a cofactor >= 2^20: 15 chunks of 128
    assert_batch_matches_oracles([(10**6 + i)**2 + 1 for i in range(1, 2001)])


# the first 257 primes above 2^31: cofactors >= 2^20 with no medium prime
CHUNK_PRIMES = list(sympy.primerange(2**31, 2**31 + 8000))[:257]


def chunk_edge_batch(size, plant):
    """size values, one per prime of CHUNK_PRIMES, the first and last of each
    chunk of 128 multiplied by plant."""
    ends = {i for start in range(0, size, 128) for i in (start, min(start + 127, size - 1))}
    return [q * plant if i in ends else q for i, q in enumerate(CHUNK_PRIMES[:size])]


@pytest.mark.parametrize("plant", [1031, 65521, 65521**2, 1031 * 65521])
@pytest.mark.parametrize("size", [127, 128, 129, 257])
def test_factorize_batch_at_the_chunk_edges(size, plant):
    assert_batch_matches_oracles(chunk_edge_batch(size, plant))


def test_factorize_batch_h_is_the_product_of_the_medium_primes_of_each_cofactor(monkeypatch):
    # each of 257 cofactors also carries a medium prime of its own, so a
    # cofactor that its chunk skipped would take its h out of the set
    medium = list(sympy.primerange(1025, 65537))
    values = [n * medium[-1 - i] for i, n in enumerate(chunk_edge_batch(257, 1031 * 65521))]
    values += [1021 * 1031, 3 * 65521, 2**20 * 65521]   # cofactors below 2^20
    calls = []
    split = arith._split
    monkeypatch.setattr(arith, "_split",
                        lambda staged, proven: calls.append(list(staged)) or split(staged, proven))
    assert_batch_matches_oracles(values)
    expected = set()
    for n in values:
        cofactor = math.prod(p**e for p, e in sympy.factorint(n).items() if p > TRIAL_DIVISION_LIMIT)
        if cofactor >= TRIAL_DIVISION_LIMIT**2:
            expected.add(math.prod(p for p in medium if cofactor % p == 0))
    assert len(expected) == 257
    assert set(calls[0]) == expected


def test_factorize_batch_splits_cofactors_of_four_primes_in_rounds(rho_calls):
    # 24 values whose cofactors have 3 or 4 primes in (2^16, 2^17], up to 68
    # bits: a round walks its lanes 4 at a time and splits each in two,
    # so a 4-prime cofactor split 1 + 3 takes three rounds
    rng = random.Random(17)
    primes = list(sympy.primerange(2**16 + 1, 2**17 + 1))
    values = [rng.choice([1, 2, 3 * 1031, 1021**2]) * math.prod(rng.sample(primes, 3 + i % 2))
              for i in range(23)] + [primes[0] ** 2 * primes[1] * primes[2]]
    assert_batch_matches_oracles(values)
    rounds = [len(walked) for walked in rho_calls]
    assert len([walked for walked in rounds if walked]) >= 3 and max(rounds) > 16, rounds


@ORACLE
@given(st.lists(st.lists(st.tuples(st.sampled_from(list(sympy.primerange(2, 70000))),
                                   st.integers(min_value=1, max_value=3)), max_size=5),
                min_size=1, max_size=8),
       st.lists(st.one_of(st.just(1), st.sampled_from([M61, 2**31 - 1, 10**9 + 7]),
                          st.integers(min_value=2, max_value=2**40)), min_size=8, max_size=8))
def test_factorize_batch_matches_sympy(prime_powers, cofactors):
    values = [math.prod(p**e for p, e in drawn) * c for drawn, c in zip(prime_powers, cofactors)]
    assert_batch_matches_oracles(values + values[:2])


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
@given(st.integers(min_value=0, max_value=2**128))
def test_is_prime_matches_sympy_up_to_128_bits(n):
    assert is_prime(n) == sympy.isprime(n), n


@ORACLE
@given(st.integers(min_value=2, max_value=128))
def test_is_prime_accepts_primes_up_to_128_bits(bits):
    assert is_prime(sympy.prevprime(2**bits + 1))
    assert is_prime(sympy.nextprime(2 ** (bits - 1)))


def test_is_prime_matches_sympy_in_each_miller_rabin_band():
    # each band of _MR_BASE_SETS: the odd n within 2,000 of its bound, on both
    # sides, and 2,000 random odd n inside it
    rng = random.Random(38)
    low = 3
    for bound, _ in arith._MR_BASE_SETS:
        near = range((bound - 2000) | 1, bound + 2000, 2)
        inside = [rng.randrange(low, bound) | 1 for _ in range(2000)]
        assert [n for n in [*near, *inside] if is_prime(n) != sympy.isprime(n)] == [], bound
        low = bound


# OEIS A217255: the strong Lucas pseudoprimes (Selfridge's parameters) below 10^5
A217255 = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_strong_lucas_round_matches_sympy():
    # every odd n in [43, 10^5) that the round is asked about, and random
    # odd n of 82-128 bits, where is_prime runs the round
    rng = random.Random(31)
    small = [n for n in range(43, 10**5, 2) if all(n % p for p in _SMALL_PRIMES)]
    large = [rng.getrandbits(rng.randint(82, 128)) | 2**81 | 1 for _ in range(1000)]
    large = [n for n in large if all(n % p for p in _SMALL_PRIMES)][:300]
    assert len(large) == 300
    for n in small + large:
        assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n
    assert [n for n in small if _strong_lucas_prp(n) and not sympy.isprime(n)] == A217255


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
