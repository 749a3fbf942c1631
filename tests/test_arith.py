import math
import random

import pytest

from prodsets import arith
from prodsets.arith import (
    DeskScaleError,
    Factorization,
    crt_solve,
    factorize,
    is_perfect_square,
    is_prime,
    largest_prime_factor,
    primes_in_range,
    primes_upto,
    smooth_part,
)


# --- independent oracles -------------------------------------------------

def oracle_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def oracle_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_crt(congruences):
    modulus = math.prod(m for _, m in congruences)
    for x in range(modulus):
        if all(x % m == r for r, m in congruences):
            return x
    raise AssertionError("no solution found")


# --- primality -----------------------------------------------------------

def test_is_prime_small_values():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == oracle_is_prime(n), n
    assert is_prime(103681) == oracle_is_prime(103681)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)            # Mersenne prime
    assert not is_prime(2**67 - 1)        # 193707721 * 761838257287
    assert is_prime(10**9 + 7)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_beyond_the_proven_witness_bound():
    # large enough that the strong Lucas round participates
    assert is_prime(2**89 - 1)
    assert is_prime(2**107 - 1)
    assert not is_prime(2**101 - 1)
    assert not is_prime((2**61 - 1) ** 2)


# psi_k of OEIS A014233 (distinct values): the least odd composite that is a
# strong pseudoprime to all of the first k prime bases
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)


def test_is_prime_rejects_the_a014233_strong_pseudoprimes():
    for n in A014233:
        assert not is_prime(n), n


def test_miller_rabin_base_counts_match_a014233():
    # psi_k fools all k bases used below it: there those bases stop being proven
    assert [bound for bound, _ in arith._MR_BASE_COUNTS] == list(A014233)
    for bound, count in arith._MR_BASE_COUNTS:
        bases = arith._SMALL_PRIMES[:count]
        assert all(arith._miller_rabin(bound, base) for base in bases), bound
    assert arith._MR_PROVEN_BOUND == A014233[-1]


def test_strong_lucas_agrees_with_trial_division():
    # smallest strong Lucas pseudoprime is 5459, so this range is conclusive
    for n in range(3, 5000, 2):
        if n % 3 and n % 5 and n % 7:  # helper assumes no tiny factors
            assert arith._strong_lucas_prp(n) == oracle_is_prime(n), n


# --- factorization -------------------------------------------------------

def test_factorize_examples():
    assert factorize(720).factors == ((2, 4), (3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(144).factors == ((2, 4), (3, 2))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_oracle_up_to_3000():
    for n in range(1, 3000):
        assert dict(factorize(n).factors) == oracle_factor(n), n


def test_factorize_reconstructs_subject():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(1, 10**12)
        fac = factorize(n)
        product = 1
        for p, e in fac.factors:
            product *= p**e
        assert product == n


def test_factorize_splits_large_semiprime():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorization_validates_invariants():
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))       # wrong order
    with pytest.raises(ValueError):
        Factorization(6, ((2, 1),))              # wrong product
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))             # composite "prime"
    with pytest.raises(ValueError):
        Factorization(2, ((2, 0),))              # zero exponent


# --- smooth parts --------------------------------------------------------

def test_smooth_part_examples():
    assert smooth_part(720, 5) == 720
    assert smooth_part(14, 3) == 2
    assert smooth_part(13, 12) == 1


def test_smooth_part_decomposition():
    # n = smooth * rough, rough has no prime factor <= bound
    for n in range(1, 500):
        for bound in (2, 7, 30):
            s = smooth_part(n, bound)
            assert n % s == 0
            rough = n // s
            assert all(p > bound for p in oracle_factor(rough))


def test_smooth_part_multiplicative_on_coprime_pairs():
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        if math.gcd(a, b) != 1:
            continue
        for bound in (10, 100):
            assert smooth_part(a * b, bound) == smooth_part(a, bound) * smooth_part(b, bound)


def test_smooth_part_rejects_zero():
    with pytest.raises(ValueError):
        smooth_part(0, 5)


def test_largest_prime_factor():
    assert largest_prime_factor(34) == 17
    assert largest_prime_factor(8) == 2
    assert largest_prime_factor(97) == 97
    with pytest.raises(ValueError):
        largest_prime_factor(1)


# --- prime ranges --------------------------------------------------------

def test_primes_in_range_examples():
    assert primes_in_range(5, 10) == [7]
    assert primes_in_range(1, 2) == [2]
    assert primes_in_range(13, 16) == []


def test_primes_in_range_matches_plain_sieve():
    all_primes = primes_upto(10**4)
    for lo, hi in ((0, 100), (97, 1000), (5000, 9999), (1, 10**4)):
        expected = [p for p in all_primes if lo < p <= hi]
        assert primes_in_range(lo, hi) == expected


def test_primes_in_range_crosses_segment_boundary():
    expected = [p for p in primes_upto(70000) if 60000 < p]
    assert primes_in_range(60000, 70000) == expected


def test_primes_in_range_guards():
    with pytest.raises(ValueError):
        primes_in_range(10, 10)
    with pytest.raises(DeskScaleError):
        primes_in_range(0, 10**8 + 1)


# --- squares -------------------------------------------------------------

def test_integer_sqrt_examples():
    assert math.isqrt(144) == 12 and is_perfect_square(144)
    assert math.isqrt(34) == 5 and not is_perfect_square(34)
    assert math.isqrt(0) == 0 and is_perfect_square(0)
    assert not is_perfect_square(-1)


def test_is_perfect_square_against_square_table():
    squares = {i * i for i in range(1001)}
    for n in range(10**6 + 1):
        assert is_perfect_square(n) == (n in squares)


# --- CRT -----------------------------------------------------------------

def test_crt_examples():
    assert crt_solve([(1, 3), (2, 5)]) == oracle_crt([(1, 3), (2, 5)]) == 7
    assert crt_solve([(0, 4)]) == 0
    assert crt_solve([(2, 3), (3, 5), (2, 7)]) == oracle_crt([(2, 3), (3, 5), (2, 7)]) == 23
    assert crt_solve([]) == 0


def test_crt_satisfies_every_congruence():
    rng = random.Random(11)
    moduli_pool = [3, 4, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(100):
        chosen = rng.sample(moduli_pool, rng.randint(1, 4))
        congruences = [(rng.randrange(m), m) for m in chosen]
        x = crt_solve(congruences)
        assert 0 <= x < math.prod(chosen)
        for r, m in congruences:
            assert x % m == r


def test_crt_rejects_bad_input():
    with pytest.raises(ValueError):
        crt_solve([(1, 4), (3, 6)])   # gcd(4, 6) = 2
    with pytest.raises(ValueError):
        crt_solve([(5, 3)])           # residue out of range
