import collections
import hashlib
import math
import random

import pytest
import sympy

from prodsets import arith
from prodsets.acceptance import (
    check_09_large_prime_floor,
    check_10_mid_prime_floor,
    check_11_witness_soundness,
)
from prodsets.arith import (
    DeskScaleError,
    Factorization,
    crt_solve,
    factorize,
    factorize_batch,
    is_prime,
    primes_in_range,
    primes_upto,
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
    # crosses 43 * 47 = 2021 and 2047, the least strong pseudoprime to base 2
    for n in range(-5, 2**14):
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


def test_miller_rabin_base_sets_are_pinned():
    bounds = [bound for bound, _ in arith._MR_BASE_SETS]
    assert all(a < b for a, b in zip(bounds, bounds[1:])), bounds
    assert arith._MR_BASE_SETS[-2:] == ((A014233[-2], arith._SMALL_PRIMES[:12]),
                                        (A014233[-1], arith._SMALL_PRIMES[:13]))
    assert arith._MR_PROVEN_BOUND == A014233[-1]
    # every bound but 2^64 is an odd composite that fools its own bases (psi_12
    # and psi_13 the first 12 and 13 primes): there those bases stop being proven
    for bound, bases in arith._MR_BASE_SETS:
        if bound != 2**64:
            assert bound % 2 and not sympy.isprime(bound), bound
            assert all(arith._miller_rabin(bound, base) for base in bases), bound


def test_miller_rabin_takes_the_base_mod_n():
    # 2047 = 23 * 89 is a strong pseudoprime to base 2, not to base 3
    assert arith._miller_rabin(2047, 2047 + 2)
    assert not arith._miller_rabin(2047, 3 * 2047 + 3)
    assert not arith._miller_rabin(2047, 3)
    # a base = 0 (mod n) witnesses nothing, for a prime or a composite n
    assert arith._miller_rabin(61, 61)
    assert arith._miller_rabin(61, 5 * 61)
    assert arith._miller_rabin(91, 91)
    assert not arith._miller_rabin(91, 2)


def sieve(limit):
    """Flags of primality for 0..limit - 1, independent of arith."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, limit, p)))
    return flags


def test_is_prime_matches_a_sieve_below_2_19():
    flags = sieve(2**19)
    assert [n for n in range(2**19) if is_prime(n) != flags[n]] == []


def test_is_prime_rejects_the_base_2_strong_pseudoprimes_below_10_6():
    # the odd composites n = d 2^s + 1 with 2^d = 1 or 2^(d 2^j) = -1 (mod n)
    # for some j < s; OEIS A001262 has 46 of them below 10^6
    flags = sieve(10**6)
    pseudoprimes = []
    for n in range(3, 10**6, 2):
        if flags[n] or pow(2, n - 1, n) != 1:
            continue
        s = ((n - 1) & (1 - n)).bit_length() - 1
        x = pow(2, (n - 1) >> s, n)
        if x == 1 or n - 1 in (pow(x, 2**j, n) for j in range(s)):
            pseudoprimes.append(n)
    assert len(pseudoprimes) == 46 and pseudoprimes[:3] == [2047, 3277, 4033]
    assert [n for n in pseudoprimes if is_prime(n)] == []


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


def random_prime(rng, bits):
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def rho_corpus(count=300, seed=20261018):
    """Odd composites of 30-68 bits whose least prime p has 11-30 bits, so
    that no prime below 2^10 divides them: p*q, or p*s*q for every third one
    where three primes fit, with s and q primes above p."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        low = rng.randint(11, 30)
        primes = [random_prime(rng, low)]
        room = 68 - low
        if len(corpus) % 3 == 0 and room >= 2 * low:
            middle = rng.randint(low, room - low)
            primes.append(random_prime(rng, middle))
            room -= middle
        used = sum(p.bit_length() for p in primes)
        primes.append(random_prime(rng, rng.randint(max(low, 30 - used), room)))
        if min(primes[1:]) > primes[0]:
            corpus.append(math.prod(primes))
    return corpus


# sha256 of repr([(n, f) for n in rho_corpus()]), f the factor of the one-lane
# walk _rho_lanes([n])[n], recorded while rho reduced q once per comparison step
RHO_CORPUS_DIGEST = "0cffbb7f7de93d85bb087c0cd145ad79df93ea64bd4801e24dd20b84260878f8"


def test_pollard_rho_returns_the_recorded_factors():
    pairs = [(n, arith._rho_lanes([n])[n]) for n in rho_corpus()]
    assert all(1 < f < n and n % f == 0 for n, f in pairs)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == RHO_CORPUS_DIGEST


def test_rho_lanes_give_each_lane_its_one_lane_factor():
    corpus = rho_corpus()
    assert len(set(corpus)) == len(corpus) == 300   # 75 walks of up to 4 lanes
    factors = arith._rho_lanes(corpus)
    pairs = [(n, factors[n]) for n in corpus]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == RHO_CORPUS_DIGEST


def test_a_lane_that_meets_both_primes_in_one_block_retries_with_the_next_c():
    # the c = 1 walk on 1031 * 1223 meets both primes in one block, and so
    # does backing up over it; c = 2 splits it
    n, others = 1031 * 1223, rho_corpus()[:15]
    assert arith._rho_lanes([n])[n] == 1223
    factors = arith._rho_lanes(others[:7] + [n] + others[7:])
    assert factors == {m: arith._rho_lanes([m])[m] for m in others + [n]}


def ecm_corpus(count=20, seed=20261020):
    """The primes of odd composites whose least prime p has 24-44 bits, past
    what the rho lane budget splits: p*q, or p*s*q for every third one, with
    s of up to 36 bits and q of up to 48 bits, both above p."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        three = len(corpus) % 3 == 0
        low = rng.randint(24, 32 if three else 44)
        primes = [random_prime(rng, low)]
        if three:
            primes.append(random_prime(rng, rng.randint(low, 36)))
        primes.append(random_prime(rng, rng.randint(low, 48)))
        if min(primes[1:]) > primes[0]:
            corpus.append(primes)
    return corpus


# sha256 of repr([(n, f) for n in the products of ecm_corpus()]), f the factor
# the one-lane _ecm(n) gave, recorded before ECM ran its curves in lanes
ECM_CORPUS_DIGEST = "0538bc12ab4dc9b34d3fd56ba994f9c1901edfab619aa6b9bb6b883afbf1ab30"


def test_ecm_lanes_give_each_composite_its_one_lane_factor(monkeypatch):
    # 2017 * 2417 leaves after _ECM_WHOLE_RUN curves that meet it whole, and
    # 5161811 * 5162827 outlasts a schedule of two curves
    corpus = [math.prod(primes) for primes in ecm_corpus()]
    whole, unsplit = 2017 * 2417, 5161811 * 5162827
    mixed = corpus[:7] + [whole] + corpus[7:13] + [unsplit] + corpus[13:]
    factors = arith._ecm_lanes(mixed)
    pairs = [(n, factors.get(n)) for n in corpus]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == ECM_CORPUS_DIGEST
    assert whole not in factors and factors[unsplit] == 5162827
    monkeypatch.setattr(arith, "_ECM_SCHEDULE", ((250, 2),))
    one_lane = {n: arith._ecm_lanes([n]) for n in mixed}
    assert arith._ecm_lanes(mixed) == {n: f[n] for n, f in one_lane.items() if f}
    assert not one_lane[whole] and not one_lane[unsplit]


def test_ecm_splits_its_corpus_and_agrees_with_itself(ecm_calls):
    # the drawn primes are the oracle: sympy.factorint takes 11 s on these
    expected = {math.prod(primes): dict(collections.Counter(primes)) for primes in ecm_corpus()}
    assert all(sympy.isprime(p) for factors in expected.values() for p in factors)
    factored = factorize_batch(expected)
    # every composite of the batch that reaches ECM: its factor
    split = {n: factors.get(n) for composites, factors in ecm_calls for n in composites}
    assert {n: dict(f.factors) for n, f in factored.items()} == expected
    assert len(set(expected) & set(split)) >= 15, sorted(split)
    assert all(f is not None and 1 < f < n and n % f == 0 for n, f in split.items())
    again = sorted(split)[::4]
    assert [arith._ecm_lanes([n]).get(n) for n in again] == [split[n] for n in again]


def test_ecm_takes_the_lanes_the_rho_budget_leaves_open(rho_calls, ecm_calls):
    # rho needs about 2^16 steps for a 32-bit prime, sixteen times its budget
    n = 4294967291 * 4294967311
    assert factorize(n).factors == ((4294967291, 1), (4294967311, 1))
    assert [walked for walked in rho_calls if walked] == [[n]]
    assert [composites for composites, _ in ecm_calls if composites] == [[n]]
    assert arith._rho_lanes([n], arith._RHO_BUDGET) == {}


def test_a_composite_ecm_meets_whole_falls_back_to_the_unbudgeted_walk(rho_calls, ecm_calls,
                                                                      monkeypatch):
    # every curve meets 2017 and 2417 at once (g = n), and ECM gives the
    # composite up after _ECM_WHOLE_RUN of them, not after the whole schedule;
    # with no rho budget it reaches ECM, then the walk with no budget
    n = 2017 * 2417
    ladders = []
    ladder = arith._ladder
    monkeypatch.setattr(arith, "_ladder", lambda *a: ladders.append(a) or ladder(*a))
    monkeypatch.setattr(arith, "_RHO_BUDGET", 0)
    assert factorize(n).factors == ((2017, 1), (2417, 1))
    assert [factors.get(m) for composites, factors in ecm_calls for m in composites] == [None]
    assert 0 < len(ladders) <= arith._ECM_WHOLE_RUN == 8
    assert [walked for walked in rho_calls if walked] == [[n], [n]]


def test_rho_lanes_give_up_on_a_prime_after_the_whole_sweep():
    # a prime is outside the precondition: no c splits it, so the sweep over
    # c ends, and only a budgeted walk may leave it out of its result
    with pytest.raises(ArithmeticError, match=r"^rho parameter sweep exhausted on 2053$"):
        arith._rho_lanes([2053])
    assert arith._rho_lanes([2053], arith._RHO_BUDGET) == {}


def test_an_ecm_schedule_that_ends_unsplit_falls_back_to_the_unbudgeted_walk(monkeypatch):
    # two curves at B1 = 250 split neither prime of 23 bits, and two are too
    # few for _ECM_WHOLE_RUN: _ecm_lanes leaves it out at the schedule's end
    n = 5161811 * 5162827
    ladders = []
    ladder = arith._ladder
    monkeypatch.setattr(arith, "_ladder", lambda *a: ladders.append(a) or ladder(*a))
    monkeypatch.setattr(arith, "_ECM_SCHEDULE", ((250, 2),))
    assert arith._ecm_lanes([n]).get(n) is None
    stage1 = [a for a in ladders if a[0] == arith._ecm_tables(250)[0]]
    assert len(stage1) == 2 < arith._ECM_WHOLE_RUN
    monkeypatch.setattr(arith, "_RHO_BUDGET", 0)
    assert factorize(n).factors == ((5161811, 1), (5162827, 1))
    assert factorize_batch([n])[n].factors == ((5161811, 1), (5162827, 1))


def test_a_composite_shared_by_values_is_walked_once(rho_calls):
    m = 65537 * 65539
    factored = factorize_batch([3 * m, 5 * m, m])
    walked = [n for call in rho_calls for n in call]
    assert walked == [m]
    assert {n: f.factors for n, f in factored.items()} == {
        3 * m: ((3, 1), (65537, 1), (65539, 1)), 5 * m: ((5, 1), (65537, 1), (65539, 1)),
        m: ((65537, 1), (65539, 1))}


def test_the_medium_products_of_a_batch_share_a_lane_walk(rho_calls):
    # each cofactor is the product h of two primes in (2^10, 2^16]: the three
    # are walked together, and what is left of each value needs no walk
    values = [3 * 1031 * 1033, 5 * 1039 * 1049, 7 * 1051 * 1061]
    factored = factorize_batch(values)
    assert [walked for walked in rho_calls if walked] == [[1065023, 1089911, 1115111]]
    assert {n: dict(f.factors) for n, f in factored.items()} == {
        n: oracle_factor(n) for n in values}


def test_factorization_validates_invariants():
    with pytest.raises(ValueError):
        Factorization(6, ((3, 1), (2, 1)))       # wrong order
    with pytest.raises(ValueError):
        Factorization(6, ((2, 1),))              # wrong product
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))             # composite "prime"
    with pytest.raises(ValueError):
        Factorization(2, ((2, 0),))              # zero exponent
    with pytest.raises(ValueError):
        Factorization(0, ())                     # subject below 1


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


def test_prime_range_cap_covers_primes_upto(monkeypatch):
    # the cap sits in the sieve that allocates the byte window
    monkeypatch.setattr(arith, "PRIME_RANGE_LIMIT", 1000)
    with pytest.raises(DeskScaleError, match="PRIME_RANGE_LIMIT"):
        primes_upto(1001)
    assert primes_upto(1000)[-1] == 997


# --- squares -------------------------------------------------------------

def test_strong_lucas_prp_rejects_prime_squares():
    # a square has no Selfridge D with (D/n) = -1: without the square rule the
    # parameter search on (2^61 - 1)^2 would take about 2^60 steps
    for p in (43, 1031, 2**31 - 1, 2**61 - 1):
        assert arith._strong_lucas_prp(p * p) is False


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
    with pytest.raises(ValueError):
        crt_solve([(0, 0)])           # modulus below 1


M61 = 2**61 - 1
# 1048573 is the largest prime below 2^20 = TRIAL_DIVISION_LIMIT**2, and
# 1031^2 the smallest square above it with no prime factor below 2^10
PROVEN_ONCE_CORPUS = (
    [1031 * 1033, 65537 * 1048583, (10**9 + 7) * (10**9 + 9), M61 * 65537,
     1031**2, 1031**3, 65537**4, M61**2, 1031**2 * 65537, 1031**2 * 65537**3 * M61,
     # rho splits this one so that 1048583 turns up in two branches
     1048583**3 * (2**31 - 1)]
    + [1048573 * k for k in (1, 2, 3, 1021, 1031, 1048573, 65537, M61)]
)


def oracle_factor_large(n):
    # the corpus is built from these primes only
    out = {}
    for d in (2, 3, 1021, 1031, 1033, 65521, 65537, 65539, 1048573, 1048583, 2**31 - 1,
              10**9 + 7, 10**9 + 9, M61):
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    assert n == 1
    return out


@pytest.mark.parametrize("n", PROVEN_ONCE_CORPUS)
def test_factorize_proves_each_prime_once(n, monkeypatch):
    tested = []

    def recording_is_prime(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(arith, "is_prime", recording_is_prime)
    assert dict(factorize(n).factors) == oracle_factor_large(n)
    assert len(tested) == len(set(tested)), tested
    assert not [m for m in tested if 2**10 < m < 2**20], tested


def test_factorize_batch_proves_each_prime_once_and_none_below_2_32(monkeypatch):
    tested = []

    def recording_is_prime(m):
        tested.append(m)
        return is_prime(m)

    monkeypatch.setattr(arith, "is_prime", recording_is_prime)
    corpus = PROVEN_ONCE_CORPUS + [65537**2, 65537 * 65539, 65521**2, 1031 * 65521]
    for n in corpus:
        tested.clear()
        assert dict(factorize_batch([n])[n].factors) == oracle_factor_large(n)
        assert len(tested) == len(set(tested)), (n, tested)
        assert not [m for m in tested if m < 2**32], (n, tested)
    # one batch: each value, duplicates once, tests a prime at most once
    tested.clear()
    factored = factorize_batch(corpus + corpus)
    assert {n: dict(f.factors) for n, f in factored.items()} == {
        n: oracle_factor_large(n) for n in corpus}
    for m in set(tested):
        assert tested.count(m) <= sum(n % m == 0 for n in set(corpus)), m
    assert not [m for m in tested if m < 2**32], tested


def test_factorize_and_the_selftest_windows_never_build_the_medium_table(monkeypatch):
    def refuse():
        raise AssertionError("the medium-prime table was built")

    monkeypatch.setattr(arith, "_medium_primorial", refuse)
    for n in PROVEN_ONCE_CORPUS:
        assert dict(factorize(n).factors) == oracle_factor_large(n)
    for check in (check_09_large_prime_floor, check_10_mid_prime_floor,
                  check_11_witness_soundness):
        check()
    with pytest.raises(AssertionError, match="medium-prime table"):
        factorize_batch([1031 * 1033])


def test_every_composite_walked_by_rho_has_no_prime_below_the_trial_bound(rho_calls):
    # _rho_lanes starts at its r = 2 block because the r = 1 block's product,
    # -(c + 2)(c + 7), has only primes below 107, which divide no lane
    r = 10**6
    factorize_batch((r + i)**2 + 1 for i in range(1, 201))
    for n in PROVEN_ONCE_CORPUS:
        factorize(n)
    walked = [n for call in rho_calls for n in call]
    assert walked
    assert all(math.gcd(n, arith._PRIMORIAL) == 1 for n in walked)


def test_factorize_splits_the_first_square_above_the_trial_bound():
    assert factorize(1031**2).factors == ((1031, 2),)
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))
    with pytest.raises(ValueError):
        Factorization(1031**2, ((1031**2, 1),))   # a direct construction tests each prime
