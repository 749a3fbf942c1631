import math
import random
from fractions import Fraction

import pytest

from prodsets.arith import is_perfect_square
from prodsets.productset import BaseSet, build_product_set, sequence_members
from prodsets.sequences import (
    FIBONACCI,
    LUCAS_V,
    LucasSpec,
    fib,
    fib_values_upto,
    is_fibonacci,
    is_lucas_number,
    lucas_u,
    lucas_v,
    primitive_divisor,
    term_index,
    term_table,
)


def oracle_prime_set(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_fib_values():
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(12) == 144
    assert fib(20) == 6765
    with pytest.raises(ValueError):
        fib(0)


def test_fib_values_upto():
    assert fib_values_upto(100) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert fib_values_upto(0) == []


def test_lucas_spec_validation():
    with pytest.raises(ValueError):
        LucasSpec(2, 4)   # not coprime
    with pytest.raises(ValueError):
        LucasSpec(2, 1)   # zero discriminant
    assert LucasSpec(3, 2).discriminant == 1
    assert FIBONACCI.discriminant == 5


@pytest.mark.parametrize("p,q", [(1, 1), (-1, 1), (0, 1), (0, -1)])
def test_lucas_spec_rejects_degenerate_pairs(p, q):
    # the root ratio is a root of unity: the terms are periodic with zeros
    terms = [1, p]
    for _ in range(10):
        terms.append(p * terms[-1] - q * terms[-2])
    assert 0 in terms
    with pytest.raises(ValueError, match="degenerate"):
        LucasSpec(p, q)


def test_lucas_u_examples():
    assert lucas_u(FIBONACCI, 10) == 55
    assert lucas_v(FIBONACCI, 4) == 7
    assert lucas_u(LucasSpec(3, 2), 5) == 31
    with pytest.raises(ValueError):
        lucas_u(FIBONACCI, 0)


def test_lucas_u_is_fib_for_the_fibonacci_pair():
    # one name for one sequence: F_n is U_n(1, -1)
    assert FIBONACCI == LucasSpec(1, -1)
    a, b = 0, 1
    for n in range(1, 60):
        assert lucas_u(LucasSpec(1, -1), n) == fib(n) == b
        a, b = b, a + b


@pytest.mark.parametrize("spec", [LucasSpec(1, -1), LucasSpec(3, 2), LucasSpec(2, -1)])
def test_lucas_recurrences_hold(spec):
    u = [lucas_u(spec, n) for n in range(1, 201)]
    v = [lucas_v(spec, n) for n in range(1, 201)]
    assert u[0] == 1 and u[1] == spec.p
    assert v[0] == spec.p and v[1] == spec.p * spec.p - 2 * spec.q
    for n in range(2, 200):
        assert u[n] == spec.p * u[n - 1] - spec.q * u[n - 2]
        assert v[n] == spec.p * v[n - 1] - spec.q * v[n - 2]


def test_mersenne_pair_closed_form():
    spec = LucasSpec(3, 2)
    for n in range(1, 21):
        assert lucas_u(spec, n) == 2**n - 1


def test_is_fibonacci_examples():
    assert is_fibonacci(8) == 6
    assert is_fibonacci(1) == 1    # smallest index for the ambiguous value
    assert is_fibonacci(12) is None
    with pytest.raises(ValueError):
        is_fibonacci(0)


def test_is_fibonacci_agrees_with_generation():
    # two independent oracles: a plain generation loop for the index, and
    # the characterisation "m is a Fibonacci number iff 5m^2 + 4 or 5m^2 - 4
    # is a perfect square" for membership
    values = {}
    a, b, idx = 1, 1, 1
    while a <= 10000:
        values.setdefault(a, idx)
        a, b, idx = b, a + b, idx + 1
    for m in range(1, 10001):
        square = 5 * m * m
        member = is_perfect_square(square + 4) or is_perfect_square(square - 4)
        assert (is_fibonacci(m) is not None) == member, m
        assert is_fibonacci(m) == values.get(m), m


def test_is_fibonacci_round_trip():
    for n in range(1, 81):
        expected = 1 if n == 2 else n
        assert is_fibonacci(fib(n)) == expected


def test_fib_gcd_examples():
    assert math.gcd(fib(9), fib(6)) == 2
    assert math.gcd(fib(12), fib(8)) == 3
    assert math.gcd(fib(30), fib(30)) == fib(30)


def test_strong_divisibility():
    cache = [0] + [fib(n) for n in range(1, 101)]
    for m in range(1, 101):
        for n in range(1, 101):
            assert math.gcd(cache[m], cache[n]) == cache[math.gcd(m, n)]


def test_gcd_square_bound():
    cache = [0] + [fib(n) for n in range(1, 61)]
    for n in range(3, 61):
        for m in range(1, n):
            g = math.gcd(cache[m], cache[n])
            assert g * g < cache[n]
            assert g < math.isqrt(cache[n]) + 1


def test_primitive_divisor_examples():
    assert primitive_divisor(FIBONACCI, 7) == 13
    assert primitive_divisor(FIBONACCI, 6) is None
    assert primitive_divisor(FIBONACCI, 12) is None
    assert primitive_divisor(FIBONACCI, 5) == 5
    assert primitive_divisor(FIBONACCI, 2) is None   # U_2 = 1


def test_primitive_divisor_against_direct_scan():
    terms = [fib(n) for n in range(1, 26)]
    for n in range(2, 26):
        expected = None
        for p in sorted(oracle_prime_set(terms[n - 1])) if terms[n - 1] > 1 else []:
            if all(terms[k] % p != 0 for k in range(n - 1)):
                expected = p
                break
        assert primitive_divisor(FIBONACCI, n) == expected, n


def test_primitive_divisor_rejects_zero_terms():
    with pytest.raises(ValueError):
        primitive_divisor(LucasSpec(1, 1), 3)   # U_3 = 0; the pair is rejected
    with pytest.raises(ValueError):
        primitive_divisor(FIBONACCI, 1)


def test_is_lucas_number():
    expected = {1: 1, 3: 2, 4: 3, 7: 4, 11: 5, 18: 6, 29: 7, 47: 8}
    for value, index in expected.items():
        assert is_lucas_number(value) == index
    assert is_lucas_number(21) is None
    assert is_lucas_number(2) is None


def test_term_index_markers_and_specs():
    assert term_index(FIBONACCI, 144) == 12
    assert term_index(LUCAS_V, 7) == 4
    assert term_index(LucasSpec(3, 2), 31) == 5
    assert term_index(LucasSpec(3, 2), 30) is None
    assert term_index(FIBONACCI, 0) is None
    assert term_index(FIBONACCI, 8) == 6
    assert term_index(FIBONACCI, 9) is None
    with pytest.raises(TypeError):
        term_index("nonsense", 3)


def test_term_index_is_exact_past_index_500():
    assert term_index(FIBONACCI, fib(600)) == 600
    assert term_index(LucasSpec(3, 2), 2**700 - 1) == 700
    assert term_index(LucasSpec(3, 2), 2**700) is None
    # U_n(-3, 2) = (-1)^(n-1) (2^n - 1): only odd indices are positive
    assert term_index(LucasSpec(-3, 2), 2**701 - 1) == 701
    assert term_index(LucasSpec(-3, 2), 2**700 - 1) is None
    assert is_fibonacci(fib(600) + 1) is None
    assert is_lucas_number(lucas_v(FIBONACCI, 600)) == 600


@pytest.mark.parametrize("p", [1, -1])
def test_q_zero_pairs_terminate(p):
    # U_n(+-1, 0) = (+-1)^(n-1): |U_n| never passes any limit
    spec = LucasSpec(p, 0)
    assert term_table(spec, 10**30) == {1: 1}
    assert term_table(spec, 0) == {}
    assert term_index(spec, 1) == 1
    assert term_index(spec, 2) is None


def valid_pairs(bound):
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            try:
                yield LucasSpec(p, q)
            except ValueError:
                continue


def test_abs_lucas_u_is_nondecreasing_for_positive_discriminant():
    # the stop rule of term_table: the first |U_n| > limit ends the scan
    for spec in valid_pairs(10):
        if spec.discriminant < 0 or spec.q == 0:
            continue
        a, b = 0, 1
        for n in range(1, 200):
            a, b = b, spec.p * b - spec.q * a
            assert abs(b) >= abs(a) >= 1, (spec, n)


def brute_force_indices(spec, count=500):
    """Smallest index of each positive term among U_1..U_count."""
    out, u = {}, [1, spec.p]
    while len(u) < count:
        u.append(spec.p * u[-1] - spec.q * u[-2])
    for n, term in enumerate(u, start=1):
        if term >= 1:
            out.setdefault(term, n)
    return out


def test_sequence_members_match_brute_force_for_small_pairs():
    # every valid pair with |P|, |Q| <= 6, negative discriminants included;
    # values stay below 10^7, far inside 500 indices for every pair with
    # |U_n| unbounded
    rng = random.Random(20150)
    for spec in valid_pairs(6):
        oracle = brute_force_indices(spec)
        terms = [t for t in oracle if t <= 10**5]
        for _ in range(4):
            elems = set(rng.sample(terms, min(len(terms), rng.randint(1, 5))))
            elems |= {rng.randint(1, 3000) for _ in range(rng.randint(1, 5))}
            elems.add(Fraction(rng.choice(terms), rng.randint(2, 5)))
            ps = build_product_set(BaseSet(elems))
            found = sequence_members(ps, spec)
            expected = [(v, oracle[v]) for v in ps.values()
                        if isinstance(v, int) and v in oracle]
            assert [(m.value, m.index) for m in found] == expected, (spec, elems)
            assert all(m.pairs == ps.pairs_for(m.value) for m in found)
