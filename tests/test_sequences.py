import math

import pytest

from prodsets.sequences import (
    FIBONACCI,
    FIBONACCI_SPEC,
    LUCAS_V,
    LucasSpec,
    fib,
    fib_gcd,
    fib_values_upto,
    is_fibonacci,
    is_lucas_number,
    lucas_u,
    lucas_v,
    membership,
    primitive_divisor,
    square_fibonacci_indices,
    term_index,
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
    assert FIBONACCI_SPEC.discriminant == 5


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
    assert lucas_u(FIBONACCI_SPEC, 10) == 55
    assert lucas_v(FIBONACCI_SPEC, 4) == 7
    assert lucas_u(LucasSpec(3, 2), 5) == 31
    with pytest.raises(ValueError):
        lucas_u(FIBONACCI_SPEC, 0)


def test_lucas_u_is_fib_for_the_fibonacci_pair():
    for n in range(1, 60):
        assert lucas_u(FIBONACCI_SPEC, n) == fib(n)


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
    values = {}
    a, b, idx = 1, 1, 1
    while a <= 10000:
        values.setdefault(a, idx)
        a, b, idx = b, a + b, idx + 1
    for m in range(1, 10001):
        assert is_fibonacci(m) == values.get(m), m


def test_is_fibonacci_round_trip():
    for n in range(1, 81):
        expected = 1 if n == 2 else n
        assert is_fibonacci(fib(n)) == expected


def test_fib_gcd_examples():
    assert fib_gcd(9, 6) == 2
    assert fib_gcd(12, 8) == 3
    assert fib_gcd(30, 30) == fib(30)


def test_strong_divisibility():
    cache = [0] + [fib(n) for n in range(1, 101)]
    for m in range(1, 101):
        for n in range(1, 101):
            assert math.gcd(cache[m], cache[n]) == cache[math.gcd(m, n)]
    # the public route agrees on a subgrid
    for m in range(1, 25):
        for n in range(1, 25):
            assert fib_gcd(m, n) == cache[math.gcd(m, n)]


def test_gcd_square_bound():
    cache = [0] + [fib(n) for n in range(1, 61)]
    for n in range(3, 61):
        for m in range(1, n):
            g = math.gcd(cache[m], cache[n])
            assert g * g < cache[n]
            assert g < math.isqrt(cache[n]) + 1


def test_primitive_divisor_examples():
    assert primitive_divisor(FIBONACCI_SPEC, 7) == 13
    assert primitive_divisor(FIBONACCI_SPEC, 6) is None
    assert primitive_divisor(FIBONACCI_SPEC, 12) is None
    assert primitive_divisor(FIBONACCI_SPEC, 5) == 5
    assert primitive_divisor(FIBONACCI_SPEC, 2) is None   # U_2 = 1


def test_primitive_divisor_against_direct_scan():
    terms = [fib(n) for n in range(1, 26)]
    for n in range(2, 26):
        expected = None
        for p in sorted(oracle_prime_set(terms[n - 1])) if terms[n - 1] > 1 else []:
            if all(terms[k] % p != 0 for k in range(n - 1)):
                expected = p
                break
        assert primitive_divisor(FIBONACCI_SPEC, n) == expected, n


def test_primitive_divisor_rejects_zero_terms():
    with pytest.raises(ValueError):
        primitive_divisor(LucasSpec(1, 1), 3)   # U_3 = 0; the pair is rejected
    with pytest.raises(ValueError):
        primitive_divisor(FIBONACCI_SPEC, 1)


def test_square_fibonacci_indices():
    assert square_fibonacci_indices(60) == [1, 2, 12]
    assert square_fibonacci_indices(11) == [1, 2]
    assert square_fibonacci_indices(1) == [1]


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
    with pytest.raises(TypeError):
        term_index("nonsense", 3)


def test_membership_predicate():
    pred = membership(FIBONACCI)
    assert pred(8) == 6
    assert pred(9) is None
