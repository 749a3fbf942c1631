import math
import random
import re
from fractions import Fraction

import pytest
import sympy

from prodsets import sequences
from prodsets.productset import BaseSet, build_product_set, sequence_members
from prodsets.sequences import (
    FIBONACCI,
    LUCAS_V,
    LucasSpec,
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
    assert lucas_u(FIBONACCI, 1) == 1
    assert lucas_u(FIBONACCI, 2) == 1
    assert lucas_u(FIBONACCI, 12) == 144
    assert lucas_u(FIBONACCI, 20) == 6765
    with pytest.raises(ValueError):
        lucas_u(FIBONACCI, 0)


def test_fibonacci_term_table():
    assert list(term_table(FIBONACCI, 100)) == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert term_table(FIBONACCI, 0) == {}


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
    for v in (False, True):
        with pytest.raises(ValueError, match="degenerate"):
            LucasSpec(p, q, v)


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
        assert lucas_u(LucasSpec(1, -1), n) == b
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
    # lucas_u and lucas_v read the pair, whichever sequence the spec names;
    # for (1, -1) the V spec is LUCAS_V
    v_spec = spec._replace(v=True)
    assert [lucas_u(v_spec, n) for n in range(1, 201)] == u
    assert [lucas_v(v_spec, n) for n in range(1, 201)] == v


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
        member = any(math.isqrt(t) ** 2 == t for t in (square + 4, square - 4))
        assert (is_fibonacci(m) is not None) == member, m
        assert is_fibonacci(m) == values.get(m), m


def test_is_fibonacci_round_trip():
    for n in range(1, 81):
        expected = 1 if n == 2 else n
        assert is_fibonacci(lucas_u(FIBONACCI, n)) == expected


def test_fib_gcd_examples():
    assert math.gcd(lucas_u(FIBONACCI, 9), lucas_u(FIBONACCI, 6)) == 2
    assert math.gcd(lucas_u(FIBONACCI, 12), lucas_u(FIBONACCI, 8)) == 3
    assert math.gcd(lucas_u(FIBONACCI, 30), lucas_u(FIBONACCI, 30)) == lucas_u(FIBONACCI, 30)


def test_strong_divisibility():
    cache = [0] + [lucas_u(FIBONACCI, n) for n in range(1, 101)]
    for m in range(1, 101):
        for n in range(1, 101):
            assert math.gcd(cache[m], cache[n]) == cache[math.gcd(m, n)]


def test_gcd_square_bound():
    cache = [0] + [lucas_u(FIBONACCI, n) for n in range(1, 61)]
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
    for p in (1, -1):   # U_n(+-1, 0) = (+-1)^(n-1): every |U_n| is 1
        for n in range(2, 7):
            assert primitive_divisor(LucasSpec(p, 0), n) is None, (p, n)
    # U_n(-1, -1) = (-1)^(n-1) F_n: signed terms need no absolute value
    for n in range(2, 31):
        assert primitive_divisor(LucasSpec(-1, -1), n) == primitive_divisor(FIBONACCI, n), n


def test_primitive_divisor_against_direct_scan():
    terms = [lucas_u(FIBONACCI, n) for n in range(1, 26)]
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


@pytest.mark.parametrize("spec, n, expected", [
    (LUCAS_V, 40, {6}),                   # V_6 = 18 = 2 * 3^2, with V_3 = 4, V_2 = 3
    (LucasSpec(3, 2, True), 30, {3}),     # V_n = 2^n + 1: V_3 = 9, with V_1 = 3
    (LucasSpec(2, -1, True), 30, set()),
])
def test_primitive_divisor_of_v_kinds_against_sympy(spec, n, expected):
    terms = [lucas_v(spec, k) for k in range(1, n + 1)]
    missing = set()
    for k in range(2, n + 1):
        primitive = [p for p in sympy.primefactors(terms[k - 1])
                     if all(t % p != 0 for t in terms[:k - 1])]
        assert primitive_divisor(spec, k) == min(primitive, default=None), (spec, k)
        if not primitive:
            missing.add(k)
    assert missing == expected


def refuse_terms(*args):
    raise AssertionError("a term was computed")


# only a LucasSpec names a sequence; "lucas", the string that once stood for
# V(1, -1), is refused like any other value
@pytest.mark.parametrize("function, n", [(lucas_u, 3), (lucas_v, 3), (primitive_divisor, 5),
                                         (primitive_divisor, 1)])
@pytest.mark.parametrize("spec", ["lucas", (1, -1), None])
def test_lucas_functions_take_a_lucas_spec_only(function, n, spec, monkeypatch):
    monkeypatch.setattr(sequences, "_recurrence", refuse_terms)
    with pytest.raises(TypeError, match=re.escape(f"spec must be a LucasSpec, got {spec!r}")):
        function(spec, n)


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
    assert term_index(LucasSpec(3, 2, True), 33) == 5    # V_n(3, 2) = 2^n + 1
    assert term_index(FIBONACCI, 0) is None
    assert term_index(FIBONACCI, 8) == 6
    assert term_index(FIBONACCI, 9) is None
    with pytest.raises(TypeError):
        term_index("nonsense", 3)


@pytest.mark.parametrize("kind", [FIBONACCI, pytest.param(LUCAS_V, id="lucas"), LucasSpec(3, 2),
                                  LucasSpec(2, 3), LucasSpec(1, -3), LucasSpec(1, 0),
                                  LucasSpec(-1, 0), LucasSpec(2, 3, True), LucasSpec(1, 0, True)])
@pytest.mark.parametrize("value", [0, -1, -144])
def test_term_index_of_a_value_below_one_is_none(kind, value):
    assert term_index(kind, value) is None


@pytest.mark.parametrize("value", [0, 5])
def test_term_index_rejects_an_unknown_kind_for_every_value(value):
    with pytest.raises(TypeError):
        term_index("tribonacci", value)


def test_term_index_is_exact_past_index_500():
    assert term_index(FIBONACCI, lucas_u(FIBONACCI, 600)) == 600
    assert term_index(LucasSpec(3, 2), 2**700 - 1) == 700
    assert term_index(LucasSpec(3, 2), 2**700) is None
    # U_n(-3, 2) = (-1)^(n-1) (2^n - 1): only odd indices are positive
    assert term_index(LucasSpec(-3, 2), 2**701 - 1) == 701
    assert term_index(LucasSpec(-3, 2), 2**700 - 1) is None
    assert is_fibonacci(lucas_u(FIBONACCI, 600) + 1) is None
    assert is_lucas_number(lucas_v(FIBONACCI, 600)) == 600


@pytest.mark.parametrize("p", [1, -1])
def test_q_zero_pairs_terminate(p):
    # U_n(+-1, 0) = (+-1)^(n-1) and V_n(+-1, 0) = (+-1)^n: |X_n| never passes
    # any limit
    spec = LucasSpec(p, 0)
    assert term_table(spec, 10**30) == {1: 1}
    assert term_table(spec, 0) == {}
    assert term_index(spec, 1) == 1
    assert term_index(spec, 2) is None
    v_spec = LucasSpec(p, 0, True)
    assert term_table(v_spec, 10**30) == ({1: 1} if p == 1 else {1: 2})
    assert term_table(v_spec, 0) == {}
    assert term_index(v_spec, 2) is None


def valid_pairs(bound):
    """U and V of every valid pair with |P|, |Q| <= bound."""
    for p in range(-bound, bound + 1):
        for q in range(-bound, bound + 1):
            try:
                spec = LucasSpec(p, q)
            except ValueError:
                continue
            yield spec
            yield spec._replace(v=True)


def test_abs_lucas_u_is_nondecreasing_for_positive_discriminant():
    # the stop rule of term_table: the first |X_n| > limit ends the scan, for
    # U and V alike; a, b run from X_0, X_1
    for spec in valid_pairs(10):
        if spec.discriminant < 0 or spec.q == 0:
            continue
        a, b = (2, spec.p) if spec.v else (0, 1)
        for n in range(1, 200):
            a, b = b, spec.p * b - spec.q * a
            assert abs(b) >= abs(a) >= 1, (spec, n)


def brute_force_indices(spec, count=500):
    """Smallest index of each positive term among X_1..X_count of the spec's
    own sequence."""
    out, u = {}, [spec.p, spec.p * spec.p - 2 * spec.q] if spec.v else [1, spec.p]
    while len(u) < count:
        u.append(spec.p * u[-1] - spec.q * u[-2])
    for n, term in enumerate(u, start=1):
        if term >= 1:
            out.setdefault(term, n)
    return out


def test_sequence_members_match_brute_force_for_small_pairs():
    # U and V of every valid pair with |P|, |Q| <= 6, negative discriminants
    # included; values stay below 10^10, far inside 500 indices for every
    # pair of positive discriminant
    rng = random.Random(20150)
    for spec in valid_pairs(6):
        oracle = brute_force_indices(spec)
        terms = [t for t in oracle if t <= 10**5]
        for _ in range(4):
            elems = set(rng.sample(terms, min(len(terms), rng.randint(1, 5))))
            elems |= {rng.randint(1, 3000) for _ in range(rng.randint(1, 5))}
            elems.add(Fraction(rng.choice(terms), rng.randint(2, 5)))
            base = BaseSet(elems)
            ps = build_product_set(base)
            found = sequence_members(base, spec)
            expected = [(v, oracle[v]) for v in ps
                        if isinstance(v, int) and v in oracle]
            assert [(m.value, m.index) for m in found] == expected, (spec, elems)
            assert all(m.pairs == ps[m.value] for m in found)
