import math
import random
from fractions import Fraction

import pytest

from prodsets import polyseq
from prodsets.arith import DeskScaleError, factorize, primes_in_range
from prodsets.polyseq import (
    ABOVE_R,
    MID_RANGE,
    _beyond_power,
    PolynomialZ,
    admissible_residue,
    check_irreducible,
    content_d,
    discriminant,
    resultant,
    window_stats,
    window_stats_csv,
    window_witness,
)
from prodsets.productset import BaseSet


# --- brute-force oracles ---------------------------------------------------

def det_cofactor(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j]:
            minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
            total += (-1) ** j * matrix[0][j] * det_cofactor(minor)
    return total


def oracle_resultant(f, g):
    m, n = f.degree, g.degree
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = [[0] * i + fd + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gd + [0] * (m - 1 - i) for i in range(m)]
    return det_cofactor(rows)


def oracle_discriminant(f):
    n = f.degree
    res = oracle_resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res // f.leading


def oracle_factorization(n):
    """{p: e} with n = prod p^e, by trial division."""
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


def oracle_prime_factors(n):
    return set(oracle_factorization(n))


# --- polynomial basics -------------------------------------------------------

def test_poly_basics():
    f = PolynomialZ([1, 0, 1])
    assert f(3) == 10
    assert f.derivative() == PolynomialZ([0, 2])
    assert f.degree == 2 and f.leading == 1


def test_poly_repr_round_trips():
    assert repr(PolynomialZ([1, 0, 1])) == "PolynomialZ([1, 0, 1])"


def test_poly_normalises_trailing_zeros():
    assert PolynomialZ([1, 2, 0, 0]) == PolynomialZ([1, 2])
    with pytest.raises(ValueError):
        PolynomialZ([0, 0])
    with pytest.raises(ValueError):
        PolynomialZ([])
    with pytest.raises(ValueError):
        PolynomialZ([5]).derivative()
    with pytest.raises(TypeError):
        PolynomialZ([1.5])


def test_discriminant_examples():
    assert discriminant(PolynomialZ([1, 0, 1])) == -4
    assert discriminant(PolynomialZ([6, -5, 1])) == 1
    assert discriminant(PolynomialZ([0, -1, 0, 1])) == 4
    assert discriminant(PolynomialZ([2, 1, 1])) == -7
    with pytest.raises(ValueError):
        discriminant(PolynomialZ([3]))


def test_discriminant_matches_cofactor_oracle():
    rng = random.Random(4)
    polys = [PolynomialZ([1, 1, 1]), PolynomialZ([2, 0, 0, 5]),
             PolynomialZ([-3, 1, 4, 1, 2])]
    for _ in range(20):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        polys.append(PolynomialZ(coeffs))
    for f in polys:
        if f.degree >= 1 and f.derivative().degree >= 0:
            assert discriminant(f) == oracle_discriminant(f), f


def test_resultant_with_constant():
    assert resultant(PolynomialZ([1, 2]), PolynomialZ([3])) == 3
    assert resultant(PolynomialZ([5]), PolynomialZ([1, 0, 1])) == 25


def test_quadratic_discriminant_closed_form():
    rng = random.Random(12)
    for _ in range(50):
        a = rng.choice([i for i in range(-5, 6) if i])
        b, c = rng.randint(-9, 9), rng.randint(-9, 9)
        assert discriminant(PolynomialZ([c, b, a])) == b * b - 4 * a * c


def test_content_examples():
    assert content_d(PolynomialZ([0, 1, 1])) == 2      # x^2 + x
    assert content_d(PolynomialZ([1, 0, 1])) == 1
    assert content_d(PolynomialZ([4, 2])) == 2
    assert content_d(PolynomialZ([2, 1, 1])) == 2      # x^2 + x + 2, coefficients coprime


def test_content_matches_gcd_over_many_values():
    for f in (PolynomialZ([0, 1, 1]), PolynomialZ([1, 0, 1]),
              PolynomialZ([0, -1, 3, 2]), PolynomialZ([6, 12, 18]),
              PolynomialZ([2, 1, 1])):
        expected = 0
        for x in range(1, 1001):
            expected = math.gcd(expected, f(x))
        assert content_d(f) == expected


def test_check_irreducible():
    check_irreducible(PolynomialZ([1, 0, 1]))            # x^2 + 1
    check_irreducible(PolynomialZ([-2, 0, 0, 1]))        # x^3 - 2
    check_irreducible(PolynomialZ([7, 3]))               # linear
    with pytest.raises(ValueError):
        check_irreducible(PolynomialZ([-1, 0, 1]))       # (x-1)(x+1)
    with pytest.raises(ValueError):
        check_irreducible(PolynomialZ([0, -1, 0, 1]))    # x(x-1)(x+1)
    with pytest.raises(ValueError):
        check_irreducible(PolynomialZ([0, 1, 1]))        # x(x+1)


def test_admissible_residue_examples():
    assert admissible_residue(PolynomialZ([1, 0, 1])) == (4, 0)
    assert admissible_residue(PolynomialZ([1, 1, 1])) == (3, 0)
    assert admissible_residue(PolynomialZ([2, 1, 1])) == (28, 0)   # |-7| * 2^2
    with pytest.raises(ValueError):
        admissible_residue(PolynomialZ([7, 3]))          # degree too small
    with pytest.raises(ValueError):
        admissible_residue(PolynomialZ([-1, 0, 1]))      # reducible
    with pytest.raises(ValueError, match=r"repeated factor \(discriminant 0\)"):
        admissible_residue(PolynomialZ([1, 0, 2, 0, 1]))  # (x^2+1)^2: M = 0


@pytest.mark.parametrize("coeffs", [
    [1, 0, 1], [1, 1, 1], [2, 0, 1], [3, 1, 1],
    [2, 1, 1], [2, 0, 2], [4, 1, 1],                  # content d = 2
    [1, 1, 2], [7, 3, 5], [1, 0, 3],                  # non-monic quadratics
    [2, 0, 0, 1], [1, -1, 0, 1], [3, 0, 0, 2],        # cubics, one non-monic
    [2, 0, 1, 1], [3, -1, 0, 1],                      # cubics with d = 2, d = 3
])
def test_admissible_residue_full_period(coeffs):
    f = PolynomialZ(coeffs)
    modulus, a = admissible_residue(f)
    d = content_d(f)
    # the residue scan per prime power never passes deg f
    for p, e in factorize(modulus).factors:
        assert a % p**e <= f.degree, (p, e)
    for t in range(min(modulus, 10**4)):
        x = a + t * modulus
        assert math.gcd(f(x) // d, modulus) == 1


# --- window statistics -------------------------------------------------------

def test_window_stats_identity_polynomial():
    f = PolynomialZ([0, 1])
    stats = window_stats(f, 0, 10, ABOVE_R)
    assert stats.above_count == 0
    mid = window_stats(f, 0, 10, MID_RANGE)
    assert mid.mid_count == 1
    assert [rec.index for rec in mid.records if rec.qualifies] == [7]


def test_window_stats_counts_are_filter_independent():
    f = PolynomialZ([1, 0, 1])
    above = window_stats(f, 0, 30, ABOVE_R)
    mid = window_stats(f, 0, 30, MID_RANGE)
    assert above.above_count == mid.above_count
    assert above.mid_count == mid.mid_count


def test_window_stats_largest_prime_factors_match_oracle():
    f = PolynomialZ([1, 0, 1])
    stats = window_stats(f, 0, 40, ABOVE_R)
    for rec in stats.records:
        expected = max(oracle_prime_factors(rec.value), default=None)
        assert rec.largest_prime_factor == expected
        assert rec.qualifies == (expected is not None and expected > 40)


def test_window_stats_residue_filter_divides_by_content():
    f = PolynomialZ([2, 0, 2])   # 2(x^2 + 1), content 2
    stats = window_stats(f, 0, 200, ABOVE_R, admissible=True)
    assert stats.residue == (0, 64) and stats.content == 2
    assert [rec.index for rec in stats.records] == [64, 128, 192]
    for rec in stats.records:
        assert rec.value == rec.index**2 + 1


def test_window_stats_residue_example():
    f = PolynomialZ([1, 0, 1])
    stats = window_stats(f, 0, 50, ABOVE_R, admissible=True)
    assert len(stats.records) == 12
    oracle_count = 0
    for i in range(4, 51, 4):
        if max(oracle_prime_factors(i * i + 1)) > 50:
            oracle_count += 1
    assert stats.above_count == oracle_count
    assert stats.above_count >= -(-50 // 12)   # floor behaviour at small scale


def test_window_smooth_rough_decomposition():
    f = PolynomialZ([1, 0, 1])
    stats = window_stats(f, 3, 25, ABOVE_R)
    product = smooth = rough = 1
    for rec in stats.records:
        product *= rec.value
        for p, e in oracle_factorization(rec.value).items():
            if p <= 25:
                smooth *= p**e
            else:
                rough *= p**e
    assert smooth * rough == product
    assert math.isclose(stats.log_smooth, math.log(smooth), rel_tol=1e-9)


def test_window_stats_guards():
    f = PolynomialZ([-100, 1])
    with pytest.raises(ValueError):
        window_stats(f, 0, 10, ABOVE_R)        # non-positive terms
    with pytest.raises(ValueError):
        window_stats(PolynomialZ([0, 1]), 0, 10, "bogus")
    with pytest.raises(DeskScaleError):
        window_stats(PolynomialZ([0, 1]), 0, 10**5 + 1, ABOVE_R)
    with pytest.raises(DeskScaleError):
        window_stats(PolynomialZ([0, 2**100]), 0, 5, ABOVE_R)


def test_window_stats_csv_shape():
    f = PolynomialZ([0, 1])
    text = window_stats_csv(window_stats(f, 0, 10, MID_RANGE))
    lines = text.strip().split("\n")
    assert lines[0] == "i,value,largest_prime_factor,qualifies"
    assert lines[1] == "1,1,,false"
    assert lines[7] == "7,7,7,true"


def test_mid_range_floor_for_shifted_linear_polynomials():
    # a stays coprime to every prime in (R/2, R], so each contributes a term
    for coeffs in ([1, 2], [2, 3]):
        f = PolynomialZ(coeffs)
        for R in (100, 200, 400):
            stats = window_stats(f, 0, R, MID_RANGE)
            floor = len(primes_in_range(R // 2, R))
            assert 2 * stats.mid_count >= floor


# --- witness -----------------------------------------------------------------

@pytest.mark.parametrize("coeffs, r, R, case", [
    ([1, 0, 1], 0, 40, 1),
    ([1, 1, 2], 5, 30, 1),
    ([3, 1], 1000, 20, 2),     # 1000 > 20^2
    ([3, 1], 100, 20, 3),      # 100 <= 20^2
])
def test_witness_terms_are_the_window_terms_that_qualify(coeffs, r, R, case):
    f = PolynomialZ(coeffs)
    report = window_witness([f], r, R)
    assert report.case == case and report.terms
    stats = window_stats(f, r, R, MID_RANGE if case == 3 else ABOVE_R)
    assert set(report.terms) == {rec.value for rec in stats.records if rec.qualifies}


def test_window_witness_tiny_case_three():
    report = window_witness([PolynomialZ([0, 1])], 0, 10)
    assert report.case == 3
    assert report.terms == (7,)
    assert report.primes == (7,)
    assert report.k == 1
    assert report.b_lower_bound == 1


def test_window_witness_case_one_soundness():
    f = PolynomialZ([1, 0, 1])
    report = window_witness([f], 0, 30)
    assert report.case == 1
    assert report.k >= 1
    seen = set()
    for value in report.cover:
        primes = oracle_prime_factors(value)
        assert {p for p in primes if p > 30} - seen, value
        seen |= primes
    base = BaseSet([1] + [f(i) for i in range(1, 31)])
    assert report.b_lower_bound <= len(base)


def test_window_witness_case_two():
    report = window_witness([PolynomialZ([0, 1])], 10**6, 20)
    assert report.case == 2
    assert report.k >= 1
    assert report.b_lower_bound == (report.k + 2) // 2


def test_window_witness_gamma_controls_case_split():
    factors = [PolynomialZ([0, 1])]
    assert window_witness(factors, 10**6, 20, gamma=2).case == 2
    assert window_witness(factors, 10**6, 20, gamma=10).case == 3
    assert window_witness(factors, 10**6, 20, gamma=1.5).case == 2


def test_beyond_power_is_exact():
    r = 5**25    # = 25^12.5
    for gamma in (Fraction(25, 2), 12.5):
        assert not _beyond_power(r, 25, gamma)
        assert _beyond_power(r + 1, 25, gamma)
    assert _beyond_power(2, 4, Fraction(1, 2)) is False      # 2 > 4^(1/2) fails
    assert _beyond_power(3, 4, Fraction(1, 2))
    assert _beyond_power(1, 4, -1)                           # 1 > 1/4
    with pytest.raises(DeskScaleError):
        _beyond_power(10**6, 20, Fraction(1, 10**6))


def test_window_witness_empty_cover():
    report = window_witness([PolynomialZ([0, 1])], 0, 1)
    assert report.terms == () and report.primes == ()
    assert report.degree_bound == 1
    assert report.k == 0
    assert report.b_lower_bound == 1


def test_window_witness_validates_input(monkeypatch):
    with pytest.raises(ValueError):
        window_witness([], 0, 10)
    with pytest.raises(ValueError):
        window_witness([PolynomialZ([-1, 0, 1])], 0, 10)    # reducible factor
    with pytest.raises(ValueError):
        window_witness([PolynomialZ([0, -1])], 0, 10)       # negative leading
    with pytest.raises(ValueError):
        window_witness([PolynomialZ([-100, 1])], 0, 10)     # non-positive window
    # a constant is no irreducible factor, and the case split would file it
    # under the all-linear cases 2/3; it is named before any term is factored
    calls = []
    monkeypatch.setattr(polyseq, "factorize_batch", calls.append)
    for factors, constant in (([PolynomialZ([3]), PolynomialZ([0, 1])], 3),
                              ([PolynomialZ([3])], 3),
                              ([PolynomialZ([1, 0, 1]), PolynomialZ([-2])], -2)):
        with pytest.raises(ValueError, match=f"^factor {constant} is a constant"):
            window_witness(factors, 0, 6)
    assert calls == []


def test_window_witness_multiple_factors():
    # x (x + 1): all linear, small r, case 3
    report = window_witness([PolynomialZ([0, 1]), PolynomialZ([1, 1])], 0, 20)
    assert report.case == 3
    for value in report.terms:
        assert any(p <= 20 < 2 * p for p in oracle_prime_factors(value))


def test_linear_pair_witness_never_hands_rho_a_whole_term(rho_calls):
    # each term (x + 3)(x + 17) near 2^33 has 66 bits; its factor values 33.
    # rho walks the medium-prime products and the composites the split
    # rounds leave; on this window only the medium-prime products
    report = window_witness([PolynomialZ([3, 1]), PolynomialZ([17, 1])], 2**33, 30)
    split = [n for call in rho_calls for n in call]
    assert report.case == 2 and report.k == 30
    assert split, "no factor value needed rho"
    assert max(n.bit_length() for n in split) <= 34, split
    # here x + 3 = 65537 * 131071 at i = 1, a factor value with no prime up
    # to 2^16, so the split rounds walk it
    rho_calls.clear()
    composite = 65537 * 131071
    report = window_witness([PolynomialZ([3, 1]), PolynomialZ([17, 1])], composite - 4, 30)
    split = [n for call in rho_calls for n in call]
    assert report.case == 2 and report.k == 30
    assert composite in split, split
    assert max(n.bit_length() for n in split) <= 34, split
