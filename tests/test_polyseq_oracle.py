"""resultant and discriminant against sympy for every degree pair up to 4
and on seeded pairs of degrees 5 to 8, with constants and common factors,
the rational-root screen of quadratics and cubics against sympy's factor
lists, the per-factor factoring of witness windows against sympy and against
factoring each term whole, that a factor value recurring in a window is
factored once, and the witness bound against the exact minimum |B|, on
pinned windows and on a seeded sweep of degrees 1 to 3."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from prodsets import arith, cli, polyseq
from prodsets.arith import factorize, factorize_batch
from prodsets.polyseq import (
    PolynomialZ,
    _factor_window,
    check_irreducible,
    discriminant,
    resultant,
    window_terms,
    window_witness,
)

ORACLE = settings(max_examples=40, derandomize=True, deadline=None, database=None)
X = sympy.symbols("x")
MAX_DEGREE = 4

# five coefficients, constant term first, and a nonzero leading one; the
# polynomial of degree d takes the first d coefficients and the leading one
COEFFS = st.tuples(st.lists(st.integers(-30, 30), min_size=MAX_DEGREE, max_size=MAX_DEGREE),
                   st.integers(1, 30), st.booleans())


def of_degree(drawn, d):
    lower, lead, negative = drawn
    return PolynomialZ(lower[:d] + [-lead if negative else lead])


def as_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)), X)


def sympy_resultant(f, g):
    # sympy 1.14 answers Res(g, f) without the sign (-1)^(mn) when
    # deg f < deg g (Res(x, x^3 + 1) comes back -1), so it is asked
    # with the larger degree first and Res(f, g) = (-1)^(mn) Res(g, f)
    m, n = f.degree, g.degree
    if m >= n:
        return as_sympy(f).resultant(as_sympy(g))
    return (-1) ** (m * n) * as_sympy(g).resultant(as_sympy(f))


@ORACLE
@given(COEFFS, COEFFS)
def test_resultant_matches_sympy(f_drawn, g_drawn):
    for m in range(MAX_DEGREE + 1):
        for n in range(MAX_DEGREE + 1):
            f, g = of_degree(f_drawn, m), of_degree(g_drawn, n)
            assert resultant(f, g) == sympy_resultant(f, g), (f, g)


def drawn_coeffs(rng, degree, bits):
    """Coefficients below 2^bits, constant term first; the leading one has
    either sign and is a unit half the time."""
    lead = rng.choice([-1, 1]) * rng.choice([1, rng.randint(2, 2**bits)])
    return [rng.randint(-2**bits, 2**bits) for _ in range(degree)] + [lead]


@pytest.mark.parametrize("seed", range(12))
def test_resultant_matches_sympy_at_degrees_5_to_8(seed):
    rng = random.Random(seed)
    bits = rng.choice([4, 20, 40])
    f, g = (PolynomialZ(drawn_coeffs(rng, rng.randint(5, 8), bits)) for _ in range(2))
    c = PolynomialZ(drawn_coeffs(rng, 0, bits))
    for a, b in [(f, g), (g, f), (f, c), (c, g)]:
        assert resultant(a, b) == sympy_resultant(a, b), (a, b)
    # a common factor h of degree 1 to 3 makes the resultant 0
    h = drawn_coeffs(rng, rng.randint(1, 3), 4)
    a, b = (PolynomialZ(times(drawn_coeffs(rng, rng.randint(5, 8) - len(h) + 1, bits), h))
            for _ in range(2))
    assert resultant(a, b) == 0 == sympy_resultant(a, b), (a, b)
    for p in (f, g):
        assert discriminant(p) == sympy.discriminant(as_sympy(p)), p


@ORACLE
@given(COEFFS)
def test_discriminant_matches_sympy(drawn):
    for d in range(1, MAX_DEGREE + 1):
        f = of_degree(drawn, d)
        assert discriminant(f) == sympy.discriminant(as_sympy(f)), f


M61 = 2**61 - 1   # prime


@pytest.mark.parametrize("f", [
    PolynomialZ([M61, 0, 0, 1]),                 # x^3 + (2^61 - 1)
    PolynomialZ([M61, 1, M61, 1]),               # (x + 2^61 - 1)(x^2 + 1)
    PolynomialZ([10**18 + 3, 0, 0, 1]),          # x^3 + 10^18 + 3
    PolynomialZ([M61, 3, M61, 3]),               # (3x + 2^61 - 1)(x^2 + 1)
], ids=["x3+M61", "(x+M61)(x2+1)", "x3+1e18+3", "(3x+M61)(x2+1)"])
def test_cubic_irreducibility_screen_matches_sympy(f):
    try:
        check_irreducible(f)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == as_sympy(f).is_irreducible


def times(f, g):
    """The product of two coefficient lists, constant term first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


COEFF = st.one_of(st.integers(-9, 9), st.integers(-2**60, 2**60))
LEAD = COEFF.filter(bool)
# (q, p) for the root p/q of q x - p, with q > 1 drawn as often as q = 1
ROOT = st.tuples(st.one_of(st.just(1), st.integers(2, 2**20)), st.integers(-2**20, 2**20))


def linear(root):
    q, p = root
    return [-p, q]


# every constant term and leading coefficient stays within MAX_TERM_BITS
SCREENED = st.one_of(
    # drawn whole, leading coefficient included
    st.builds(lambda lower, lead: lower + [lead], st.lists(COEFF, min_size=2, max_size=3), LEAD),
    # a rational root times a drawn linear or quadratic cofactor
    st.builds(lambda root, lower, lead: times(linear(root), lower + [lead]),
              ROOT, st.lists(COEFF, min_size=1, max_size=2), LEAD),
    # double and triple roots: c (qx - p)^2, c (qx - p)^2 (q'x - p'), c (qx - p)^3
    ROOT.flatmap(lambda root: st.builds(
        lambda c, rest: times([c], times(times(linear(root), linear(root)), rest)),
        st.integers(-9, 9).filter(bool),
        st.sampled_from([[1], linear(root)]) | ROOT.map(linear))),
)


@settings(ORACLE, max_examples=200)
@given(SCREENED)
@example([-8, 36, -54, 27])            # (3x - 2)^3
@example([25, 20, 4])                  # (2x + 5)^2
@example([0, 0, 0, 1])                 # x^3
@example([1, 0, -1])                   # 1 - x^2, negative leading coefficient
@example([-12, -11, 1, 2])             # (2x + 3)(x^2 - x - 4): root -3/2 next to a turn
@example([32589158477190044730, 0, 0, 7858321551080267055879090])   # 53# + 67# x^3
def test_rational_root_screen_matches_sympy(coeffs):
    f = PolynomialZ(coeffs)
    assume(f.degree in (2, 3))
    splits = any(g.degree() == 1 for g, _ in as_sympy(f).factor_list()[1])
    try:
        check_irreducible(f)
    except ValueError as raised:
        assert splits, f
        expected = "quadratic splits" if f.degree == 2 else "cubic has a rational root"
        assert expected in str(raised)
    else:
        assert not splits, f


def test_rational_root_screen_lists_no_divisors(capsys):
    # a0 = 67# and lead = 53#, 83 and 65 bits: 2^19 x 2^16 divisor pairs
    # (p, q), too many to try one by one
    a0, lead = 7858321551080267055879090, 32589158477190044730
    assert as_sympy(PolynomialZ([a0, 0, 0, lead])).is_irreducible
    start = time.perf_counter()
    code = cli.main(["witness", f"--poly-factors={a0},0,0,{lead}", "--r", "0", "--R", "1"])
    elapsed = time.perf_counter() - start
    assert code == 0 and '"case": 1' in capsys.readouterr().out
    assert elapsed < 1, elapsed


# --- per-factor window factoring ---------------------------------------------

LINEAR = st.tuples(st.integers(-9, 9), st.sampled_from([1, 2, 3, -1])).map(list)


def non_square_discriminant(c):
    disc = c[1] ** 2 - 4 * c[0] * c[2]
    return disc < 0 or math.isqrt(disc) ** 2 != disc


QUADRATIC = st.tuples(st.integers(-9, 9), st.integers(-6, 6),
                      st.integers(1, 3)).filter(non_square_discriminant).map(list)
# r near 0 gives factor values that are negative or +-1; r near 2^33 gives
# linear-pair terms of about 66 bits
WINDOW = st.tuples(st.one_of(st.integers(0, 12), st.integers(2**33 - 40, 2**33)),
                   st.integers(1, 8))


def whole_product_factors(factors, r, terms):
    return {value: factorize(value).factors for value in sorted({v for _, v in terms})}


@ORACLE
@given(st.lists(st.one_of(LINEAR, QUADRATIC), min_size=1, max_size=3), st.booleans(),
       WINDOW, st.sampled_from([2, Fraction(1, 2), 40]))
@example([[-5, 1], [-7, 1]], False, (0, 4), 2)
@example([[1, 1], [3, 1]], False, (2**33, 6), 2)
@example([[1, 1], [3, 1]], False, (2**33, 6), 40)
def test_per_factor_merge_matches_whole_product(drawn, repeat, window, gamma):
    factors = [PolynomialZ(c) for c in drawn + drawn[:1] * repeat]
    r, R = window
    values = [math.prod(g(r + i) for g in factors) for i in range(1, R + 1)]
    assume(all(v > 0 for v in values))
    assume(max(values).bit_length() <= 68)   # whole 96-bit products take rho seconds
    assume(math.prod(g.leading for g in factors) > 0)
    terms = window_terms(factors, r, R)
    merged = _factor_window(factors, r, terms)
    assert list(merged) == sorted(set(values))
    for value, found in merged.items():
        assert dict(found) == sympy.factorint(value), (factors, value)
    report = window_witness(factors, r, R, gamma)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyseq, "_factor_window", whole_product_factors)
        assert report == window_witness(factors, r, R, gamma)


def test_each_factor_value_is_factored_once_per_window(monkeypatch):
    # x+17 at x equals x+3 at x+14: 30 values of x+3 and 14 new ones of x+17
    factors = [PolynomialZ([3, 1]), PolynomialZ([17, 1])]
    batches, staged = [], []
    trial_stage = arith._trial_stage

    def recording_batch(values):
        batches.append(list(values))
        return factorize_batch(batches[-1])

    def recording_trial_stage(n):
        staged.append(n)
        return trial_stage(n)

    monkeypatch.setattr(polyseq, "factorize_batch", recording_batch)
    monkeypatch.setattr(arith, "_trial_stage", recording_trial_stage)
    report = window_witness(factors, 1000, 30, 2)
    assert len(batches) == 1 and len(set(batches[0])) == 44
    assert len(staged) == 44 == len(set(staged))
    monkeypatch.setattr(polyseq, "_factor_window", whole_product_factors)
    assert report == window_witness(factors, 1000, 30, 2)


def divisor_pairs(t):
    return [(a, t // a) for a in range(1, math.isqrt(t) + 1) if t % a == 0]


def min_base_size(terms):
    """The least |B| with every term in B.B, by branch and bound.  Each
    element of a minimal B is in a divisor pair of some term (any other can
    go), so a node covers its least-covered open term by each of that term's
    pairs in turn; m new elements next to s old ones give at most
    s*m + m(m+1)/2 new products, which bounds the elements still needed."""
    terms = sorted(set(terms))
    options = {t: divisor_pairs(t) for t in terms}
    best = len(terms) + 1          # {1} and every term
    seen = set()

    def search(base):
        nonlocal best
        if base in seen:
            return
        seen.add(base)
        open_terms = [t for t in terms
                      if not any(a in base and b in base for a, b in options[t])]
        if not open_terms:
            best = min(best, len(base))
            return
        s, m = len(base), 1
        while m * s + m * (m + 1) // 2 < len(open_terms):
            m += 1
        if s + m >= best:
            return
        t = min(open_terms, key=lambda t: len(options[t]))
        for a, b in sorted(options[t], key=lambda pair: len(set(pair) - base)):
            search(base | {a, b})

    search(frozenset())
    return best


@pytest.mark.parametrize("coeffs, r", [([1, 0, 1], 0), ([1, 0, 1], 7), ([1, 1], 0),
                                       ([1, 1], 30), ([0, 1, 1], 3), ([1, 0, 0, 1], 2)])
def test_min_base_size_matches_subset_search(coeffs, r):
    # every subset of the terms' divisors, smallest first, on 5-term windows
    f = PolynomialZ(coeffs)
    terms = {f(r + i) for i in range(1, 6)}
    divisors = sorted({d for t in terms for pair in divisor_pairs(t) for d in pair})
    exhaustive = next(size for size in range(1, len(divisors) + 1)
                      if any(all(any(a in base and b in base for a, b in divisor_pairs(t))
                                 for t in terms)
                             for base in map(set, combinations(divisors, size))))
    assert min_base_size(terms) == exhaustive


@pytest.mark.parametrize("coeffs, r, R, case, bound, minimum", [
    ([1, 0, 1], 0, 18, 1, 5, 15),
    ([1, 0, 1], 100, 16, 1, 9, 17),
    ([1, 1], 1000, 14, 2, 7, 15),
    ([1, 1], 0, 16, 3, 2, 9),
])
def test_witness_bound_is_at_most_the_least_base(coeffs, r, R, case, bound, minimum):
    f = PolynomialZ(coeffs)
    report = window_witness([f], r, R)
    assert (report.case, report.b_lower_bound) == (case, bound)
    least = min_base_size([f(r + i) for i in range(1, R + 1)])
    assert report.b_lower_bound <= least == minimum


def sweep_windows(count, seed=20):
    """Windows (f, r, R) of irreducible f of degree 1 to 3 with small
    coefficients, drawn with a fixed seed.  A linear f sits at r on either
    side of R^2, so the default gamma = 2 gives cases 2 and 3 as well as 1."""
    rng = random.Random(seed)
    while count:
        degree = rng.choice([1, 1, 2, 3])
        f = PolynomialZ([rng.randint(0, 5) for _ in range(degree)] + [rng.randint(1, 2)])
        R = rng.randint(4, 10)
        r = (rng.choice([rng.randint(0, R * R), rng.randint(R * R + 1, 200)])
             if degree == 1 else rng.randint(0, 20))
        try:
            check_irreducible(f)
        except ValueError:
            continue
        count -= 1
        yield f, r, R


def test_witness_bound_is_at_most_the_least_base_on_a_sweep():
    cases = set()
    for f, r, R in sweep_windows(40):
        report = window_witness([f], r, R)
        cases.add(report.case)
        assert report.b_lower_bound <= min_base_size([f(r + i) for i in range(1, R + 1)]), \
            (f, r, R)
    assert cases == {1, 2, 3}
