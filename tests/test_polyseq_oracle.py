"""resultant and discriminant against sympy for every degree pair up to 4."""

import sympy
from hypothesis import given, settings, strategies as st

from prodsets.polyseq import PolynomialZ, discriminant, resultant

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


@ORACLE
@given(COEFFS, COEFFS)
def test_resultant_matches_sympy(f_drawn, g_drawn):
    for m in range(MAX_DEGREE + 1):
        for n in range(MAX_DEGREE + 1):
            f, g = of_degree(f_drawn, m), of_degree(g_drawn, n)
            # sympy 1.14 answers Res(g, f) without the sign (-1)^(mn) when
            # deg f < deg g (Res(x, x^3 + 1) comes back -1), so it is asked
            # with the larger degree first and Res(f, g) = (-1)^(mn) Res(g, f)
            if m >= n:
                expected = as_sympy(f).resultant(as_sympy(g))
            else:
                expected = (-1) ** (m * n) * as_sympy(g).resultant(as_sympy(f))
            assert resultant(f, g) == expected, (f, g)


@ORACLE
@given(COEFFS)
def test_discriminant_matches_sympy(drawn):
    for d in range(1, MAX_DEGREE + 1):
        f = of_degree(drawn, d)
        assert discriminant(f) == sympy.discriminant(as_sympy(f)), f
