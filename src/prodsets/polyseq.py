"""Integer polynomials over consecutive-value windows.

Covers the constants attached to an irreducible polynomial (discriminant,
value content, admissible residue class), smooth-part statistics of windows
{f(r+1), ..., f(r+R)}, and the prime-cover witness that turns a window inside
a product set B.B into an executable lower bound on |B|.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .arith import (
    DeskScaleError,
    crt_solve,
    factorize,
    factorize_batch,
)
from .coverlemma import Bipartite, cover_sequence

ABOVE_R = "above"    # qualifying prime factor > R
MID_RANGE = "mid"    # qualifying prime factor in (R/2, R]

MAX_WINDOW_LENGTH = 10**5
MAX_TERM_BITS = 96
MAX_POWER_BITS = 10**6   # size of r^q and R^p in the exact case-2/3 split


class PolynomialZ(namedtuple("PolynomialZ", "coeffs")):
    """Integer polynomial; coefficients constant-term first, never zero."""

    __slots__ = ()

    def __new__(cls, coeffs):
        cleaned = list(coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if not cleaned:
            raise ValueError("the zero polynomial is not representable")
        for c in cleaned:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError("integer coefficients required")
        return super().__new__(cls, tuple(cleaned))

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace validates too

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "PolynomialZ":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return PolynomialZ([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        return f"PolynomialZ({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Resultants, discriminant, content
# ---------------------------------------------------------------------------

def resultant(f: PolynomialZ, g: PolynomialZ) -> int:
    """Resultant of f and g by the Euclidean remainder sequence over the
    rationals: Res(a, b) = (-1)^(mn) lead(b)^(m-k) Res(b, a mod b) with
    m, n, k the degrees of a, b, a mod b, and Res(a, c) = c^m for a constant
    c (Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
    1993, ch. 3)."""
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    factor = Fraction(1)
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        rem = a[:]
        for i in range(m - n, -1, -1):
            q = rem[i + n] / b[-1]
            rem[i:i + n + 1] = [r - q * c for r, c in zip(rem[i:], b)]
        while rem and not rem[-1]:      # a mod b: the top m - n + 1 entries are 0
            rem.pop()
        if not rem:
            return 0
        factor *= (-1) ** (m * n) * b[-1] ** (m - len(rem) + 1)
        a, b = b, rem
    result = factor * b[0] ** (len(a) - 1)
    if result.denominator != 1:
        raise ArithmeticError("resultant is not an integer")
    return result.numerator


def discriminant(f: PolynomialZ) -> int:
    """(-1)^(n(n-1)/2) * Res(f, f') / lead(f) for n = deg f >= 1."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = resultant(f, f.derivative())
    numerator = -res if (n * (n - 1) // 2) % 2 else res
    quotient, remainder = divmod(numerator, f.leading)
    if remainder:
        raise ArithmeticError("resultant not divisible by the leading coefficient")
    return quotient


def content_d(f: PolynomialZ) -> int:
    """gcd of the values f(0), ..., f(deg f), which equals the gcd of all
    integer values of f."""
    g = 0
    for x in range(f.degree + 1):
        g = math.gcd(g, f(x))
    if g == 0:
        raise ArithmeticError("nonzero polynomial vanished at deg+1 points")
    return g


# ---------------------------------------------------------------------------
# Irreducibility screening (complete for degree <= 3)
# ---------------------------------------------------------------------------

def _hold_to_term_cap(name: str, n: int) -> None:
    """Hold a window term or a set-up value to MAX_TERM_BITS."""
    if n.bit_length() > MAX_TERM_BITS:
        raise DeskScaleError(f"values capped at {MAX_TERM_BITS} bits "
                             f"(MAX_TERM_BITS); the {name} has {n.bit_length()} bits")


def _has_rational_root(f: PolynomialZ) -> bool:
    """Exact rational-root test for degree 2 or 3 that factors nothing.

    A root p/q in lowest terms has q | lead, so y = lead*p/q is an integer
    root of the monic g(y) = lead^(n-1) f(y/lead).  Every real root of g lies
    within the Cauchy bound 1 + max|g_k|, and g is monotone on the integers
    between the floors of the roots of g', so each stretch is bisected once.
    """
    n, lead = f.degree, f.leading
    g = PolynomialZ([c * lead ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1])
    bound = 1 + max(abs(c) for c in g.coeffs[:-1])
    if n == 2:
        cuts = [-g.coeffs[1] // 2]
    else:
        g1, g2 = g.coeffs[1:3]
        disc = g2 * g2 - 3 * g1        # g' = 3y^2 + 2*g2*y + g1
        s = math.isqrt(max(disc, 0))
        cuts = [(-g2 - s - (s * s < disc)) // 3, (-g2 + s) // 3] if disc >= 0 else []
    # an empty stretch (lo > hi) only tests g(lo) == 0, which is still sound
    for lo, hi in zip([-bound, *(k + 1 for k in cuts)], [*cuts, bound]):
        sign = 1 if g(lo) <= g(hi) else -1
        while lo < hi:                 # the least y with sign * g(y) >= 0
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * g(mid) < 0 else (lo, mid)
        if g(lo) == 0:
            return True
    return False


def check_irreducible(f: PolynomialZ) -> None:
    """Reject certifiably reducible polynomials.

    Complete for degree <= 3, where a factor means a rational root; higher
    degrees are taken on the caller's word.
    """
    n = f.degree
    if n == 3 and f.coeffs[0]:         # input range; x | f is reported as a root
        _hold_to_term_cap("constant term", f.coeffs[0])
        _hold_to_term_cap("leading coefficient", f.leading)
    if n in (2, 3) and _has_rational_root(f):
        raise ValueError("quadratic splits over the rationals" if n == 2
                         else "cubic has a rational root")


# ---------------------------------------------------------------------------
# Admissible residue class
# ---------------------------------------------------------------------------

def admissible_residue(f: PolynomialZ) -> tuple[int, int]:
    """Modulus M = |disc(f)| * d^2 and a residue a in [0, M) such that
    f(x)/d is coprime to M whenever x = a (mod M).

    For each prime power p^e dividing M exactly, residues mod p^e are scanned
    for one avoiding p, and the pieces are combined by CRT.
    """
    if f.degree < 2:
        raise ValueError("admissible residues need degree >= 2")
    check_irreducible(f)
    disc = discriminant(f)
    if disc == 0:                      # M = 0 would leave nothing to factor
        raise ValueError("polynomial has a repeated factor (discriminant 0)")
    d = content_d(f)
    modulus = abs(disc) * d * d
    _hold_to_term_cap("residue modulus |disc| * d^2", modulus)
    # The scan always finds a residue, and one <= deg f: g = f/d has value
    # content 1, so p does not divide g(x) for some x in 0..deg f; and
    # whether p divides g(x) depends only on x mod p^e, since p^e | disc * d^2
    # gives e >= 2 v_p(d) >= v_p(d) + 1 when p | d, and e >= 1 otherwise.
    congruences = []
    for p, e in factorize(modulus).factors:
        pe = p**e
        residue = next(x for x in range(pe) if (f(x) // d) % p != 0)
        congruences.append((residue, pe))
    return modulus, crt_solve(congruences)


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------

class WindowRecord(NamedTuple):
    index: int
    value: int
    largest_prime_factor: Optional[int]  # None when value == 1
    qualifies: bool                      # per the requested filter


class WindowStats(NamedTuple):
    residue: Optional[tuple[int, int]]   # admissible class (a, M), if filtered
    content: int                         # divisor applied to terms (1 if not filtered)
    records: tuple[WindowRecord, ...]
    above_count: int
    mid_count: int
    log_smooth: float                    # ln of the R-smooth part of the product


def window_terms(factors: Sequence[PolynomialZ], r: int, window_length: int,
                 divisor: int = 1) -> list[tuple[int, int, tuple[int, ...]]]:
    """Evaluate every term of the window {f(r+1), ..., f(r+R)} of the product
    f of the factors once and check it against the size guards, factoring
    nothing: the terms (i, f(r+i) / divisor, pieces) in index order, where
    the pieces to factor are the term for one factor, else |g(r+i)| each."""
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if window_length > MAX_WINDOW_LENGTH:
        raise DeskScaleError(f"window length capped at {MAX_WINDOW_LENGTH} "
                             f"(MAX_WINDOW_LENGTH); got R = {window_length}")
    terms = []
    for i in range(1, window_length + 1):
        x = r + i
        values = [g(x) for g in factors]
        value, rem = divmod(math.prod(values), divisor)
        if rem:
            raise ArithmeticError("content does not divide a window term")
        if value.bit_length() > MAX_TERM_BITS:   # the message only for a term that breaks the cap
            _hold_to_term_cap(f"term at x = {x}", value)
        terms.append((i, value, (value,) if len(values) == 1 else tuple(map(abs, values))))
    return terms


def _factor_window(r: int, terms: list[tuple[int, int, tuple[int, ...]]]
                   ) -> dict[int, tuple[tuple[int, int], ...]]:
    """The prime factors of each distinct term value, in ascending order: a
    value of one piece takes that piece's factorization, and the exponents
    of several pieces are merged.  Every term is checked to be positive, in
    index order, before any factoring.  All pieces of the window go to one
    ``factorize_batch``, which factors a value that recurs, as x+b at x does
    as x'+a at x' = x+b-a, once."""
    pieces = {}
    for i, value, value_pieces in terms:
        if value <= 0:
            raise ValueError(f"window term {i} at x = {r + i} is {value}, not "
                             f"positive; shift the window first")
        pieces.setdefault(value, value_pieces)
    pieces = dict(sorted(pieces.items()))
    factored = factorize_batch([piece for value_pieces in pieces.values()
                                for piece in value_pieces])
    merged = {}
    for value, value_pieces in pieces.items():
        if len(value_pieces) == 1:
            merged[value] = factored[value].factors
            continue
        exponents = {}
        for piece in value_pieces:
            for p, e in factored[piece].factors:
                exponents[p] = exponents.get(p, 0) + e
        merged[value] = tuple(sorted(exponents.items()))
    return merged


def _qualifying(factors: Sequence[tuple[int, int]], R: int, prime_filter: str) -> list[int]:
    """The primes of a factorization that qualify in a window of length R:
    those above R (ABOVE_R) or those in (R/2, R] (MID_RANGE)."""
    if prime_filter == ABOVE_R:
        return [p for p, _ in factors if p > R]
    return [p for p, _ in factors if p <= R < 2 * p]


def window_stats(f: PolynomialZ, r: int, window_length: int, prime_filter: str,
                 admissible: bool = False) -> WindowStats:
    """Factor every term f(r+i), i = 1..R, and record largest prime factors
    and qualifying counts.

    With ``admissible`` each term is divided by the value content d and only
    indices with r+i = a (mod M) are kept, for the admissible residue class
    (a, M) of f, i.e. the statistics are over f(r+i)/d in that class.  The
    size guards hold every term f(r+i)/d, kept or not, and run before the
    class is computed.  Terms must be positive (shift the window first).
    """
    if prime_filter not in (ABOVE_R, MID_RANGE):
        raise ValueError(f"unknown prime filter: {prime_filter!r}")
    R = window_length
    divisor = content_d(f) if admissible else 1
    terms = window_terms([f], r, R, divisor)   # size guards before any factoring
    residue = None
    if admissible:
        modulus, a = admissible_residue(f)
        residue = (a, modulus)
        terms = [term for term in terms if (r + term[0] - a) % modulus == 0]
    factored = _factor_window(r, terms)

    records = []
    above = mid = 0
    log_smooth = 0.0
    for i, value, _ in terms:
        factors = factored[value]
        lpf = factors[-1][0] if factors else None
        has_large = lpf is not None and lpf > R   # the primes ascend
        has_mid = False
        for p, e in factors:   # the primes up to R
            if p > R:
                break
            log_smooth += e * math.log(p)
            has_mid = has_mid or 2 * p > R
        qualifies = has_large if prime_filter == ABOVE_R else has_mid
        records.append(WindowRecord(i, value, lpf, qualifies))
        above += has_large
        mid += has_mid
    return WindowStats(residue, divisor, tuple(records), above, mid, log_smooth)


def window_stats_csv(stats: WindowStats) -> str:
    """CSV rendering: ``i,value,largest_prime_factor,qualifies``."""
    lines = ["i,value,largest_prime_factor,qualifies"]
    for rec in stats.records:
        lpf = "" if rec.largest_prime_factor is None else str(rec.largest_prime_factor)
        lines.append(
            f"{rec.index},{rec.value},{lpf},{'true' if rec.qualifies else 'false'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------

class WitnessReport(NamedTuple):
    """Lower bound on |B| for any set B of complex numbers whose product set
    holds the window.

    ``terms`` are the window values with a qualifying prime factor,
    ``cover`` is the fresh-prime subsequence of length k: each entry has a
    prime dividing no earlier entry.  Join b in a left copy of B to b' in a
    right copy for each entry b*b'.  An even cycle of this two-class graph
    gives prod t_odd = prod t_even over its edges, both being the product
    of its vertices, for complex B as well (a nonzero term has nonzero
    factors, so 0 is on no edge).  The fresh prime of the cycle's latest
    cover entry divides one side only, so the graph is a forest on 2|B|
    vertices: k <= 2|B| - 1, i.e. |B| >= ceil((k+1)/2).
    """

    case: int
    r: int
    window_length: int
    gamma: float | Fraction              # as passed; the case split reads it exactly
    terms: tuple[int, ...]
    primes: tuple[int, ...]
    degree_bound: int
    cover: tuple[int, ...]
    k: int
    b_lower_bound: int


def _beyond_power(r: int, window_length: int, gamma) -> bool:
    # r > R^gamma decided exactly as r^q > R^p for gamma = p/q in lowest
    # terms; a float gamma is read as its shortest decimal (2.5 -> 5/2)
    gamma = Fraction(repr(gamma)) if isinstance(gamma, float) else Fraction(gamma)
    p, q = gamma.numerator, gamma.denominator
    bits = q * r.bit_length() + abs(p) * window_length.bit_length()
    if bits > MAX_POWER_BITS:
        raise DeskScaleError(f"r^q and R^p capped at {MAX_POWER_BITS} bits (MAX_POWER_BITS); "
                             f"gamma's numerator and denominator have {p.bit_length()} and "
                             f"{q.bit_length()} bits, r = {r}, R = {window_length}")
    return r**q > Fraction(window_length) ** p


def window_witness(factors: Sequence[PolynomialZ], r: int, window_length: int,
                   gamma=2) -> WitnessReport:
    """Build the qualifying-prime bipartite graph of the window of the product
    of the given irreducible factors and extract a fresh-prime cover.

    Case 1: some factor has degree >= 2 (qualifying primes are those > R).
    Case 2: all factors linear and r > R^gamma (primes > R).
    Case 3: all factors linear and r <= R^gamma (primes in (R/2, R]).
    """
    if not factors:
        raise ValueError("need at least one irreducible factor")
    for f in factors:
        if f.degree == 0:
            raise ValueError(f"factor {f.coeffs[0]} is a constant; every factor "
                             "needs degree >= 1")
    if math.prod(f.leading for f in factors) <= 0:
        raise ValueError("the product must have a positive leading coefficient")
    R = window_length
    terms = window_terms(factors, r, R)   # size guards before any factoring
    for f in factors:
        check_irreducible(f)
    if any(f.degree >= 2 for f in factors):
        case = 1
    elif _beyond_power(r, R, gamma):   # its MAX_POWER_BITS guard: before factoring
        case = 2
    else:
        case = 3

    prime_filter = MID_RANGE if case == 3 else ABOVE_R
    factored = _factor_window(r, terms)
    adjacency: dict[int, list[int]] = {}     # in ascending term order
    for value, value_factors in factored.items():
        qualifiers = _qualifying(value_factors, R, prime_filter)
        if qualifiers:
            adjacency[value] = qualifiers

    graph = Bipartite(adjacency)
    cover = tuple(cover_sequence(graph))
    k = len(cover)
    return WitnessReport(case, r, R, gamma, graph.b_vertices,
                         tuple(sorted(graph.a_vertices)), graph.degree_bound,
                         cover, k, (k + 2) // 2)
