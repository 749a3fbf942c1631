"""Integer polynomials over consecutive-value windows.

Covers the constants attached to an irreducible polynomial (discriminant,
value content, admissible residue class), smooth-part statistics of windows
{f(r+1), ..., f(r+R)}, and the prime-cover witness that turns a window inside
a product set B.B into an executable lower bound on |B|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import (
    DeskScaleError,
    crt_solve,
    factorize,
    is_perfect_square,
)
from .coverlemma import Bipartite, cover_sequence

ABOVE_R = "above"    # qualifying prime factor > R
MID_RANGE = "mid"    # qualifying prime factor in (R/2, R]

MAX_WINDOW_LENGTH = 10**5
MAX_TERM_BITS = 96
MAX_POWER_BITS = 10**6   # size of r^q and R^p in the exact case-2/3 split


class NoAdmissibleResidueError(ValueError):
    """No residue class keeps the reduced polynomial coprime to the modulus."""


@dataclass(frozen=True, init=False)
class PolynomialZ:
    """Integer polynomial; coefficients constant-term first, never zero."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        cleaned = list(coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        if not cleaned:
            raise ValueError("the zero polynomial is not representable")
        for c in cleaned:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError("integer coefficients required")
        object.__setattr__(self, "coeffs", tuple(cleaned))

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

    def __mul__(self, other: "PolynomialZ") -> "PolynomialZ":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolynomialZ(out)

    def __repr__(self) -> str:
        return f"PolynomialZ({list(self.coeffs)!r})"


def poly_product(factors: Sequence[PolynomialZ]) -> PolynomialZ:
    if not factors:
        raise ValueError("empty polynomial product")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# Resultants, discriminant, content
# ---------------------------------------------------------------------------

def _det_bareiss(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    mat = [row[:] for row in matrix]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        pivot_value = mat[k][k]
        for i in range(k + 1, n):
            factor = mat[i][k]
            row_i, row_k = mat[i], mat[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot_value - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot_value
    return sign * mat[-1][-1]


def resultant(f: PolynomialZ, g: PolynomialZ) -> int:
    """Resultant of f and g via the Sylvester matrix (Bareiss elimination)."""
    m, n = f.degree, g.degree
    if m == 0:
        return f.leading**n
    if n == 0:
        return g.leading**m
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (m - 1 - i))
    return _det_bareiss(rows)


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

def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _has_rational_root(f: PolynomialZ) -> bool:
    a0 = f.coeffs[0]
    if a0 == 0:
        return True
    n = f.degree
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(f.leading)):
            if math.gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if sum(c * num**i * q ** (n - i) for i, c in enumerate(f.coeffs)) == 0:
                    return True
    return False


def check_irreducible(f: PolynomialZ) -> None:
    """Reject certifiably reducible polynomials.

    Complete for degree <= 3 (square discriminant / rational-root tests);
    higher degrees are taken on the caller's word.
    """
    n = f.degree
    if n <= 1:
        return
    if n == 2:
        disc = discriminant(f)
        if disc >= 0 and is_perfect_square(disc):
            raise ValueError("quadratic splits over the rationals")
        return
    if n == 3:
        if _has_rational_root(f):
            raise ValueError("cubic has a rational root")


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
    d = content_d(f)
    modulus = abs(discriminant(f)) * d * d
    if modulus == 1:
        return 1, 0
    congruences = []
    for p, e in factorize(modulus).factors:
        pe = p**e
        residue = next((x for x in range(pe) if (f(x) // d) % p != 0), None)
        if residue is None:
            raise NoAdmissibleResidueError(
                f"no residue modulo {pe} keeps the reduced values prime to {p}")
        congruences.append((residue, pe))
    return modulus, crt_solve(congruences)


# ---------------------------------------------------------------------------
# Window statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowRecord:
    index: int
    value: int
    largest_prime_factor: Optional[int]  # None when value == 1
    has_large_prime: bool                # some prime factor > R
    has_mid_prime: bool                  # some prime factor in (R/2, R]
    qualifies: bool                      # per the requested filter


@dataclass(frozen=True)
class WindowStats:
    poly: PolynomialZ
    r: int
    window_length: int
    prime_filter: str
    residue: Optional[tuple[int, int]]   # (a, M) filter, if any
    content: int                         # divisor applied to terms (1 if no filter)
    records: tuple[WindowRecord, ...]
    above_count: int
    mid_count: int
    log_smooth: float                    # ln of the R-smooth part of the product


def _factor_window(f: PolynomialZ, r: int, window_length: int,
                   residue: Optional[tuple[int, int]] = None, divisor: int = 1
                   ) -> tuple[list[tuple[int, int]], dict[int, tuple[tuple[int, int], ...]]]:
    """Validate the window {f(r+1), ..., f(r+R)} and factor it: the kept terms
    (i, f(r+i) / divisor) in index order, only r+i = a (mod M) under a residue
    filter (a, M), and the prime factors of each distinct term value."""
    if window_length < 1:
        raise ValueError("window length must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if window_length > MAX_WINDOW_LENGTH:
        raise DeskScaleError(f"window length capped at {MAX_WINDOW_LENGTH} "
                             f"(MAX_WINDOW_LENGTH); got R = {window_length}")
    a, modulus = (0, 1) if residue is None else residue
    if modulus < 1 or not 0 <= a < modulus:
        raise ValueError("residue filter must be (a, M) with 0 <= a < M")
    terms = []
    for i in range(1, window_length + 1):
        x = r + i
        if (x - a) % modulus:
            continue
        value = f(x)
        if value <= 0:
            raise ValueError(
                f"window term f({x}) = {value} is not positive; shift the window first")
        value, rem = divmod(value, divisor)
        if rem:
            raise ArithmeticError("content does not divide a window term")
        if value.bit_length() > MAX_TERM_BITS:
            raise DeskScaleError(
                f"window terms capped at {MAX_TERM_BITS} bits (MAX_TERM_BITS); "
                f"the term at x = {x} has {value.bit_length()} bits")
        terms.append((i, value))
    factored = {value: factorize(value).factors for value in sorted({v for _, v in terms})}
    return terms, factored


def window_stats(f: PolynomialZ, r: int, window_length: int, prime_filter: str,
                 residue: Optional[tuple[int, int]] = None) -> WindowStats:
    """Factor every term f(r+i), i = 1..R, and record largest prime factors
    and qualifying counts.

    With a residue filter (a, M) only indices with r+i = a (mod M) are kept
    and each term is divided by the value content d, i.e. the statistics are
    over f(r+i)/d.  Terms must be positive (shift the window first).
    """
    if prime_filter not in (ABOVE_R, MID_RANGE):
        raise ValueError(f"unknown prime filter: {prime_filter!r}")
    R = window_length
    divisor = 1 if residue is None else content_d(f)
    terms, factored = _factor_window(f, r, R, residue, divisor)

    records = []
    above = mid = 0
    log_smooth = 0.0
    for i, value in terms:
        factors = factored[value]
        lpf = factors[-1][0] if factors else None
        has_large = lpf is not None and lpf > R
        has_mid = any(p <= R < 2 * p for p, _ in factors)
        for p, e in factors:
            if p <= R:
                log_smooth += e * math.log(p)
        qualifies = has_large if prime_filter == ABOVE_R else has_mid
        records.append(WindowRecord(i, value, lpf, has_large, has_mid, qualifies))
        above += has_large
        mid += has_mid
    return WindowStats(f, r, R, prime_filter, residue, divisor,
                       tuple(records), above, mid, log_smooth)


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

@dataclass(frozen=True)
class WitnessReport:
    """Lower bound on |B| for any product set containing the window.

    ``terms`` are the window values with a qualifying prime factor,
    ``cover`` is the fresh-prime subsequence of length k; since the
    representation graph of the cover over any such B is cycle-free,
    k <= 2|B| - 1, i.e. |B| >= ceil((k+1)/2).
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
        raise DeskScaleError(f"r^q and R^p capped at {MAX_POWER_BITS} bits "
                             f"(MAX_POWER_BITS); gamma = {gamma}, r = {r}, "
                             f"R = {window_length} need {bits} bits")
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
        check_irreducible(f)
    poly = poly_product(list(factors))
    if poly.leading <= 0:
        raise ValueError("the product must have a positive leading coefficient")
    R = window_length
    _, factored = _factor_window(poly, r, R)
    if any(f.degree >= 2 for f in factors):
        case = 1
    elif _beyond_power(r, R, gamma):
        case = 2
    else:
        case = 3

    if case in (1, 2):
        def qualifying(p: int) -> bool:
            return p > R
    else:
        def qualifying(p: int) -> bool:
            return p <= R < 2 * p

    adjacency: dict[int, list[int]] = {}     # in ascending term order
    for value, value_factors in factored.items():
        qualifiers = [p for p, _ in value_factors if qualifying(p)]
        if qualifiers:
            adjacency[value] = qualifiers

    graph = Bipartite(adjacency)
    cover = tuple(cover_sequence(graph))
    k = len(cover)
    return WitnessReport(case, r, R, gamma, graph.b_vertices,
                         tuple(sorted(graph.a_vertices)), graph.degree_bound,
                         cover, k, (k + 2) // 2)
