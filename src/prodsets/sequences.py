"""Fibonacci numbers, Lucas numbers and general Lucas pairs.

Indexing starts at 1 throughout: F_1 = F_2 = 1 (so F_12 = 144), U_1 = 1,
U_2 = P, V_1 = P, V_2 = P^2 - 2Q, all following X_k = P X_{k-1} - Q X_{k-2}.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .arith import factorize, is_perfect_square

# Sequence markers for the two classical instances of the pair (1, -1).
FIBONACCI = "fibonacci"  # U_n(1, -1): 1, 1, 2, 3, 5, 8, ...
LUCAS_V = "lucas"        # V_n(1, -1): 1, 3, 4, 7, 11, 18, ...

DEGENERATE_PAIRS = frozenset({(1, 1), (-1, 1), (0, 1), (0, -1)})


@dataclass(frozen=True)
class LucasSpec:
    """Parameters (P, Q) of the recurrences U_n and V_n."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("P and Q must be coprime")
        if self.p * self.p - 4 * self.q == 0:
            raise ValueError("discriminant P^2 - 4Q must be nonzero")
        # with P, Q coprime and P^2 != 4Q, the root ratio is a root of
        # unity (terms periodic, with zeros) exactly for these pairs
        if (self.p, self.q) in DEGENERATE_PAIRS:
            raise ValueError(f"degenerate pair ({self.p}, {self.q}): "
                             "the root ratio is a root of unity")

    @property
    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q


FIBONACCI_SPEC = LucasSpec(1, -1)

SequenceKind = Union[LucasSpec, str]

DEFAULT_INDEX_CAP = 500


def fib(n: int) -> int:
    """n-th Fibonacci number, F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("Fibonacci indices start at 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def fib_values_upto(limit: int) -> list[int]:
    """Distinct Fibonacci values <= limit, ascending."""
    out: list[int] = []
    a, b = 1, 1
    while a <= limit:
        if not out or out[-1] != a:
            out.append(a)
        a, b = b, a + b
    return out


def lucas_u(spec: LucasSpec, n: int) -> int:
    """U_n(P, Q): U_1 = 1, U_2 = P."""
    if n < 1:
        raise ValueError("indices start at 1")
    if n == 1:
        return 1
    a, b = 1, spec.p
    for _ in range(n - 2):
        a, b = b, spec.p * b - spec.q * a
    return b


def lucas_v(spec: LucasSpec, n: int) -> int:
    """V_n(P, Q): V_1 = P, V_2 = P^2 - 2Q."""
    if n < 1:
        raise ValueError("indices start at 1")
    if n == 1:
        return spec.p
    a, b = spec.p, spec.p * spec.p - 2 * spec.q
    for _ in range(n - 2):
        a, b = b, spec.p * b - spec.q * a
    return b


def _u_terms(spec: LucasSpec, n: int) -> list[int]:
    terms = [1]
    if n >= 2:
        terms.append(spec.p)
    while len(terms) < n:
        terms.append(spec.p * terms[-1] - spec.q * terms[-2])
    return terms


def is_fibonacci(m: int) -> Optional[int]:
    """Smallest index n with F_n = m, or None.

    Membership is decided by the 5m^2 +/- 4 perfect-square characterisation
    and the index recovered by direct generation; the two routes must agree.
    """
    if m < 1:
        raise ValueError("membership is defined for m >= 1")
    square = 5 * m * m
    if not (is_perfect_square(square + 4) or is_perfect_square(square - 4)):
        return None
    a, b, index = 1, 1, 1
    while a < m:
        a, b = b, a + b
        index += 1
    return index if a == m else None


def fib_gcd(m: int, n: int) -> int:
    """gcd(F_m, F_n), computed directly on the two values."""
    return math.gcd(fib(m), fib(n))


def primitive_divisor(spec: LucasSpec, n: int) -> Optional[int]:
    """Smallest prime dividing |U_n| but none of |U_1|, ..., |U_{n-1}|.

    None when every prime factor of U_n already divides an earlier term.
    """
    if n < 2:
        raise ValueError("primitive divisors are defined for n >= 2")
    terms = _u_terms(spec, n)   # never 0: LucasSpec rejects the degenerate pairs
    target = abs(terms[-1])
    if target == 1:
        return None
    earlier = [abs(t) for t in terms[:-1]]
    for p, _ in factorize(target).factors:
        if all(t % p != 0 for t in earlier):
            return p
    return None


def square_fibonacci_indices(limit_index: int) -> list[int]:
    """All n <= limit_index with F_n a perfect square."""
    if limit_index < 1:
        raise ValueError("limit_index must be >= 1")
    out = []
    a, b = 1, 1
    for n in range(1, limit_index + 1):
        if is_perfect_square(a):
            out.append(n)
        a, b = b, a + b
    return out


# ---------------------------------------------------------------------------
# Membership with indices, for arbitrary sequence kinds
# ---------------------------------------------------------------------------

_table_lock = threading.Lock()
_u_index_tables: dict[tuple[int, int, int], dict[int, int]] = {}
_lucas_values: list[int] = [1, 3]  # V_1, V_2; grown on demand
_lucas_indices: dict[int, int] = {1: 1, 3: 2}


def is_lucas_number(m: int) -> Optional[int]:
    """Index n with V_n(1, -1) = m, or None (the values are strictly increasing)."""
    if m < 1:
        return None
    with _table_lock:
        while _lucas_values[-1] < m:
            nxt = _lucas_values[-1] + _lucas_values[-2]
            _lucas_values.append(nxt)
            _lucas_indices[nxt] = len(_lucas_values)
        return _lucas_indices.get(m)


def _u_index_table(spec: LucasSpec, cap: int) -> dict[int, int]:
    key = (spec.p, spec.q, cap)
    with _table_lock:
        table = _u_index_tables.get(key)
        if table is None:
            table = {}
            for index, term in enumerate(_u_terms(spec, cap), start=1):
                if term >= 1 and term not in table:
                    table[term] = index
            _u_index_tables[key] = table
        return table


def term_index(kind: SequenceKind, value: int,
               max_index: int = DEFAULT_INDEX_CAP) -> Optional[int]:
    """Smallest index whose term equals value, else None.

    The FIBONACCI and LUCAS_V markers are exact for every value; a general
    LucasSpec is scanned up to max_index (ample at desk scale).
    """
    if value < 1:
        return None
    if kind == FIBONACCI:
        return is_fibonacci(value)
    if kind == LUCAS_V:
        return is_lucas_number(value)
    if isinstance(kind, LucasSpec):
        return _u_index_table(kind, max_index).get(value)
    raise TypeError(f"unknown sequence kind: {kind!r}")


def membership(kind: SequenceKind,
               max_index: int = DEFAULT_INDEX_CAP) -> Callable[[int], Optional[int]]:
    """Membership predicate value -> smallest index (or None) for the kind."""
    def predicate(value: int) -> Optional[int]:
        return term_index(kind, value, max_index)
    return predicate
