"""Fibonacci numbers, Lucas numbers and general Lucas pairs.

Indexing starts at 1 throughout: F_1 = F_2 = 1 (so F_12 = 144), U_1 = 1,
U_2 = P, V_1 = P, V_2 = P^2 - 2Q, all following X_k = P X_{k-1} - Q X_{k-2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Union

from .arith import factorize

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


FIBONACCI = LucasSpec(1, -1)  # U_n(1, -1): 1, 1, 2, 3, 5, 8, ...
LUCAS_V = "lucas"             # marker for V_n(1, -1): 1, 3, 4, 7, 11, 18, ...

SequenceKind = Union[LucasSpec, str]

# Indices scanned for a pair of negative discriminant: the one remaining
# bound.  There |U_n| is not monotone, and an exact stop needs a lower bound
# on |U_n|; the best elementary one, |U_n| >= n - 1 for n > 30 (Bilu,
# Hanrot and Voutier 2001), is far too weak to stop a scan.
_NEGATIVE_DISC_SCAN = 500


def _recurrence(p: int, q: int, x0: int, x1: int) -> Iterator[int]:
    """X_1, X_2, ... of X_n = p X_{n-1} - q X_{n-2}, from X_0 and X_1."""
    while True:
        yield x1
        x0, x1 = x1, p * x1 - q * x0


def _terms(kind: SequenceKind) -> Iterator[int]:
    """The terms of a kind from index 1: LUCAS_V is V(1, -1) and a LucasSpec
    is U(P, Q), FIBONACCI among them."""
    if kind == LUCAS_V:
        return _recurrence(1, -1, 2, 1)
    if isinstance(kind, LucasSpec):
        return _recurrence(kind.p, kind.q, 0, 1)
    raise TypeError(f"unknown sequence kind: {kind!r}")


def _nth(terms: Iterator[int], n: int) -> int:
    if n < 1:
        raise ValueError("indices start at 1")
    return next(islice(terms, n - 1, None))


def term_table(kind: SequenceKind, limit: int) -> dict[int, int]:
    """Each term t of the kind with 1 <= t <= limit -> its smallest index,
    in the order of first appearance.

    Exact for LUCAS_V and every pair of positive discriminant (FIBONACCI too);
    a pair of negative discriminant is scanned over its first 500 indices.
    """
    # Positive discriminant: |U_n| is nondecreasing, so the scan stops at
    # the first |X_n| > limit.  Flipping the sign of P only alternates the
    # signs of U_n, so take P >= 1 (P = 0 forces a degenerate pair).
    #   Q < 0: U_{n+1} = P U_n + |Q| U_{n-1} >= U_n > 0.
    #   Q > 0: P^2 > 4Q gives real roots alpha > beta > 0 with alpha > 1,
    #          and U_{n+1} = alpha U_n + beta^n > U_n.
    #   Q = 0: coprimality leaves (+-1, 0), whose terms (+-1)^(n-1) never
    #          pass the limit; 1 = U_1 is the only term.
    # V(1, -1) is positive and nondecreasing by the Q < 0 argument.
    if isinstance(kind, LucasSpec) and kind.q == 0:
        return {1: 1} if limit >= 1 else {}
    bounded = isinstance(kind, LucasSpec) and kind.discriminant < 0
    terms = _terms(kind)
    table: dict[int, int] = {}
    for index, term in enumerate(islice(terms, _NEGATIVE_DISC_SCAN) if bounded else terms,
                                 start=1):
        if not bounded and abs(term) > limit:
            break
        if 1 <= term <= limit:
            table.setdefault(term, index)
    return table


def term_index(kind: SequenceKind, value: int) -> Optional[int]:
    """Smallest index whose term equals value, else None (see term_table)."""
    if value < 1:
        return None
    return term_table(kind, value).get(value)


def fib(n: int) -> int:
    """n-th Fibonacci number, F_1 = F_2 = 1."""
    return _nth(_terms(FIBONACCI), n)


def fib_values_upto(limit: int) -> list[int]:
    """Distinct Fibonacci values <= limit, ascending."""
    return list(term_table(FIBONACCI, limit))


def lucas_u(spec: LucasSpec, n: int) -> int:
    """U_n(P, Q): U_1 = 1, U_2 = P."""
    return _nth(_terms(spec), n)


def lucas_v(spec: LucasSpec, n: int) -> int:
    """V_n(P, Q): V_1 = P, V_2 = P^2 - 2Q."""
    return _nth(_recurrence(spec.p, spec.q, 2, spec.p), n)


def is_fibonacci(m: int) -> Optional[int]:
    """Smallest index n with F_n = m, or None."""
    if m < 1:
        raise ValueError("membership is defined for m >= 1")
    return term_index(FIBONACCI, m)


def is_lucas_number(m: int) -> Optional[int]:
    """Index n with V_n(1, -1) = m, or None."""
    return term_index(LUCAS_V, m)


def primitive_divisor(spec: LucasSpec, n: int) -> Optional[int]:
    """Smallest prime dividing |U_n| but none of |U_1|, ..., |U_{n-1}|.

    None when every prime factor of U_n already divides an earlier term.
    """
    if n < 2:
        raise ValueError("primitive divisors are defined for n >= 2")
    terms = list(islice(_terms(spec), n))  # never 0: LucasSpec rejects the degenerate pairs
    target = abs(terms[-1])
    if target == 1:
        return None
    earlier = [abs(t) for t in terms[:-1]]
    for p, _ in factorize(target).factors:
        if all(t % p != 0 for t in earlier):
            return p
    return None
