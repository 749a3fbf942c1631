"""Fibonacci numbers, Lucas numbers and general Lucas pairs.

Indexing starts at 1 throughout: F_1 = F_2 = 1 (so F_12 = 144), U_1 = 1,
U_2 = P, V_1 = P, V_2 = P^2 - 2Q, all following X_k = P X_{k-1} - Q X_{k-2}.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import islice
from typing import Iterator, Optional

from .arith import factorize

DEGENERATE_PAIRS = frozenset({(1, 1), (-1, 1), (0, 1), (0, -1)})


class LucasSpec(namedtuple("LucasSpec", "p q v")):
    """Parameters (P, Q) of the recurrences U_n and V_n; the spec's own
    sequence is V_n when v, else U_n."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, v: bool = False):
        if math.gcd(p, q) != 1:
            raise ValueError("P and Q must be coprime")
        if p * p - 4 * q == 0:
            raise ValueError("discriminant P^2 - 4Q must be nonzero")
        # with P, Q coprime and P^2 != 4Q, the root ratio alpha/beta is a root
        # of unity (terms periodic) exactly for these pairs, and only a root of
        # unity gives U_n = 0 ((alpha/beta)^n = 1) or V_n = 0 (= -1)
        if (p, q) in DEGENERATE_PAIRS:
            raise ValueError(f"degenerate pair ({p}, {q}): "
                             "the root ratio is a root of unity")
        return super().__new__(cls, p, q, v)

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace validates too

    @property
    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q


FIBONACCI = LucasSpec(1, -1)       # U_n(1, -1): 1, 1, 2, 3, 5, 8, ...
LUCAS_V = LucasSpec(1, -1, True)   # V_n(1, -1): 1, 3, 4, 7, 11, 18, ...

# Indices scanned for a pair of negative discriminant: the one remaining
# bound.  There |U_n| is not monotone, and an exact stop needs a lower bound
# on |U_n|; the best elementary one, |U_n| >= n - 1 for n > 30 (Bilu,
# Hanrot and Voutier 2001), is far too weak to stop a scan.
_NEGATIVE_DISC_SCAN = 500


def _recurrence(p: int, q: int, v: bool) -> Iterator[int]:
    """X_1, X_2, ... of X_n = p X_{n-1} - q X_{n-2}: V_n(p, q) if v, else U_n."""
    x0, x1 = (2, p) if v else (0, 1)
    while True:
        yield x1
        x0, x1 = x1, p * x1 - q * x0


def _nth(terms: Iterator[int], n: int) -> int:
    if n < 1:
        raise ValueError("indices start at 1")
    return next(islice(terms, n - 1, None))


def _spec(spec: LucasSpec) -> LucasSpec:
    if not isinstance(spec, LucasSpec):
        raise TypeError(f"spec must be a LucasSpec, got {spec!r}")
    return spec


def term_table(kind: LucasSpec, limit: int) -> dict[int, int]:
    """Each term t of the kind's own sequence with 1 <= t <= limit -> its
    smallest index, in the order of first appearance.

    Exact for U and V of every pair of positive discriminant (FIBONACCI and
    LUCAS_V too) and of Q = 0; a pair of negative discriminant is scanned
    over its first 500 indices.
    """
    # Positive discriminant: |X_n| is nondecreasing, so the scan stops at
    # the first |X_n| > limit.  Flipping the sign of P only alternates the
    # signs of U_n and V_n, so take P >= 1 (P = 0 forces a degenerate pair).
    #   Q < 0: U_{n+1} = P U_n + |Q| U_{n-1} >= U_n > 0.  For V,
    #          V_2 = P^2 - 2Q > P = V_1 and the same step goes on from there.
    #   Q > 0: P^2 > 4Q gives real roots alpha > beta > 0 with alpha > 1,
    #          and U_{n+1} = alpha U_n + beta^n > U_n.  For V, alpha beta =
    #          Q >= 1 gives alpha >= 1/beta, and then
    #          V_{n+1} - V_n = alpha^n (alpha - 1) - beta^n (1 - beta) > 0.
    # Q = 0: coprimality leaves (+-1, 0), whose terms have period 2 from
    # index 1, so two indices are exact.
    p, q, v = _spec(kind)
    scan = 2 if q == 0 else _NEGATIVE_DISC_SCAN if kind.discriminant < 0 else None
    table: dict[int, int] = {}
    for index, term in enumerate(islice(_recurrence(p, q, v), scan), start=1):
        if scan is None and abs(term) > limit:
            break
        if 1 <= term <= limit:
            table.setdefault(term, index)
    return table


def term_index(kind: LucasSpec, value: int) -> Optional[int]:
    """Smallest index whose term equals value, else None (see term_table)."""
    return term_table(kind, value).get(value)


def lucas_u(spec: LucasSpec, n: int) -> int:
    """U_n of a LucasSpec's pair, whichever sequence it names: U_1 = 1, U_2 = P."""
    p, q, _ = _spec(spec)
    return _nth(_recurrence(p, q, False), n)


def lucas_v(spec: LucasSpec, n: int) -> int:
    """V_n of a LucasSpec's pair, whichever sequence it names: V_1 = P, V_2 = P^2 - 2Q."""
    p, q, _ = _spec(spec)
    return _nth(_recurrence(p, q, True), n)


def is_fibonacci(m: int) -> Optional[int]:
    """Smallest index n with F_n = m, or None."""
    if m < 1:
        raise ValueError("membership is defined for m >= 1")
    return term_index(FIBONACCI, m)


def is_lucas_number(m: int) -> Optional[int]:
    """Index n with V_n(1, -1) = m, or None."""
    return term_index(LUCAS_V, m)


def primitive_divisor(spec: LucasSpec, n: int) -> Optional[int]:
    """Smallest prime dividing |X_n| of a LucasSpec's own sequence but none
    of |X_1|, ..., |X_{n-1}|.

    None when every prime factor of X_n already divides an earlier term.
    """
    spec = _spec(spec)
    if n < 2:
        raise ValueError("primitive divisors are defined for n >= 2")
    terms = list(islice(_recurrence(*spec), n))  # never 0: LucasSpec rejects the degenerate pairs
    for p, _ in factorize(abs(terms[-1])).factors:
        if all(t % p != 0 for t in terms[:-1]):
            return p
    return None
