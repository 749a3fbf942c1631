"""Product sets B.B over exact base sets, and the sequence terms in them."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .sequences import LucasSpec, term_table

Exact = Union[int, Fraction]


def _normalize(value) -> Exact:
    if type(value) is int:
        # every element of an integer BaseSet lands here, ahead of the
        # isinstance test against Fraction, which goes through ABCMeta
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact number: {value!r}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class BaseSet(tuple):
    """Finite set of positive integers or exact rationals: the tuple of its
    distinct elements, sorted.  Pickle and copy rebuild it through
    ``__new__`` from tuple's own ``__getnewargs__``, ``(tuple(self),)``."""

    __slots__ = ()

    def __new__(cls, elements: Iterable):
        normalized = {_normalize(e) for e in elements}
        for e in normalized:
            if e <= 0:
                raise ValueError("base-set elements must be positive")
        return super().__new__(cls, sorted(normalized))

    elements = property(tuple, doc="The elements as a plain tuple.")

    def __repr__(self) -> str:
        return f"BaseSet({list(self)!r})"


def build_product_set(base: BaseSet) -> dict:
    """B.B = {ab : a, b in B}, squares included, as a plain dict: each value,
    in ascending order, maps to all its factor pairs (b1, b2), b1 <= b2,
    ascending.  An integral value is an int, and a Fraction with
    denominator 1 hashes equal to its int, so lookups need no normalising.
    """
    if len(base) == 0:
        raise ValueError("cannot build the product set of an empty set")
    collected: dict[Exact, list] = {}
    # a runs up the sorted elements, so each value's pairs arrive ascending
    for i, a in enumerate(base):
        for b in base[i:]:
            collected.setdefault(_normalize(a * b), []).append((a, b))
    return {v: tuple(collected[v]) for v in sorted(collected)}


class SequenceMember(NamedTuple):
    """A product-set value recognised as a sequence term."""

    value: int
    index: int
    pairs: tuple[tuple[Exact, Exact], ...]


def sequence_members(base: BaseSet, kind: LucasSpec) -> list[SequenceMember]:
    """The values of B.B that are terms of the kind, ascending, each with its
    smallest index and its factor pairs as ``build_product_set`` gives them.

    B.B itself is not built: one term table up to floor(max(B)^2), the
    largest value of B.B, is looked up with every product ab, a <= b.  A
    non-integral product is no key of it; an integral Fraction is equal to
    its int.
    """
    if not base:
        raise ValueError("cannot search the product set of an empty set")
    table = term_table(kind, int(base[-1] * base[-1]))  # int() floors a positive Fraction
    found: dict[int, list] = {}
    # a runs up the sorted elements, so each value's pairs arrive ascending
    for i, a in enumerate(base):
        for b in base[i:]:
            value = a * b
            if value in table:
                found.setdefault(int(value), []).append((a, b))
    return [SequenceMember(value, table[value], tuple(found[value]))
            for value in sorted(found)]
