"""Product sets B.B over exact base sets, with factor-pair provenance."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .sequences import SequenceKind, term_table

Exact = Union[int, Fraction]


def _normalize(value) -> Exact:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact number: {value!r}")
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class BaseSet:
    """Finite set of positive integers or exact rationals, kept sorted."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable):
        normalized = {_normalize(e) for e in elements}
        for e in normalized:
            if e <= 0:
                raise ValueError("base-set elements must be positive")
        self.elements: tuple[Exact, ...] = tuple(sorted(normalized))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        return item in self.elements

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"BaseSet({list(self.elements)!r})"


class ProductSet:
    """B.B = {ab : a, b in B}; every value keeps all its factor pairs.

    Immutable once built: share freely.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: dict):
        self._pairs = pairs  # value -> tuple of (b1, b2) with b1 <= b2

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, value) -> bool:
        return _normalize(value) in self._pairs

    def values(self) -> list[Exact]:
        return sorted(self._pairs)

    def pairs_for(self, value) -> tuple[tuple[Exact, Exact], ...]:
        return self._pairs[_normalize(value)]

    def items(self):
        for value in self.values():
            yield value, self._pairs[value]


def build_product_set(base: BaseSet) -> ProductSet:
    """All pairwise products of base elements, squares included."""
    if len(base) == 0:
        raise ValueError("cannot build the product set of an empty set")
    collected: dict[Exact, list] = {}
    elems = base.elements
    for i, a in enumerate(elems):
        for b in elems[i:]:
            collected.setdefault(_normalize(a * b), []).append((a, b))
    frozen = {v: tuple(sorted(ps)) for v, ps in collected.items()}
    return ProductSet(frozen)


@dataclass(frozen=True)
class SequenceMember:
    """A product-set value recognised as a sequence term."""

    value: Exact
    index: int
    pairs: tuple[tuple[Exact, Exact], ...]


def sequence_members(ps: ProductSet, kind: SequenceKind) -> list[SequenceMember]:
    """Product-set values that are terms of the kind, ascending by value.

    Non-integer values never match (values are normalised, so an integral
    product is an int); each member carries its smallest index and its
    complete factor-pair provenance.  One term table up to the largest
    integer value serves every lookup.
    """
    integers = [value for value in ps.values() if isinstance(value, int)]
    if not integers:
        return []
    table = term_table(kind, integers[-1])
    return [SequenceMember(value, table[value], ps.pairs_for(value))
            for value in integers if value in table]
