"""Extremal checks on product sets: the sharp Fibonacci count bound and the
Lucas-term count bound."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DeskScaleError
from .productset import BaseSet, build_product_set, sequence_members
from .sequences import SequenceKind, fib, fib_values_upto

MAX_UNIVERSE = 40
MAX_SET_SIZE = 6


def fib_subsets(universe_max: int, max_size: int):
    """Every nonempty subset of {1..universe_max} with at most max_size
    elements, in depth-first order (so the subsets of each size come in
    lexicographic order), each with the Fibonacci values of its product set.

    Yields ``(subset, pairs)``: ``subset`` is the ascending list of elements
    and ``pairs`` maps each Fibonacci value v in B.B to its factor pairs
    ``(a, b)``, a <= b, a*b = v, ascending by a.  Both are the walk's own
    state, updated in place as elements are added and removed: read them
    before the next step and copy what must outlive it.
    """
    fib_set = frozenset(fib_values_upto(universe_max * universe_max))
    # partners[x]: the (y, x*y) with y <= x and x*y a Fibonacci value
    partners = [()] + [tuple((y, x * y) for y in range(1, x + 1) if x * y in fib_set)
                       for x in range(1, universe_max + 1)]
    present = [False] * (universe_max + 1)
    subset: list[int] = []
    pairs: dict[int, list[tuple[int, int]]] = {}
    state = (subset, pairs)

    def walk(start, depth):
        deeper = depth < max_size
        for x in range(start, universe_max + 1):
            subset.append(x)
            present[x] = True
            # x is the largest element, so (y, x) has the smallest first
            # element among the pairs of its value: it goes in front
            for y, v in partners[x]:
                if present[y]:
                    held = pairs.get(v)
                    if held is None:
                        pairs[v] = [(y, x)]
                    else:
                        held.insert(0, (y, x))
            yield state
            if deeper:
                yield from walk(x + 1, depth + 1)
            for y, v in partners[x]:
                if present[y]:
                    held = pairs[v]
                    if len(held) == 1:
                        del pairs[v]
                    else:
                        del held[0]
            present[x] = False
            subset.pop()

    if max_size >= 1:
        yield from walk(1, 1)


def max_fib_count(universe_max: int, set_size: int) -> tuple[int, BaseSet]:
    """Maximum number of Fibonacci values in B.B over all B of the given size
    inside {1..universe_max}, with the lexicographically first maximiser.
    """
    if universe_max < 1 or set_size < 1:
        raise ValueError("universe_max and set_size must be >= 1")
    if universe_max > MAX_UNIVERSE or set_size > MAX_SET_SIZE:
        raise DeskScaleError(
            f"subset search capped at universe {MAX_UNIVERSE}, size {MAX_SET_SIZE}")
    if set_size > universe_max:
        raise ValueError("set size exceeds universe size")
    best_count, best_combo = -1, None
    for subset, pairs in fib_subsets(universe_max, set_size):
        if len(subset) == set_size and len(pairs) > best_count:
            best_count, best_combo = len(pairs), tuple(subset)
    return best_count, BaseSet(best_combo)


def sharp_example(k: int) -> BaseSet:
    """A k-element set with exactly k Fibonacci values in its product set:
    {1, F_3, F_4, ..., F_{k+1}} (1*1 = 1 and 1*F_i = F_i supply the k values).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return BaseSet([1] + [fib(i) for i in range(3, k + 2)])


@dataclass(frozen=True)
class LucasBoundReport:
    """Distinct sequence terms in B.B against 2|B| + 30, with the count of
    index >= 31 terms against 2|B| - 1."""

    set_size: int
    count: int
    bound: int
    ok: bool
    high_index_count: int
    high_index_bound: int
    high_index_ok: bool
    members: tuple[tuple[int, int], ...]  # (value, index), ascending by value


def lucas_count_check(base: BaseSet, kind: SequenceKind) -> LucasBoundReport:
    ps = build_product_set(base)
    found = sequence_members(ps, kind)
    size = len(base)
    count = len(found)
    high = sum(1 for m in found if m.index >= 31)
    return LucasBoundReport(
        set_size=size,
        count=count,
        bound=2 * size + 30,
        ok=count < 2 * size + 30,
        high_index_count=high,
        high_index_bound=2 * size - 1,
        high_index_ok=high <= 2 * size - 1,
        members=tuple((int(m.value), m.index) for m in found),
    )
