"""Extremal checks on product sets: the sharp Fibonacci count bound and the
Lucas-term count bound."""

from __future__ import annotations

from typing import NamedTuple

from .arith import DeskScaleError
from .productset import BaseSet, sequence_members
from .sequences import FIBONACCI, LucasSpec, lucas_u

MAX_UNIVERSE = 40
MAX_SET_SIZE = 6


def core(members) -> tuple:
    """The elements of the members' factor pairs, ascending.

    The members are those ``sequence_members`` finds in a universe U.  Every
    factor pair of a term in B.B, B inside U, lies in the core, so those
    terms and their pairs depend only on the core part of B; the other
    elements of U are isolated vertices of every representation graph.
    """
    return tuple(sorted({x for m in members for pair in m.pairs for x in pair}))


def core_subsets(members, max_size: int):
    """Every nonempty subset of ``core(members)`` with at most max_size
    elements, in depth-first order (so the subsets of each size come in
    lexicographic order), each with the terms of its product set.

    A core subset S of size j stands for the ``C(pad, k - j)`` sets B of each
    size k that add k - j elements of the universe outside the core to it,
    ``pad = |U| - len(core(members))``; they share its terms and pairs.

    Yields ``(subset, pairs)``: ``subset`` is the ascending list of elements
    and ``pairs`` maps each member value v in S.S to its factor pairs
    ``(a, b)``, a <= b, a*b = v, ascending by a.  Both are the walk's own
    state, updated in place as elements are added and removed: read them
    before the next step and copy what must outlive it.
    """
    elements = core(members)
    position = {x: i for i, x in enumerate(elements)}
    # partners[i]: (j, pair, value) for each pair (elements[j], elements[i]),
    # ascending by j since the members ascend by value
    partners = [[] for _ in elements]
    for m in members:
        for pair in m.pairs:
            partners[position[pair[1]]].append((position[pair[0]], pair, m.value))
    present = [False] * len(elements)
    subset: list = []
    pairs: dict[int, list[tuple]] = {}
    state = (subset, pairs)
    stack: list[int] = []  # positions of subset's elements
    i = 0  # the position to try next as a new last element
    while True:
        if i < len(elements) and len(stack) < max_size:
            subset.append(elements[i])
            present[i] = True
            # the new element is the largest, so its pair has the smallest
            # first element among the pairs of its value: it goes in front
            for j, pair, v in partners[i]:
                if present[j]:
                    pairs.setdefault(v, []).insert(0, pair)
            stack.append(i)
            yield state
            i += 1
        elif stack:
            # take the last element out again; its successor takes its place
            i = stack.pop()
            for j, _, v in partners[i]:
                if present[j]:
                    held = pairs[v]
                    del held[0]
                    if not held:
                        del pairs[v]
            present[i] = False
            subset.pop()
            i += 1
        else:
            return


def max_fib_count(universe_max: int, set_size: int) -> tuple[int, BaseSet]:
    """Maximum number of Fibonacci values in B.B over all B of the given size
    inside {1..universe_max}, with the lexicographically first maximiser.

    B's count is that of its core part S (see ``core``).  For a fixed S,
    the lexicographically first B pads S with the smallest inactive
    elements, since swapping a padding element for a smaller unused one
    gives a smaller tuple; so only core subsets are searched.
    """
    if universe_max < 1 or set_size < 1:
        raise ValueError("universe_max and set_size must be >= 1")
    if universe_max > MAX_UNIVERSE or set_size > MAX_SET_SIZE:
        raise DeskScaleError(
            f"subset search capped at universe {MAX_UNIVERSE}, size {MAX_SET_SIZE} "
            f"(MAX_UNIVERSE, MAX_SET_SIZE); got universe {universe_max}, size {set_size}")
    if set_size > universe_max:
        raise ValueError("set size exceeds universe size")
    members = sequence_members(BaseSet(range(1, universe_max + 1)), FIBONACCI)
    active = set(core(members))
    inactive = [x for x in range(1, universe_max + 1) if x not in active]
    best_count, best_combo = -1, None
    if len(inactive) >= set_size:
        # a B with no active element: no Fibonacci value.  The walk always
        # beats it, since 1 is active, but a term table without 1 needs it
        best_count, best_combo = 0, tuple(inactive[:set_size])
    for subset, pairs in core_subsets(members, set_size):
        fill = set_size - len(subset)
        if fill <= len(inactive) and len(pairs) >= best_count:
            combo = tuple(sorted(subset + inactive[:fill]))
            if len(pairs) > best_count or combo < best_combo:
                best_count, best_combo = len(pairs), combo
    return best_count, BaseSet(best_combo)


def sharp_example(k: int) -> BaseSet:
    """A k-element set with exactly k Fibonacci values in its product set:
    {1, F_3, F_4, ..., F_{k+1}} (1*1 = 1 and 1*F_i = F_i supply the k values).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return BaseSet([1] + [lucas_u(FIBONACCI, i) for i in range(3, k + 2)])


class LucasBoundReport(NamedTuple):
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


def lucas_count_check(base: BaseSet, kind: LucasSpec) -> LucasBoundReport:
    found = sequence_members(base, kind)
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
        members=tuple((m.value, m.index) for m in found),
    )
