"""Extremal checks on product sets: the sharp Fibonacci count bound and the
Lucas-term count bound."""

from __future__ import annotations

from dataclasses import dataclass

from .arith import DeskScaleError
from .productset import BaseSet, sequence_members
from .sequences import FIBONACCI, SequenceKind, fib

MAX_UNIVERSE = 40
MAX_SET_SIZE = 6


def fib_core(universe_max: int) -> tuple[int, ...]:
    """The active elements of {1..universe_max}, ascending: x is active when
    x*y is a Fibonacci number for some y in {1..universe_max}.

    Every factor pair of a Fibonacci value in B.B lies in the core, so those
    values and their pairs depend only on the core part of B; the other
    ``universe_max - len(core)`` elements are isolated vertices of every
    representation graph.
    """
    members = sequence_members(BaseSet(range(1, universe_max + 1)), FIBONACCI)
    return tuple(sorted({x for m in members for pair in m.pairs for x in pair}))


def fib_subsets(universe_max: int, max_size: int):
    """Every nonempty subset of the core of {1..universe_max} (see
    ``fib_core``) with at most max_size elements, in depth-first order (so
    the subsets of each size come in lexicographic order), each with the
    Fibonacci values of its product set.

    A core subset S of size j stands for the ``C(pad, k - j)`` sets B of each
    size k that add k - j inactive elements to it, ``pad = universe_max -
    len(fib_core(universe_max))``; they share its values and pairs.

    Yields ``(subset, pairs)``: ``subset`` is the ascending list of elements
    and ``pairs`` maps each Fibonacci value v in S.S to its factor pairs
    ``(a, b)``, a <= b, a*b = v, ascending by a.  Both are the walk's own
    state, updated in place as elements are added and removed: read them
    before the next step and copy what must outlive it.
    """
    core = fib_core(universe_max)
    # partners[i]: the (y, x*y) with y <= x = core[i] and x*y a Fibonacci
    # value, ascending by y since the members ascend by value
    partners = [[] for _ in core]
    for m in sequence_members(BaseSet(range(1, universe_max + 1)), FIBONACCI):
        for y, x in m.pairs:
            partners[core.index(x)].append((y, m.value))
    present = [False] * (universe_max + 1)
    subset: list[int] = []
    pairs: dict[int, list[tuple[int, int]]] = {}
    state = (subset, pairs)
    stack: list[int] = []  # core indices of subset's elements
    i = 0  # the core index to try next as a new last element
    while True:
        if i < len(core) and len(stack) < max_size:
            x = core[i]
            subset.append(x)
            present[x] = True
            # x is the largest element, so (y, x) has the smallest first
            # element among the pairs of its value: it goes in front
            for y, v in partners[i]:
                if present[y]:
                    pairs.setdefault(v, []).insert(0, (y, x))
            stack.append(i)
            yield state
            i += 1
        elif stack:
            # take the last element out again; its successor takes its place
            i = stack.pop()
            for y, v in partners[i]:
                if present[y]:
                    held = pairs[v]
                    del held[0]
                    if not held:
                        del pairs[v]
            present[core[i]] = False
            subset.pop()
            i += 1
        else:
            return


def max_fib_count(universe_max: int, set_size: int) -> tuple[int, BaseSet]:
    """Maximum number of Fibonacci values in B.B over all B of the given size
    inside {1..universe_max}, with the lexicographically first maximiser.

    B's count is that of its core part S (see ``fib_core``).  For a fixed S,
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
    active = set(fib_core(universe_max))
    inactive = [x for x in range(1, universe_max + 1) if x not in active]
    best_count, best_combo = -1, None
    if len(inactive) >= set_size:
        # a B with no active element: no Fibonacci value
        best_count, best_combo = 0, tuple(inactive[:set_size])
    for subset, pairs in fib_subsets(universe_max, set_size):
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
