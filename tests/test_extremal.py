from fractions import Fraction
from itertools import combinations, zip_longest

import pytest

from prodsets import acceptance, extremal, productset
from prodsets.arith import DeskScaleError
from prodsets.extremal import (
    core,
    core_subsets,
    lucas_count_check,
    max_fib_count,
    sharp_example,
)
from prodsets.productset import BaseSet, sequence_members
from prodsets.sequences import (
    FIBONACCI,
    LUCAS_V,
    LucasSpec,
    lucas_u,
    lucas_v,
)


def brute_fib_set(limit):
    values, a, b = set(), 1, 2
    while a <= limit:
        values.add(a)
        a, b = b, a + b
    return values


def brute_pair_map(combo, fib_values):
    pairs = {}
    for i, a in enumerate(combo):
        for b in combo[i:]:
            if a * b in fib_values:
                pairs.setdefault(a * b, []).append((a, b))
    return pairs


def brute_core(n):
    """The elements of {1..n} in some factor pair of a Fibonacci value of
    {1..n}.{1..n}."""
    pairs = brute_pair_map(range(1, n + 1), brute_fib_set(n * n))
    return tuple(sorted({x for ps in pairs.values() for pair in ps for x in pair}))


def fib_members(n):
    return sequence_members(BaseSet(range(1, n + 1)), FIBONACCI)


def test_fib_core_matches_definition():
    for n in range(1, 41):
        assert core(fib_members(n)) == brute_core(n), n
    with pytest.raises(ValueError):     # {1..0} is empty
        fib_members(0)


@pytest.mark.parametrize("n", range(1, 17))
def test_fib_subsets_matches_brute_force(n):
    fib_values = brute_fib_set(n * n)
    members, elements = fib_members(n), brute_core(n)
    for k in range(1, 5):
        walked = [(tuple(subset), {v: list(ps) for v, ps in pairs.items()})
                  for subset, pairs in core_subsets(members, k)]
        # depth-first order is lexicographic order of the ascending tuples
        assert [subset for subset, _ in walked] == sorted(
            combo for size in range(1, k + 1) for combo in combinations(elements, size))
        for subset, pairs in walked:
            assert pairs == brute_pair_map(subset, fib_values), subset
    # the isolated-vertex lemma: inactive elements add no value and no pair
    active = set(elements)
    for k in range(1, 5):
        for combo in combinations(range(1, n + 1), k):
            core_part = tuple(x for x in combo if x in active)
            assert brute_pair_map(combo, fib_values) == brute_pair_map(core_part, fib_values)


def test_fib_subsets_leaves_no_state_behind():
    walk = core_subsets(fib_members(12), 3)
    subset, pairs = next(walk)
    assert (subset, pairs) == ([1], {1: [(1, 1)]})
    for subset, pairs in walk:
        pass
    assert (subset, pairs) == ([], {})
    assert list(core_subsets(fib_members(5), 0)) == []
    assert core([]) == () and list(core_subsets([], 3)) == []


def recurrence_terms(x0, x1, p, q, limit):
    """X_1, X_2, ... of X_n = p X_{n-1} - q X_{n-2}, up to limit."""
    terms = set()
    while x1 <= limit:
        terms.add(x1)
        x0, x1 = x1, p * x1 - q * x0
    return terms


@pytest.mark.parametrize("kind, universe, terms", [
    # V(1, -1) over the rationals p/q, p <= 9, q <= 4: the core is not an
    # interval and holds non-integers such as 3/2 and 7/4
    (LUCAS_V, [Fraction(p, q) for p in range(1, 10) for q in range(1, 5)],
     recurrence_terms(2, 1, 1, -1, 81)),
    # U(3, 2) = 2^n - 1 over {1..40}
    (LucasSpec(3, 2), range(1, 41), recurrence_terms(0, 1, 3, 2, 1600)),
], ids=lambda value: "lucas" if value == LUCAS_V else None)
def test_core_subsets_matches_brute_force_beyond_fibonacci(kind, universe, terms):
    base = BaseSet(universe)
    members = sequence_members(base, kind)
    full = brute_pair_map(base.elements, terms)
    elements = tuple(sorted({x for ps in full.values() for pair in ps for x in pair}))
    assert core(members) == elements
    for k in range(1, 5):
        walked = [(tuple(subset), {v: list(ps) for v, ps in pairs.items()})
                  for subset, pairs in core_subsets(members, k)]
        assert [subset for subset, _ in walked] == sorted(
            combo for size in range(1, k + 1) for combo in combinations(elements, size))
        for subset, pairs in walked:
            assert pairs == brute_pair_map(subset, terms), subset


def recursive_fib_subsets(universe_max, max_size):
    """The core walk as recursive generators, one per depth: the reference
    that core_subsets' loop over an index stack must match step for step."""
    core = brute_core(universe_max)
    fib_set = brute_fib_set(universe_max * universe_max)
    partners = [tuple((y, x * y) for y in core[:i + 1] if x * y in fib_set)
                for i, x in enumerate(core)]
    present = [False] * (universe_max + 1)
    subset = []
    pairs = {}
    state = (subset, pairs)

    def walk(start, depth):
        deeper = depth < max_size
        for i in range(start, len(core)):
            x = core[i]
            subset.append(x)
            present[x] = True
            for y, v in partners[i]:
                if present[y]:
                    held = pairs.get(v)
                    if held is None:
                        pairs[v] = [(y, x)]
                    else:
                        held.insert(0, (y, x))
            yield state
            if deeper:
                yield from walk(i + 1, depth + 1)
            for y, v in partners[i]:
                if present[y]:
                    held = pairs[v]
                    if len(held) == 1:
                        del pairs[v]
                    else:
                        del held[0]
            present[x] = False
            subset.pop()

    if max_size >= 1:
        yield from walk(0, 1)


def snapshots(walk):
    # the state is updated in place, so copy it at each step, pair order kept
    for subset, pairs in walk:
        yield tuple(subset), tuple((v, tuple(ps)) for v, ps in pairs.items())


@pytest.mark.parametrize("universe_max, max_size", [(1, 1), (13, 3), (30, 5), (40, 4)])
def test_fib_subsets_walks_like_the_recursive_reference(universe_max, max_size):
    steps = 0
    for got, want in zip_longest(snapshots(core_subsets(fib_members(universe_max), max_size)),
                                 snapshots(recursive_fib_subsets(universe_max, max_size))):
        assert got == want, steps
        steps += 1
    assert steps >= len(brute_core(universe_max))


def test_max_fib_count_matches_brute_force():
    # k up to 6 reaches (6, 6), whose maximiser holds an inactive element;
    # the larger universes have lexicographic ties across core parts
    for n in range(1, 31):
        fib_values = brute_fib_set(n * n)
        for k in range(1, min(n, 6 if n <= 12 else 4 if n <= 20 else 3) + 1):
            best_count, best_combo = -1, None
            for combo in combinations(range(1, n + 1), k):
                count = len(brute_pair_map(combo, fib_values))
                if count > best_count:
                    best_count, best_combo = count, combo
            assert max_fib_count(n, k) == (best_count, BaseSet(best_combo)), (n, k)


@pytest.mark.parametrize("values", [(1, 2, 3), (6, 8), (4, 12, 18)])
def test_max_fib_count_pads_with_smallest_inactive(values, monkeypatch):
    # Within the guards a Fibonacci maximiser needs padding only at (6, 6);
    # a sparse stand-in for the Fibonacci values leaves most of {1..n}
    # inactive, so padding and lexicographic ties across core parts decide;
    # the one term table sequence_members reads is replaced
    monkeypatch.setattr(productset, "term_table",
                        lambda kind, limit: {v: 1 for v in values if v <= limit})
    for n in range(1, 11):
        for k in range(1, min(n, 6) + 1):
            best_count, best_combo = -1, None
            for combo in combinations(range(1, n + 1), k):
                count = len(brute_pair_map(combo, set(values)))
                if count > best_count:
                    best_count, best_combo = count, combo
            assert max_fib_count(n, k) == (best_count, BaseSet(best_combo)), (n, k)


def test_one_member_scan_per_search(monkeypatch):
    calls = []

    def counted(base, kind):
        calls.append(len(base))
        return sequence_members(base, kind)

    monkeypatch.setattr(extremal, "sequence_members", counted)
    monkeypatch.setattr(acceptance, "sequence_members", counted)
    for n, k in [(1, 1), (12, 3), (20, 4)]:
        calls.clear()
        max_fib_count(n, k)
        assert calls == [n], (n, k)
        calls.clear()
        acceptance._acyclic_representations(n, k)
        assert calls == [n], (n, k)


def test_max_fib_count_trivial():
    assert max_fib_count(2, 1) == (1, BaseSet([1]))


def test_max_fib_count_small():
    count, witness = max_fib_count(10, 2)
    assert count == 2
    assert witness == BaseSet([1, 2])     # first maximiser in subset order


def test_max_fib_count_universe_20():
    count, witness = max_fib_count(20, 3)
    assert count == 3
    assert len(sequence_members(witness, FIBONACCI)) == 3


def test_max_fib_count_matches_set_size_at_desk_scale():
    count, witness = max_fib_count(30, 5)
    assert count == 5
    assert len(witness) == 5


def test_max_fib_count_guards():
    with pytest.raises(DeskScaleError):
        max_fib_count(41, 3)
    with pytest.raises(DeskScaleError):
        max_fib_count(30, 7)
    with pytest.raises(ValueError):
        max_fib_count(2, 3)
    with pytest.raises(ValueError):
        max_fib_count(0, 1)


def test_max_fib_count_monotone():
    grid = {(n, k): max_fib_count(n, k)[0]
            for n in range(4, 9) for k in range(1, 4)}
    for (n, k), value in grid.items():
        if (n + 1, k) in grid:
            assert grid[(n + 1, k)] >= value
        if (n, k + 1) in grid:
            assert grid[(n, k + 1)] >= value


def test_sharp_example_values():
    assert sharp_example(1) == BaseSet([1])
    assert sharp_example(3) == BaseSet([1, 2, 3])
    assert sharp_example(5) == BaseSet([1, 2, 3, 5, 8])
    with pytest.raises(ValueError):
        sharp_example(0)


@pytest.mark.parametrize("k", range(1, 9))
def test_sharp_example_achieves_k(k):
    base = sharp_example(k)
    assert len(base) == k
    found = sequence_members(base, FIBONACCI)
    assert len(found) == k


def test_lucas_count_check_examples():
    report = lucas_count_check(BaseSet([1, 3, 4, 7]), LUCAS_V)
    assert (report.count, report.bound, report.ok) == (4, 38, True)
    assert [v for v, _ in report.members] == [1, 3, 4, 7]

    report = lucas_count_check(BaseSet([1]), LUCAS_V)
    assert (report.count, report.bound, report.ok) == (1, 32, True)


def test_lucas_count_check_high_index_witness():
    u31 = lucas_u(FIBONACCI, 31)
    u32 = lucas_u(FIBONACCI, 32)
    report = lucas_count_check(BaseSet([1, u31, u32]), FIBONACCI)
    assert report.high_index_count == 2
    assert report.high_index_bound == 5
    assert report.high_index_ok


def test_lucas_count_check_high_index_witness_lucas_numbers():
    elems = [1] + [lucas_v(FIBONACCI, n) for n in range(31, 34)]
    report = lucas_count_check(BaseSet(elems), LUCAS_V)
    assert report.high_index_count == 3
    assert report.high_index_ok


def test_lucas_count_check_rejects_an_unknown_kind_without_integer_products():
    # (1/3)(2/3) and the squares 1/9, 4/9 are not integers; the kind is
    # still checked, as it is for a set whose product set holds integers
    for base in (BaseSet([Fraction(1, 3), Fraction(2, 3)]), BaseSet([2])):
        with pytest.raises(TypeError, match="spec must be a LucasSpec"):
            lucas_count_check(base, "bogus")
