from itertools import combinations

import pytest

from prodsets import extremal
from prodsets.arith import DeskScaleError
from prodsets.extremal import (
    fib_core,
    fib_subsets,
    lucas_count_check,
    max_fib_count,
    sharp_example,
)
from prodsets.productset import BaseSet, build_product_set, sequence_members
from prodsets.sequences import (
    FIBONACCI,
    LUCAS_V,
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


def test_fib_core_matches_definition():
    for n in range(1, 41):
        assert fib_core(n) == brute_core(n), n


@pytest.mark.parametrize("n", range(1, 17))
def test_fib_subsets_matches_brute_force(n):
    fib_values = brute_fib_set(n * n)
    core = fib_core(n)
    for k in range(1, 5):
        walked = [(tuple(subset), {v: list(ps) for v, ps in pairs.items()})
                  for subset, pairs in fib_subsets(n, k)]
        # depth-first order is lexicographic order of the ascending tuples
        assert [subset for subset, _ in walked] == sorted(
            combo for size in range(1, k + 1) for combo in combinations(core, size))
        for subset, pairs in walked:
            assert pairs == brute_pair_map(subset, fib_values), subset
    # the isolated-vertex lemma: inactive elements add no value and no pair
    active = set(core)
    for k in range(1, 5):
        for combo in combinations(range(1, n + 1), k):
            core_part = tuple(x for x in combo if x in active)
            assert brute_pair_map(combo, fib_values) == brute_pair_map(core_part, fib_values)


def test_fib_subsets_leaves_no_state_behind():
    walk = fib_subsets(12, 3)
    subset, pairs = next(walk)
    assert (subset, pairs) == ([1], {1: [(1, 1)]})
    for subset, pairs in walk:
        pass
    assert (subset, pairs) == ([], {})
    assert list(fib_subsets(5, 0)) == []


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
    # inactive, so padding and lexicographic ties across core parts decide
    monkeypatch.setattr(extremal, "fib_values_upto",
                        lambda limit: [v for v in values if v <= limit])
    for n in range(1, 11):
        for k in range(1, min(n, 6) + 1):
            best_count, best_combo = -1, None
            for combo in combinations(range(1, n + 1), k):
                count = len(brute_pair_map(combo, set(values)))
                if count > best_count:
                    best_count, best_combo = count, combo
            assert max_fib_count(n, k) == (best_count, BaseSet(best_combo)), (n, k)


def test_max_fib_count_trivial():
    assert max_fib_count(2, 1) == (1, BaseSet([1]))


def test_max_fib_count_small():
    count, witness = max_fib_count(10, 2)
    assert count == 2
    assert witness == BaseSet([1, 2])     # first maximiser in subset order


def test_max_fib_count_universe_20():
    count, witness = max_fib_count(20, 3)
    assert count == 3
    ps = build_product_set(witness)
    assert len(sequence_members(ps, FIBONACCI)) == 3


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
    found = sequence_members(build_product_set(base), FIBONACCI)
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
