import random
from fractions import Fraction
from itertools import combinations

import pytest

from prodsets.productset import BaseSet, build_product_set, sequence_members
from prodsets.sequences import FIBONACCI, LUCAS_V, fib_values_upto


def test_base_set_sorts_and_dedupes():
    base = BaseSet([3, 1, 2, 3, Fraction(4, 2)])
    assert base.elements == (1, 2, 3)
    assert len(base) == 3
    assert 2 in base


def test_base_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        BaseSet([0, 1])
    with pytest.raises(ValueError):
        BaseSet([Fraction(-1, 2)])


def test_build_product_set_two_elements():
    ps = build_product_set(BaseSet([2, 3]))
    assert dict(ps.items()) == {4: ((2, 2),), 6: ((2, 3),), 9: ((3, 3),)}


def test_build_product_set_singleton():
    ps = build_product_set(BaseSet([1]))
    assert dict(ps.items()) == {1: ((1, 1),)}


def test_build_product_set_five_elements():
    ps = build_product_set(BaseSet([1, 2, 3, 5, 8]))
    assert len(ps) == 15
    for value in (1, 2, 3, 5, 8, 15, 40):
        assert value in ps


def test_build_product_set_rejects_empty():
    with pytest.raises(ValueError):
        build_product_set(BaseSet([]))


def test_product_set_invariant_under_input_order():
    rng = random.Random(5)
    elems = [3, 7, 11, 20, 9]
    reference = build_product_set(BaseSet(elems))
    for _ in range(5):
        shuffled = elems[:]
        rng.shuffle(shuffled)
        other = build_product_set(BaseSet(shuffled))
        assert dict(other.items()) == dict(reference.items())


def test_provenance_multiplies_back():
    ps = build_product_set(BaseSet([2, 5, 7, 10, 14]))
    for value, pairs in ps.items():
        assert pairs
        for b1, b2 in pairs:
            assert b1 * b2 == value
            assert b1 <= b2


def test_pair_count_bound():
    for size in (1, 3, 6):
        base = BaseSet(range(2, 2 + size))
        ps = build_product_set(base)
        assert len(ps) <= size * (size + 1) // 2


def test_sequence_members_fibonacci_sharpness_witness():
    ps = build_product_set(BaseSet([1, 2, 3, 5, 8]))
    found = sequence_members(ps, FIBONACCI)
    assert [m.value for m in found] == [1, 2, 3, 5, 8]
    assert [m.index for m in found] == [1, 3, 4, 5, 6]


def test_sequence_members_empty():
    ps = build_product_set(BaseSet([2, 3]))
    assert sequence_members(ps, FIBONACCI) == []


def test_sequence_members_lucas():
    ps = build_product_set(BaseSet([1, 3, 4, 7]))
    assert sorted(ps.values()) == [1, 3, 4, 7, 9, 12, 16, 21, 28, 49]
    found = sequence_members(ps, LUCAS_V)
    assert [m.value for m in found] == [1, 3, 4, 7]


def test_sequence_members_skips_non_integers():
    ps = build_product_set(BaseSet([Fraction(1, 2), 2, 3]))
    values = ps.values()
    assert Fraction(1, 4) in values and Fraction(3, 2) in values
    found = sequence_members(ps, FIBONACCI)
    assert [m.value for m in found] == [1]          # 1 = (1/2) * 2
    assert found[0].pairs == ((Fraction(1, 2), 2),)


def test_fib_members_never_exceed_set_size_small_corpus():
    fib_set = frozenset(fib_values_upto(12 * 12))
    for size in range(1, 4):
        for combo in combinations(range(1, 13), size):
            ps = build_product_set(BaseSet(combo))
            count = sum(1 for v in ps.values() if v in fib_set)
            assert count <= size, combo
