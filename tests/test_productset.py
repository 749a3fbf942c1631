import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from prodsets.productset import BaseSet, build_product_set, sequence_members
from prodsets.sequences import FIBONACCI, LUCAS_V, LucasSpec, term_index

ORACLE = settings(max_examples=30, derandomize=True, deadline=None, database=None)

# (1, -3) and (3, 2) have a positive discriminant; (2, 3) and (1, 2) negative
# ones, whose term table is a scan of the first 500 indices
KINDS = [FIBONACCI, LUCAS_V, LucasSpec(2, 3), LucasSpec(1, -3), LucasSpec(1, 2),
         LucasSpec(2, 3, True), LucasSpec(1, -3, True), LucasSpec(3, 2, True)]


def kind_id(kind):
    """A kind's repr, its v field shown only when set; "lucas" for V(1, -1)."""
    if kind == LUCAS_V:
        return "lucas"
    return f"LucasSpec(p={kind.p}, q={kind.q}{', v=True' if kind.v else ''})"


def small_positive_terms(kind):
    """The terms in [1, 10^4] among the first 40 of the kind, by recurrence."""
    p, q = kind.p, kind.q
    x0, x1 = (2, p) if kind.v else (0, 1)
    terms = set()
    for _ in range(40):
        if 1 <= x1 <= 10**4:
            terms.add(x1)
        x0, x1 = x1, p * x1 - q * x0
    return sorted(terms)


def base_sets(kind, family):
    """Integer sets, rational sets, or sets below 1; the first two draw 1 and
    terms of the kind often, so that many products are terms too."""
    if family == "below-one":
        element = st.builds(lambda n, d: Fraction(n, n + d), st.integers(1, 20),
                            st.integers(1, 20))
        return st.lists(element, min_size=1, max_size=6)
    element = st.one_of(st.integers(1, 60), st.just(1),
                        st.sampled_from(small_positive_terms(kind)))
    if family == "rational":
        element = st.builds(Fraction, element, st.integers(1, 4))
    return st.lists(element, min_size=1, max_size=8)


def test_base_set_sorts_and_dedupes():
    base = BaseSet([3, 1, 2, 3, Fraction(4, 2)])
    assert base.elements == (1, 2, 3)
    assert len(base) == 3
    assert 2 in base


def test_equal_base_sets_hash_equal_and_share_a_dict_key():
    a, b = BaseSet([1, 2, Fraction(1, 2)]), BaseSet([Fraction(2, 4), 2, 1, 2])
    assert a == b and hash(a) == hash(b)
    assert {a: "first", b: "second"} == {a: "second"}


def test_base_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        BaseSet([0, 1])
    with pytest.raises(ValueError):
        BaseSet([Fraction(-1, 2)])


@pytest.mark.parametrize("bad", [True, 1.5, "2", None])
def test_base_set_rejects_inexact_elements(bad):
    with pytest.raises(TypeError):
        BaseSet([1, bad])


def test_base_set_turns_an_integral_fraction_into_an_int():
    base = BaseSet([Fraction(6, 2)])
    assert base.elements == (3,)
    assert type(base.elements[0]) is int


def test_build_product_set_two_elements():
    ps = build_product_set(BaseSet([2, 3]))
    assert ps == {4: ((2, 2),), 6: ((2, 3),), 9: ((3, 3),)}


def test_build_product_set_singleton():
    ps = build_product_set(BaseSet([1]))
    assert ps == {1: ((1, 1),)}


def test_build_product_set_five_elements():
    ps = build_product_set(BaseSet([1, 2, 3, 5, 8]))
    assert len(ps) == 15
    assert all(type(v) is int for v in ps)
    for value in (1, 2, 3, 5, 8, 15, 40):
        assert value in ps


def test_build_product_set_mixed_keys_and_pairs_ascending():
    # keys ascend, and a value's pairs ascend as sequence_members gives them
    half, third = Fraction(1, 2), Fraction(1, 3)
    ps = build_product_set(BaseSet([2 * third, 3, half, 4, 6, 3 * half]))
    assert list(ps) == sorted(ps)
    assert all(isinstance(v, int) for v in ps if v.denominator == 1)
    assert ps[Fraction(4, 2)] == ((Fraction(1, 2), 4), (Fraction(2, 3), 3))
    assert ps[9] == ((Fraction(3, 2), 6), (3, 3))
    for value, pairs in ps.items():
        assert list(pairs) == sorted(pairs), value
        assert all(b1 <= b2 for b1, b2 in pairs), value


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
        assert list(other.items()) == list(reference.items())


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
    found = sequence_members(BaseSet([1, 2, 3, 5, 8]), FIBONACCI)
    assert [m.value for m in found] == [1, 2, 3, 5, 8]
    assert [m.index for m in found] == [1, 3, 4, 5, 6]


def test_sequence_members_empty():
    assert sequence_members(BaseSet([2, 3]), FIBONACCI) == []


def test_sequence_members_lucas():
    base = BaseSet([1, 3, 4, 7])
    assert list(build_product_set(base)) == [1, 3, 4, 7, 9, 12, 16, 21, 28, 49]
    found = sequence_members(base, LUCAS_V)
    assert [m.value for m in found] == [1, 3, 4, 7]


def test_sequence_members_skips_non_integers():
    base = BaseSet([Fraction(1, 2), 2, 3])
    ps = build_product_set(base)
    assert Fraction(1, 4) in ps and Fraction(3, 2) in ps
    found = sequence_members(base, FIBONACCI)
    assert [m.value for m in found] == [1]          # 1 = (1/2) * 2
    assert found[0].pairs == ((Fraction(1, 2), 2),)


@pytest.mark.parametrize("family", ["integer", "rational", "below-one"])
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
@ORACLE
@given(data=st.data())
def test_sequence_members_match_the_product_set_oracle(kind, family, data):
    base = BaseSet(data.draw(base_sets(kind, family)))
    ps = build_product_set(base)
    expected = []
    for value, pairs in ps.items():
        index = term_index(kind, value) if isinstance(value, int) else None
        if index is not None:
            expected.append((value, index, pairs))
    found = sequence_members(base, kind)
    assert [(m.value, m.index, m.pairs) for m in found] == expected
    assert all(type(m.value) is int for m in found)


@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_sequence_members_rejects_empty(kind):
    with pytest.raises(ValueError):
        sequence_members(BaseSet([]), kind)


def test_fib_members_never_exceed_set_size_small_corpus():
    fib_set, a, b = set(), 1, 2  # the recurrence, not the term table under test
    while a <= 12 * 12:
        fib_set.add(a)
        a, b = b, a + b
    for size in range(1, 4):
        best = 0
        for combo in combinations(range(1, 13), size):
            ps = build_product_set(BaseSet(combo))
            count = sum(1 for v in ps if v in fib_set)
            assert count <= size, combo
            best = max(best, count)
        assert best == size      # the bound is reached, so the count is live
