"""The contract of the ten result records and of BaseSet: immutable values,
compared and hashed by their fields, the same reprs, validated however they
are built, and rebuilt as themselves by pickle and copy."""

import copy
import pickle
from fractions import Fraction

import pytest

from prodsets.arith import Factorization, factorize
from prodsets.auxgraph import AuxGraph, edge_bound_report
from prodsets.extremal import lucas_count_check
from prodsets.polyseq import PolynomialZ, window_stats, window_witness
from prodsets.productset import BaseSet, sequence_members
from prodsets.sequences import FIBONACCI, LucasSpec

BASE = BaseSet([1, 2, 3])
GRAPH = AuxGraph("one", (1, 2, 3), ((1, 1, 1), (1, 2, 2), (1, 3, 3)))

# a field of each record, and a call that builds a fresh one from the same inputs
RECORDS = {
    "Factorization": ("subject", lambda: factorize(12)),
    "AuxGraph": ("edges", lambda: AuxGraph(GRAPH.mode, GRAPH.base, GRAPH.edges)),
    "EdgeBoundReport": ("acyclic", lambda: edge_bound_report(GRAPH)),
    "LucasBoundReport": ("count", lambda: lucas_count_check(BASE, FIBONACCI)),
    "PolynomialZ": ("coeffs", lambda: PolynomialZ([1, 0, 1])),
    "WindowRecord": ("index", lambda: window_stats(PolynomialZ([1, 0, 1]), 0, 5,
                                                   "above").records[2]),
    "WindowStats": ("records", lambda: window_stats(PolynomialZ([1, 0, 1]), 0, 5, "above")),
    "WitnessReport": ("k", lambda: window_witness([PolynomialZ([1, 0, 1])], 0, 10)),
    "SequenceMember": ("index", lambda: sequence_members(BASE, FIBONACCI)[1]),
    "LucasSpec": ("q", lambda: LucasSpec(1, -1)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_and_compared_by_its_fields(name):
    field, build = RECORDS[name]
    record, again = build(), build()
    assert type(record).__name__ == name
    assert record is not again
    assert record == again and hash(record) == hash(again)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_reprs_are_unchanged():
    assert repr(factorize(12)) == "Factorization(subject=12, factors=((2, 2), (3, 1)))"
    assert repr(FIBONACCI) == "LucasSpec(p=1, q=-1, v=False)"
    assert repr(PolynomialZ([1, 0, 1])) == "PolynomialZ([1, 0, 1])"


@pytest.mark.parametrize("record, change, message", [
    (factorize(12), {"subject": 13}, "do not multiply back"),
    (FIBONACCI, {"q": 1}, r"degenerate pair \(1, 1\)"),
    (GRAPH, {"edges": ((1, 2, 3),)}, r"edge \(1, 2\) does not represent 3"),
    (PolynomialZ([1, 0, 1]), {"coeffs": (0, 0)}, "zero polynomial"),
], ids=["Factorization", "LucasSpec", "AuxGraph", "PolynomialZ"])
def test_replace_validates_as_the_constructor_does(record, change, message):
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())


def test_a_valid_replace_keeps_the_type_and_normalises():
    assert FIBONACCI._replace(q=-2) == LucasSpec(1, -2)
    assert type(FIBONACCI._replace(q=-2)) is LucasSpec
    assert PolynomialZ([1])._replace(coeffs=(3, 1, 0)).coeffs == (3, 1)
    assert isinstance(factorize(12)._replace(subject=12), Factorization)


def test_base_set_is_the_sorted_tuple_of_its_elements():
    base = BaseSet([3, 1, 2, 2])
    assert base == (1, 2, 3) and hash(base) == hash((1, 2, 3))
    with pytest.raises(AttributeError):
        base.elements = (4,)
    with pytest.raises(AttributeError):
        base.extra = 1


VALUES = {**{name: build for name, (_, build) in RECORDS.items()},
          "BaseSet": lambda: BaseSet([Fraction(1, 2), 3, 3])}


@pytest.mark.parametrize("clone", [lambda value: pickle.loads(pickle.dumps(value)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("name", VALUES)
def test_a_copy_is_an_equal_value_of_the_same_type(name, clone):
    value = VALUES[name]()
    again = clone(value)
    assert type(again) is type(value) and again == value
