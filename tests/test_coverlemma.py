import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from prodsets.coverlemma import Bipartite, cover_sequence, verify_cover

ORACLE = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def test_single_a_vertex_shared_by_two():
    graph = Bipartite({"b1": ["a1"], "b2": ["a1"]})
    assert graph.degree_bound == 2
    seq = cover_sequence(graph)
    assert seq == ["b1"]
    assert len(seq) * 2 >= 2
    assert verify_cover(graph, seq)


def test_perfect_matching_returns_all_in_order():
    adjacency = {f"b{i}": [f"a{i}"] for i in range(4)}
    graph = Bipartite(adjacency)
    assert graph.degree_bound == 1
    assert cover_sequence(graph) == ["b0", "b1", "b2", "b3"]


def test_three_b_vertices_bound_two():
    adjacency = {"b1": ["a1"], "b2": ["a1", "a2"], "b3": ["a2"]}
    graph = Bipartite(adjacency)
    seq = cover_sequence(graph)
    assert seq == ["b1", "b2"]
    assert len(seq) * 2 >= 3
    assert verify_cover(graph, seq)


def test_inductive_descent_when_greedy_keeps_too_few():
    # greedy keeps only b1; dropping it leaves a perfect matching on b2, b3
    adjacency = {"b1": ["a1", "a2"], "b2": ["a1"], "b3": ["a2"]}
    graph = Bipartite(adjacency)
    seq = cover_sequence(graph)
    assert seq == ["b2", "b3"]
    assert len(seq) * 2 >= 3
    assert verify_cover(graph, seq)


def test_long_descent_needs_no_recursion():
    # each pass keeps one universal u and drops it, so the degree bound is
    # lowered once per u; the descent must outlast the recursion limit
    n = sys.getrecursionlimit() + 100
    adjacency = {f"u{i}": ["a1", "a2"] for i in range(n)}
    adjacency.update({"p1": ["a1"], "p2": ["a2"]})
    graph = Bipartite(adjacency)
    seq = cover_sequence(graph)
    assert seq == ["p1", "p2"]
    assert len(seq) * graph.degree_bound >= len(adjacency)
    assert verify_cover(graph, seq)


def test_determinism():
    adjacency = {i: [i % 3] for i in range(9)}
    graph = Bipartite(adjacency)
    assert cover_sequence(graph) == cover_sequence(graph)


def _random_graph(rng):
    bound = rng.randint(1, 5)
    b_count = rng.randint(1, 50)
    min_a = -(-b_count // bound)
    a_count = rng.randint(min_a, min_a + 10)
    capacity = dict.fromkeys(range(a_count), bound)
    neighbours = {}
    for b in range(b_count):
        choices = [a for a, c in capacity.items() if c > 0]
        a = rng.choice(choices)
        capacity[a] -= 1
        neighbours[b] = {a}
    for b in range(b_count):
        for a in rng.sample(range(a_count), k=min(rng.randint(0, 2), a_count)):
            if capacity[a] > 0 and a not in neighbours[b]:
                capacity[a] -= 1
                neighbours[b].add(a)
    adjacency = {b: sorted(s) for b, s in neighbours.items()}
    graph = Bipartite(adjacency)
    assert graph.degree_bound <= bound
    return graph, graph.degree_bound, b_count


def test_random_graphs_meet_the_bound():
    rng = random.Random(99)
    for _ in range(50):
        graph, bound, b_count = _random_graph(rng)
        seq = cover_sequence(graph)
        assert verify_cover(graph, seq)
        assert len(seq) * bound >= b_count


def test_greedy_pass_versus_inductive_descent():
    # a plain greedy pass is the cheap oracle; when it falls short, the
    # inductive descent is authoritative and must still meet the bound
    from prodsets.coverlemma import _greedy_pass

    rng = random.Random(100)
    greedy_shortfalls = 0
    for _ in range(50):
        graph, bound, b_count = _random_graph(rng)
        kept = _greedy_pass(list(graph.b_vertices), graph.adjacency)
        assert verify_cover(graph, kept)
        if len(kept) * bound < b_count:
            greedy_shortfalls += 1
            seq = cover_sequence(graph)
            assert len(seq) * bound >= b_count
    # this corpus contains a greedy shortfall, so the descent path is exercised
    assert greedy_shortfalls >= 1


@ORACLE
@given(st.dictionaries(st.integers(0, 40),
                       st.lists(st.integers(0, 12), min_size=1, max_size=6),
                       max_size=40))
def test_cover_sequence_against_a_degree_count_oracle(adjacency):
    # neighbour lists may repeat an a-vertex; it counts once towards its degree
    a_side = {a for neighbours in adjacency.values() for a in neighbours}
    largest = max((sum(a in neighbours for neighbours in adjacency.values())
                   for a in a_side), default=1)
    graph = Bipartite(adjacency)
    assert graph.degree_bound == largest
    seq = cover_sequence(graph)
    assert verify_cover(graph, seq) == bool(adjacency)
    assert len(seq) * graph.degree_bound >= len(adjacency)


def test_verify_cover_rejects_bad_sequences():
    adjacency = {"b1": ["a1"], "b2": ["a1", "a2"]}
    graph = Bipartite(adjacency)
    assert not verify_cover(graph, [])
    assert not verify_cover(graph, ["b2", "b1"])   # V(b1) inside V(b2)
    assert not verify_cover(graph, ["b1", "b1"])
    assert not verify_cover(graph, ["zz"])
    assert verify_cover(graph, ["b1", "b2"])


def test_bipartite_validation():
    with pytest.raises(ValueError):
        Bipartite({"b1": []})                               # degree-0 b


def test_bipartite_derives_a_side_and_degree_bound():
    graph = Bipartite({"b2": ["a2", "a1", "a2"], "b1": ["a1"], "b3": ["a3"]})
    assert graph.b_vertices == ("b2", "b1", "b3")
    assert graph.a_vertices == ("a2", "a1", "a3")          # first appearance
    assert graph.adjacency["b2"] == ("a2", "a1")           # repeats dropped
    assert graph.degree_bound == 2                          # a1; a2 counts once
    empty = Bipartite({})
    assert (empty.a_vertices, empty.b_vertices, empty.degree_bound) == ((), (), 1)
    assert cover_sequence(empty) == []
