import random
from fractions import Fraction
from itertools import combinations, product as iter_product

import pytest

from prodsets.auxgraph import (
    ONE_CLASS,
    TWO_CLASS,
    AuxGraph,
    build_aux_graph,
    dump_edges_csv,
    edge_bound_report,
    find_cycle,
)
from prodsets.productset import BaseSet, SequenceMember, sequence_members
from prodsets.sequences import (
    FIBONACCI,
    LucasSpec,
    is_fibonacci,
    lucas_u,
)


def member(value, *pairs):
    """A SequenceMember whose index no graph reads."""
    return SequenceMember(value, 0, pairs)


def fib_graph(elements, mode):
    base = BaseSet(elements)
    found = sequence_members(base, FIBONACCI)
    return build_aux_graph(base, found, mode)


def test_build_one_class_sharpness_witness():
    graph = fib_graph([1, 2, 3, 5, 8], ONE_CLASS)
    assert graph.edges == ((1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 5, 5), (1, 8, 8))
    assert len(graph.self_loops) == 1
    assert find_cycle(graph) is None


def test_build_singleton_self_loop():
    graph = build_aux_graph([1], [member(1, (1, 1))], ONE_CLASS)
    assert graph.edges == ((1, 1, 1),)
    assert len(graph.self_loops) == 1


def test_build_two_class_single_edge():
    graph = build_aux_graph([2, 3], [member(6, (2, 3))], TWO_CLASS)
    assert graph.edges == ((2, 3, 6),)
    assert graph.vertices == ("L:2", "L:3", "R:2", "R:3")
    assert graph.self_loops == ()


def test_canonical_representation_uses_smallest_pair():
    graph = build_aux_graph([2, 3, 4, 6], [member(12, (3, 4), (2, 6))], ONE_CLASS)
    assert graph.edges == ((2, 6, 12),)


def test_build_rejects_missing_pairs_and_duplicates():
    with pytest.raises(ValueError):
        build_aux_graph([2, 3], [member(6)], ONE_CLASS)
    with pytest.raises(ValueError):
        AuxGraph(ONE_CLASS, (2, 3), ((2, 3, 6), (2, 3, 6)))
    with pytest.raises(ValueError):
        AuxGraph(ONE_CLASS, (2, 3), ((2, 5, 10),))    # endpoint outside base
    with pytest.raises(ValueError):
        AuxGraph(ONE_CLASS, (2, 3), ((2, 3, 7),))     # wrong product
    with pytest.raises(ValueError):
        AuxGraph(ONE_CLASS, (2, 3), ((3, 2, 6),))     # b1 > b2
    with pytest.raises(ValueError):
        AuxGraph("three", (2, 3), ((2, 3, 6),))       # unknown mode


def test_rational_set_exceeds_the_integer_fibonacci_bound():
    # the |B| bound is for integer sets: {1, 3, 2/3, 12} puts 1, 2, 3, 8 and
    # 144 in B.B, and its one-class graph is still a forest plus two loops
    base = BaseSet([1, 3, Fraction(2, 3), 12])
    found = sequence_members(base, FIBONACCI)
    assert [m.value for m in found] == [1, 2, 3, 8, 144]
    graph = build_aux_graph(base, found, ONE_CLASS)
    assert find_cycle(graph) is None
    assert [e[2] for e in graph.self_loops] == [1, 144]


def test_find_cycle_on_path_is_none():
    graph = AuxGraph(ONE_CLASS, (1, 2, 3), ((1, 2, 2), (1, 3, 3)))
    assert find_cycle(graph) is None


def test_find_cycle_reports_triangle():
    graph = AuxGraph(ONE_CLASS, (2, 3, 5), ((2, 3, 6), (3, 5, 15), (2, 5, 10)))
    cycle = find_cycle(graph)
    assert cycle is not None and sorted(cycle) == [2, 3, 5]


def test_find_cycle_two_class_four_cycle():
    graph = AuxGraph(TWO_CLASS, (1, 2, 4, 6),
                     ((1, 4, 4), (2, 4, 8), (2, 6, 12), (1, 6, 6)))
    assert find_cycle(graph) == ["L:1", "R:4", "L:2", "R:6"]


def test_self_loops_do_not_create_cycles():
    graph = AuxGraph(ONE_CLASS, (1, 12), ((1, 1, 1), (12, 12, 144)))
    assert find_cycle(graph) is None
    assert len(graph.self_loops) == 2


def test_edge_bound_report_two_self_loops():
    graph = fib_graph([1, 12], ONE_CLASS)
    report = edge_bound_report(graph)
    assert report.num_edges == 2
    assert report.num_vertices == 2
    assert report.num_self_loops == 2
    assert report.acyclic
    assert report.forest_bound_ok


def test_edge_bound_report_two_class_vertex_count():
    graph = fib_graph([2, 3, 7], TWO_CLASS)
    report = edge_bound_report(graph)
    assert report.num_vertices == 6
    assert report.acyclic
    assert report.num_edges <= report.num_vertices - 1


def test_edge_bound_report_matches_a_search_oracle():
    # components by depth-first search; without self-loops a graph is a
    # forest iff its edges number vertices - components.  Products of two
    # primes are distinct, so any pair list over a prime base is a graph.
    def reachable(links, start):
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            for u, v in links:
                for a, b in ((u, v), (v, u)):
                    if a == node and b not in seen:
                        seen.add(b)
                        stack.append(b)
        return seen

    rng = random.Random(11)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(400):
        base = tuple(sorted(rng.sample(primes, rng.randint(1, 7))))
        pairs = {tuple(sorted(rng.choices(base, k=2))) for _ in range(rng.randint(0, 9))}
        edges = tuple(sorted((b1, b2, b1 * b2) for b1, b2 in pairs))
        for mode in (ONE_CLASS, TWO_CLASS):
            graph = AuxGraph(mode, base, edges)
            if mode == ONE_CLASS:
                vertices = list(base)
                links = [(b1, b2) for b1, b2, _ in edges if b1 != b2]
            else:
                vertices = [f"{side}:{b}" for side in "LR" for b in base]
                links = [(f"L:{b1}", f"R:{b2}") for b1, b2, _ in edges]
            neighbours = {v: set() for v in vertices}
            for u, v in links:
                neighbours[u].add(v)
                neighbours[v].add(u)
            components, seen = 0, set()
            for start in vertices:
                if start not in seen:
                    components += 1
                    stack = [start]
                    seen.add(start)
                    while stack:
                        for w in neighbours[stack.pop()] - seen:
                            seen.add(w)
                            stack.append(w)
            report = edge_bound_report(graph)
            assert report.num_components == components, (mode, base, edges)
            assert report.acyclic == (len(links) == len(vertices) - components)
            assert report.cycle == find_cycle(graph)
            # the reported cycle is closed by the first edge whose ends the
            # earlier edges already join, and runs along those earlier edges
            closing = next((i for i, (u, v) in enumerate(links)
                            if v in reachable(links[:i], u)), None)
            if closing is None:
                assert report.cycle is None
            else:
                cycle = report.cycle
                assert len(set(cycle)) == len(cycle) >= 3
                assert all(cycle[i - 1] in neighbours[cycle[i]] for i in range(len(cycle)))
                assert (cycle[0], cycle[-1]) == links[closing]
                earlier = {frozenset(link) for link in links[:closing]}
                assert all(frozenset(cycle[j:j + 2]) in earlier
                           for j in range(len(cycle) - 1))


def test_forest_bound_on_acyclic_graphs():
    for elements in ([1, 2, 3, 5, 8], [2, 3, 4, 6, 9], [1, 11, 22, 13]):
        for mode in (ONE_CLASS, TWO_CLASS):
            graph = fib_graph(elements, mode)
            report = edge_bound_report(graph)
            if report.acyclic:
                non_loops = report.num_edges - report.num_self_loops
                assert non_loops <= report.num_vertices - report.num_components
                assert report.forest_bound_ok


def test_exhaustive_acyclicity_all_assignments_small_universe():
    # every representation assignment over every B in {1..15}, |B| <= 4
    fib_set, a, b = set(), 1, 2  # the recurrence, not the term table under test
    while a <= 15 * 15:
        fib_set.add(a)
        a, b = b, a + b
    for size in range(1, 5):
        for combo in combinations(range(1, 16), size):
            members = {}
            for i, x in enumerate(combo):
                for y in combo[i:]:
                    v = x * y
                    if v in fib_set:
                        members.setdefault(v, []).append((x, y))
            if not members:
                continue
            items = sorted(members.items())
            choice_sets = [[(a, b, v) for a, b in pairs] for v, pairs in items]
            for edges in iter_product(*choice_sets):
                graph = AuxGraph(ONE_CLASS, combo, edges)
                assert find_cycle(graph) is None, (combo, edges)
                loops = graph.self_loops
                assert len(loops) <= 2
                assert {e[2] for e in loops} <= {1, 144}


def test_high_index_lucas_terms_give_acyclic_graphs():
    for spec in (FIBONACCI, LucasSpec(3, 2)):
        elements = [1] + [lucas_u(spec, n) for n in range(31, 35)]
        base = BaseSet(elements)
        found = sequence_members(base, spec)
        high = [m for m in found if m.index >= 31]
        assert len(high) >= 4
        for mode in (ONE_CLASS, TWO_CLASS):
            graph = build_aux_graph(base, high, mode)
            assert find_cycle(graph) is None


def test_no_fibonacci_is_twelve_times_smaller_factor():
    # the final step of the sharp count argument: F = 12 b has no solution b < 12
    assert all(is_fibonacci(12 * b) is None for b in range(1, 12))


def test_dump_edges_csv():
    graph = fib_graph([1, 2, 3, 5, 8], ONE_CLASS)
    assert dump_edges_csv(graph) == "1,1,1\n1,2,2\n1,3,3\n1,5,5\n1,8,8\n"


def test_dump_edges_csv_empty():
    graph = AuxGraph(ONE_CLASS, (2, 3), ())
    assert dump_edges_csv(graph) == ""
