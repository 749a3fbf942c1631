"""Acceptance suite: every bound the package promises, at its stated scale.

Each test prints one PASS line with the check's summary; `prodsets selftest`
runs the same checks from the command line.
"""

from itertools import combinations, product

import pytest

from prodsets import acceptance, auxgraph
from prodsets.sequences import fib_values_upto


@pytest.mark.parametrize("name,check", acceptance.CHECKS,
                         ids=[name for name, _ in acceptance.CHECKS])
def test_acceptance(name, check):
    detail = check()   # raises CheckFailure on violation
    print(f"PASS {name}: {detail}")


def test_acyclic_check_reports_a_cycle(monkeypatch):
    # the failure messages are formatted only on failure: force one
    monkeypatch.setattr(acceptance.auxgraph, "find_cycle", lambda graph: [1, 2])
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^B = \(1,\): cycle under assignment \(\(1, 1, 1\),\)$"):
        acceptance.check_07_acyclic_representations()


def per_subset_acyclic(universe_max, max_size):
    """Reference for acceptance._acyclic_representations: every subset of
    {1..universe_max} with at most max_size elements, in lexicographic
    order, every assignment of its Fibonacci values to factor pairs, one
    graph each.  Returns the number of graphs and the first failure (None
    when every graph passes)."""
    fib_values = set(fib_values_upto(universe_max * universe_max))
    graphs = 0
    for combo in sorted(c for size in range(1, max_size + 1)
                        for c in combinations(range(1, universe_max + 1), size)):
        members = {}
        for i, a in enumerate(combo):
            for b in combo[i:]:
                if a * b in fib_values:
                    members.setdefault(a * b, []).append((a, b))
        if not members:
            continue
        for edges in product(*[[(a, b, v) for a, b in members[v]]
                               for v in sorted(members)]):
            graph = auxgraph.AuxGraph(auxgraph.ONE_CLASS, combo, edges)
            if auxgraph.find_cycle(graph) is not None:
                return graphs, f"B = {combo}: cycle under assignment {edges}"
            loops = {e[2] for e in graph.self_loops}
            if len(graph.self_loops) > 2 or not loops <= {1, 144}:
                return graphs, f"B = {combo}: self-loops {graph.self_loops}"
            graphs += 1
    return graphs, None


def test_acyclic_per_map_check_counts_every_subset():
    graphs, failure = per_subset_acyclic(20, 4)
    assert failure is None
    assert acceptance._acyclic_representations(20, 4) == graphs


@pytest.mark.parametrize("edge", [(9, 16, 144), (5, 11, 55), (2, 17, 34)])
def test_acyclic_per_map_check_fails_where_every_subset_fails(edge, monkeypatch):
    # a graph holding this edge is reported as cyclic: both checks must
    # reject the same first set under the same first assignment
    monkeypatch.setattr(acceptance.auxgraph, "find_cycle",
                        lambda graph: [edge[0], edge[1]] if edge in graph.edges else None)
    _, failure = per_subset_acyclic(20, 4)
    assert failure is not None
    with pytest.raises(acceptance.CheckFailure) as raised:
        acceptance._acyclic_representations(20, 4)
    assert str(raised.value) == failure
