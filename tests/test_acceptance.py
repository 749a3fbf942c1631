"""Acceptance suite: every bound the package promises, at its stated scale.

Each test prints one PASS line with the check's summary; `prodsets selftest`
runs the same checks from the command line.
"""

import hashlib
from itertools import combinations, product

import pytest

from prodsets import acceptance, arith, auxgraph, coverlemma, extremal


@pytest.mark.parametrize("name,check", acceptance.CHECKS,
                         ids=[name for name, _ in acceptance.CHECKS])
def test_acceptance(name, check):
    detail = check()   # raises CheckFailure on violation
    print(f"PASS {name}: {detail}")


def test_selftest_never_builds_the_medium_primorial(capsys):
    # the README's promise: selftest's window terms stay below 2^20, so the
    # product of the primes in (2^10, 2^16] is never built; and no composite
    # of selftest reaches ECM, so neither are ECM's tables
    arith._medium_primorial.cache_clear()
    arith._ecm_tables.cache_clear()
    assert acceptance.run_all()
    capsys.readouterr()
    assert arith._medium_primorial.cache_info().currsize == 0
    assert arith._ecm_tables.cache_info().currsize == 0



def test_fib_count_check_reports_a_subset_above_its_size(monkeypatch):
    monkeypatch.setattr(acceptance.extremal, "core_subsets", lambda members, max_size: iter(
        [([1, 2], {1: [(1, 1)], 2: [(1, 2)], 4: [(2, 2)]})]))
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^S = \(1, 2\): 3 Fibonacci values$"):
        acceptance.check_01_fib_count_exhaustive()


def test_fib_count_check_reads_the_core_walk_once(monkeypatch):
    calls = []

    def recording(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(name) or real(*args))

    recording(acceptance, "sequence_members")
    recording(extremal, "core_subsets")
    recording(extremal, "max_fib_count")
    assert acceptance.check_01_fib_count_exhaustive() == (
        "174436 subsets checked, count never exceeds the set size")
    assert calls == ["sequence_members", "core_subsets"]

def test_acyclic_check_reports_a_cycle(monkeypatch):
    # the failure messages are formatted only on failure: force one
    monkeypatch.setattr(acceptance.auxgraph, "find_cycle", lambda graph: [1, 2])
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^B = \(1,\): cycle under assignment \(\(1, 1, 1\),\)$"):
        acceptance.check_07_acyclic_representations()


def test_lucas_term_bound_reports_a_failed_count(monkeypatch):
    real = extremal.lucas_count_check
    monkeypatch.setattr(acceptance.extremal, "lucas_count_check",
                        lambda base, kind: real(base, kind)._replace(ok=False))
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^0 Lucas numbers in B\.B for \|B\| = 2$"):
        acceptance.check_06_lucas_term_bound()


def test_cover_bound_reports_a_failed_cover(monkeypatch):
    monkeypatch.setattr(acceptance.coverlemma, "verify_cover", lambda graph, seq: False)
    with pytest.raises(acceptance.CheckFailure,
                       match=r"^cover failed verification \(\|B\|=22, n=1\)$"):
        acceptance.check_08_cover_bound()


# selftest prints fixed text for checks 06 and 08, so only these digests see
# a redrawn corpus or a changed outcome: sha256 over one repr per line.  The
# cover corpus is dealt from capacity slots, bound of them per a-vertex
LUCAS_CORPUS_SHA256 = "273d4ca98c638905c58ed35b48aea6d14eaae922236a6e3cb3e765d333e03c64"
COVER_CORPUS_SHA256 = "453f6bdad74a7c130343ebc13a9c65d48dba6258a928c90649c2227e886b045e"


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_lucas_term_bound_corpus_and_reports_are_pinned(monkeypatch):
    seen = []
    real = extremal.lucas_count_check

    def recording(base, kind):
        report = real(base, kind)
        seen.append(repr((base, report)))
        return report

    monkeypatch.setattr(acceptance.extremal, "lucas_count_check", recording)
    acceptance.check_06_lucas_term_bound()
    assert len(seen) == 1010
    assert _sha256_lines(seen) == LUCAS_CORPUS_SHA256


def test_cover_bound_corpus_is_pinned(monkeypatch):
    seen = []

    class Recording(coverlemma.Bipartite):
        def __init__(self, adjacency):
            seen.append(repr(adjacency))
            super().__init__(adjacency)

    monkeypatch.setattr(acceptance.coverlemma, "Bipartite", Recording)
    acceptance.check_08_cover_bound()
    assert len(seen) == 500
    assert _sha256_lines(seen) == COVER_CORPUS_SHA256


def test_cover_bound_corpus_stays_demanding(monkeypatch):
    # the digest pins the corpus, this test what it must exercise: a corpus
    # that one greedy pass always covers leaves the lowered-bound passes of
    # cover_sequence untried
    graphs, passes = [], []
    greedy_pass, cover_sequence = coverlemma._greedy_pass, coverlemma.cover_sequence

    class Recording(coverlemma.Bipartite):
        def __init__(self, adjacency):
            super().__init__(adjacency)
            graphs.append(self)

    def counting_pass(b_order, adjacency):
        passes[-1] += 1
        return greedy_pass(b_order, adjacency)

    def counting_cover(graph):
        passes.append(0)
        return cover_sequence(graph)

    monkeypatch.setattr(acceptance.coverlemma, "Bipartite", Recording)
    monkeypatch.setattr(coverlemma, "_greedy_pass", counting_pass)
    monkeypatch.setattr(coverlemma, "cover_sequence", counting_cover)
    acceptance.check_08_cover_bound()
    assert len(graphs) == len(passes) == 500
    assert sum(count >= 2 for count in passes) >= 100
    assert {graph.degree_bound for graph in graphs} == {1, 2, 3, 4, 5}
    assert all(1 <= len(neighbours) <= 3
               for graph in graphs for neighbours in graph.adjacency.values())


def per_subset_acyclic(universe_max, max_size):
    """Reference for acceptance._acyclic_representations: every subset of
    {1..universe_max} with at most max_size elements, in lexicographic
    order, every assignment of its Fibonacci values to factor pairs, one
    graph each.  Returns the number of graphs and the first failure (None
    when every graph passes)."""
    fib_values, a, b = set(), 1, 2  # the recurrence, not the term table under test
    while a <= universe_max * universe_max:
        fib_values.add(a)
        a, b = b, a + b
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
