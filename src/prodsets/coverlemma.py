"""Fresh-neighbour cover sequences in degree-bounded bipartite graphs.

Given a bipartite graph in which every b-vertex has degree >= 1 and n is the
largest a-degree, ``cover_sequence`` returns b-vertices b_1, ..., b_k
such that each b_i is adjacent to an a-vertex that no earlier b_j touches,
with k * n >= |B| guaranteed.  A single greedy pass is attempted first; when
it keeps too few vertices, the kept ones are dropped and the pass is
repeated with the degree bound lowered by one (every a-vertex with any edge
was adjacent to a kept b, so it loses an edge).
"""

from __future__ import annotations

from typing import Mapping, Sequence


class Bipartite:
    """Bipartite graph given by its ``b -> neighbours`` mapping.

    The mapping's order is the b-order; the a-vertices are the distinct
    neighbours in order of first appearance, and ``degree_bound`` is the
    largest a-degree (1 for the empty graph), the n of k * n >= |B|.
    """

    __slots__ = ("a_vertices", "b_vertices", "adjacency", "degree_bound")

    def __init__(self, adjacency: Mapping):
        adj = {}
        degree: dict = {}
        for b, neighbours in adjacency.items():
            neighbours = tuple(dict.fromkeys(neighbours))
            if not neighbours:
                raise ValueError(f"b-vertex {b!r} has degree 0")
            for a in neighbours:
                degree[a] = degree.get(a, 0) + 1
            adj[b] = neighbours
        self.a_vertices = tuple(degree)
        self.b_vertices = tuple(adj)
        self.adjacency = adj
        self.degree_bound = max(degree.values(), default=1)


def cover_sequence(graph: Bipartite) -> list:
    """Ordered b-vertices with fresh neighbourhood prefixes, k * n >= |B|."""
    b_order, bound = list(graph.b_vertices), graph.degree_bound
    while True:
        kept = _greedy_pass(b_order, graph.adjacency)
        if bound <= 1 or len(kept) * bound >= len(b_order):
            return kept
        removed = set(kept)
        b_order = [b for b in b_order if b not in removed]
        bound -= 1


def _greedy_pass(b_order, adjacency):
    kept, covered = [], set()
    for b in b_order:
        neighbours = adjacency[b]
        if not covered.issuperset(neighbours):
            kept.append(b)
            covered.update(neighbours)
    return kept


def verify_cover(graph: Bipartite, sequence: Sequence) -> bool:
    """True iff the sequence is nonempty, repeat-free, and every entry is
    adjacent to an a-vertex untouched by the earlier entries."""
    if not sequence or len(set(sequence)) != len(sequence):
        return False
    covered: set = set()
    for b in sequence:
        neighbours = graph.adjacency.get(b)
        if neighbours is None or covered.issuperset(neighbours):
            return False
        covered.update(neighbours)
    return True
