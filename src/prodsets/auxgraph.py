"""Representation graphs of sequence members over a base set.

Each member value a of the product set gets exactly one edge for a chosen
representation a = b1 * b2.  In ONE_CLASS mode the edge joins b1 and b2 on a
single copy of B (squares become self-loops); in TWO_CLASS mode it joins b1
in a left copy to b2 in a right copy, so self-loops cannot occur.  The
vertices of the copies are the strings "L:b" and "R:b".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .productset import SequenceMember

ONE_CLASS = "one"
TWO_CLASS = "two"


@dataclass(frozen=True)
class AuxGraph:
    mode: str
    base: tuple
    edges: tuple  # (b1, b2, value), b1 <= b2, exactly one per member value

    def __post_init__(self):
        if self.mode not in (ONE_CLASS, TWO_CLASS):
            raise ValueError(f"unknown mode: {self.mode!r}")
        seen_values = set()
        base_set = set(self.base)
        for b1, b2, value in self.edges:
            if b1 > b2:
                raise ValueError("edge endpoints must satisfy b1 <= b2")
            if b1 not in base_set or b2 not in base_set:
                raise ValueError("edge endpoint outside the base set")
            if b1 * b2 != value:
                raise ValueError(f"edge ({b1}, {b2}) does not represent {value}")
            if value in seen_values:
                raise ValueError(f"duplicate edge for value {value}")
            seen_values.add(value)

    @property
    def vertices(self) -> tuple:
        if self.mode == TWO_CLASS:
            return tuple(f"L:{b}" for b in self.base) + tuple(
                f"R:{b}" for b in self.base)
        return self.base

    @property
    def self_loops(self) -> tuple:
        if self.mode == TWO_CLASS:
            return ()
        return tuple(e for e in self.edges if e[0] == e[1])


def _member_value_pairs(member):
    if isinstance(member, SequenceMember):
        return member.value, member.pairs
    value, pairs = member
    return value, tuple(pairs)


def build_aux_graph(base, members, mode: str) -> AuxGraph:
    """One edge per member value, choosing the smallest factor pair.

    ``base`` is any iterable of base elements; ``members`` is an iterable
    of SequenceMember or (value, pairs) entries; a value with no factor pair
    is an error.
    """
    edges = []
    for member in members:
        value, pairs = _member_value_pairs(member)
        if not pairs:
            raise ValueError(f"value {value} has no factor pair over the base set")
        b1, b2 = min(tuple(sorted(p)) for p in pairs)
        edges.append((b1, b2, value))
    return AuxGraph(mode, tuple(sorted(set(base))), tuple(edges))


def _edge_endpoints(graph: AuxGraph):
    """Vertex-label endpoints of each edge, skipping self-loops."""
    out = []
    for b1, b2, _ in graph.edges:
        if graph.mode == TWO_CLASS:
            out.append((f"L:{b1}", f"R:{b2}"))
        elif b1 != b2:
            out.append((b1, b2))
    return out


def _walk(graph: AuxGraph) -> tuple[Optional[list], int]:
    """One union-find pass over the non-loop edges in order: the first
    cycle (the path that closes it, as find_cycle reports it, or None) and
    the number of unions that merged two components."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    adjacency: dict = {}
    cycle = None
    merges = 0
    for u, v in _edge_endpoints(graph):
        ru, rv = find(u), find(v)
        if ru == rv:
            if cycle is None:
                cycle = _bfs_path(adjacency, u, v)
            continue
        parent[ru] = rv
        merges += 1
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    return cycle, merges


def find_cycle(graph: AuxGraph) -> Optional[list]:
    """A cycle of >= 2 distinct edges, as a vertex list v0, v1, ..., vk
    (meaning v0-v1-...-vk-v0); None when the graph is a forest.

    Self-loops never participate; a repeated vertex pair counts as a 2-cycle.
    """
    return _walk(graph)[0]


def _bfs_path(adjacency, start, goal):
    if start == goal:
        return [start]
    queue = deque([start])
    came_from = {start: None}
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, ()):
            if nxt not in came_from:
                came_from[nxt] = node
                if nxt == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(came_from[path[-1]])
                    path.reverse()
                    return path
                queue.append(nxt)
    raise RuntimeError("endpoints not connected despite matching roots")


@dataclass(frozen=True)
class EdgeBoundReport:
    mode: str
    num_vertices: int
    num_edges: int
    num_self_loops: int
    num_components: int
    acyclic: bool
    forest_bound_ok: Optional[bool]  # non-loop edges <= vertices - 1; None if cyclic
    cycle: Optional[list]            # as find_cycle returns it


def edge_bound_report(graph: AuxGraph) -> EdgeBoundReport:
    """Edge/vertex counts, the first cycle (ignoring self-loops), components
    and the forest bound, from one union-find pass."""
    vertices = graph.vertices
    loops = len(graph.self_loops)
    cycle, merges = _walk(graph)
    forest_ok: Optional[bool] = None
    if cycle is None:
        forest_ok = len(graph.edges) - loops <= len(vertices) - 1
    return EdgeBoundReport(graph.mode, len(vertices), len(graph.edges), loops,
                           len(vertices) - merges, cycle is None, forest_ok, cycle)


def dump_edges_csv(graph: AuxGraph) -> str:
    """Edge list as ``b1,b2,value`` lines (exact number strings)."""
    lines = [f"{b1},{b2},{value}" for b1, b2, value in graph.edges]
    return "\n".join(lines) + ("\n" if lines else "")
