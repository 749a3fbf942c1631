"""Representation graphs of sequence members over a base set.

Each member value a of the product set gets exactly one edge for a chosen
representation a = b1 * b2.  In ONE_CLASS mode the edge joins b1 and b2 on a
single copy of B (squares become self-loops); in TWO_CLASS mode it joins b1
in a left copy to b2 in a right copy, so self-loops cannot occur.  The
vertices of the copies are the strings "L:b" and "R:b".  Cycles and
components come from one forest walk over the edges in order.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional

ONE_CLASS = "one"
TWO_CLASS = "two"


# edges: (b1, b2, value), b1 <= b2, exactly one per member value
class AuxGraph(namedtuple("AuxGraph", "mode base edges")):
    __slots__ = ()

    def __new__(cls, mode: str, base: tuple, edges: tuple):
        if mode not in (ONE_CLASS, TWO_CLASS):
            raise ValueError(f"unknown mode: {mode!r}")
        seen_values = set()
        base_set = set(base)
        for b1, b2, value in edges:
            if b1 > b2:
                raise ValueError("edge endpoints must satisfy b1 <= b2")
            if b1 not in base_set or b2 not in base_set:
                raise ValueError("edge endpoint outside the base set")
            if b1 * b2 != value:
                raise ValueError(f"edge ({b1}, {b2}) does not represent {value}")
            if value in seen_values:
                raise ValueError(f"duplicate edge for value {value}")
            seen_values.add(value)
        return super().__new__(cls, mode, base, edges)

    _make = classmethod(lambda cls, fields: cls(*fields))   # _replace validates too

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


def build_aux_graph(base, members, mode: str) -> AuxGraph:
    """One edge per member value, choosing the smallest factor pair.

    ``base`` is any iterable of base elements; ``members`` is an iterable
    of ``productset.SequenceMember``; a value with no factor pair is an
    error.
    """
    edges = []
    for m in members:
        if not m.pairs:
            raise ValueError(f"value {m.value} has no factor pair over the base set")
        edges.append((*min(m.pairs), m.value))
    return AuxGraph(mode, tuple(sorted(set(base))), tuple(edges))


def _forest_path(forest, start, goal) -> Optional[list]:
    """The vertex path from start to goal in the forest (an adjacency
    dict), or None when they lie in different trees."""
    if start not in forest or goal not in forest:
        return None
    toward_goal = {goal: None}        # a search from goal; tree paths are unique
    stack = [goal]
    while stack and start not in toward_goal:
        node = stack.pop()
        for nxt in forest[node]:
            if nxt not in toward_goal:
                toward_goal[nxt] = node
                stack.append(nxt)
    if start not in toward_goal:
        return None
    path = [start]
    while path[-1] != goal:
        path.append(toward_goal[path[-1]])
    return path


def _walk(graph: AuxGraph) -> tuple[Optional[list], int]:
    """One forest walk over the non-loop edges in order: the forest path
    joining the ends of the first edge that closes a cycle (or None), and
    the number of edges that joined the forest, merging two components."""
    forest: dict = {}
    cycle = None
    merges = 0
    for b1, b2, _ in graph.edges:
        u, v = (f"L:{b1}", f"R:{b2}") if graph.mode == TWO_CLASS else (b1, b2)
        if u == v:
            continue
        path = _forest_path(forest, u, v)
        if path is None:
            forest.setdefault(u, []).append(v)
            forest.setdefault(v, []).append(u)
            merges += 1
        elif cycle is None:
            cycle = path
    return cycle, merges


def find_cycle(graph: AuxGraph) -> Optional[list]:
    """A cycle of >= 2 distinct edges, as a vertex list v0, v1, ..., vk
    (meaning v0-v1-...-vk-v0); None when the graph is a forest.

    Self-loops never participate; a repeated vertex pair counts as a 2-cycle.
    """
    return _walk(graph)[0]


class EdgeBoundReport(NamedTuple):
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
    and the forest bound, from one forest walk."""
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
