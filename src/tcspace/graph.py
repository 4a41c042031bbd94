"""Canonical graphs of finite metric spaces.

The canonical graph keeps exactly the pairs uv such that no third point w
satisfies d(u,w) + d(w,v) = d(u,v); its weighted path metric reproduces the
original metric.  The dropped pairs are the deletion mask that validation
kept on the space, proven there by metric._matrix_mask on the space's
scaled matrix: above 40 points by one min-plus step over the sure edges
when that step closes, otherwise by the definition itself.  Either shows
that the graph's path metric is the input metric, whether the space came from a distance matrix, from a
weighted graph or from restricting another space.
Its one adjacency holds the integer weights of that matrix, in units of
1/D for the space's D (the edges realise the metric, so D is their
weights' lcm too); neighbourhoods, degrees, edge lookup, the solver and
every path read it.
Each edge carries a fixed reference orientation (tail = smaller point
index) so that signed edge vectors are well defined.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, json_fields
from .metric import MetricSpace, _adjacency, _dijkstra
from .rational import frac_str


class Edge(NamedTuple):
    tail: int
    head: int
    weight: Fraction


@dataclass(frozen=True)
class CanonicalGraph:
    """Weighted graph on a metric space with a fixed reference orientation.

    Built by :func:`canonical_graph`.  Edges are ordered lexicographically
    by (tail, head).  adjacency[u] holds the (v, weight times D, edge index)
    arcs at u, D the space's denom (see metric._adjacency).  By the edge
    order, adjacency[u] is sorted by neighbour: smaller tails, then heads,
    which edge_index bisects.
    """

    space: MetricSpace
    edges: tuple[Edge, ...]
    adjacency: list = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int | None:
        """Index of the edge {u, v}, or None if not an edge."""
        arcs = self.adjacency[u] if 0 <= u < self.n else ()
        at = bisect_left(arcs, v, key=itemgetter(0))
        return arcs[at][2] if at < len(arcs) and arcs[at][0] == v else None

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def max_degree(self) -> int:
        return max(self.degrees())

    def endpoints_name(self, idx: int) -> tuple[str, str]:
        e = self.edges[idx]
        return self.space.points[e.tail], self.space.points[e.head]

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.space.points),
            "edges": [
                {"u": self.space.points[e.tail],
                 "v": self.space.points[e.head],
                 "w": frac_str(e.weight)}
                for e in self.edges
            ],
            "base": self.space.points[self.space.base_point],
        }

    def to_dot(self) -> str:
        """DOT digraph; arrowheads show the reference orientation."""
        lines = ["digraph canonical {"]
        for name in self.space.points:
            lines.append(f'  "{name}";')
        for e in self.edges:
            u, v = self.space.points[e.tail], self.space.points[e.head]
            lines.append(f'  "{u}" -> "{v}" [label="{frac_str(e.weight)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class UnionFind:
    """Disjoint sets of 0..n-1.  A union keeps the smaller root, so every
    root is the least member of its set."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        """Merge the sets of u and v; False if they were one set already."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[max(ru, rv)] = min(ru, rv)
        return True


def connected_components(n: int, pairs) -> list[int]:
    """Component label per vertex (labels are the minimal member indices)."""
    sets = UnionFind(n)
    for u, v in pairs:
        sets.union(u, v)
    return [sets.find(v) for v in range(n)]


def canonical_graph(space: MetricSpace) -> CanonicalGraph:
    """Canonical graph of a metric space, with reference orientation.

    An unordered pair {u, v} is an edge iff no w outside {u, v} satisfies
    d(u,w) + d(w,v) = d(u,v).  Tails are the smaller point indices.  Its
    weighted path metric reproduces the input metric exactly (so it is
    connected), proven by metric._matrix_mask in validation, for the
    deletion mask every space keeps.
    """
    mat = space.scaled
    tails, heads = np.nonzero(~space._deletion_mask)  # row-major: by (tail, head)
    upper = tails < heads  # each pair once, and no diagonal entry
    tails, heads = tails[upper], heads[upper]
    arcs = list(zip(tails.tolist(), heads.tolist(), mat[tails, heads].tolist()))
    exact = {w: Fraction(w, space.denom) for _, _, w in arcs}
    edges = tuple(Edge(i, k, exact[w]) for i, k, w in arcs)
    return CanonicalGraph(space, edges, _adjacency(space.n, arcs))


# --- deterministic shortest paths on the canonical graph ---------------------

def shortest_path_tree(graph: CanonicalGraph, source: int):
    """Dijkstra tree from `source`: (distances, predecessor edge indices).

    Deterministic: among equal-length paths the predecessor with the smaller
    vertex index wins, so every (source, target) pair has one fixed path.
    Runs on the integer weights of graph.adjacency, at zero flow and zero
    potentials, which keeps the ties, and returns Fraction distances.
    """
    denom = graph.space.denom
    dist, pred_edge = _dijkstra(graph.adjacency, [source], (), [0] * graph.m, [0] * graph.n)
    return [None if d is None else Fraction(d, denom) for d in dist], pred_edge


def tree_path(graph: CanonicalGraph, pred_edge, v: int) -> tuple[int, list[tuple[int, int]]]:
    """The path of a shortest-path tree (its predecessor edges) from its
    root to v: (root, (edge_index, sign) arcs from the root); sign +1 along
    the reference orientation, -1 against it.  The root is the first vertex
    without a predecessor edge, v itself when v has none."""
    arcs = []
    cur = v
    while (eidx := pred_edge[cur]) is not None:
        e = graph.edges[eidx]
        if e.head == cur:
            arcs.append((eidx, 1))
            cur = e.tail
        else:
            arcs.append((eidx, -1))
            cur = e.head
    arcs.reverse()
    return cur, arcs


# --- directed subgraphs -------------------------------------------------------

@dataclass(frozen=True)
class DirectedSubgraph:
    """A set of directed edges of a canonical graph.

    Arcs are (u, v) vertex-index pairs meaning u -> v; each underlying
    unordered pair must be a canonical-graph edge.  Both orientations of the
    same edge are representable (such a set is never a downhill graph, but
    it is a legal query).
    """

    graph: CanonicalGraph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.arcs:
            if self.graph.edge_index(u, v) is None:
                pu, pv = self.graph.space.points[u], self.graph.space.points[v]
                raise InvalidInput(f"({pu},{pv}) is not a canonical-graph edge")
            if (u, v) in seen:
                raise InvalidInput("duplicate directed edge")
            seen.add((u, v))
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    def __len__(self) -> int:
        return len(self.arcs)

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def edge_indices(self) -> frozenset[int]:
        return frozenset(self.graph.edge_index(u, v) for u, v in self.arcs)

    def to_json_obj(self) -> dict:
        pts = self.graph.space.points
        return {"edges": [{"u": pts[u], "v": pts[v]} for u, v in self.arcs]}

    @classmethod
    def from_json_obj(cls, graph: CanonicalGraph, obj: dict) -> DirectedSubgraph:
        (raw,) = json_fields(obj, "directed subgraph JSON needs 'edges'", "edges")
        if not isinstance(raw, list):
            raise InvalidInput("directed subgraph 'edges' must be a list")
        arcs = []
        for e in raw:
            u, v = json_fields(e, "each directed edge needs 'u' and 'v'", "u", "v")
            arcs.append((graph.space.index_of(u), graph.space.index_of(v)))
        return cls(graph, tuple(arcs))

    def to_dot(self) -> str:
        pts = self.graph.space.points
        lines = ["digraph directed {"]
        for u, v in self.arcs:
            lines.append(f'  "{pts[u]}" -> "{pts[v]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
