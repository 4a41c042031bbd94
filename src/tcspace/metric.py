"""Finite metric spaces with exact rational distances.

A :class:`MetricSpace` is an ordered list of named points, a symmetric
matrix of Fraction distances, and a distinguished base point.  Validation
checks every metric axiom exactly; the triangle scan is vectorized by
scaling all distances to a common integer denominator (exactness is
preserved, numpy only compares integers).

The module also computes exact shortest-path metrics of weighted graphs,
which is how generated families and weighted-graph JSON inputs become
metric spaces.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    InvalidInput,
    NegativeDistance,
    NonSymmetric,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
)
from .rational import frac_str, to_fraction

# Scaled integers above this bound fall back to pure-Python checks; below it
# an int64 sum of two entries cannot overflow.
_INT64_SAFE = 2**59


@dataclass(frozen=True)
class MetricSpace:
    """Finite metric space: named points, exact distances, base point.

    Instances are built by :func:`validate_metric` (or by the family
    generators, which validate too); the constructor itself trusts its input.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    base_point: int = 0
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({name: i for i, name in enumerate(self.points)})

    @property
    def n(self) -> int:
        return len(self.points)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InvalidInput(f"unknown point {name!r}") from None

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def d_name(self, u: str, v: str) -> Fraction:
        return self.dist[self.index_of(u)][self.index_of(v)]

    def restrict(self, indices: list[int], base: int | None = None) -> MetricSpace:
        """Submetric on the given point indices (order preserved).

        The base point defaults to the first retained point unless `base`
        names an index *within the restricted list*.
        """
        pts = tuple(self.points[i] for i in indices)
        rows = tuple(tuple(self.dist[i][j] for j in indices) for i in indices)
        return MetricSpace(pts, rows, base if base is not None else 0)

    def with_base(self, name: str) -> MetricSpace:
        return MetricSpace(self.points, self.dist, self.index_of(name))

    def to_json_obj(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[frac_str(x) for x in row] for row in self.dist],
            "base": self.points[self.base_point],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> MetricSpace:
        try:
            points = obj["points"]
            dist = obj["dist"]
        except (TypeError, KeyError) as exc:
            raise InvalidInput("space JSON needs 'points' and 'dist'") from exc
        return validate_metric(points, dist, base=obj.get("base"))


def _scaled_int_rows(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[list[list[int]], int]:
    """Multiply all entries by the lcm of denominators; exact integers."""
    denom = 1
    for row in rows:
        for x in row:
            denom = lcm(denom, x.denominator)
    scaled = [[int(x.numerator * (denom // x.denominator)) for x in row] for row in rows]
    return scaled, denom


def _first_triangle_violation(rows) -> tuple[int, int, int] | None:
    """First (i, j, k) with d(i,k) > d(i,j) + d(j,k), in midpoint-major order."""
    n = len(rows)
    scaled, _ = _scaled_int_rows(rows)
    peak = max(max(r) for r in scaled) if n else 0
    if peak < _INT64_SAFE:
        mat = np.array(scaled, dtype=np.int64)
        for j in range(n):
            via = mat[:, j][:, None] + mat[j, :][None, :]
            bad = np.argwhere(mat > via)
            if bad.size:
                i, k = map(int, bad[0])
                return i, j, k
        return None
    for j in range(n):
        rj = scaled[j]
        for i in range(n):
            dij = scaled[i][j]
            ri = scaled[i]
            for k in range(n):
                if ri[k] > dij + rj[k]:
                    return i, j, k
    return None


def metric_violations(points, dist) -> list:
    """All metric-axiom violations as a list of exception objects (no raise).

    Structural problems (non-square matrix, bad literals) still raise
    InvalidInput since no per-axiom report is possible for them.
    """
    return _axiom_violations(*_coerce_matrix(points, dist))


def _axiom_violations(names, rows) -> list:
    """metric_violations on names and rows already coerced to Fractions."""
    out = []
    n = len(names)
    for i in range(n):
        if rows[i][i] != 0:
            out.append(InvalidInput(f"self-distance of {names[i]!r} must be 0"))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                out.append(NonSymmetric(
                    f"d({names[i]},{names[j]}) != d({names[j]},{names[i]})",
                    (names[i], names[j])))
            elif rows[i][j] < 0:
                out.append(NegativeDistance(
                    f"d({names[i]},{names[j]}) < 0", (names[i], names[j])))
            elif rows[i][j] == 0:
                out.append(ZeroDistanceDistinctPoints(
                    f"d({names[i]},{names[j]}) = 0 for distinct points",
                    (names[i], names[j])))
    if not out:
        hit = _first_triangle_violation(rows)
        if hit is not None:
            i, j, k = hit
            out.append(TriangleViolation(
                f"d({names[i]},{names[k]}) > d({names[i]},{names[j]}) + "
                f"d({names[j]},{names[k]})",
                (names[i], names[j], names[k])))
    return out


def _coerce_matrix(points, dist):
    names = tuple(str(p) for p in points)
    if len(set(names)) != len(names):
        raise InvalidInput("point names must be distinct")
    if len(names) < 2:
        raise InvalidInput("a metric space needs at least 2 points")
    if len(dist) != len(names):
        raise InvalidInput("distance matrix must be square, one row per point")
    rows = []
    for row in dist:
        if len(row) != len(names):
            raise InvalidInput("distance matrix must be square, one row per point")
        rows.append(tuple(to_fraction(x) for x in row))
    return names, tuple(rows)


def validate_metric(points, dist, base=None) -> MetricSpace:
    """Validate all metric axioms and return the MetricSpace.

    Raises the first violation found (NonSymmetric, NegativeDistance,
    ZeroDistanceDistinctPoints, or TriangleViolation, each carrying the
    offending points).  `base` may be a point name or an index; it defaults
    to the first point.
    """
    names, rows = _coerce_matrix(points, dist)
    violations = _axiom_violations(names, rows)
    if violations:
        raise violations[0]
    if base is None:
        base_idx = 0
    elif isinstance(base, int):
        if not 0 <= base < len(names):
            raise InvalidInput(f"base index {base} out of range")
        base_idx = base
    else:
        if base not in names:
            raise InvalidInput(f"base point {base!r} not among the points")
        base_idx = names.index(base)
    return MetricSpace(names, rows, base_idx)


# --- shortest-path metrics of weighted graphs --------------------------------

def path_metric(n: int, edges: list[tuple[int, int, Fraction]]) -> list[list[Fraction]]:
    """Exact all-pairs shortest-path matrix of a connected weighted graph.

    `edges` are undirected (u, v, w) with u != v and w > 0.  Uniform-weight
    graphs use BFS; general weights use Dijkstra over integer-scaled weights.
    Raises InvalidInput if the graph is disconnected or a weight is invalid.
    """
    for u, v, w in edges:
        if u == v:
            raise InvalidInput("self-loops are not allowed")
        if w <= 0:
            raise InvalidInput("edge weights must be positive")
    denom = 1
    for _, _, w in edges:
        denom = lcm(denom, w.denominator)
    iw = [int(w.numerator * (denom // w.denominator)) for _, _, w in edges]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v, _), w in zip(edges, iw):
        adj[u].append((v, w))
        adj[v].append((u, w))

    uniform = len(set(iw)) <= 1
    rows: list[list[Fraction]] = []
    for s in range(n):
        if uniform and edges:
            hops = _bfs_hops(n, adj, s)
            w0 = Fraction(iw[0], denom)
            row = [None if h is None else h * w0 for h in hops]
        else:
            ints = _dijkstra_int(n, adj, s)
            row = [None if x is None else Fraction(x, denom) for x in ints]
        if any(x is None for x in row):
            raise InvalidInput("graph is not connected")
        rows.append(row)
    return rows


def single_source_distances(n: int, edges: list[tuple[int, int, Fraction]],
                            source: int) -> list[Fraction | None]:
    """One row of the shortest-path metric (None marks unreachable)."""
    denom = 1
    for _, _, w in edges:
        denom = lcm(denom, w.denominator)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        iw = int(w.numerator * (denom // w.denominator))
        adj[u].append((v, iw))
        adj[v].append((u, iw))
    ints = _dijkstra_int(n, adj, source)
    return [None if x is None else Fraction(x, denom) for x in ints]


def _bfs_hops(n, adj, source):
    hops = [None] * n
    hops[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if hops[v] is None:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def _dijkstra_int(n, adj, source):
    dist = [None] * n
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (d + w, v))
    return dist


def space_from_weighted_graph(vertices, edges, base=None) -> MetricSpace:
    """Metric space of a connected weighted graph (path metric).

    `edges` is a list of (u_name, v_name, weight-literal).  Note the result
    remembers only the metric: rebuilding the canonical graph may drop edges
    that lie on shortest paths through other vertices.
    """
    names = tuple(str(v) for v in vertices)
    if len(set(names)) != len(names):
        raise InvalidInput("vertex names must be distinct")
    index = {v: i for i, v in enumerate(names)}
    seen = set()
    idx_edges = []
    for u, v, w in edges:
        if u not in index or v not in index:
            raise InvalidInput(f"edge ({u},{v}) uses an unknown vertex")
        key = (min(index[u], index[v]), max(index[u], index[v]))
        if key in seen:
            raise InvalidInput(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
        idx_edges.append((index[u], index[v], to_fraction(w)))
    rows = path_metric(len(names), idx_edges)
    return validate_metric(names, rows, base=base)


def weighted_graph_json_to_space(obj: dict) -> MetricSpace:
    """Parse {"vertices": [...], "edges": [{"u","v","w"}], "base": ...}."""
    try:
        vertices = obj["vertices"]
        raw_edges = obj["edges"]
    except (TypeError, KeyError) as exc:
        raise InvalidInput("graph JSON needs 'vertices' and 'edges'") from exc
    edges = []
    for e in raw_edges:
        try:
            edges.append((e["u"], e["v"], e["w"]))
        except (TypeError, KeyError) as exc:
            raise InvalidInput("each edge needs 'u', 'v', 'w'") from exc
    return space_from_weighted_graph(vertices, edges, base=obj.get("base"))
