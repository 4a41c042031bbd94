"""Finite metric spaces with exact rational distances: the integer metric core.

A :class:`MetricSpace` is an ordered list of named points, a distinguished
base point, and its distances in one canonical integer form: D, the lcm of
their denominators, and the matrix of distances times D (exact; numpy only
compares integers, at the narrowest of int8, int16, int32 and int64 in which
a sum of two entries cannot wrap, or as Python ints past that: `_int_dtype`).
Fractions live at the boundary: each distinct input literal is parsed once
(a matrix's also scaled once), each distinct distance printed once, and
`dist` is a view built when read; integer distances given with their unit
skip the literals (validate_scaled).  The diagonal, symmetry and sign tests
are vectorized.  A distance matrix's triangle inequality and the canonical
graph's deletion mask come from _matrix_mask, by one of two routes.  Above
40 points (the gate, _dense_fits, reuses the min-plus block size) it first
tries a certificate: the sure edges (pairs closer than the sum of their
ends' least distances have no midpoint) and one min-plus step over them;
if that step gives the matrix back, the mask is the complement of the sure
edges, O(m n) on uniform-weight families instead of O(n^3).  Otherwise,
and up to 40 points, the definition decides, over blocks of the n^3 sums
d(i,j) + d(j,k), which also give a matrix that is not a metric its first
violation.  The validated space keeps the mask for graph.canonical_graph.

Shortest-path metrics of weighted graphs meet the same _matrix_mask, at a
unit in which every weight is an integer, and two O(m) checks on the input
edges: no weight is below its distance, and every canonical pair is an edge
whose weight is its distance (_path_space).  Then the matrix is the
graph's path metric, and the mask is right.  Every graph comes to
_path_space in integers: its edges by point index, weights and distances
both in units of 1/D.  Weighted-graph JSON, random graphs, path_metric and
hand-made two-port graphs get their matrix from one integer
Floyd-Warshall (named graphs through _graph_level).  The family generators
know theirs from the construction: a grid's from its coordinates, and a
two-port composition's (diamonds, K_{2,n} recursions) from the metrics of
its two parts (_substitute, no search).  A wrong matrix from either fails
an assertion, never a TriangleViolation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import gcd, lcm

import numpy as np

from .errors import (
    InvalidInput,
    NegativeDistance,
    NonSymmetric,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    json_fields,
)
from .rational import frac_str, to_fraction

# Below this bound an int64 sum of two integers cannot overflow (_int_dtype).
_INT64_SAFE = 2**59
# The width ladder: (dtype, bound), narrowest first.  A sum of two integers of
# magnitude below the bound lies strictly inside the dtype's range.
_INT_WIDTHS = ((np.int8, 2**6), (np.int16, 2**14), (np.int32, 2**30),
               (np.int64, _INT64_SAFE))
# The fewest entries one block of sums may hold (_block_rows), so that a
# small space is checked in one block.
_MIN_PLUS_BLOCK = 1 << 16


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Finite metric space: named points, exact distances, base point.

    `scaled` (read-only) is the distances times `denom`, the lcm of their
    denominators; `dist` is their Fraction view, one object per distinct
    value, built when first read.  Equality is by value.  Instances are
    built by :func:`validate_metric` (or by the family generators and
    :meth:`restrict`, which validate too); the constructor itself trusts its
    input.  Every instance keeps the canonical graph's deletion mask, proven
    by _matrix_mask, whether the distances came as a matrix or as a
    weighted graph's path metric.
    """

    points: tuple[str, ...]
    denom: int
    scaled: np.ndarray
    base_point: int = 0
    _index: dict = field(default_factory=dict, repr=False)
    _deletion_mask: np.ndarray = field(repr=False, kw_only=True)

    def __post_init__(self):
        self.scaled.setflags(write=False)  # the flags.writeable setter leaks a little
        self._index.update({name: i for i, name in enumerate(self.points)})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MetricSpace) and self.points == other.points
                and self.denom == other.denom and self.base_point == other.base_point
                and np.array_equal(self.scaled, other.scaled))

    def __hash__(self) -> int:
        return hash((self.points, self.denom, self.base_point))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fraction_rows(self.scaled.tolist(), self.denom)

    @property
    def n(self) -> int:
        return len(self.points)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: a JSON list or object as a name
            raise InvalidInput(f"unknown point {name!r}") from None

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def restrict(self, indices: list[int]) -> MetricSpace:
        """Submetric on the given point indices (order preserved), based at
        the first of them, validated like any matrix (_validated), so that
        it carries its own proven mask."""
        pts = tuple(self.points[i] for i in indices)
        return _validated(pts, *_int_matrix(self.scaled[np.ix_(indices, indices)],
                                            self.denom))

    def to_json_obj(self) -> dict:
        rows = self.scaled.tolist()
        text = _distance_literals(rows, self.denom)
        return {
            "points": list(self.points),
            "dist": [list(map(text.__getitem__, row)) for row in rows],
            "base": self.points[self.base_point],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> MetricSpace:
        points, dist = json_fields(obj, "space JSON needs 'points' and 'dist'", "points", "dist")
        # JSON arrays only: the Python API takes any iterable, which would
        # split a string into characters.
        if not (isinstance(points, list) and isinstance(dist, list)
                and all(isinstance(row, list) for row in dist)):
            raise InvalidInput("'points' must be a list of names and 'dist' a list of rows")
        return validate_metric(points, dist, base=obj.get("base"))


def _distance_literals(rows: list[list[int]], denom: int) -> dict[int, str]:
    """Each distinct integer of the rows, divided by denom, as its JSON
    literal (frac_str): the one formatting rule of to_json_obj and of the
    command line's space writer."""
    return {x: frac_str(Fraction(x, denom)) for x in set().union(*rows)}


def _int_dtype(peak: int):
    """For integers of magnitude at most peak: the narrowest of int8, int16,
    int32 and int64 in which a sum of two of them cannot wrap, else Python
    ints (object dtype).  All of them run the same numpy code, and the
    narrower the dtype the faster the min-plus step and _floyd_warshall."""
    return next((dtype for dtype, bound in _INT_WIDTHS if peak < bound), object)


def _int_matrix(mat: np.ndarray, denom: int) -> tuple[int, np.ndarray]:
    """The distances mat / denom (nonnegative integers) in the canonical form:
    (D, the distances times D at dtype _int_dtype), D their least common
    denominator, denom over its gcd with the entries."""
    g = gcd(denom, int(np.gcd.reduce(mat, axis=None)))
    if g > 1 and mat.any():  # then g <= max entry, so it fits mat's dtype
        mat = mat // g
    return denom // g, mat.astype(_int_dtype(int(mat.max())), copy=False)


def _matrix_mask(mat: np.ndarray) -> tuple[tuple[int, int, int] | None, np.ndarray | None]:
    """((i, j, k), None) for a scaled matrix with zero diagonal and positive
    entries elsewhere that is not a metric, (i, j, k) its first triangle
    violation d(i,k) > d(i,j) + d(j,k) over the midpoints j and then in
    row-major order, else (None, mask),
    mask[i, k] true iff some j outside {i, k} gives d(i,j) + d(j,k) =
    d(i,k): the pairs the canonical graph drops.  Two routes decide it.

    A matrix above the _dense_fits gate first tries a certificate.  With
    delta_u the least distance from u, a pair with mat[u, v] < delta_u +
    delta_v has no midpoint (any third point j has mat[u, j] + mat[j, v] >=
    delta_u + delta_v): a sure edge, and each point's nearest neighbour is
    one.  One min-plus step over the sure edges (_min_plus) then checks
    Bellman's equation: mat[u, k] is the least w + mat[v, k] over the sure
    edges (u, v, w) at u, for every k != u.  If it holds, each pair has a
    first edge whose far end v has mat[v, k] < mat[u, k] (w > 0), so by
    induction some path from u to k has length mat[u, k]; along any path
    the step gives mat[x_i, k] <= w(x_i, x_i+1) + mat[x_i+1, k], so none is
    shorter.  Then mat is the path metric of the sure edges (the
    positive-weight Bellman fixpoint; Ahuja-Magnanti-Orlin, Network Flows,
    ch. 4-5), hence a metric, and every other pair has a midpoint: the mask
    is the complement of the sure edges, in O(m n) instead of O(n^3).
    Uniform-weight families (diamonds, grids, K_{2,n} recursions) end here.

    Otherwise, and for every matrix up to the gate, the definition decides,
    over blocks of rows i (_block_rows; one block up to 40 points) of the
    sums via[i, j, k] = d(i,j) + d(j,k): mat is a metric iff no minimum over
    j lies below d(i,k), and then a pair is dropped iff it has a third hit
    besides j = i and j = k.  A block with a minimum below d(i,k) gives its
    first violation, least j, then least i and k; a later block, of larger
    i, can only win with a smaller j, so it is searched below that j alone.

    The certificate fails on uneven path metrics, whose sure edges miss
    canonical pairs; above the gate they pay one min-plus step and the
    O(n^3) definition.  Of the benchmark's workloads at seeds 1, 2, 3 and
    12, only norm-large's 64-point space at seed 2 leaves the step open.
    """
    n = len(mat)
    if not _dense_fits(mat):
        near = mat.copy()
        np.fill_diagonal(near, mat.max())
        delta = near.min(axis=1)
        keep = mat < np.add(delta[:, None], delta, out=near)
        np.fill_diagonal(keep, False)
        if all(np.array_equal(best, mat[rows]) for rows, best in _min_plus(mat, keep)):
            drop = np.logical_not(keep, out=keep)
            np.fill_diagonal(drop, False)
            return None, drop
    drop = np.empty((n, n), dtype=bool)
    hit = None
    step = _block_rows(mat, mat.size)
    for lo in range(0, n, step):
        rows = mat[lo:lo + step]
        via = rows[:, :, None] + mat
        if hit is None and not (via.min(axis=1) < rows).any():
            drop[lo:lo + step] = (via == rows[:, None, :]).sum(axis=1) > 2
            continue
        bad = via[:, :n if hit is None else hit[1]] < rows[:, None, :]  # [i, j, k]
        js = np.flatnonzero(bad.any(axis=(0, 2)))
        if len(js):
            j = int(js[0])
            i, k = divmod(int(bad[:, j].argmax()), n)  # first in row-major order
            hit = (lo + i, j, k)
    return (None, drop) if hit is None else (hit, None)


def _dense_fits(mat: np.ndarray) -> bool:
    """Whether _matrix_mask goes straight to the definition: when mat's n^3
    sums fit one block of _MIN_PLUS_BLOCK entries (n <= 40).  Up to there
    the definition ran faster than the certificate, at every width and on
    Python ints; the certificate wins from about n = 48 on, by 3-4x at
    n = 96-128, wherever it closes."""
    return len(mat) * mat.size <= _MIN_PLUS_BLOCK


def _block_rows(mat: np.ndarray, width: int) -> int:
    """How many rows of width entries one block of sums holds: at most the
    larger of mat's size and _MIN_PLUS_BLOCK entries, and at least one row."""
    return max(1, max(mat.size, _MIN_PLUS_BLOCK) // width)


def _min_plus(mat: np.ndarray, keep: np.ndarray):
    """One min-plus step of a scaled matrix over the graph of keep
    (symmetric, false on the diagonal, every point in some pair), block by
    block: yields (rows, best), best[i, k] the least mat[u, v] + mat[v, k]
    over the pairs {u, v} of keep for u = rows[i] and k != u, and best[i, u]
    = 0.  A caller may stop after any block.

    Runs at mat's dtype, over blocks of points of like degree (the most
    edges first), each point's edges padded to the block's largest degree
    by repeating its last: a block's sums, points x degree x n entries, are
    at most the larger of _MIN_PLUS_BLOCK and mat's size.  (Unpadded
    blocks of consecutive points reduced by np.minimum.reduceat give the
    same answer but ran 4x slower on diamond(5) and grid(16): numpy's
    reduceat does not vectorize the per-point minimum.)
    """
    n = len(mat)
    deg = keep.sum(axis=1)
    # sorted, not np.argsort: numpy's sort kernels add 0.2-0.4 MB of resident
    # memory to a process that sorts nothing else.
    order = np.array(sorted(range(n), key=deg.tolist().__getitem__, reverse=True))
    lo = 0
    while lo < n:
        top = int(deg[order[lo]])
        hi = min(n, lo + _block_rows(mat, top * n))
        rows = order[lo:hi]
        degs = deg[rows]
        heads = np.nonzero(keep[rows])[1]  # row by row
        nbrs = heads[(np.cumsum(degs) - degs)[:, None]
                     + np.minimum(np.arange(top), degs[:, None] - 1)]
        via = mat[nbrs]
        via += mat[rows[:, None], nbrs][..., None]
        best = via.min(axis=1)
        best[np.arange(hi - lo), rows] = 0  # k = u is not compared
        yield rows, best
        lo = hi


def metric_violations(points, dist) -> list:
    """All metric-axiom violations as a list of exception objects (no raise).

    Structural problems (non-square matrix, bad literals) still raise
    InvalidInput since no per-axiom report is possible for them.
    """
    names, _, mat = _coerce_matrix(points, dist)
    return _violations(names, mat)[0]


def _violations(names, mat: np.ndarray) -> tuple[list, np.ndarray | None]:
    """(metric_violations, deletion mask or None) of a scaled matrix: the
    diagonal, then each pair i < j in row-major order (asymmetry before
    sign), then, on an otherwise clean matrix, the triangle inequality and
    the mask, both by the certified _matrix_mask."""
    out: list = [InvalidInput(f"self-distance of {names[i]!r} must be 0")
                 for i in np.flatnonzero(np.diagonal(mat) != 0)]
    n = len(mat)
    # With a zero diagonal, one all-clear test (symmetric, n^2 - n positive
    # entries) is cheaper than the per-pair list it makes unnecessary.
    if out or not ((mat == mat.T).all() and np.count_nonzero(mat > 0) == n * n - n):
        bad = np.triu((mat != mat.T) | (mat <= 0), 1)
        for i, j in zip(*np.nonzero(bad)):
            a, b = pair = (names[i], names[j])
            if mat[i, j] != mat[j, i]:
                out.append(NonSymmetric(f"d({a},{b}) != d({b},{a})", pair))
            elif mat[i, j] < 0:
                out.append(NegativeDistance(f"d({a},{b}) < 0", pair))
            else:
                out.append(ZeroDistanceDistinctPoints(f"d({a},{b}) = 0 for distinct points",
                                                      pair))
    if out:
        return out, None
    hit, mask = _matrix_mask(mat)
    if hit is not None:
        i, j, k = (names[x] for x in hit)
        out.append(TriangleViolation(f"d({i},{k}) > d({i},{j}) + d({j},{k})", (i, j, k)))
    return out, mask


def _read_literals(entries: list) -> dict:
    """{literal: its Fraction} over the entries, each distinct literal
    parsed by to_fraction once, in order of first occurrence, so that the
    first invalid literal raises first.  Only str, int (not bool) and
    Fraction entries, subclasses included, are read: the first entry of
    any other type stops the reading, and after the literals before it it
    goes to to_fraction, which rejects every other type.  Among the types
    read only equal values hash alike (1 and Fraction(1) parse to the same
    value), so True, 1.0 and unhashable entries never share a key with a
    valid literal.  C-level passes: one over the types, one dict.fromkeys.
    """
    odd = {t for t in set(map(type, entries))
           if t is bool or not issubclass(t, (str, int, Fraction))}
    cut = len(entries)
    if odd:
        cut = next(i for i, t in enumerate(map(type, entries)) if t in odd)
    literals = dict.fromkeys(islice(entries, cut))
    for x in literals:
        literals[x] = to_fraction(x)
    if cut < len(entries):
        to_fraction(entries[cut])
        raise AssertionError("to_fraction rejects every type but str, int and Fraction")
    return literals


def _coerce_matrix(points, dist) -> tuple[tuple[str, ...], int, np.ndarray]:
    """(names, D, the distances times D at _int_dtype width), D their lcm.
    Entries are read in row-major order up to the first row of the wrong
    length, which raises after the literals before it (_read_literals); one
    np.fromiter gather builds the matrix."""
    try:
        names = tuple(str(p) for p in points)
        dist = [list(row) for row in dist]
    except TypeError as exc:
        raise InvalidInput("'points' must be a list of names and 'dist' a list of rows") from exc
    if len(set(names)) != len(names):
        raise InvalidInput("point names must be distinct")
    n = len(names)
    if n < 2:
        raise InvalidInput("a metric space needs at least 2 points")
    if len(dist) != n:
        raise InvalidInput("distance matrix must be square, one row per point")
    square = next((r for r, length in enumerate(map(len, dist)) if length != n), n)
    flat = list(chain.from_iterable(dist[:square]))
    values = _read_literals(flat)
    if square < n:
        raise InvalidInput("distance matrix must be square, one row per point")
    denom = lcm(*{x.denominator for x in values.values()})
    scaled = {key: x.numerator * (denom // x.denominator) for key, x in values.items()}
    dtype = _int_dtype(max(map(abs, scaled.values())))
    mat = np.fromiter(map(scaled.__getitem__, flat), dtype=dtype, count=len(flat))
    return names, denom, mat.reshape(n, n)


def validate_metric(points, dist, base=None) -> MetricSpace:
    """Validate all metric axioms and return the MetricSpace.

    Raises the first violation found (NonSymmetric, NegativeDistance,
    ZeroDistanceDistinctPoints, or TriangleViolation, each carrying the
    offending points).  `base` may be a point name or an index; it defaults
    to the first point.
    """
    return _validated(*_coerce_matrix(points, dist), base)


def validate_scaled(points, rows, denom: int) -> MetricSpace:
    """validate_metric of the distances rows / denom, given as a square list
    of integer rows (no literal is parsed, no Fraction built), based at the
    first point; D is reduced to the lcm of their denominators (_int_matrix)."""
    return _validated(tuple(points), *_int_matrix(np.array(rows), denom))


def _validated(names, denom: int, mat: np.ndarray, base=None) -> MetricSpace:
    """The validated MetricSpace of a scaled matrix in canonical form; raises
    the first violation."""
    violations, mask = _violations(names, mat)
    if violations:
        raise violations[0]
    return MetricSpace(names, denom, mat, _base_index(names, base), _deletion_mask=mask)


def _base_index(names, base) -> int:
    """The index of a base point given by name or index (None: the first)."""
    if base is None:
        base = 0
    elif isinstance(base, bool):
        raise InvalidInput(f"boolean base {base!r} rejected: pass a point name or index")
    elif not isinstance(base, int):
        if base not in names:
            raise InvalidInput(f"base point {base!r} not among the points")
        base = names.index(base)
    elif not 0 <= base < len(names):
        raise InvalidInput(f"base index {base} out of range")
    return base


# --- shortest-path metrics of weighted graphs --------------------------------

def _adjacency(n: int, edges) -> list[list[tuple[int, int, int]]]:
    """adj[u]: the (v, w, edge index) arcs at u of undirected edges (u, v, w)."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, (u, v, w) in enumerate(edges):
        adj[u].append((v, w, idx))
        adj[v].append((u, w, idx))
    return adj


def _scaled_edges(edges) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, the edges (u, v, w) with weights times D), D the lcm of the weight
    denominators, so every weight is an exact integer.  Raises InvalidInput
    on a self-loop or a weight that is not positive."""
    for u, v, w in edges:
        if u == v:
            raise InvalidInput("self-loops are not allowed")
        if w <= 0:
            raise InvalidInput("edge weights must be positive")
    denom = lcm(*{w.denominator for _, _, w in edges})
    return denom, [(u, v, w.numerator * (denom // w.denominator)) for u, v, w in edges]


def _reduced_adjacency(adj, flow: list[int], pot: list[int]):
    """The min-cost-flow residual digraph on _adjacency arcs at reduced
    costs, built whole (for transport's certificate and residual digraphs;
    _dijkstra's (flow, pot) view prices the same arcs one at a time, by the
    same rule, kept next to this one).

    The arc u -> v of edge e costs -w when it runs against the flow on e
    (capacity |flow[e]|) and +w otherwise, w the scaled weight; its reduced
    cost is that plus pot[u] - pot[v].  Tails are the smaller indices, so
    flow runs v -> u on e exactly when flow[e] * (v - u) < 0.
    """
    return [[(v, (-w if flow[e] * (v - u) < 0 else w) + pu - pot[v], e) for v, w, e in arcs]
            for u, (arcs, pu) in enumerate(zip(adj, pot))]


def _dijkstra(adj, sources, stop, flow: list[int], pot: list[int]
              ) -> tuple[list[int | None], list[int | None]]:
    """Integer Dijkstra from one or more sources, all at distance 0, over the
    arcs of _reduced_adjacency(adj, flow, pot), each priced by its rule as it
    is relaxed (those costs must be >= 0): (distances, predecessor edge
    indices), None at vertices not settled.  The arcs, their order and the
    tie-break are the same, so the result equals that on the rebuilt
    digraph; only arcs to unsettled vertices are priced.  Zero flow and zero
    potentials price each arc at its weight.

    The search ends as soon as a vertex of stop is settled, before that
    vertex's arcs are relaxed, so exactly one vertex of stop has a distance.
    With an empty stop every reachable vertex is settled.

    Deterministic: among equal-length paths the predecessor with the smaller
    vertex index wins, so every (source, target) pair has one fixed path.
    Sources keep no predecessor: they are the roots of the tree.
    """
    n = len(adj)
    dist: list[int | None] = [None] * n
    pred_vertex: list[int | None] = [None] * n
    pred_edge: list[int | None] = [None] * n
    done = [False] * n
    heap: list[tuple[int, int]] = []
    for s in sources:
        dist[s] = 0
        heap.append((0, s))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u in stop:
            for v in range(n):
                if not done[v]:
                    dist[v] = pred_edge[v] = None
            break
        du = d + pot[u]
        for v, w, eidx in adj[u]:
            if done[v]:
                continue
            nd = du - pot[v] + (-w if flow[eidx] * (v - u) < 0 else w)
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred_vertex[v] = u
                pred_edge[v] = eidx
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and pred_vertex[v] is not None and u < pred_vertex[v]:
                pred_vertex[v] = u
                pred_edge[v] = eidx
    return dist, pred_edge


def path_metric(n: int, edges: list[tuple[int, int, Fraction]]) -> list[list[Fraction]]:
    """Exact all-pairs shortest-path matrix of a connected weighted graph.

    `edges` are undirected (u, v, w) with u != v and w > 0; of parallel
    edges the lightest counts.  The distances come from _floyd_warshall over
    integer-scaled weights.  Raises InvalidInput if the graph is
    disconnected or a weight is invalid.
    """
    mat, denom, _ = _path_rows(n, edges)
    return [list(row) for row in _fraction_rows(mat.tolist(), denom)]


def _path_rows(n: int, edges) -> tuple[np.ndarray, int, list[tuple[int, int, int]]]:
    """path_metric as (integer matrix, D, scaled edges): the distances and
    the edges' weights times D, the lcm of the weight denominators."""
    denom, scaled = _scaled_edges(edges)
    return _floyd_warshall(n, scaled), denom, scaled


def _floyd_warshall(n: int, edges: list[tuple[int, int, int]]) -> np.ndarray:
    """All-pairs distances of the undirected edges (u, v, w), integers w > 0
    (of parallel edges the lightest), by Floyd-Warshall in place at dtype
    _int_dtype(sentinel).  Pairs start at their lightest weight, or at the
    sentinel 1 + (n-1) * max w, above every distance of a connected graph (a
    shortest path has at most n - 1 edges) and every weight.  A sum with a
    sentinel is at least the sentinel, so a pair that no path joins keeps
    it: raises InvalidInput if some entry ends at the sentinel."""
    if n < 2:
        return np.zeros((n, n), dtype=np.int8)
    if not edges:
        raise InvalidInput("graph is not connected")
    tails, heads, weights = zip(*edges)
    sentinel = 1 + (n - 1) * max(weights)
    dtype = _int_dtype(sentinel)
    mat = np.full((n, n), sentinel, dtype=dtype)
    np.minimum.at(mat, (tails + heads, heads + tails), np.array(weights + weights, dtype=dtype))
    np.fill_diagonal(mat, 0)
    via = np.empty_like(mat)
    for k in range(n):
        np.add(mat[:, k, None], mat[k], out=via)
        np.minimum(mat, via, out=mat)
    if (mat == sentinel).any():
        raise InvalidInput("graph is not connected")
    return mat


def _substitute(h, g, ports) -> tuple[np.ndarray, int]:
    """The candidate path metric of H with every edge (u, v, w) replaced by
    a copy of G scaled by w, G's bottom port at u and its top port at v,
    from the metrics of H and G alone: (mat, D), the distances times D.

    h and g are the levels (mat, D, edges) of H and G, their distances and
    edge weights times their D, integers; only H's edges are read, in copy
    order; ports are G's (bottom, top) indices.  The result's D is the
    product of the two, the unit of each copy's weights w * w_G.  Points:
    H's, then each copy's inner points in G's order.  G must be normalized
    (its ports at distance 1), so that H's vertices keep their distances in
    the result.

    A path from a point x of one copy to a point outside it leaves the copy
    through one of its ports p, after at least w d_G(x, p); an H vertex is
    its own port.  So d(x, y) is the least w d_G(x, p) + d_H(p, q) + w'
    d_G(q, y) over the ports p of x and q of y, and within one copy the
    path that never leaves it, w d_G(x, y), competes too.  No search: the
    distances from H's vertices first, an n_H x N matrix, then the N x N
    result and one temporary of its size, at the width _int_dtype of a
    bound on every sum.  A candidate, not a proof: a generator feeds it to
    the next level or to _path_space, whose certificate on the last
    level's candidate covers every earlier one (families._compose_step).
    """
    dh, h_denom, h_edges = h
    dg, g_denom, _ = g
    tails, heads, weights = zip(*h_edges)
    inner = [x for x in range(len(dg)) if x not in ports]
    nh, k, m = len(dh), len(inner), len(h_edges)
    dtype = _int_dtype(int(dh.max()) * g_denom + 2 * max(weights) * int(dg.max()))
    dh = dh.astype(dtype)
    dh *= g_denom
    w = np.array(weights, dtype=dtype)
    reach = (w[:, None, None] * dg[np.ix_(inner, ports)].astype(dtype)).reshape(m * k, 2)
    own = np.arange(nh)
    bottom = np.concatenate((own, np.repeat(tails, k)))  # each point's ports
    top = np.concatenate((own, np.repeat(heads, k)))
    zero = np.zeros(nh, dtype=dtype)
    to_bottom = np.concatenate((zero, reach[:, 0]))  # and its distances to them
    to_top = np.concatenate((zero, reach[:, 1]))
    from_h = dh.take(bottom, axis=1)  # row by row, so that mat is too
    from_h += to_bottom
    np.minimum(from_h, dh.take(top, axis=1) + to_top, out=from_h)  # d(q, x), q in H
    mat = from_h[bottom]
    mat += to_bottom[:, None]
    other = from_h[top]
    other += to_top[:, None]
    np.minimum(mat, other, out=mat)
    first = nh + k * np.arange(m)[:, None, None]  # copy by copy, its inner block
    rows, cols = first + np.arange(k)[:, None], first + np.arange(k)
    within = w[:, None, None] * dg[np.ix_(inner, inner)].astype(dtype)
    mat[rows, cols] = np.minimum(mat[rows, cols], within)
    return mat, h_denom * g_denom


def _fraction_rows(rows: list[list[int]], denom: int) -> tuple[tuple[Fraction, ...], ...]:
    """The integer rows divided by denom, one Fraction per distinct value
    (MetricSpace.dist, path_metric)."""
    fractions = {x: Fraction(x, denom) for x in set().union(*rows)}
    return tuple(tuple(fractions[x] for x in row) for row in rows)


def space_from_weighted_graph(vertices, edges, base=None) -> MetricSpace:
    """Metric space of a connected weighted graph (path metric).

    `edges` is a list of (u_name, v_name, weight-literal).  Note the result
    remembers only the metric: rebuilding the canonical graph may drop edges
    that lie on shortest paths through other vertices.
    """
    return _path_space(*_graph_level(vertices, edges), base)


def _graph_level(vertices, edges) -> tuple[tuple[str, ...], np.ndarray, int, list]:
    """The named graph of space_from_weighted_graph as (names, mat, D,
    edges): its edges (u, v, w) by point index with their weights times D,
    the lcm of the weight denominators, and its path metric times D from
    _floyd_warshall.  Raises InvalidInput on repeated names, an unknown
    vertex, a repeated pair, an invalid weight or a disconnected graph."""
    try:
        names = tuple(str(v) for v in vertices)
    except TypeError as exc:
        raise InvalidInput("'vertices' must be a list of names") from exc
    if len(set(names)) != len(names):
        raise InvalidInput("vertex names must be distinct")
    index = {v: i for i, v in enumerate(names)}
    seen = set()
    pairs, weights = [], []
    invalid = None
    for u, v, w in edges:
        if not (isinstance(u, str) and isinstance(v, str) and u in index and v in index):
            invalid = f"edge ({u},{v}) uses an unknown vertex"
            break
        key = (min(index[u], index[v]), max(index[u], index[v]))
        if key in seen:
            invalid = f"duplicate edge {{{u},{v}}}"
            break
        seen.add(key)
        pairs.append((index[u], index[v]))
        weights.append(w)
    # An earlier edge's invalid literal raises first.  A Fraction is its own
    # value, and hashing one costs more than parsing it.
    values = _read_literals([w for w in weights if type(w) is not Fraction])
    if invalid:
        raise InvalidInput(invalid)
    idx_edges = [(u, v, w if type(w) is Fraction else values[w])
                 for (u, v), w in zip(pairs, weights)]
    return (names, *_path_rows(len(names), idx_edges))


def _path_space(names, mat: np.ndarray, denom: int, edges, base=None) -> MetricSpace:
    """The certified MetricSpace of a candidate path metric mat / denom of
    the edges (u, v, w), distinct pairs by point index with integer weights
    w, the weights times denom (space_from_weighted_graph, two-port graphs,
    the family generators and random_metric_space's integer graphs)."""
    if len(names) < 2:
        raise InvalidInput("a metric space needs at least 2 points")
    # Row-major: _min_plus gathers rows, at half the speed from a column-major matrix.
    mat = mat.astype(_int_dtype(int(mat.max())), order="C", copy=False)
    violations, mask = _violations(names, mat)
    assert not violations, "a path metric satisfies the metric axioms"
    # _violations proved mat a metric and the path metric of its canonical
    # pairs.  If each of them is an edge at its own weight (counted, so the
    # edges must be distinct pairs), no distance of the graph exceeds mat's;
    # if no weight is below mat, no path of the graph is shorter.
    tails, heads, weights = (np.array(x) for x in zip(*edges))
    seen = np.zeros_like(mask)
    seen[tails, heads] = seen[heads, tails] = True
    assert int(seen.sum()) == 2 * len(tails), "the edges of a path metric are distinct pairs"
    direct = mat[tails, heads]
    assert (weights >= direct).all(), "a path metric is at most every edge weight"
    tight = (weights == direct) & ~mask[tails, heads]
    assert 2 * int(tight.sum()) + int(mask.sum()) + len(names) == len(names) ** 2, \
        "each canonical pair of a path metric is an edge at its distance"
    reduced, mat = _int_matrix(mat, denom)
    return MetricSpace(names, reduced, mat, _base_index(names, base), _deletion_mask=mask)


def weighted_graph_json_to_space(obj: dict) -> MetricSpace:
    """Parse {"vertices": [...], "edges": [{"u","v","w"}], "base": ...}."""
    vertices, raw_edges = json_fields(obj, "graph JSON needs 'vertices' and 'edges'",
                                      "vertices", "edges")
    if not isinstance(vertices, list):  # as in MetricSpace.from_json_obj
        raise InvalidInput("'vertices' must be a list of names")
    if not isinstance(raw_edges, list):
        raise InvalidInput("'edges' must be a list of edges")
    edges = [json_fields(e, "each edge needs 'u', 'v', 'w'", "u", "v", "w") for e in raw_edges]
    return space_from_weighted_graph(vertices, edges, base=obj.get("base"))
