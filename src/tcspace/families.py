"""Deterministic generators for the graph families used by the certificates.

Diamonds (iterated quadrilateral replacement, edge length halving each
level), plane grids, complete bipartite graphs, cycles, and recursive
two-port compositions.  Generators emit exact metric spaces; the recursive
ones also emit generation metadata so certificates can peel back to earlier
levels, whose vertex sets embed isometrically.

A composition's metric comes from its construction, not from a search: one
step (_compose_step) replaces every edge by a copy of a two-port graph and
takes the candidate metric from the metrics of its two parts
(metric._substitute).  compose runs it once, and _levels, the one level
loop of recursive_family and diamond, once per level; a grid's metric
comes from its coordinates.  A level is integers only, (mat, D, edges):
edges (u, v, w) by point index, weights and distances both in units of
1/D, so no Fraction is built per edge.  metric._path_space certifies each
construction's last level as the graph's path metric, as it does a
Floyd-Warshall matrix, the route of cycles, complete bipartite graphs and
two-port graphs made by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, NotNormalized, json_fields
from .metric import (
    MetricSpace,
    _graph_level,
    _path_space,
    _substitute,
    space_from_weighted_graph,
)
from .rational import ONE


@dataclass(frozen=True)
class FamilyDescriptor:
    """What was generated and, for recursive families, who belongs to which
    generation (vertices of generation <= j span the level-j graph)."""

    family: str
    params: dict
    generations: dict | None = None

    def level_label(self, j: int) -> str:
        if self.family == "diamond":
            return f"D_{j}"
        if self.family == "recursive":
            return f"B_{j}"
        return self.family

    def to_json_obj(self) -> dict:
        out = {"family": self.family, "params": dict(self.params)}
        if self.generations is not None:
            out["generations"] = dict(sorted(self.generations.items()))
        return out

    @classmethod
    def from_json_obj(cls, obj: dict) -> FamilyDescriptor:
        (family,) = json_fields(obj, "descriptor JSON needs 'family'", "family")
        gens = obj.get("generations")
        if gens is not None:
            # JSON integers only: int() would also take 1.5, true, " 0" or "0_1".
            if not isinstance(gens, dict) or any(type(v) is not int for v in gens.values()):
                raise InvalidInput("descriptor 'generations' must map point names to integers")
            gens = {str(k): v for k, v in gens.items()}
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInput("descriptor 'params' must be an object")
        return cls(str(family), dict(params), gens)


@dataclass(frozen=True)
class TwoPortGraph:
    """Weighted directed graph with distinguished top and bottom vertices.

    `space` is the path metric of the underlying undirected graph
    (directions dropped), built and validated once, when the graph is made,
    from the graph's level (mat, D, edges): its distances and its edges by
    point index, weights and distances in units of 1/D.  compose passes the
    level it built (_level, certified, not trusted); any other graph's is
    read from its named edges (metric._graph_level)."""

    points: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    top: str
    bottom: str
    space: MetricSpace = field(init=False, repr=False, compare=False)
    _level: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.top not in self.points or self.bottom not in self.points:
            raise InvalidInput("top and bottom must be vertices")
        if self.top == self.bottom:
            raise InvalidInput("top and bottom must differ")
        names = self.points
        if self._level is None:
            names, *level = _graph_level(self.points, self.edges)
            object.__setattr__(self, "_level", tuple(level))
        object.__setattr__(self, "space", _path_space(names, *self._level))

    def top_bottom_distance(self) -> Fraction:
        b, t = map(self.space.index_of, (self.bottom, self.top))
        return Fraction(int(self.space.scaled[b, t]), self.space.denom)

    def max_degree(self) -> int:
        deg: dict[str, int] = {p: 0 for p in self.points}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg.values())


def compose(H: TwoPortGraph, G: TwoPortGraph) -> TwoPortGraph:
    """Replace each directed edge u->v of H by a copy of G (bottom at u,
    top at v), scaling the copy's weights by the replaced edge's weight.

    Both graphs must be normalized (top-bottom distance 1), so the natural
    embedding of H's vertices into the result is isometric.  Inner vertices
    of the i-th copy are named "e<i>.<name>".
    """
    for g, who in ((H, "H"), (G, "G")):
        if g.top_bottom_distance() != 1:
            raise NotNormalized(f"{who} must have top-bottom distance 1")
    points, level = _compose_step(H.points, H._level, G, "e")
    _, denom, edges = level
    named = tuple((points[u], points[v], Fraction(w, denom)) for u, v, w in edges)
    return TwoPortGraph(points, named, H.top, H.bottom, _level=level)


def _compose_step(points, level, G: TwoPortGraph, tag: str):
    """One level of composition: H, given by its points and its level (mat,
    D, edges), its edges (u, v, w) by point index in copy order, with every
    edge replaced by a copy of G as compose describes.  Returns the composed
    points (H's, then each copy's inner points in G's order) and their
    level: the candidate metric from _substitute and the composed edges,
    each of weight w * w_G, at D times G's D.

    No level needs a certificate of its own when G is normalized: H's
    vertices keep their rows in _substitute, so each level's candidate is a
    principal submatrix of the next one, and the path metric of the next
    level restricts to H's, since a normalized G embeds H isometrically.  A
    wrong distance at any level is therefore wrong in the last candidate,
    whose certificate (metric._path_space) fails its assertion.
    """
    ports = G.space.index_of(G.bottom), G.space.index_of(G.top)
    inner = [x for x in range(len(G.points)) if x not in ports]
    out = list(points)
    taken = set(out)
    out_edges = []
    for i, (u, v, w) in enumerate(level[2]):
        at = dict(zip(ports, (u, v)))
        for x in inner:
            fresh = f"{tag}{i}.{G.points[x]}"
            if fresh in taken:
                raise InvalidInput(f"vertex name collision at {fresh!r}")
            taken.add(fresh)
            at[x] = len(out)
            out.append(fresh)
        out_edges += ((at[a], at[b], w * wg) for a, b, wg in G._level[2])
    return tuple(out), (*_substitute(level, G._level, ports), out_edges)


def unit_edge_two_port() -> TwoPortGraph:
    """One directed edge of length 1, bottom to top."""
    return TwoPortGraph(("b", "t"), (("b", "t", ONE),), top="t", bottom="b")


def k2n_two_port(legs: int) -> TwoPortGraph:
    """K_{2,legs} with the two-side vertices as ports; legs of length 1/2."""
    if legs < 2:
        raise InvalidInput("need at least 2 legs")
    half = Fraction(1, 2)
    mids = tuple(f"m{i}" for i in range(legs))
    edges = tuple(("b", m, half) for m in mids) + tuple((m, "t", half) for m in mids)
    return TwoPortGraph(("b", "t") + mids, edges, top="t", bottom="b")


def quadrilateral_two_port() -> TwoPortGraph:
    """The diamond replacement pattern: a 4-cycle with opposite ports."""
    return k2n_two_port(2)


def recursive_family(B: TwoPortGraph, n: int) -> tuple[MetricSpace, FamilyDescriptor]:
    """n-fold recursive composition of B (level 0 is a single unit edge).

    Each level replaces every edge of the previous graph by a copy of B;
    vertices added at level j carry generation j in the descriptor.
    """
    unit = unit_edge_two_port()
    space, generations = _levels(unit.points, unit._level, B, n, by_name=False)
    params = {"n": n, "base_vertices": len(B.points),
              "base_edges": len(B.edges), "delta": B.max_degree()}
    return space, FamilyDescriptor("recursive", params, generations)


def diamond(n: int) -> tuple[MetricSpace, FamilyDescriptor]:
    """Diamond graph D_n: every edge becomes a quadrilateral, n times.

    All level-n edges have weight 2^-n, so each level's vertex set embeds
    isometrically in the next and the total top-bottom distance stays 1.
    Each level's edges are sorted by name; the quadrilateral's second side
    runs from top to bottom, which gives D_n its vertex names.
    """
    half = Fraction(1, 2)
    quad = TwoPortGraph(("s", "t", "a", "b"),
                        (("s", "a", half), ("a", "t", half), ("t", "b", half), ("b", "s", half)),
                        top="t", bottom="s")
    unit = np.array([[0, 1], [1, 0]]), 1, [(0, 1, 1)]
    space, generations = _levels(("v0", "v1"), unit, quad, n, by_name=True)
    return space, FamilyDescriptor("diamond", {"n": n}, generations)


def _levels(points, level, B: TwoPortGraph, n: int, by_name: bool):
    """The n levels of recursive_family and diamond from level 0, its points
    and level (mat, D, edges): one _compose_step with B each, over the edges
    of the last, sorted by their names first when by_name.  Returns the last
    level's space, based at the first point and alone certified
    (_compose_step says why that suffices), and each point's generation."""
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    if B.top_bottom_distance() != 1:
        raise NotNormalized("B must have top-bottom distance 1")
    generations = dict.fromkeys(points, 0)
    for step in range(1, n + 1):
        if by_name:
            mat, denom, edges = level
            level = mat, denom, sorted(edges, key=lambda e: (points[e[0]], points[e[1]]))
        points, level = _compose_step(points, level, B, f"g{step}e")
        generations.update(dict.fromkeys(points[len(generations):], step))
    return _path_space(points, *level, base=points[0]), generations


def grid(n: int) -> MetricSpace:
    """Plane n x n grid with unit edges and its graph distance, the sum of
    the coordinates' differences."""
    if n < 2:
        raise InvalidInput("grid needs n >= 2")
    points = tuple(f"{r},{c}" for r in range(n) for c in range(n))
    edges = []
    for i in range(n * n):
        if (i + 1) % n:
            edges.append((i, i + 1, 1))
        if i + n < n * n:
            edges.append((i, i + n, 1))
    row, col = np.divmod(np.arange(n * n), n)
    return _path_space(points, abs(row[:, None] - row) + abs(col[:, None] - col), 1, edges)


def complete_bipartite(m: int, n: int) -> MetricSpace:
    """Unweighted K_{m,n} with graph distance (1 across, 2 within parts)."""
    if m < 1 or n < 1:
        raise InvalidInput("parts must be nonempty")
    left = [f"a{i}" for i in range(m)]
    right = [f"b{j}" for j in range(n)]
    edges = [(u, v, ONE) for u in left for v in right]
    return space_from_weighted_graph(left + right, edges)


def cycle(n: int) -> MetricSpace:
    """Unweighted n-cycle with graph distance."""
    if n < 3:
        raise InvalidInput("cycle needs n >= 3")
    points = [f"c{i}" for i in range(n)]
    edges = [(points[i], points[(i + 1) % n], ONE) for i in range(n)]
    return space_from_weighted_graph(points, edges)
