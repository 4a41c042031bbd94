"""Deterministic generators for the graph families used by the certificates.

Diamonds (iterated quadrilateral replacement, edge length halving each
level), plane grids, complete bipartite graphs, cycles, and recursive
two-port compositions.  Generators emit exact metric spaces; the recursive
ones also emit generation metadata so certificates can peel back to earlier
levels, whose vertex sets embed isometrically.

A composition's metric comes from its construction, not from a search: the
metrics of its two parts give it (metric._substitute), level by level for
diamonds, and a grid's comes from its coordinates.  metric.py certifies each
such candidate as the graph's path metric, as it does a Floyd-Warshall
matrix, the route of cycles, complete bipartite graphs and two-port graphs
made by hand.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidInput, NotNormalized
from .metric import MetricSpace, _graph_space, _substitute, space_from_weighted_graph
from .rational import ONE, to_fraction


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
        try:
            family = obj["family"]
        except (TypeError, KeyError) as exc:
            raise InvalidInput("descriptor JSON needs 'family'") from exc
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
    (directions dropped), built and validated once, when the graph is made.
    compose passes the candidate it knows (_metric, certified, not trusted);
    any other graph's is searched for."""

    points: tuple[str, ...]
    edges: tuple[tuple[str, str, Fraction], ...]
    top: str
    bottom: str
    space: MetricSpace = field(init=False, repr=False, compare=False)
    _metric: InitVar[tuple | None] = None

    def __post_init__(self, _metric=None):
        if self.top not in self.points or self.bottom not in self.points:
            raise InvalidInput("top and bottom must be vertices")
        if self.top == self.bottom:
            raise InvalidInput("top and bottom must differ")
        object.__setattr__(self, "space", _graph_space(self.points, self.edges, metric=_metric))

    def top_bottom_distance(self) -> Fraction:
        b, t = map(self.space.index_of, (self.bottom, self.top))
        return Fraction(int(self.space.scaled[b, t]), self.space.denom)

    def max_degree(self) -> int:
        deg: dict[str, int] = {p: 0 for p in self.points}
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg.values())

    def normalized(self) -> TwoPortGraph:
        """Scale all weights so the top-bottom distance becomes 1."""
        d = self.top_bottom_distance()
        return TwoPortGraph(
            self.points,
            tuple((u, v, w / d) for u, v, w in self.edges),
            self.top, self.bottom)

    def as_metric_space(self, base: str | None = None) -> MetricSpace:
        """`space`, based at `base` when one is named."""
        return self.space if base is None else self.space.with_base(base)


def compose(H: TwoPortGraph, G: TwoPortGraph, tag: str = "e") -> TwoPortGraph:
    """Replace each directed edge u->v of H by a copy of G (bottom at u,
    top at v), scaling the copy's weights by the replaced edge's weight.

    Both graphs must be normalized (top-bottom distance 1), so the natural
    embedding of H's vertices into the result is isometric.  Inner vertices
    of the i-th copy are named "<tag><i>.<name>".
    """
    for g, who in ((H, "H"), (G, "G")):
        if g.top_bottom_distance() != 1:
            raise NotNormalized(f"{who} must have top-bottom distance 1")
    points = list(H.points)
    taken = set(points)
    edges: list[tuple[str, str, Fraction]] = []
    for i, (u, v, w) in enumerate(H.edges):
        rename = {G.bottom: u, G.top: v}
        for name in G.points:
            if name in rename:
                continue
            fresh = f"{tag}{i}.{name}"
            if fresh in taken:
                raise InvalidInput(f"vertex name collision at {fresh!r}")
            taken.add(fresh)
            rename[name] = fresh
            points.append(fresh)
        for a, b, wg in G.edges:
            edges.append((rename[a], rename[b], to_fraction(wg) * to_fraction(w)))
    at = H.space.index_of
    metric = _substitute((H.space.scaled, H.space.denom),
                         [(at(u), at(v), to_fraction(w)) for u, v, w in H.edges],
                         (G.space.scaled, G.space.denom), _ports(G))
    return TwoPortGraph(tuple(points), tuple(edges), H.top, H.bottom, _metric=metric)


def _ports(G: TwoPortGraph) -> tuple[int, int]:
    """The indices of G's bottom and top in its space."""
    return G.space.index_of(G.bottom), G.space.index_of(G.top)


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
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    if B.top_bottom_distance() != 1:
        raise NotNormalized("B must have top-bottom distance 1")
    current = unit_edge_two_port()
    generations = {p: 0 for p in current.points}
    for step in range(1, n + 1):
        current = compose(current, B, tag=f"g{step}e")
        for p in current.points:
            if p not in generations:
                generations[p] = step
    space = current.as_metric_space(base="b")
    params = {"n": n, "base_vertices": len(B.points),
              "base_edges": len(B.edges), "delta": B.max_degree()}
    return space, FamilyDescriptor("recursive", params, generations)


def diamond(n: int) -> tuple[MetricSpace, FamilyDescriptor]:
    """Diamond graph D_n: every edge becomes a quadrilateral, n times.

    All level-n edges have weight 2^-n, so each level's vertex set embeds
    isometrically in the next and the total top-bottom distance stays 1.
    Each level's metric comes from the last one's and the quadrilateral's.
    """
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    quad = quadrilateral_two_port()
    points = ["v0", "v1"]
    generations = {"v0": 0, "v1": 0}
    edges: list[tuple[str, str]] = [("v0", "v1")]
    metric = (np.array([[0, 1], [1, 0]]), 1)
    for level in range(1, n + 1):
        at = {p: i for i, p in enumerate(points)}
        weight = Fraction(1, 2**(level - 1))
        edges = sorted(edges)
        metric = _substitute(metric, [(at[u], at[v], weight) for u, v in edges],
                             (quad.space.scaled, quad.space.denom), _ports(quad))
        new_edges: list[tuple[str, str]] = []
        for i, (u, v) in enumerate(edges):
            a = f"g{level}e{i}.a"
            b = f"g{level}e{i}.b"
            points.extend((a, b))
            generations[a] = level
            generations[b] = level
            new_edges.extend(((u, a), (a, v), (v, b), (b, u)))
        edges = new_edges
    weight = Fraction(1, 2**n)
    space = _graph_space(points, [(u, v, weight) for u, v in edges], base="v0", metric=metric)
    return space, FamilyDescriptor("diamond", {"n": n}, generations)


def grid(n: int) -> MetricSpace:
    """Plane n x n grid with unit edges and its graph distance, the sum of
    the coordinates' differences."""
    if n < 2:
        raise InvalidInput("grid needs n >= 2")
    points = [f"{r},{c}" for r in range(n) for c in range(n)]
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append((f"{r},{c}", f"{r},{c + 1}", ONE))
            if r + 1 < n:
                edges.append((f"{r},{c}", f"{r + 1},{c}", ONE))
    row, col = np.divmod(np.arange(n * n), n)
    metric = (abs(row[:, None] - row) + abs(col[:, None] - col), 1)
    return _graph_space(points, edges, metric=metric)


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
