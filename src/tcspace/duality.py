"""Lipschitz potentials: the dual side of transportation cost.

A supporting function for a problem f is a 1-Lipschitz function vanishing at
the base point whose pairing with f attains the TC norm.  A plan is optimal
iff it is tight for some such potential.  By complementary slackness the
supporting functions are the l with -l a potential of the residual digraph
of an optimal roadmap: between the least, l(v) = -dist(base -> v), and the
greatest, l(v) = dist(v -> base), read off the solver's certified flow and
potentials by one Dijkstra each (transport.residual_distances).  They
coincide iff the maximal-support graph of f is connected, the paper's
uniqueness criterion.

Downhill graphs (all edges where a 1-Lipschitz function drops at full
metric speed, directed downward) are characterized by difference
constraints: a directed edge set is a downhill graph iff the tightness
system admits a function with strictly slack remaining edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidInput, NotLipschitz, NotRealizable, NullProblem, PreconditionFailed, json_fields,
)
from .graph import CanonicalGraph, DirectedSubgraph, connected_components
from .rational import ZERO, frac_str, to_fraction
from .transport import _optimum, bellman_ford, residual_distances, zero_cost_cycles
from .vectors import TransportationProblem, _net_moves


@dataclass(frozen=True)
class LipschitzFunction:
    """A 1-Lipschitz function vanishing at the base point.

    The Lipschitz condition is checked on canonical-graph edges only, which
    suffices: edge paths realize all pairwise distances.
    """

    graph: CanonicalGraph
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(to_fraction(x) for x in self.values))
        if len(self.values) != self.graph.n:
            raise InvalidInput("need one value per point")
        if self.values[self.graph.space.base_point] != 0:
            raise InvalidInput("function must vanish at the base point")
        for e in self.graph.edges:
            if abs(self.values[e.tail] - self.values[e.head]) > e.weight:
                u, v = self.graph.space.points[e.tail], self.graph.space.points[e.head]
                raise NotLipschitz(f"|l({u}) - l({v})| exceeds d({u},{v})")

    @classmethod
    def zero(cls, graph: CanonicalGraph) -> LipschitzFunction:
        return cls(graph, tuple(ZERO for _ in range(graph.n)))

    @classmethod
    def from_map(cls, graph: CanonicalGraph, named: dict) -> LipschitzFunction:
        if not isinstance(named, dict):
            raise InvalidInput("a Lipschitz function maps point names to values")
        vals = [ZERO] * graph.n
        for name, v in named.items():
            vals[graph.space.index_of(name)] = to_fraction(v)
        return cls(graph, tuple(vals))

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def to_json_obj(self) -> dict:
        pts = self.graph.space.points
        return {
            "l": {pts[v]: frac_str(x) for v, x in enumerate(self.values)},
            "base": pts[self.graph.space.base_point],
        }

    @classmethod
    def from_json_obj(cls, graph: CanonicalGraph, obj: dict) -> LipschitzFunction:
        (named,) = json_fields(obj, "lipschitz JSON needs 'l'", "l")
        base = obj.get("base")
        if base is not None and graph.space.index_of(base) != graph.space.base_point:
            raise InvalidInput("base in JSON differs from the space's base point")
        return cls.from_map(graph, named)


def evaluate(l: LipschitzFunction, f: TransportationProblem) -> Fraction:
    """Pairing sum l(v) f(v); never exceeds the TC norm (weak duality)."""
    if l.graph is not f.graph:
        raise InvalidInput("function and problem live on different graphs")
    return sum((l[v] * f[v] for v in f.support()), ZERO)


def supporting_function(f: TransportationProblem) -> LipschitzFunction:
    """The least potential attaining the TC norm: l(v) = -dist(base -> v) in
    the residual digraph of an optimal roadmap.

    Returns the zero function for f = 0 (every feasible function pairs to
    zero with it).
    """
    return _least_supporting(f.graph, *_optimum(f))


def _least_supporting(graph: CanonicalGraph, flow: list[int], pot: list[int]) -> LipschitzFunction:
    """supporting_function of the problem that flow, optimal and certified
    by pot (as _optimum's are), solves; flow is zero iff that problem is."""
    if not any(flow):
        return LipschitzFunction.zero(graph)
    return LipschitzFunction(graph, tuple(-x for x in residual_distances(graph, flow, pot)))


def downhill_graph(l: LipschitzFunction) -> DirectedSubgraph:
    """All edges where l drops at full metric speed, directed downward."""
    arcs = []
    for e in l.graph.edges:
        gap = l[e.tail] - l[e.head]
        if gap == e.weight:
            arcs.append((e.tail, e.head))
        elif -gap == e.weight:
            arcs.append((e.head, e.tail))
    return DirectedSubgraph(l.graph, tuple(arcs))


# --- uniqueness ----------------------------------------------------------------

def is_unique_supporting(f: TransportationProblem) -> tuple[bool, LipschitzFunction | None]:
    """Uniqueness of the supporting function, with a witness when not unique.

    The supporting function is unique iff the maximal-support graph is
    connected.  The witness is the greatest supporting function,
    l(v) = dist(v -> base) in the residual digraph, which differs from the
    least (supporting_function) exactly when the support is disconnected.
    """
    flow, pot = _optimum(f)
    return _uniqueness(f.graph, flow, pot, _least_supporting(f.graph, flow, pot))


def _uniqueness(graph: CanonicalGraph, flow: list[int], pot: list[int],
                least: LipschitzFunction) -> tuple[bool, LipschitzFunction | None]:
    """is_unique_supporting of the problem that flow, certified by pot,
    solves (as in _least_supporting); least is _least_supporting's."""
    if not any(flow):
        raise NullProblem("uniqueness undefined for the zero problem")
    edges = {e for e, x in enumerate(flow) if x} | zero_cost_cycles(graph, flow, pot).keys()
    comp = connected_components(
        graph.n, ((graph.edges[i].tail, graph.edges[i].head) for i in edges))
    connected = len(set(comp)) == 1
    reverse = residual_distances(graph, [-x for x in flow], [-x for x in pot])
    greatest = LipschitzFunction(graph, tuple(reverse))
    assert (least.values == greatest.values) == connected
    return (True, None) if connected else (False, greatest)


# --- downhill realizability -----------------------------------------------------

def realizable_as_downhill(H: DirectedSubgraph) -> tuple[bool, LipschitzFunction | None]:
    """Whether H is exactly the downhill graph of some 1-Lipschitz function.

    Difference constraints: l(u) - l(v) = d(u,v) on H's arcs and slack at
    least t on every other edge, decided by one Bellman-Ford run.  If any
    t > 0 works, t = 1/(D(n+1)) does, D the lcm of the weight denominators:
    nonzero cycle costs at t = 0 are multiples of 1/D, and a simple cycle
    has at most n arcs.  Costs are scaled by D(n+1), so t becomes 1.
    """
    if len(H) == 0:
        raise PreconditionFailed("need at least one directed edge")
    graph = H.graph
    adj = graph.adjacency
    scale = graph.n + 1
    used = H.edge_indices()
    downhill = H.arc_set()
    arcs = [[] for _ in adj]  # the arc u -> v of cost c stands for l(v) <= l(u) + c
    for u, out in enumerate(adj):
        for v, w, e in out:
            if e not in used:
                arcs[u].append((v, w * scale - 1, e))
            else:
                arcs[u].append((v, (-w if (u, v) in downhill else w) * scale, e))
    dist, _ = bellman_ford(arcs, graph.space.base_point)
    if dist is None:
        return False, None
    func = LipschitzFunction(graph, tuple(Fraction(d, graph.space.denom * scale) for d in dist))
    assert downhill_graph(func).arc_set() == H.arc_set()
    return True, func


def downhill_to_problem(H: DirectedSubgraph) -> TransportationProblem:
    """The problem whose directed transport graph is H (sum of arc moves).

    Raises NotRealizable when H is not a downhill graph; otherwise the
    result's maximal-support directed graph is exactly H again.
    """
    ok, _ = realizable_as_downhill(H)
    if not ok:
        raise NotRealizable("subgraph is not a downhill graph")
    return _net_moves(H.graph, ((u, v, 1) for u, v in H.arcs))
