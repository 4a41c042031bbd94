"""Exact transportation-cost solver on canonical graphs.

The TC norm of a zero-sum problem is the minimum weighted-l1 cost of an
edge-level transportation (a roadmap) realizing it, a min-cost flow.
`tc_norm` finds it by successive shortest paths with node potentials
(Tomizawa 1971; Edmonds-Karp 1972) on weights and masses scaled to exact
integers.  Each round's Dijkstra prices the residual arcs it relaxes from
the sign of the flow and the potentials, so no round builds the residual
digraph; it is built once per solve, for the certificate: a potential under
which every residual arc has reduced cost >= 0, checked in integers before
the Fractions of the result are built.

`improving_cycle` and `cancel_cycle` are the independent check of a
roadmap given by the user: a roadmap is optimal iff its residual digraph
has no negative cycle.  One integer Bellman-Ford (`bellman_ford`) on the
residual digraph, its costs scaled by the lcm of the weight denominators,
finds such a cycle.

The optimal face is read off the solver's certificate by complementary
slackness (Ahuja-Magnanti-Orlin, *Network Flows*, ch. 9): the residual arcs
its potentials price at 0 carry the zero-cost cycles, which give the maximal
optimal support (union of supports of all optimal roadmaps), and one
Dijkstra at its reduced costs the distances behind the supporting potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, NotImprovable, NullProblem
from .graph import (
    CanonicalGraph,
    DirectedSubgraph,
    UnionFind,
    _check_index,
    connected_components,
    shortest_path_tree,
    tree_path,
)
from .metric import _dijkstra, _reduced_adjacency
from .rational import ZERO, to_fraction
from .vectors import Roadmap, TransportationProblem, _net_moves


@dataclass(frozen=True)
class TransportationPlan:
    """A list of (source, target, amount) moves; amounts are positive.

    Plans may be "fake": the amount moved from a point does not need to be
    available there.  Only the induced problem (sum of signed indicators)
    matters.  Zero-amount terms are dropped; negative amounts and points out
    of range are rejected.
    """

    graph: CanonicalGraph
    terms: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        kept = []
        for x, y, a in self.terms:
            _check_index(x, self.graph.n, "vertex")
            _check_index(y, self.graph.n, "vertex")
            a = to_fraction(a)
            if a < 0:
                raise InvalidInput("plan amounts must be nonnegative")
            if a > 0:
                kept.append((x, y, a))
        object.__setattr__(self, "terms", tuple(kept))

    @classmethod
    def from_names(cls, graph: CanonicalGraph, terms) -> TransportationPlan:
        idx = graph.space.index_of
        return cls(graph, tuple((idx(x), idx(y), to_fraction(a)) for x, y, a in terms))

    def cost(self) -> Fraction:
        """Sum of a * d(x, y), from the integer distances, divided once by D."""
        space = self.graph.space
        return sum((a * int(space.scaled[x, y]) for x, y, a in self.terms), ZERO) / space.denom

    def problem(self) -> TransportationProblem:
        return _net_moves(self.graph, self.terms)


@dataclass(frozen=True)
class OrientedCycle:
    """A directed cycle as (edge index, traversal sign) arcs.

    The sign is +1 when the arc follows the edge's reference orientation
    and -1 against it.  Consecutive arcs chain head-to-tail and the walk is
    closed and simple.
    """

    graph: CanonicalGraph
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.arcs:
            raise InvalidInput("a cycle needs at least one arc")
        for e, s in self.arcs:
            _check_index(e, self.graph.m, "edge")
            if type(s) is not int or s not in (1, -1):
                raise InvalidInput(f"arc sign {s!r} must be 1 or -1")
        if len({e for e, _ in self.arcs}) != len(self.arcs):
            raise InvalidInput("a cycle may not repeat an edge")
        starts = [self._start(e, s) for e, s in self.arcs]
        if len(set(starts)) != len(starts):
            raise InvalidInput("a cycle may not repeat a vertex")
        for i, (e, s) in enumerate(self.arcs):
            nxt = self.arcs[(i + 1) % len(self.arcs)]
            if self._end(e, s) != self._start(*nxt):
                raise InvalidInput("cycle arcs do not chain")

    def _start(self, e: int, s: int) -> int:
        edge = self.graph.edges[e]
        return edge.tail if s > 0 else edge.head

    def _end(self, e: int, s: int) -> int:
        edge = self.graph.edges[e]
        return edge.head if s > 0 else edge.tail

    def vertices(self) -> list[int]:
        return [self._start(e, s) for e, s in self.arcs]

    def indicator(self) -> Roadmap:
        """Signed indicator: +-1 per traversed edge (a cycle-space element)."""
        return Roadmap(self.graph, {e: Fraction(s) for e, s in self.arcs})


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a spanning forest; a basis of the cycle space."""

    graph: CanonicalGraph
    cycles: tuple[OrientedCycle, ...]
    forest: frozenset[int]

    def __post_init__(self):
        g = self.graph
        comps = len(set(connected_components(g.n, ((e.tail, e.head) for e in g.edges))))
        assert len(self.cycles) == g.m - g.n + comps


@dataclass(frozen=True)
class Optimal:
    """No improving cycle exists: the roadmap has minimum cost."""


@dataclass(frozen=True)
class Improving:
    """An improving cycle: reversing it strictly lowers the cost by gain
    per unit of rerouted flow (gain = reversed-support weight minus the
    weight of the other cycle edges, positive)."""

    cycle: OrientedCycle
    gain: Fraction


OptimalityCertificate = Optimal | Improving


def plan_to_roadmap(plan: TransportationPlan) -> Roadmap:
    """Roadmap implementing a plan: each move along the fixed shortest path
    of shortest_path_tree, then terms on the same edge combined.  An edge
    {x, y} is that path: any other x-y path passes a third point w, and
    d(x,w) + d(w,y) > d(x,y), as no midpoint of x and y exists.

    The result transports the plan's problem at a cost never above the
    plan's (cancellations can only help).
    """
    vals: dict[int, Fraction] = {}
    for x, y, a in plan.terms:
        if x == y:
            continue
        for e, s in tree_path(plan.graph, shortest_path_tree(plan.graph, x)[1], y)[1]:
            vals[e] = vals.get(e, ZERO) + s * a
    rm = Roadmap(plan.graph, vals)
    assert rm.cost() <= plan.cost()
    assert rm.problem() == plan.problem()
    return rm


def cycle_basis(graph: CanonicalGraph) -> CycleBasis:
    """One fundamental cycle per non-forest edge (edges scanned in order):
    the edge, then the forest path from its head back to its tail."""
    sets = UnionFind(graph.n)
    forest: list[int] = []
    rest: list[int] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for idx, e in enumerate(graph.edges):
        if sets.union(e.tail, e.head):
            forest.append(idx)
            adj[e.tail].append((e.head, idx))
            adj[e.head].append((e.tail, idx))
        else:
            rest.append(idx)
    pred = _tight_tree(adj, range(graph.n))
    cycles = []
    for idx in rest:
        e = graph.edges[idx]
        _, to_head = tree_path(graph, pred, e.head)
        _, to_tail = tree_path(graph, pred, e.tail)
        k = 0  # the two root paths share their first k arcs
        while k < min(len(to_head), len(to_tail)) and to_head[k] == to_tail[k]:
            k += 1
        back = [(x, -s) for x, s in reversed(to_head[k:])]
        cycles.append(OrientedCycle(graph, ((idx, 1), *back, *to_tail[k:])))
    return CycleBasis(graph, tuple(cycles), frozenset(forest))


# --- improving cycles ---------------------------------------------------------

def _residual_digraph(p: Roadmap) -> list:
    """p's residual digraph: _reduced_adjacency at p's own values as the
    flow and zero potentials, arcs (v, cost times D, edge) that cost -weight
    against p's flow on an edge and +weight otherwise, D the space's denom.
    The pricing rule reads only the sign of each value."""
    flow = [p.values.get(e, 0) for e in range(p.graph.m)]
    return _reduced_adjacency(p.graph.adjacency, flow, [0] * p.graph.n)


def bellman_ford(adj, source: int | None = None):
    """Integer Bellman-Ford over adjacency lists of (v, cost, edge) arcs, the
    arc u -> v of an edge following its reference orientation iff u < v.

    Distances run from source, or from a virtual source with zero-cost arcs
    to every vertex when source is None; unreachable vertices stay None.
    Returns (dist, None), or (None, arcs) with arcs the (edge, sign) arcs of
    a negative cycle.  Without one, n rounds of relaxation leave the last
    round idle; a vertex relaxed in round n lies n predecessor steps behind
    a cycle of the predecessor graph, and every such cycle has negative cost
    (its arcs were tight, one strictly, when it closed), so it is simple and
    never runs forth and back along one edge.
    """
    n = len(adj)
    dist: list[int | None] = [0 if source in (None, v) else None for v in range(n)]
    pred: list[tuple[int, int] | None] = [None] * n  # (tail, edge) of the arc into v
    for rnd in range(1, n + 1):
        changed = False
        for u, arcs in enumerate(adj):
            du = dist[u]
            if du is None:
                continue
            for v, c, e in arcs:
                if dist[v] is None or du + c < dist[v]:
                    dist[v] = du + c
                    pred[v] = (u, e)
                    changed = True
                    if rnd == n:
                        return None, _predecessor_cycle(pred, v, n)
        if not changed:
            break
    return dist, None


def _predecessor_cycle(pred, v: int, n: int) -> list[tuple[int, int]]:
    """The (edge, sign) arcs, in order, of the predecessor-graph cycle that
    n steps back from v reach."""
    for _ in range(n):
        v = pred[v][0]
    arcs, x = [], v
    while True:
        u, e = pred[x]
        arcs.append((e, 1 if u < x else -1))
        x = u
        if x == v:
            return arcs[::-1]


def improving_cycle(p: Roadmap) -> OptimalityCertificate:
    """Optimal() iff no improving cycle exists; else an Improving certificate.

    Detection runs on the residual digraph: every edge is traversable both
    ways at +weight, except that reversing the flow on a support edge costs
    -weight.  A negative-cost directed cycle is exactly a cycle whose
    support-reversing weight exceeds the rest, and canceling it pays off.
    """
    _, arcs = bellman_ford(_residual_digraph(p))
    if arcs is None:
        return Optimal()
    cycle = OrientedCycle(p.graph, tuple(arcs))
    gain, _ = _cycle_gain(p, cycle)
    assert gain > 0
    return Improving(cycle, gain)


def _cycle_gain(p: Roadmap, cycle: OrientedCycle) -> tuple[Fraction, Fraction | None]:
    """(gain, step) of a cycle on p: the weight of the arcs that run against
    p's flow minus that of the others, and the least |p(e)| over the former
    (None if there is none)."""
    gain, step = ZERO, None
    for e, s in cycle.arcs:
        w = p.graph.edges[e].weight
        val = p[e]
        if val != 0 and (s > 0) == (val < 0):
            gain += w
            if step is None or abs(val) < step:
                step = abs(val)
        else:
            gain -= w
    return gain, step


def cancel_cycle(p: Roadmap, cert: OptimalityCertificate) -> Roadmap:
    """Push flow around an improving cycle until a support edge empties.

    The step size is the smallest |p(e)| over cycle edges traversed against
    the induced direction, so at least one support edge is zeroed while the
    transported problem stays fixed and the cost drops by step * gain.
    """
    if not isinstance(cert, Improving):
        raise NotImprovable("roadmap is already optimal")
    gain, alpha = _cycle_gain(p, cert.cycle)
    if gain <= 0:
        raise NotImprovable("certificate does not improve this roadmap")
    assert alpha is not None and alpha > 0
    out = p + cert.cycle.indicator().scale(alpha)
    assert out.cost() == p.cost() - alpha * gain
    assert out.problem() == p.problem()
    assert any(out[e] == 0 and p[e] != 0 for e, _ in cert.cycle.arcs)
    return out


def _certifies(adj, flow: list[int], pot: list[int]) -> bool:
    """Whether pot proves flow optimal: every residual arc has reduced cost
    >= 0, so no residual cycle has negative cost."""
    return all(c >= 0 for arcs in _reduced_adjacency(adj, flow, pot) for _, c, _ in arcs)


def _augment(flow: list[int], excess: list[int], source: int, sink: int, path) -> int:
    """Push flow along path, (edge, sign) arcs from source to sink: the
    least of the excess at source, the deficit at sink and |flow| on each
    arc that runs against the flow.  Returns the amount pushed."""
    amount = min(excess[source], -excess[sink],
                 *(abs(flow[e]) for e, s in path if flow[e] * s < 0))
    for e, s in path:
        flow[e] += s * amount
    excess[source] -= amount
    excess[sink] += amount
    return amount


def _solve(f: TransportationProblem) -> tuple[list[int], list[int]]:
    """The min-cost flow behind tc_norm, certified: (flow, pot).

    Weights are scaled by D, the space's denom (graph.adjacency), and masses
    by M, f's denom (f.scaled is the first excess), so flow (per edge, along
    its reference orientation, in units of 1/M) and pot (in units of 1/D)
    are integers.  Each round runs one Dijkstra on reduced costs from every
    vertex with excess left, stops at the first deficit vertex settled,
    augments along that shortest path and adds min(dist, dist[sink]) to the
    potentials, which keeps every reduced cost >= 0 (Ahuja-Magnanti-Orlin,
    ch. 9).  The Dijkstra reads the residual digraph through its (flow, pot)
    view, pricing each arc it relaxes, so a round costs the arcs it reaches,
    not a rebuild of all of them (_reduced_adjacency, which it equals).
    Each round lowers the total excess, so the loop ends.

    Certified in integers before it returns: the excess is zero everywhere,
    and pot leaves every residual arc a reduced cost >= 0, which is
    optimality.  Then l(v) = (pot[base] - pot[v]) / D is 1-Lipschitz on the
    edges, drops by the weight along the flow on every support edge, and
    pairs with f to the norm: the dual side of the certificate.
    """
    graph = f.graph
    adj = graph.adjacency
    excess = [f.scaled.get(v, 0) for v in range(graph.n)]
    flow = [0] * graph.m
    pot = [0] * graph.n
    while sources := [v for v, x in enumerate(excess) if x > 0]:
        sinks = {v for v, x in enumerate(excess) if x < 0}
        dist, pred_edge = _dijkstra(adj, sources, sinks, flow, pot)
        (sink,) = (v for v in sinks if dist[v] is not None)
        source, path = tree_path(graph, pred_edge, sink)
        _augment(flow, excess, source, sink, path)
        reach = dist[sink]
        pot = [p + (reach if d is None else d) for p, d in zip(pot, dist)]
    assert not any(excess)
    assert _certifies(adj, flow, pot)
    return flow, pot


def _optimum(f: TransportationProblem) -> tuple[list[int], list[int]]:
    """The one result of a solve: _solve's certified (flow, pot), checked
    in integers to transport f: the flow's divergence at each vertex is
    f.scaled there (all zero for f = 0, where no round runs).  Its units,
    D and M, are the space's denom and the problem's.

    Each reader builds from it only what it reads: the norm (_norm), a
    roadmap (tc_norm, maximal_roadmap) or the optimal face (maximal_support
    and the supporting functions of duality).
    """
    graph = f.graph
    flow, pot = _solve(f)
    for u, arcs in enumerate(graph.adjacency):
        out = sum(flow[e] if u < v else -flow[e] for v, _, e in arcs)
        assert out == f.scaled.get(u, 0), "the flow must transport f"
    return flow, pot


def _flow_cost(graph: CanonicalGraph, flow: list[int], scale: int) -> Fraction:
    """The cost of an _optimum flow: the integer total of |flow| times the
    scaled weight over the edges, divided once by D M, D the space's denom."""
    total = sum(abs(flow[e]) * w for u, arcs in enumerate(graph.adjacency)
                for v, w, e in arcs if u < v)
    return Fraction(total, graph.space.denom * scale)


def _norm(f: TransportationProblem) -> Fraction:
    """tc_norm's norm alone, with no roadmap built."""
    flow, _ = _optimum(f)
    return _flow_cost(f.graph, flow, f.denom)


def _roadmap(graph: CanonicalGraph, flow: list[int], scale: int) -> tuple[Fraction, Roadmap]:
    """The norm and the roadmap of an _optimum flow, whose Fraction cost
    must be that norm."""
    cost = _flow_cost(graph, flow, scale)
    p = Roadmap(graph, {e: Fraction(x, scale) for e, x in enumerate(flow) if x})
    assert cost == p.cost()
    return cost, p


def tc_norm(f: TransportationProblem) -> tuple[Fraction, Roadmap]:
    """Exact TC norm of f and an optimal roadmap achieving it.

    The min-cost flow of _solve, on weights scaled by D, the space's denom,
    and masses by M, f's denom, is certified optimal and checked to transport
    f in integers (see _optimum) before the Fractions of the result are built.
    """
    flow, _ = _optimum(f)
    return _roadmap(f.graph, flow, f.denom)


# --- the optimal face, from the solver's certificate --------------------------

def residual_distances(graph: CanonicalGraph, flow: list[int], pot: list[int]) -> list[Fraction]:
    """Distances from the base point in the residual digraph of an optimal
    flow, pot certifying it (an _optimum result, pot in units of 1/D, D the
    space's denom).  One Dijkstra runs at the reduced costs, all >= 0, and
    each distance is shifted back by pot and divided by D.  With
    (-flow, -pot) they are the distances to the base point: the transposed
    digraph is that of -flow, and -pot leaves its arcs the same reduced costs.
    """
    base = graph.space.base_point
    dist, _ = _dijkstra(graph.adjacency, [base], (), flow, pot)
    return [Fraction(d - pot[base] + x, graph.space.denom) for d, x in zip(dist, pot)]


def zero_cost_cycles(graph: CanonicalGraph, flow: list[int],
                     pot: list[int]) -> dict[int, OrientedCycle]:
    """A zero-cost residual cycle through each edge without flow that some
    optimal flow uses (flow optimal, pot certifying it; the other optima
    differ from it by such cycles).  Each arc of a zero-cost cycle has
    reduced cost 0 under every such pot, so the breadth-first tree paths
    along the arcs pot prices at 0 that close the cycles do not depend on pot.
    """
    tight = [[(v, e) for v, c, e in arcs if c == 0]
             for arcs in _reduced_adjacency(graph.adjacency, flow, pot)]
    trees: dict[int, list] = {}
    cycles: dict[int, OrientedCycle] = {}
    for u in range(graph.n):
        for v, e in tight[u]:
            if flow[e]:
                continue
            if v not in trees:
                trees[v] = _tight_tree(tight, [v])
            root, path = tree_path(graph, trees[v], u)
            if root == v:
                cycles[e] = OrientedCycle(graph, ((e, 1 if u < v else -1), *path))
    return cycles


def _tight_tree(tight, roots) -> list[int | None]:
    """Breadth-first predecessor edges along (v, edge) arcs (tight ones, or
    a forest's), from each root in turn that no earlier search reached."""
    pred: list[int | None] = [None] * len(tight)
    seen = [False] * len(tight)
    for root in roots:
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for x in queue:
            for y, e in tight[x]:
                if not seen[y]:
                    seen[y] = True
                    pred[y] = e
                    queue.append(y)
    return pred


def maximal_support(f: TransportationProblem) -> tuple[frozenset[int], dict[int, int]]:
    """Edges used by some optimal roadmap for f, with their common signs.

    The support of one optimal roadmap plus every edge on a zero-cost
    residual cycle (see zero_cost_cycles), signed by the cycle's direction.
    Empty for f = 0: at zero flow and potentials every residual arc costs
    its weight, which is positive.
    """
    flow, pot = _optimum(f)
    signs = {e: 1 if x > 0 else -1 for e, x in enumerate(flow) if x}
    cycles = zero_cost_cycles(f.graph, flow, pot)
    signs.update((e, cyc.arcs[0][1]) for e, cyc in cycles.items())
    return frozenset(signs), signs


def maximal_roadmap(f: TransportationProblem) -> Roadmap:
    """An optimal roadmap whose support is the whole maximal support.

    Adds eps times each zero-cost cycle to the optimal flow.  With eps
    min |flow| / (c + 1), c the number of cycles, no support edge empties or
    flips, and added edges are traversed one way only, so the cost stays the
    norm.  In integers, in units of 1/(M (c + 1)), M f's denom: flow times
    c + 1 plus min |flow| times each cycle's signs.  Zero for f = 0, which
    has neither flow nor zero-cost cycles (see maximal_support).
    """
    graph = f.graph
    flow, pot = _optimum(f)
    cycles = zero_cost_cycles(graph, flow, pot)
    parts = len(cycles) + 1
    eps = min((abs(x) for x in flow if x), default=0)
    wide = [x * parts for x in flow]
    for cyc in cycles.values():
        for e, s in cyc.arcs:
            wide[e] += s * eps
    cost, out = _roadmap(graph, wide, f.denom * parts)
    assert out.support() == {e for e, x in enumerate(flow) if x} | cycles.keys()
    assert out.problem() == f
    assert cost == _flow_cost(graph, flow, f.denom)
    return out


def directed_graph_of(f: TransportationProblem) -> DirectedSubgraph:
    """Maximal support directed by the transport direction on each edge."""
    if f.is_zero():
        raise NullProblem("the zero problem has no directed graph")
    _, signs = maximal_support(f)
    arcs = []
    for idx, sigma in signs.items():
        e = f.graph.edges[idx]
        arcs.append((e.tail, e.head) if sigma > 0 else (e.head, e.tail))
    return DirectedSubgraph(f.graph, tuple(arcs))
