"""Independent verification backends.

These deliberately avoid the solver's code paths:

* a dense transportation LP over supply x demand pairs (no graph at all)
  giving the exact TC norm,
* a cut-sum evaluator for spaces whose canonical graph is a tree,
* the dual (supporting-function) LP and an exact uniqueness probe over its
  optimal face,
* per-edge LPs over the optimal face of roadmaps for the maximal support.

All run on the exact simplex in :mod:`tcspace.lp`.

The transportation LP is posed on integer masses: f times M, M the lcm of
its denominators, with the value divided by M at the end.  It has one row
per source and one per sink but the first; that row is implied, since f
sums to zero.  Its constraint matrix, the incidence matrix of a complete
bipartite graph, is totally unimodular, and so is the matrix with the slack
and artificial columns beside it.  With integer masses every row keeps
scale 1, and the divisor of the fraction-free simplex, the determinant of
the basis up to sign, is 1: every pivot is 1, and so is every divisor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NotATree, NullProblem
from .lp import ExactLP, LPStatus
from .rational import ZERO
from .vectors import TransportationProblem


def oracle_tc_norm(f: TransportationProblem) -> Fraction:
    """Exact TC norm via the dense transportation LP.

    Minimizes sum a_xy * d(x,y) over nonnegative moves between the supply
    and demand supports with the marginals prescribed by f, in units of 1/M
    (M the lcm of f's denominators).  The first sink's row is left out: the
    other rows imply it.  No shortest paths, no edges: this shares nothing
    with the shortest-path solver.
    """
    if f.is_zero():
        return ZERO
    dist = f.graph.space.dist
    scale = lcm(*(x.denominator for x in f.values.values()))
    mass = {v: x.numerator * (scale // x.denominator) for v, x in f.values.items()}
    sources = sorted(v for v, a in mass.items() if a > 0)
    sinks = sorted(v for v, a in mass.items() if a < 0)
    lp = ExactLP()
    cell = {(x, y): lp.add_var() for x in sources for y in sinks}
    for x in sources:
        lp.add_eq({cell[x, y]: 1 for y in sinks}, mass[x])
    for y in sinks[1:]:
        lp.add_eq({cell[x, y]: 1 for x in sources}, -mass[y])
    lp.minimize({cell[x, y]: dist[x][y] for x in sources for y in sinks})
    res = lp.solve()
    assert res.status == LPStatus.OPTIMAL
    return res.value / scale


def oracle_tree_norm(f: TransportationProblem) -> Fraction:
    """TC norm on a tree: each edge contributes weight * |mass across it|.

    Raises NotATree unless the canonical graph of f's space is a tree.
    """
    graph = f.graph
    if graph.m != graph.n - 1:
        raise NotATree("canonical graph has cycles")
    children: dict[int, list[tuple[int, int]]] = {v: [] for v in range(graph.n)}
    order = []
    seen = {0}
    stack = [0]
    parent_edge: dict[int, int] = {}
    while stack:
        u = stack.pop()
        order.append(u)
        for eidx, v in graph.incident(u):
            if v not in seen:
                seen.add(v)
                parent_edge[v] = eidx
                children[u].append((eidx, v))
                stack.append(v)
    assert len(order) == graph.n
    subtree = {v: f[v] for v in range(graph.n)}
    for u in reversed(order):
        for _, v in children[u]:
            subtree[u] += subtree[v]
    total = ZERO
    for v, eidx in parent_edge.items():
        total += graph.edges[eidx].weight * abs(subtree[v])
    return total


def oracle_maximal_support(f: TransportationProblem) -> tuple[frozenset[int], dict[int, int]]:
    """Maximal optimal support and signs: an edge is in it iff some sign
    sigma has max sigma * p(edge) > 0 over roadmaps p for f (forward and
    backward flows) of linearized cost at most oracle_tc_norm(f)."""
    if f.is_zero():
        return frozenset(), {}
    graph = f.graph
    lp = ExactLP()
    fwd = [lp.add_var() for _ in range(graph.m)]
    bwd = [lp.add_var() for _ in range(graph.m)]
    for v in range(graph.n):
        coeffs: dict[int, Fraction] = {}
        for eidx, _ in graph.incident(v):
            s = 1 if graph.edges[eidx].tail == v else -1
            coeffs[fwd[eidx]], coeffs[bwd[eidx]] = Fraction(s), Fraction(-s)
        lp.add_eq(coeffs, f[v])
    lp.add_le({col: graph.edges[i].weight for cols in (fwd, bwd)
               for i, col in enumerate(cols)}, oracle_tc_norm(f))
    signs: dict[int, int] = {}
    for edge in range(graph.m):
        for sigma in (1, -1):
            lp.maximize({fwd[edge]: Fraction(sigma), bwd[edge]: Fraction(-sigma)})
            res = lp.solve()
            assert res.status == LPStatus.OPTIMAL
            if res.value > 0:
                assert edge not in signs, "optimal roadmaps disagree in sign"
                signs[edge] = sigma
    return frozenset(signs), signs


# --- the supporting (dual) LP -------------------------------------------------

def _supporting_lp(f: TransportationProblem):
    """max sum f(v) l(v) over 1-Lipschitz-on-edges l with l(base) = 0."""
    graph = f.graph
    lp = ExactLP()
    lvar = [lp.add_var(free=True) for _ in range(graph.n)]
    lp.add_eq({lvar[graph.space.base_point]: Fraction(1)}, 0)
    for e in graph.edges:
        lp.add_le({lvar[e.tail]: Fraction(1), lvar[e.head]: Fraction(-1)}, e.weight)
        lp.add_le({lvar[e.tail]: Fraction(-1), lvar[e.head]: Fraction(1)}, e.weight)
    lp.maximize({lvar[v]: f[v] for v in f.support()})
    return lp, lvar


def dual_optimum(f: TransportationProblem) -> Fraction:
    """Optimum of the supporting LP (equals the TC norm: no duality gap)."""
    if f.is_zero():
        return ZERO
    lp, _ = _supporting_lp(f)
    res = lp.solve()
    assert res.status == LPStatus.OPTIMAL
    return res.value


def supporting_unique_probe(f: TransportationProblem) -> bool:
    """Whether the supporting function for f is unique, by LP face probing.

    Pins the dual objective at its optimum, then maximizes and minimizes
    each coordinate over the optimal face; the face is a single point (the
    supporting function is unique) iff every pair of extrema coincides.
    """
    if f.is_zero():
        raise NullProblem("uniqueness probe undefined for the zero problem")
    graph = f.graph
    base = lambda: _supporting_lp(f)
    lp0, _ = base()
    res = lp0.solve()
    assert res.status == LPStatus.OPTIMAL
    best = res.value
    obj = {v: f[v] for v in f.support()}
    for v in range(graph.n):
        if v == graph.space.base_point:
            continue
        lo = hi = None
        for sense in ("max", "min"):
            lp, lvar = base()
            lp.add_eq({lvar[u]: c for u, c in obj.items()}, best)
            if sense == "max":
                lp.maximize({lvar[v]: Fraction(1)})
            else:
                lp.minimize({lvar[v]: Fraction(1)})
            r = lp.solve()
            assert r.status == LPStatus.OPTIMAL
            if sense == "max":
                hi = r.value
            else:
                lo = r.value
        if lo != hi:
            return False
    return True
