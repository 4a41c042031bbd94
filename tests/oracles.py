"""Reference implementations the solver is checked against.

They avoid the solver's code paths, as tcspace.oracle does:

* a cut-sum evaluator for spaces whose canonical graph is a tree,
* per-edge LPs over the optimal face of roadmaps for the maximal support,
* the dual (supporting-function) LP and an exact uniqueness probe over its
  optimal face,
* the O(n^3) midpoint scan of a scaled distance matrix, with the deletion
  mask of its canonical graph.

The LPs run on the exact simplex in tcspace.lp.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from tcspace.errors import DomainError, NullProblem
from tcspace.lp import ExactLP, LPStatus
from tcspace.oracle import oracle_tc_norm
from tcspace.rational import ZERO
from tcspace.vectors import TransportationProblem


class NotATree(DomainError):
    """Tree-only oracle applied to a space whose canonical graph has cycles."""


def incident(graph, v: int) -> tuple[tuple[int, int], ...]:
    """(edge_index, neighbour) pairs at v, sorted by neighbour."""
    return tuple([(idx, u) for u, _, idx in graph.adjacency[v]])


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
        for eidx, v in incident(graph, u):
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
        for eidx, _ in incident(graph, v):
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


def midpoint_scan(mat: np.ndarray) -> tuple[tuple[int, int, int] | None, np.ndarray | None]:
    """Over the midpoints j of a scaled matrix with zero diagonal and positive
    entries elsewhere: (the first (i, j, k) with d(i,k) > d(i,j) + d(j,k),
    None), or (None, mask) when there is none, mask[i, k] true iff some j
    outside {i, k} gives d(i,j) + d(j,k) = d(i,k): the pairs the canonical
    graph drops."""
    n = len(mat)
    via = np.empty_like(mat)
    hit = np.empty((n, n), dtype=bool)
    mask = np.zeros((n, n), dtype=bool)
    for j in range(n):
        np.add(mat[:, j, None], mat[j], out=via)
        np.greater(mat, via, out=hit)
        if hit.any():
            i, k = divmod(int(hit.argmax()), n)  # first in row-major order
            return (i, j, k), None
        np.equal(mat, via, out=hit)
        hit[j, :] = False  # j = i and j = k always give equality
        hit[:, j] = False
        mask |= hit
    return None, mask
