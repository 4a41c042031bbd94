"""Reference implementations the solver is checked against.

They avoid the solver's code paths, as tcspace.oracle does:

* a cut-sum evaluator for spaces whose canonical graph is a tree,
* per-edge LPs over the optimal face of roadmaps for the maximal support,
* the dual (supporting-function) LP and an exact uniqueness probe over its
  optimal face,
* the O(n^3) midpoint scan of a scaled distance matrix, with the deletion
  mask of its canonical graph.

The LPs run on the exact simplex in tcspace.lp, restated in its one form
(equality rows, nonnegative columns, a minimum) by the helpers below: a <=
row gains a slack column, a free variable is a pair of columns, and a
maximum is the negated minimum of the negated objective.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from tcspace.errors import DomainError, NullProblem
from tcspace.lp import ExactLP, LPResult, LPStatus
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


# --- LPs in ExactLP's one form: equality rows, nonnegative columns, minimum ---

def free_var(lp: ExactLP) -> tuple[int, int]:
    """A free variable as a pair (p, q) of nonnegative columns: it is p - q."""
    return lp.add_var(), lp.add_var()


def on_columns(coeffs: dict) -> dict:
    """Coefficients keyed by columns and free pairs, keyed by columns: c on
    a pair (p, q) is c on p and -c on q."""
    out = {}
    for var, c in coeffs.items():
        if isinstance(var, tuple):
            out[var[0]], out[var[1]] = c, -c
        else:
            out[var] = c
    return out


def add_le(lp: ExactLP, coeffs: dict, rhs) -> None:
    """coeffs . x <= rhs, as an equality with a slack column of its own (its
    coefficient 1 in rhs's type)."""
    lp.add_eq({**on_columns(coeffs), lp.add_var(): type(rhs)(1)}, rhs)


def maximum(lp: ExactLP, coeffs: dict) -> LPResult:
    """max coeffs . x over lp, as the negated minimum of -coeffs . x."""
    lp.minimize({col: -c for col, c in on_columns(coeffs).items()})
    res = lp.solve()
    return res if res.value is None else replace(res, value=-res.value)


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
    add_le(lp, {col: graph.edges[i].weight for cols in (fwd, bwd)
                for i, col in enumerate(cols)}, oracle_tc_norm(f))
    signs: dict[int, int] = {}
    for edge in range(graph.m):
        for sigma in (1, -1):
            res = maximum(lp, {fwd[edge]: Fraction(sigma), bwd[edge]: Fraction(-sigma)})
            assert res.status == LPStatus.OPTIMAL
            if res.value > 0:
                assert edge not in signs, "optimal roadmaps disagree in sign"
                signs[edge] = sigma
    return frozenset(signs), signs


# --- the supporting (dual) LP -------------------------------------------------

def _supporting_lp(f: TransportationProblem):
    """The 1-Lipschitz-on-edges l with l(base) = 0, each l(v) a free pair,
    and the objective sum f(v) l(v) to maximize."""
    graph = f.graph
    lp = ExactLP()
    lvar = [free_var(lp) for _ in range(graph.n)]
    lp.add_eq(on_columns({lvar[graph.space.base_point]: Fraction(1)}), 0)
    for e in graph.edges:
        add_le(lp, {lvar[e.tail]: Fraction(1), lvar[e.head]: Fraction(-1)}, e.weight)
        add_le(lp, {lvar[e.tail]: Fraction(-1), lvar[e.head]: Fraction(1)}, e.weight)
    return lp, lvar, {lvar[v]: f[v] for v in f.support()}


def dual_optimum(f: TransportationProblem) -> Fraction:
    """Optimum of the supporting LP (equals the TC norm: no duality gap)."""
    if f.is_zero():
        return ZERO
    lp, _, obj = _supporting_lp(f)
    res = maximum(lp, obj)
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
    lp, lvar, obj = _supporting_lp(f)
    res = maximum(lp, obj)
    assert res.status == LPStatus.OPTIMAL
    lp.add_eq(on_columns(obj), res.value)
    for v in range(graph.n):
        if v == graph.space.base_point:
            continue
        hi = maximum(lp, {lvar[v]: Fraction(1)})
        lp.minimize(on_columns({lvar[v]: Fraction(1)}))
        lo = lp.solve()
        assert hi.status == lo.status == LPStatus.OPTIMAL
        if lo.value != hi.value:
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
