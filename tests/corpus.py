"""Shared test corpus: named instances, generators, search helpers, and the
helpers over the library's types that only tests use."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from tcspace import (
    CanonicalGraph,
    CycleBasis,
    DirectedSubgraph,
    InvalidInput,
    LinftyCandidate,
    LipschitzFunction,
    MetricSpace,
    Roadmap,
    TransportationPlan,
    TransportationProblem,
    canonical_graph,
    complete_bipartite,
    cycle,
    diamond,
    space_from_weighted_graph,
    tc_norm,
    to_fraction,
    validate_metric,
)
from tcspace.metric import _dijkstra
from tcspace.randgen import random_metric_space, random_problem
from tcspace.rational import ZERO


# --- helpers over the library's types ------------------------------------------

def point_difference(graph: CanonicalGraph, u: str, v: str,
                     amount=1) -> TransportationProblem:
    """amount * (indicator(u) - indicator(v))."""
    a = to_fraction(amount)
    return (TransportationProblem.from_names(graph, {u: a, v: -a}) if u != v
            else TransportationProblem.zero(graph))


def d_name(space: MetricSpace, u: str, v: str) -> Fraction:
    return space.dist[space.index_of(u)][space.index_of(v)]


def is_acyclic(sub: DirectedSubgraph) -> bool:
    """Kahn's peeling, without recursion: acyclic iff it removes every arc."""
    out: dict[int, list[int]] = {}
    indegree: dict[int, int] = {}
    for u, v in sub.arcs:
        out.setdefault(u, []).append(v)
        indegree[v] = indegree.get(v, 0) + 1
    free = [u for u in out if u not in indegree]
    while free:
        for v in out.get(free.pop(), ()):
            indegree[v] -= 1
            if not indegree[v]:
                free.append(v)
    return not any(indegree.values())


def is_potential(plan: TransportationPlan, l: LipschitzFunction) -> bool:
    """Whether every transportation pair of the plan is tight for l."""
    if plan.graph is not l.graph:
        raise InvalidInput("plan and function live on different graphs")
    d = plan.graph.space.dist
    return all(l[x] - l[y] == d[x][y] for x, y, _ in plan.terms)


@dataclass
class Instance:
    name: str
    graph: CanonicalGraph
    problems: list[TransportationProblem]

    @property
    def n(self) -> int:
        return self.graph.n


def _standard_problems(graph: CanonicalGraph, rng: random.Random):
    pts = graph.space.points
    out = [point_difference(graph, pts[0], pts[-1])]
    if graph.n >= 3:
        out.append(TransportationProblem.from_names(
            graph, {pts[0]: 2, pts[1]: -1, pts[2]: -1}))
    if graph.n >= 4:
        out.append(TransportationProblem.from_names(
            graph, {pts[0]: 1, pts[1]: -1, pts[2]: 1, pts[3]: -1}))
    for _ in range(2):
        out.append(random_problem(rng, graph, nonzero=True))
    return out


def _band_metric_4pt() -> MetricSpace:
    # All distances strictly inside (1, 2): every triangle inequality strict.
    d = [["0", "1", "5/4", "3/2"],
         ["1", "0", "7/6", "4/3"],
         ["5/4", "7/6", "0", "9/8"],
         ["3/2", "4/3", "9/8", "0"]]
    return validate_metric(["A", "B", "C", "D"], d)


def _weighted_c4() -> MetricSpace:
    return space_from_weighted_graph(
        ["A", "B", "C", "D"],
        [("A", "B", "1"), ("B", "C", "2"), ("C", "D", "1"), ("A", "D", "3/2")])


def build_corpus() -> list[Instance]:
    rng = random.Random(20240529)
    spaces: list[tuple[str, MetricSpace]] = [
        ("pair_5_2", validate_metric(["A", "B"], [["0", "5/2"], ["5/2", "0"]])),
        ("path3_unit", validate_metric(
            ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])),
        ("path3_weighted", space_from_weighted_graph(
            ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")])),
        ("c4", cycle(4)),
        ("c5", cycle(5)),
        ("k4_strict", _band_metric_4pt()),
        ("star4", space_from_weighted_graph(
            ["O", "L1", "L2", "L3"],
            [("O", "L1", "1"), ("O", "L2", "1"), ("O", "L3", "1")])),
        ("tree5", space_from_weighted_graph(
            ["A", "B", "C", "D", "E"],
            [("A", "B", "2"), ("B", "C", "1/2"), ("B", "D", "3"), ("A", "E", "1")])),
        ("weighted_c4", _weighted_c4()),
        ("k23", complete_bipartite(2, 3)),
        ("k24", complete_bipartite(2, 4)),
        ("diamond1", diamond(1)[0]),
    ]
    for i in range(4):
        spaces.append((f"rand6_{i}", random_metric_space(rng, rng.randint(3, 6))))
    for i in range(2):
        spaces.append((f"rand8_{i}", random_metric_space(rng, rng.randint(7, 8))))
    out = []
    for name, space in spaces:
        graph = canonical_graph(space)
        out.append(Instance(name, graph, _standard_problems(graph, rng)))
    return out


CORPUS = build_corpus()
SMALL_CORPUS = [inst for inst in CORPUS if inst.n <= 6]


def c4_graph() -> CanonicalGraph:
    return next(inst for inst in CORPUS if inst.name == "c4").graph


def dijkstra_rows(adj):
    """All-pairs distances over metric._adjacency arcs, one _dijkstra per
    source at zero flow and potentials (None: unreachable): the reference for
    path metrics."""
    flow, pot = [0] * sum(map(len, adj)), [0] * len(adj)  # an edge index < its arc count
    return [_dijkstra(adj, [s], (), flow, pot)[0] for s in range(len(adj))]


# --- random trees, roadmaps, cycle elements and potentials---------------------------

def random_tree_space(rng: random.Random, n_points: int) -> MetricSpace:
    """Path metric of a random weighted tree (canonical graph is the tree)."""
    names = [f"P{i}" for i in range(n_points)]
    edges = [(names[rng.randrange(i)], names[i], Fraction(rng.randint(1, 12), rng.randint(1, 4)))
             for i in range(1, n_points)]
    return space_from_weighted_graph(names, edges)


def random_roadmap(rng: random.Random, graph: CanonicalGraph) -> Roadmap:
    vals = {}
    for idx in range(graph.m):
        if rng.random() < 0.6:
            vals[idx] = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
    return Roadmap(graph, vals)


def random_cycle_element(rng: random.Random, basis: CycleBasis) -> Roadmap:
    """Random rational combination of the fundamental cycles."""
    out = Roadmap.zero(basis.graph)
    for cyc in basis.cycles:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        if c != 0:
            out = out + cyc.indicator().scale(c)
    return out


def random_lipschitz(rng: random.Random, graph: CanonicalGraph) -> LipschitzFunction:
    """Random feasible potential; rescaled so some edge is exactly tight
    about half the time."""
    raw = [Fraction(rng.randint(-10, 10), rng.randint(1, 4))
           for _ in range(graph.n)]
    base = graph.space.base_point
    raw = [x - raw[base] for x in raw]
    ratio = ZERO
    for e in graph.edges:
        gap = abs(raw[e.tail] - raw[e.head]) / e.weight
        ratio = max(ratio, gap)
    if ratio > 0 and (ratio > 1 or rng.random() < 0.5):
        raw = [x / ratio for x in raw]
    return LipschitzFunction(graph, tuple(raw))


# --- bounded search for sign-vector bases -------------------------------------

def integer_problem_pool(graph: CanonicalGraph, bound: int = 1):
    """Nonzero zero-sum integer vectors up to scaling and global sign,
    normalized to TC norm 1."""
    pool = []
    seen = set()
    for vec in itertools.product(range(-bound, bound + 1), repeat=graph.n):
        if sum(vec) != 0 or not any(vec):
            continue
        g = 0
        for x in vec:
            g = gcd(g, abs(x))
        core = tuple(x // g for x in vec)
        if core in seen or tuple(-x for x in core) in seen:
            continue
        seen.add(core)
        f = TransportationProblem(
            graph, {i: Fraction(v) for i, v in enumerate(core) if v})
        norm, _ = tc_norm(f)
        pool.append(f.scale(1 / norm))
    return pool


def _signs_ok(graph: CanonicalGraph, problems) -> bool:
    for theta in itertools.product((1, -1), repeat=len(problems)):
        comb = TransportationProblem.zero(graph)
        for f, s in zip(problems, theta):
            comb = comb + f.scale(s)
        if tc_norm(comb)[0] != 1:
            return False
    return True


def search_sign_basis(graph: CanonicalGraph, k: int,
                      bound: int = 1) -> LinftyCandidate | None:
    """Bounded exhaustive search for k problems whose sign combinations all
    have norm exactly 1; None when the pool contains no such family."""
    pool = integer_problem_pool(graph, bound)

    def extend(chosen, start):
        if len(chosen) == k:
            return list(chosen)
        for idx in range(start, len(pool)):
            cand = pool[idx]
            if not _signs_ok(graph, chosen + [cand]):
                continue
            hit = extend(chosen + [cand], idx + 1)
            if hit:
                return hit
        return None

    found = extend([], 0)
    return LinftyCandidate(tuple(found)) if found else None


def grid_probe(cand: LinftyCandidate, resolution: int) -> bool:
    """Whether ||sum a_i f_i|| = max |a_i| at every point a of a rational grid
    on [-1, 1]^k, resolution points per axis: a sampled reference for
    verify_linfty_basis, one norm per grid point."""
    axis = [Fraction(2 * i - (resolution - 1), resolution - 1) for i in range(resolution)]
    return all(tc_norm(cand.combine(coeffs))[0] == max(map(abs, coeffs))
               for coeffs in itertools.product(axis, repeat=cand.k))


# --- metric isomorphism (small instances) --------------------------------------

def metric_isomorphism(a: MetricSpace, b: MetricSpace,
                       klass_a=None, klass_b=None) -> dict | None:
    """A distance-preserving bijection a->b (by name), or None.

    Optional klass maps (name -> label) must also be preserved, which lets
    tests demand generation-respecting isomorphisms.
    """
    if a.n != b.n:
        return None
    ka = klass_a or {}
    kb = klass_b or {}

    def signature(space, klass):
        return [
            (tuple(sorted(space.dist[i])), klass.get(space.points[i]))
            for i in range(space.n)
        ]

    sig_a = signature(a, ka)
    sig_b = signature(b, kb)
    if sorted(sig_a) != sorted(sig_b):
        return None
    assign: list[int | None] = [None] * a.n
    used = [False] * b.n

    def backtrack(i: int) -> bool:
        if i == a.n:
            return True
        for j in range(b.n):
            if used[j] or sig_a[i] != sig_b[j]:
                continue
            if any(assign[p] is not None and a.dist[i][p] != b.dist[j][assign[p]]
                   for p in range(i)):
                continue
            assign[i] = j
            used[j] = True
            if backtrack(i + 1):
                return True
            assign[i] = None
            used[j] = False
        return False

    if not backtrack(0):
        return None
    return {a.points[i]: b.points[assign[i]] for i in range(a.n)}
