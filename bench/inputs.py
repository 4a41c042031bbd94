"""Seeded inputs for the benchmark, made without the package under test.

Every space is kept twice: as the JSON a command reads, and as an integer
distance matrix in multiples of `unit` that the output checks use.  The
matrices come from this file's own shortest-path code, so a check never
trusts the program's metric code.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SCALE = 12  # random spaces: every distance is a multiple of 1/SCALE


@dataclass
class Space:
    """A generated metric space: point names, scaled distances, JSON form."""

    names: list[str]
    dist: list[list[int]]  # d(i, j) / unit, exact
    unit: Fraction
    json_obj: dict
    generations: list[int] | None = None  # recursive families only

    def __post_init__(self):
        self.index = {name: i for i, name in enumerate(self.names)}

    @property
    def n(self) -> int:
        return len(self.names)

    def max_hop_degree(self) -> int:
        """Maximum degree of a unit-weight graph: its edges are the pairs one
        distance unit apart."""
        return max(row.count(1) for row in self.dist)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j] * self.unit


def _metric_json(names: list[str], dist: list[list[int]], unit: Fraction) -> dict:
    lits: dict[int, str] = {}
    rows = []
    for row in dist:
        out = []
        for x in row:
            lit = lits.get(x)
            if lit is None:
                lit = lits[x] = str(x * unit)
            out.append(lit)
        rows.append(out)
    return {"points": names, "dist": rows}


def all_pairs(n: int, edges: list[tuple[int, int, int]]) -> list[list[int]]:
    """Exact shortest-path matrix of a connected graph with integer weights."""
    inf = np.iinfo(np.int64).max // 4
    mat = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(mat, 0)
    for i, j, w in edges:
        mat[i, j] = mat[j, i] = min(mat[i, j], w)
    for k in range(n):
        np.minimum(mat, mat[:, k:k + 1] + mat[k:k + 1, :], out=mat)
    if (mat >= inf).any():
        raise ValueError("generated graph is not connected")
    return mat.tolist()


def dense_space(rng: random.Random, n: int) -> Space:
    """Distances drawn from {1, 1 + 1/12, ..., 2}: every triangle holds."""
    names = [f"p{i}" for i in range(n)]
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = SCALE + rng.randint(0, SCALE)
    unit = Fraction(1, SCALE)
    return Space(names, dist, unit, _metric_json(names, dist, unit))


def sparse_space(rng: random.Random, n: int, extra: int) -> Space:
    """Path metric of a random spanning tree plus `extra` random edges.

    Weights lie in [1, 2], so almost every generated edge stays an edge of
    the canonical graph and the edge count barely depends on the seed.  The
    command reads the weighted graph, not the matrix.
    """
    names = [f"q{i}" for i in range(n)]
    pairs = {}
    for i in range(1, n):
        pairs[(rng.randrange(i), i)] = None
    while len(pairs) < n - 1 + extra:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.setdefault((i, j), None)
    edges = [(i, j, rng.randint(SCALE, 2 * SCALE)) for i, j in pairs]
    unit = Fraction(1, SCALE)
    obj = {"vertices": names,
           "edges": [{"u": names[i], "v": names[j], "w": str(w * unit)}
                     for i, j, w in edges]}
    return Space(names, all_pairs(n, edges), unit, obj)


def spread_problem(rng: random.Random, space: Space) -> dict[str, int]:
    """Integer masses in [-6, 6] on (nearly) every point, summing to zero."""
    vals = [rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(space.n)]
    while (total := sum(vals)) != 0:
        i = rng.randrange(space.n)
        step = -1 if total > 0 else 1
        if abs(vals[i] + step) <= 6:
            vals[i] += step
    return {name: v for name, v in zip(space.names, vals) if v}


def problem_json(masses: dict[str, int]) -> dict:
    return {"f": {name: str(v) for name, v in sorted(masses.items())}}


# --- graph families ----------------------------------------------------------

@dataclass
class Family:
    """A recursive family built level by level from its definition.

    Vertex 0 is the bottom port and vertex 1 the top port.  `levels[j]` is
    the edge list of the level-j graph; vertices of generation <= j span it.
    """

    kind: str  # "diamond" or "recursive"
    legs: int
    levels: list[list[tuple[int, int]]]
    generations: list[int]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def degrees(self, level: int) -> list[int]:
        """Vertex degrees in the level graph (0 for vertices born later)."""
        deg = [0] * len(self.generations)
        for u, v in self.levels[level]:
            deg[u] += 1
            deg[v] += 1
        return deg


def composed_family(kind: str, legs: int, depth: int) -> Family:
    """Replace every edge u -> v by K_{2,legs} with ports u, v, depth times.

    legs = 2 is the diamond D_depth; legs = 3 is the k2n family.
    """
    edges = [(0, 1)]
    generations = [0, 0]
    levels = [list(edges)]
    for level in range(1, depth + 1):
        new_edges = []
        for u, v in edges:
            for _ in range(legs):
                mid = len(generations)
                generations.append(level)
                new_edges.extend(((u, mid), (mid, v)))
        edges = new_edges
        levels.append(list(edges))
    return Family(kind, legs, levels, generations)


def hop_matrix(n: int, edges) -> list[list[int]]:
    """All-pairs hop counts by one breadth-first search per source."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(n):
        hops = [-1] * n
        hops[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            h = hops[u] + 1
            for v in adj[u]:
                if hops[v] < 0:
                    hops[v] = h
                    queue.append(v)
        if min(hops) < 0:
            raise ValueError("generated graph is not connected")
        rows.append(hops)
    return rows


def relabelled_space(rng: random.Random, n: int, edges, unit: Fraction,
                     generations: list[int] | None = None) -> Space:
    """Path metric of a unit-weight graph, with seeded names and point order.

    Names and order carry the seed; the metric itself does not depend on it.
    """
    hops = hop_matrix(n, edges)
    labels = list(range(n))
    rng.shuffle(labels)
    order = list(range(n))
    rng.shuffle(order)
    names = [f"x{labels[v]}" for v in order]
    dist = [[hops[a][b] for b in order] for a in order]
    gens = None if generations is None else [generations[v] for v in order]
    obj = _metric_json(names, dist, unit)
    obj["base"] = names[order.index(0)]
    return Space(names, dist, unit, obj, gens)


def family_space(rng: random.Random, family: Family) -> Space:
    """The top level of a family as a seeded, relabelled metric space."""
    n = len(family.generations)
    return relabelled_space(rng, n, family.levels[-1],
                            Fraction(1, 2 ** family.depth), family.generations)


def descriptor_json(family: Family, space: Space) -> dict:
    gens = {name: g for name, g in zip(space.names, space.generations)}
    if family.kind == "diamond":
        return {"family": "diamond", "params": {"n": family.depth},
                "generations": gens}
    return {"family": "recursive",
            "params": {"n": family.depth, "delta": family.legs},
            "generations": gens}


def grid_space(rng: random.Random, n: int) -> Space:
    edges = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append((r * n + c, r * n + c + 1))
            if r + 1 < n:
                edges.append((r * n + c, (r + 1) * n + c))
    return relabelled_space(rng, n * n, edges, Fraction(1))
