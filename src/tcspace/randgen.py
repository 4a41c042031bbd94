"""Seeded random instances: spaces and problems.

Shared by the test suite and the oracle-check batch command.  Everything is
driven by a caller-supplied random.Random, so fixed seeds reproduce byte-
identical instances.  The draws are integers from the generator to the
validated space and the problem's values: a matrix in units of 1/denom, a
graph's weights in twelfths, masses in sixths.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import CanonicalGraph
from .metric import MetricSpace, _floyd_warshall, _path_space, validate_scaled
from .vectors import TransportationProblem

# Every weight a/b of _random_weight, b in 1..4, is an integer in this unit.
_WEIGHT_UNIT = 12


def random_metric_space(rng: random.Random, n_points: int) -> MetricSpace:
    """A random exact metric on n_points points.

    Either distances sampled from [1, 2] in units of 1/denom, drawn as
    integers (every triangle inequality holds, equalities included, so some
    edges get deleted), or the path metric of a random connected weighted
    graph, certified like any weighted graph's (metric._path_space).
    """
    names = [f"P{i}" for i in range(n_points)]
    if rng.random() < 0.5:
        denom = rng.choice((4, 6, 8, 12))
        rows = [[0] * n_points for _ in range(n_points)]
        for i in range(n_points):
            for j in range(i + 1, n_points):
                rows[i][j] = rows[j][i] = denom + rng.randint(0, denom)
        return validate_scaled(names, rows, denom)
    edges = []
    for i in range(1, n_points):
        edges.append((rng.randrange(i), i, _random_weight(rng)))
    tree = {(j, i) for j, i, _ in edges}
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if (i, j) not in tree and rng.random() < 0.3:
                edges.append((i, j, _random_weight(rng)))
    return _path_space(tuple(names), _floyd_warshall(n_points, edges), _WEIGHT_UNIT, edges)


def _random_weight(rng: random.Random) -> int:
    """A weight a/b, a in 1..12 and b in 1..4 drawn in that order, times
    _WEIGHT_UNIT."""
    a = rng.randint(1, 12)
    return a * (_WEIGHT_UNIT // rng.randint(1, 4))


def random_problem(rng: random.Random, graph: CanonicalGraph,
                   nonzero: bool = False) -> TransportationProblem:
    """Random zero-sum problem supported on a random subset of points: masses
    a/b, a in -6..6 and b in 1..3, less their mean."""
    k = rng.randint(2, graph.n)
    chosen = sorted(rng.sample(range(graph.n), k))
    sixths = [rng.randint(-6, 6) * (6 // rng.randint(1, 3)) for _ in chosen]
    total = sum(sixths)
    values = {v: Fraction(k * x - total, 6 * k) for v, x in zip(chosen, sixths)}
    f = TransportationProblem(graph, values)
    if nonzero and f.is_zero():
        f = TransportationProblem(graph, {chosen[0]: Fraction(1),
                                          chosen[1]: Fraction(-1)})
    return f
