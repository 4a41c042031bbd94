"""Seeded random instances: spaces and problems.

Shared by the test suite and the oracle-check batch command.  Everything is
driven by a caller-supplied random.Random, so fixed seeds reproduce byte-
identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .graph import CanonicalGraph
from .metric import MetricSpace, space_from_weighted_graph, validate_scaled
from .rational import ZERO
from .vectors import TransportationProblem


def random_metric_space(rng: random.Random, n_points: int) -> MetricSpace:
    """A random exact metric on n_points points.

    Either distances sampled from [1, 2] in units of 1/denom, drawn as
    integers (every triangle inequality holds, equalities included, so some
    edges get deleted), or the path metric of a random connected weighted
    graph.
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
    return space_from_weighted_graph(names, [(names[i], names[j], w) for i, j, w in edges])


def _random_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def random_problem(rng: random.Random, graph: CanonicalGraph,
                   nonzero: bool = False) -> TransportationProblem:
    """Random zero-sum problem supported on a random subset of points."""
    k = rng.randint(2, graph.n)
    chosen = sorted(rng.sample(range(graph.n), k))
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in chosen]
    mean = sum(vals, ZERO) / len(vals)
    values = {v: x - mean for v, x in zip(chosen, vals)}
    f = TransportationProblem(graph, values)
    if nonzero and f.is_zero():
        f = TransportationProblem(graph, {chosen[0]: Fraction(1),
                                          chosen[1]: Fraction(-1)})
    return f
