import random
from fractions import Fraction

import numpy as np
import pytest

from tcspace import space_from_weighted_graph, validate_metric
from tcspace.randgen import _random_weight, random_metric_space


def test_random_spaces_are_valid_above_ten_points():
    # Point names P10, P11, ... sort before P2 as strings; edges must still
    # be drawn once each.
    for n in range(11, 65):
        for seed in range(20):
            assert random_metric_space(random.Random(seed), n).n == n


def _reference_space(rng: random.Random, n_points: int):
    """random_metric_space built from Fractions: the same draws in the same
    order, the matrix validated as literals by validate_metric."""
    names = [f"P{i}" for i in range(n_points)]
    if rng.random() < 0.5:
        denom = rng.choice((4, 6, 8, 12))
        rows = [[Fraction(0)] * n_points for _ in range(n_points)]
        for i in range(n_points):
            for j in range(i + 1, n_points):
                d = 1 + Fraction(rng.randint(0, denom), denom)
                rows[i][j] = rows[j][i] = d
        return validate_metric(names, rows)
    edges = []
    for i in range(1, n_points):
        edges.append((rng.randrange(i), i, _random_weight(rng)))
    tree = {(j, i) for j, i, _ in edges}
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if (i, j) not in tree and rng.random() < 0.3:
                edges.append((i, j, _random_weight(rng)))
    return space_from_weighted_graph(names, [(names[i], names[j], w) for i, j, w in edges])


@pytest.mark.parametrize("sizes,seeds", [(range(2, 17), range(200)),
                                         ((17, 24, 33, 48, 64), range(40))],
                         ids=["2-16", "17-64"])
def test_random_spaces_are_the_fraction_spaces(sizes, seeds):
    """The integer draws build the very spaces the Fraction literals did."""
    for n in sizes:
        for seed in seeds:
            got = random_metric_space(random.Random(seed), n)
            want = _reference_space(random.Random(seed), n)
            assert got.points == want.points
            assert got.denom == want.denom
            assert np.array_equal(got.scaled, want.scaled)
            assert got.scaled.dtype == want.scaled.dtype
            assert got.base_point == want.base_point
            assert np.array_equal(got._deletion_mask, want._deletion_mask)
