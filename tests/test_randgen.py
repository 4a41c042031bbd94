import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from tcspace import canonical_graph, space_from_weighted_graph, validate_metric
from tcspace.randgen import random_metric_space, random_problem
from tcspace.rational import ZERO


def test_random_spaces_are_valid_above_ten_points():
    # Point names P10, P11, ... sort before P2 as strings; edges must still
    # be drawn once each.
    for n in range(11, 65):
        for seed in range(20):
            assert random_metric_space(random.Random(seed), n).n == n


def _fraction_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def _reference_space(rng: random.Random, n_points: int):
    """random_metric_space built from Fractions: the same draws in the same
    order, the matrix validated as literals by validate_metric and the
    graph's weights as Fractions by space_from_weighted_graph."""
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
        edges.append((rng.randrange(i), i, _fraction_weight(rng)))
    tree = {(j, i) for j, i, _ in edges}
    for i in range(n_points):
        for j in range(i + 1, n_points):
            if (i, j) not in tree and rng.random() < 0.3:
                edges.append((i, j, _fraction_weight(rng)))
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


def _reference_problem(rng: random.Random, graph, nonzero: bool = False) -> dict:
    """random_problem's values built from Fractions: the same draws, masses
    a/b centred by their Fraction mean."""
    k = rng.randint(2, graph.n)
    chosen = sorted(rng.sample(range(graph.n), k))
    vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in chosen]
    mean = sum(vals, ZERO) / len(vals)
    values = {v: x - mean for v, x in zip(chosen, vals) if x != mean}
    if nonzero and not values:
        values = {chosen[0]: Fraction(1), chosen[1]: Fraction(-1)}
    return values


def test_random_problems_are_the_fraction_problems():
    """The integer masses give the values of the Fraction mean, with the
    generator left in the same state, and nonzero=True replaces the zero
    problems (every mass at the mean) as before."""
    graphs = [canonical_graph(random_metric_space(random.Random(n), n)) for n in range(2, 11)]
    replaced = 0
    for seed in range(400):
        for graph in graphs:
            for nonzero in (False, True):
                rng, ref = random.Random(seed), random.Random(seed)
                got = random_problem(rng, graph, nonzero=nonzero)
                want = _reference_problem(ref, graph, nonzero=nonzero)
                assert got.values == want
                assert list(got.values) == list(want)
                assert rng.getstate() == ref.getstate()
            replaced += not random_problem(random.Random(seed), graph).values
    assert replaced > 10


# sha256 over random_metric_space and the random_problem drawn after it from
# the same generator (points, D, base, dtype, scaled matrix, mask, values),
# recorded from the Fraction weights and the Fraction mean.
STREAM_DIGESTS = {
    "3-10": "94431f1dc26bff71070b0e5ed2a9c957f4583cc7bc9ffcd1af498e38a8e6c806",
    "12-64": "5faa43c5e8a2a1f4e9f603d8815b6016f476e0004be00b1af4fe184d9fef15c8",
}


@pytest.mark.parametrize("cases", [
    pytest.param([(seed, n) for seed in range(200) for n in range(3, 11)], id="3-10"),
    pytest.param([(seed, n) for seed in range(20) for n in (12, 17, 33, 64)], id="12-64"),
])
def test_the_random_instance_stream_is_pinned(request, cases):
    digest = hashlib.sha256()
    for seed, n in cases:
        rng = random.Random(seed)
        space = random_metric_space(rng, n)
        f = random_problem(rng, canonical_graph(space), nonzero=seed % 2 == 1)
        digest.update(repr((space.points, space.denom, space.base_point, str(space.scaled.dtype),
                            space.scaled.tolist(), space._deletion_mask.tolist(),
                            sorted((v, x.numerator, x.denominator) for v, x in f.values.items()))
                           ).encode())
    assert digest.hexdigest() == STREAM_DIGESTS[request.node.callspec.id]
