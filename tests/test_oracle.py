import random
from fractions import Fraction
from math import lcm

import pytest

from corpus import c4_graph, point_difference, random_tree_space
from oracles import (
    NotATree,
    dual_optimum,
    oracle_maximal_support,
    oracle_tree_norm,
    supporting_unique_probe,
)
from tcspace import (
    ExactLP,
    LPStatus,
    NullProblem,
    TransportationProblem,
    canonical_graph,
    maximal_support,
    oracle_tc_norm,
    space_from_weighted_graph,
    tc_norm,
)
from tcspace.randgen import random_metric_space, random_problem


def _path3_weighted():
    return canonical_graph(space_from_weighted_graph(
        ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")]))


def test_oracle_point_mass_is_the_distance():
    g = c4_graph()
    f = point_difference(g, "c0", "c2")
    assert oracle_tc_norm(f) == 2


def test_oracle_zero_problem():
    # An LP with no rows: its value is an exact 0, as every norm's is.
    norm = oracle_tc_norm(TransportationProblem.zero(c4_graph()))
    assert norm == 0 and type(norm) is Fraction


def test_oracle_equals_solver_on_corpus(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            assert oracle_tc_norm(f) == tc_norm(f)[0]


def _full_transportation_lp(f):
    """The transportation LP with a row for every source and every sink, on
    f's Fraction masses."""
    dist = f.graph.space.dist
    sources = sorted(v for v in f.support() if f[v] > 0)
    sinks = sorted(v for v in f.support() if f[v] < 0)
    lp = ExactLP()
    cell = {(x, y): lp.add_var() for x in sources for y in sinks}
    for x in sources:
        lp.add_eq({cell[x, y]: Fraction(1) for y in sinks}, f[x])
    for y in sinks:
        lp.add_eq({cell[x, y]: Fraction(1) for x in sources}, -f[y])
    lp.minimize({cell[x, y]: dist[x][y] for x in sources for y in sinks})
    res = lp.solve()
    assert res.status == LPStatus.OPTIMAL
    return res.value


def _oracle_problems(small_corpus):
    """The small corpus's problems, then 500 random ones: random_problem's,
    and problems with one sink or one source."""
    out = [f for inst in small_corpus for f in inst.problems]
    rng = random.Random(1901)
    for i in range(500):
        graph = canonical_graph(random_metric_space(rng, rng.randint(2, 9)))
        if i % 3 == 0:
            out.append(random_problem(rng, graph, nonzero=True))
            continue
        points = rng.sample(range(graph.n), rng.randint(2, graph.n))
        masses = {v: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for v in points[1:]}
        one = points[0]
        masses[one] = -sum(masses.values())
        sign = 1 if i % 3 == 1 else -1  # one sink, or one source
        out.append(TransportationProblem(graph, {v: sign * x for v, x in masses.items()}))
    return out


def test_the_reduced_lp_is_the_full_lp(small_corpus, monkeypatch):
    """One row fewer and integer masses change no norm, and with integer
    masses every pivot and every divisor is 1 (total unimodularity)."""
    pivots = []
    pivot = ExactLP._pivot

    def recorded(t, basis, d, i, j):
        pivots.append((t[i][j], d))
        return pivot(t, basis, d, i, j)

    problems = _oracle_problems(small_corpus)
    shapes = {(sum(x > 0 for x in f.values.values()) == 1,
               sum(x < 0 for x in f.values.values()) == 1) for f in problems}
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}
    want = [_full_transportation_lp(f) for f in problems]
    monkeypatch.setattr(ExactLP, "_pivot", staticmethod(recorded))
    assert [oracle_tc_norm(f) for f in problems] == want
    assert pivots and set(pivots) == {(1, 1)}


def _fraction_cost_lp(f):
    """The oracle's LP (integer masses, the first sink's row left out) with
    the space's Fraction distances as costs: (value, pivots (row, column))."""
    dist = f.graph.space.dist
    scale = lcm(*(x.denominator for x in f.values.values()))
    mass = {v: x * scale for v, x in f.values.items()}
    sources = sorted(v for v, a in mass.items() if a > 0)
    sinks = sorted(v for v, a in mass.items() if a < 0)
    lp = ExactLP()
    cell = {(x, y): lp.add_var() for x in sources for y in sinks}
    for x in sources:
        lp.add_eq({cell[x, y]: 1 for y in sinks}, int(mass[x]))
    for y in sinks[1:]:
        lp.add_eq({cell[x, y]: 1 for x in sources}, int(-mass[y]))
    lp.minimize({cell[x, y]: dist[x][y] for x in sources for y in sinks})
    return lp.solve().value / scale


def test_integer_costs_take_the_pivots_of_fraction_costs(small_corpus, monkeypatch):
    """The oracle's costs are the distances times D, a positive multiple of
    the Fraction distances' cost row: Bland's rule, which reads its signs,
    takes the same pivots, and the value divided by D is the same."""
    pivots = []
    pivot = ExactLP._pivot

    def recorded(t, basis, d, i, j):
        pivots.append((i, j))
        return pivot(t, basis, d, i, j)

    monkeypatch.setattr(ExactLP, "_pivot", staticmethod(recorded))
    problems = _oracle_problems(small_corpus)
    assert {f.graph.space.denom for f in problems} > {1}
    for f in problems:
        pivots.clear()
        want = _fraction_cost_lp(f)
        taken = pivots[:]
        pivots.clear()
        assert oracle_tc_norm(f) == want
        assert pivots == taken


def test_tree_cut_formula_by_hand():
    g = _path3_weighted()
    f = TransportationProblem.from_names(g, {"A": 2, "B": -1, "C": -1})
    assert oracle_tree_norm(f) == 2 * 1 + 1 * 2


def test_star_leaf_to_center():
    g = canonical_graph(space_from_weighted_graph(
        ["O", "L1", "L2", "L3"],
        [("O", "L1", "1"), ("O", "L2", "1"), ("O", "L3", "1")]))
    f = point_difference(g, "L1", "O")
    assert oracle_tree_norm(f) == 1


def test_tree_norm_zero():
    g = _path3_weighted()
    assert oracle_tree_norm(TransportationProblem.zero(g)) == 0


def test_tree_oracle_rejects_cycles():
    f = point_difference(c4_graph(), "c0", "c1")
    with pytest.raises(NotATree):
        oracle_tree_norm(f)


def test_tree_oracle_agrees_with_dense_oracle():
    rng = random.Random(4242)
    for _ in range(25):
        space = random_tree_space(rng, rng.randint(3, 9))
        graph = canonical_graph(space)
        assert graph.m == graph.n - 1
        f = random_problem(rng, graph)
        assert oracle_tree_norm(f) == oracle_tc_norm(f)


def test_zero_duality_gap(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            assert dual_optimum(f) == oracle_tc_norm(f)


def test_unique_probe_known_cases():
    path = _path3_weighted()
    f = point_difference(path, "A", "C")
    assert supporting_unique_probe(f) is True

    # On C_4, moving c0 -> c1 pins the potential only on one side of the
    # square; the rest can shift.
    g = c4_graph()
    h = point_difference(g, "c0", "c1")
    assert supporting_unique_probe(h) is False


def test_unique_probe_rejects_zero():
    with pytest.raises(NullProblem):
        supporting_unique_probe(TransportationProblem.zero(c4_graph()))


def test_maximal_support_matches_the_lp_oracle(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            assert maximal_support(f) == oracle_maximal_support(f)
