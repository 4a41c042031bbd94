import random

import pytest

from corpus import c4_graph
from tcspace import (
    NotATree,
    NullProblem,
    TransportationProblem,
    canonical_graph,
    dual_optimum,
    maximal_support,
    oracle_maximal_support,
    oracle_tc_norm,
    oracle_tree_norm,
    space_from_weighted_graph,
    supporting_unique_probe,
    tc_norm,
)
from tcspace.randgen import random_problem, random_tree_space


def _path3_weighted():
    return canonical_graph(space_from_weighted_graph(
        ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")]))


def test_oracle_point_mass_is_the_distance():
    g = c4_graph()
    f = TransportationProblem.point_difference(g, "c0", "c2")
    assert oracle_tc_norm(f) == 2


def test_oracle_zero_problem():
    assert oracle_tc_norm(TransportationProblem.zero(c4_graph())) == 0


def test_oracle_equals_solver_on_corpus(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            assert oracle_tc_norm(f) == tc_norm(f)[0]


def test_tree_cut_formula_by_hand():
    g = _path3_weighted()
    f = TransportationProblem.from_names(g, {"A": 2, "B": -1, "C": -1})
    assert oracle_tree_norm(f) == 2 * 1 + 1 * 2


def test_star_leaf_to_center():
    g = canonical_graph(space_from_weighted_graph(
        ["O", "L1", "L2", "L3"],
        [("O", "L1", "1"), ("O", "L2", "1"), ("O", "L3", "1")]))
    f = TransportationProblem.point_difference(g, "L1", "O")
    assert oracle_tree_norm(f) == 1


def test_tree_norm_zero():
    g = _path3_weighted()
    assert oracle_tree_norm(TransportationProblem.zero(g)) == 0


def test_tree_oracle_rejects_cycles():
    f = TransportationProblem.point_difference(c4_graph(), "c0", "c1")
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
    f = TransportationProblem.point_difference(path, "A", "C")
    assert supporting_unique_probe(f) is True

    # On C_4, moving c0 -> c1 pins the potential only on one side of the
    # square; the rest can shift.
    g = c4_graph()
    h = TransportationProblem.point_difference(g, "c0", "c1")
    assert supporting_unique_probe(h) is False


def test_unique_probe_rejects_zero():
    with pytest.raises(NullProblem):
        supporting_unique_probe(TransportationProblem.zero(c4_graph()))


def test_maximal_support_matches_the_lp_oracle(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            assert maximal_support(f) == oracle_maximal_support(f)
