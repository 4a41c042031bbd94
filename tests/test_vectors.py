import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import c4_graph, random_roadmap
from tcspace import (
    EdgeVector,
    InvalidInput,
    TransportationProblem,
    apply_incidence,
    canonical_graph,
    cycle_basis,
    to_fraction,
    validate_metric,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _single_edge_graph(weight="1/2"):
    return canonical_graph(validate_metric(
        ["A", "B"], [["0", weight], [weight, "0"]]))


def test_l1d_norm_of_zero_is_zero():
    g = c4_graph()
    assert EdgeVector.zero(g).l1d_norm() == 0


def test_l1d_norm_single_edge():
    g = _single_edge_graph("1/2")
    assert EdgeVector(g, {0: Fraction(-3)}).l1d_norm() == Fraction(3, 2)


def test_l1d_norm_weighted_sum():
    g = canonical_graph(validate_metric(
        ["A", "B", "C"], [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]]))
    vec = EdgeVector(g, {g.edge_index(0, 1): 1, g.edge_index(1, 2): -2})
    assert vec.l1d_norm() == 5


def test_apply_incidence_on_one_edge():
    g = _single_edge_graph()
    f = apply_incidence(EdgeVector(g, {0: 1}))
    assert f.by_name() == {"A": 1, "B": -1}


def test_cycle_indicators_transport_nothing():
    g = c4_graph()
    for cyc in cycle_basis(g).cycles:
        assert apply_incidence(cyc.indicator()).is_zero()


def test_apply_incidence_of_zero():
    assert apply_incidence(EdgeVector.zero(c4_graph())).is_zero()


def test_incidence_output_always_sums_to_zero(rng):
    g = c4_graph()
    for _ in range(25):
        f = apply_incidence(random_roadmap(rng, g))
        assert sum(f.values.values(), Fraction(0)) == 0


@settings(max_examples=50, deadline=None)
@given(a=rationals, b=rationals, seed1=st.integers(0, 10**6),
       seed2=st.integers(0, 10**6))
def test_apply_incidence_is_linear(a, b, seed1, seed2):
    g = c4_graph()
    p = random_roadmap(random.Random(seed1), g)
    q = random_roadmap(random.Random(seed2), g)
    left = apply_incidence(p.scale(a) + q.scale(b))
    right = apply_incidence(p).scale(a) + apply_incidence(q).scale(b)
    assert left == right


@settings(max_examples=50, deadline=None)
@given(seed1=st.integers(0, 10**6), seed2=st.integers(0, 10**6))
def test_l1d_norm_is_a_norm(seed1, seed2):
    g = c4_graph()
    p = random_roadmap(random.Random(seed1), g)
    q = random_roadmap(random.Random(seed2), g)
    assert (p + q).l1d_norm() <= p.l1d_norm() + q.l1d_norm()
    assert p.scale(-3).l1d_norm() == 3 * p.l1d_norm()
    assert (p.l1d_norm() == 0) == p.is_zero()


def test_zero_sum_is_enforced():
    g = c4_graph()
    with pytest.raises(InvalidInput):
        TransportationProblem(g, {0: Fraction(1)})


def test_problem_arithmetic_and_json():
    g = c4_graph()
    f = TransportationProblem.from_names(g, {"c0": "3/2", "c2": "-3/2"})
    gq = f.scale(2) - f
    assert gq == f
    again = TransportationProblem.from_json_obj(g, f.to_json_obj())
    assert again == f
    assert f.to_json_obj() == {"f": {"c0": "3/2", "c2": "-3/2"}}


def test_edge_vector_rejects_bad_index():
    g = c4_graph()
    with pytest.raises(InvalidInput):
        EdgeVector(g, {99: Fraction(1)})


def test_booleans_are_not_masses():
    for value in (True, False):
        with pytest.raises(InvalidInput):
            to_fraction(value)
    with pytest.raises(InvalidInput):
        TransportationProblem(c4_graph(), {0: True, 1: -1})


# --- input checks -------------------------------------------------------------------

@pytest.mark.parametrize("kind,message", [
    (EdgeVector, "edge vectors live on different graphs"),
    (TransportationProblem, "problems live on different graphs"),
])
def test_vectors_on_different_graphs_do_not_mix(kind, message):
    g = c4_graph()
    twin = canonical_graph(g.space)  # the same space, another graph
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(InvalidInput, match=message):
            op(kind.zero(g), kind.zero(twin))
