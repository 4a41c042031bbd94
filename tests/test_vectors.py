import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import c4_graph, random_roadmap
from tcspace import (
    DirectedSubgraph,
    FamilyDescriptor,
    InvalidInput,
    LipschitzFunction,
    MetricSpace,
    Roadmap,
    TransportationProblem,
    canonical_graph,
    cycle_basis,
    to_fraction,
    validate_metric,
    weighted_graph_json_to_space,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _single_edge_graph(weight="1/2"):
    return canonical_graph(validate_metric(
        ["A", "B"], [["0", weight], [weight, "0"]]))


def test_l1d_norm_of_zero_is_zero():
    g = c4_graph()
    assert Roadmap.zero(g).cost() == 0


def test_l1d_norm_single_edge():
    g = _single_edge_graph("1/2")
    assert Roadmap(g, {0: Fraction(-3)}).cost() == Fraction(3, 2)


def test_l1d_norm_weighted_sum():
    g = canonical_graph(validate_metric(
        ["A", "B", "C"], [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]]))
    vec = Roadmap(g, {g.edge_index(0, 1): 1, g.edge_index(1, 2): -2})
    assert vec.cost() == 5


def test_apply_incidence_on_one_edge():
    g = _single_edge_graph()
    f = Roadmap(g, {0: 1}).problem()
    assert f.by_name() == {"A": 1, "B": -1}


def test_cycle_indicators_transport_nothing():
    g = c4_graph()
    for cyc in cycle_basis(g).cycles:
        assert cyc.indicator().problem().is_zero()


def test_apply_incidence_of_zero():
    assert Roadmap.zero(c4_graph()).problem().is_zero()


def test_incidence_output_always_sums_to_zero(rng):
    g = c4_graph()
    for _ in range(25):
        f = random_roadmap(rng, g).problem()
        assert sum(f.values.values(), Fraction(0)) == 0


@settings(max_examples=50, deadline=None)
@given(a=rationals, b=rationals, seed1=st.integers(0, 10**6),
       seed2=st.integers(0, 10**6))
def test_apply_incidence_is_linear(a, b, seed1, seed2):
    g = c4_graph()
    p = random_roadmap(random.Random(seed1), g)
    q = random_roadmap(random.Random(seed2), g)
    left = (p.scale(a) + q.scale(b)).problem()
    right = p.problem().scale(a) + q.problem().scale(b)
    assert left == right


@settings(max_examples=50, deadline=None)
@given(seed1=st.integers(0, 10**6), seed2=st.integers(0, 10**6))
def test_l1d_norm_is_a_norm(seed1, seed2):
    g = c4_graph()
    p = random_roadmap(random.Random(seed1), g)
    q = random_roadmap(random.Random(seed2), g)
    assert (p + q).cost() <= p.cost() + q.cost()
    assert p.scale(-3).cost() == 3 * p.cost()
    assert (p.cost() == 0) == p.is_zero()


def test_zero_sum_is_enforced():
    g = c4_graph()
    with pytest.raises(InvalidInput, match="must have zero sum"):
        TransportationProblem(g, {0: Fraction(1)})
    # Decided in integers over the lcm of the denominators (here 30).
    TransportationProblem(g, {0: Fraction(1, 3), 1: Fraction(1, 5), 2: Fraction(-8, 15)})
    for off in (Fraction(1, 30), Fraction(-1, 30), Fraction(1, 31)):
        with pytest.raises(InvalidInput, match="must have zero sum"):
            TransportationProblem(g, {0: Fraction(1, 3), 1: Fraction(1, 5),
                                      2: Fraction(-8, 15), 3: off})


def test_a_roadmap_computes_its_cost_once():
    p = Roadmap(c4_graph(), {0: Fraction(1, 3), 2: Fraction(-1, 2)})
    assert p.cost() == Fraction(5, 6)
    assert p.cost() is p.cost()


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
        Roadmap(g, {99: Fraction(1)})


def test_booleans_are_not_masses():
    for value in (True, False):
        with pytest.raises(InvalidInput):
            to_fraction(value)
    with pytest.raises(InvalidInput):
        TransportationProblem(c4_graph(), {0: True, 1: -1})


# --- input checks -------------------------------------------------------------------

@pytest.mark.parametrize("kind,message", [
    (Roadmap, "roadmaps live on different graphs"),
    (TransportationProblem, "problems live on different graphs"),
])
def test_vectors_on_different_graphs_do_not_mix(kind, message):
    g = c4_graph()
    twin = canonical_graph(g.space)  # the same space, another graph
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(InvalidInput, match=message):
            op(kind.zero(g), kind.zero(twin))


def test_vectors_of_different_kinds_do_not_mix():
    # Added as edge values, the masses of f would give p + f = {0: 2, 1: -1}.
    g = c4_graph()
    p = Roadmap(g, {0: 1})
    f = TransportationProblem(g, {0: 1, 1: -1})
    for a, b, message in ((p, f, "roadmaps add only to roadmaps"),
                          (f, p, "problems add only to problems")):
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(InvalidInput, match=message):
                op(a, b)


# Each JSON reader, fed a non-object, an object without its key, a wrong
# container, and an element that is not an object or lacks a key.
ROW = [["0", "1"], ["1", "0"]]
READER_CASES = {
    "space": (MetricSpace.from_json_obj, [
        ["points", "dist"], {"points": ["a", "b"]}, {"points": "ab", "dist": ROW},
        {"points": ["a", "b"], "dist": ["01", "10"]}]),
    "graph": (weighted_graph_json_to_space, [
        "vertices", {"edges": []}, {"vertices": ["a", "b"], "edges": {"u": "a"}},
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]},
        {"vertices": ["a", "b"], "edges": [["a", "b", "1"]]}]),
    "problem": (lambda obj: TransportationProblem.from_json_obj(c4_graph(), obj), [
        5, {"g": {}}, {"f": ["c0", "c1"]}, {"f": {"c0": ["1"], "c1": "-1"}}]),
    "roadmap": (lambda obj: Roadmap.from_json_obj(c4_graph(), obj), [
        ["edges"], {"roads": []}, {"edges": "ab"}, {"edges": 5}, {"edges": {"u": "c0"}},
        {"edges": [{"u": "c0"}]}, {"edges": [{"u": "c0", "v": "c1"}]},
        {"edges": [["c0", "c1", "1"]]}, {"edges": ["c0"]}]),
    "lipschitz": (lambda obj: LipschitzFunction.from_json_obj(c4_graph(), obj), [
        "l", {"base": "c0"}, {"l": ["c0"]}, {"l": {"c1": {"v": "1"}}}]),
    "subgraph": (lambda obj: DirectedSubgraph.from_json_obj(c4_graph(), obj), [
        None, {"arcs": []}, {"edges": {"u": "c0", "v": "c1"}},
        {"edges": [{"u": "c0"}]}, {"edges": [["c0", "c1"]]}]),
    "descriptor": (FamilyDescriptor.from_json_obj, [
        ["diamond"], {"params": {}}, {"family": "diamond", "params": []},
        {"family": "recursive", "generations": {"a": "0"}}]),
}


@pytest.mark.parametrize("read,obj", [
    pytest.param(read, obj, id=f"{name}-{i}")
    for name, (read, objs) in READER_CASES.items() for i, obj in enumerate(objs)])
def test_every_json_reader_refuses_malformed_objects_as_invalid_input(read, obj):
    with pytest.raises(InvalidInput):
        read(obj)
