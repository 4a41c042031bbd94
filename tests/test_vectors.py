import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import CORPUS, c4_graph, random_roadmap
from tcspace import (
    DirectedSubgraph,
    FamilyDescriptor,
    InvalidInput,
    LinftyCandidate,
    LipschitzFunction,
    MetricSpace,
    OrientedCycle,
    Roadmap,
    TransportationPlan,
    TransportationProblem,
    canonical_graph,
    cycle_basis,
    to_fraction,
    validate_metric,
    weighted_graph_json_to_space,
)
from tcspace.randgen import random_metric_space, random_problem

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


def _assert_integer_form(f, label):
    """f.denom is the lcm of the masses' denominators (1 for f = 0), and
    f.scaled maps exactly the support to each mass times it, summing to 0."""
    assert f.denom == lcm(*(x.denominator for x in f.values.values())), label
    assert set(f.scaled) == f.support(), label
    for v, x in f.scaled.items():
        assert type(x) is int and x == f[v] * f.denom, label
    assert sum(f.scaled.values()) == 0, label


def test_a_problem_keeps_its_integer_form():
    """The corpus problems, random ones, and what
    +, -, scale and a candidate's combinations build."""
    rng = random.Random(35)
    problems = [(inst.name, f) for inst in CORPUS for f in inst.problems]
    for n in (3, 6, 10):
        graph = canonical_graph(random_metric_space(rng, n))
        problems += [(f"random-{n}", random_problem(rng, graph)) for _ in range(4)]
    g = c4_graph()
    zero = TransportationProblem.zero(g)
    assert (zero.denom, zero.scaled) == (1, {})
    f = TransportationProblem.from_names(g, {"c0": "1/3", "c1": "1/5", "c2": "-8/15"})
    h = TransportationProblem.from_names(g, {"c1": "2/7", "c3": "-2/7"})
    assert (f.denom, f.scaled) == (15, {0: 5, 1: 3, 2: -8})
    cand = LinftyCandidate((f, h))
    built = [f + h, f - h, h - h, f.scale("3/2"), h.scale(0), -f, zero + f]
    built += [cand.combine(theta) for theta in ((1, 1), (1, -1), (-1, 1), (0, 1))]
    assert (f - f).denom == 1 and (f + h).denom == 105
    problems += [(f"built/{i}", x) for i, x in enumerate(built)]
    for label, x in problems:
        _assert_integer_form(x, label)
    assert {x.denom for _, x in problems} > {1, 15, 105}


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


# The C_4 cycle c0 -> c1 -> c2 -> c3 -> c0: edges (c0,c1), (c1,c2) and (c2,c3)
# along their reference orientation, then (c0,c3) against it.
C4_CYCLE = ((0, 1), (2, 1), (3, 1), (1, -1))


@pytest.mark.parametrize("make,message", [
    (lambda g: DirectedSubgraph(g, ((4, 0),)), "vertex index 4 out of range"),
    (lambda g: DirectedSubgraph(g, ((-1, 1),)), "vertex index -1 out of range"),
    (lambda g: DirectedSubgraph(g, ((0, True),)), "vertex index True out of range"),
    (lambda g: TransportationPlan(g, ((-1, 0, 1),)), "vertex index -1 out of range"),
    (lambda g: TransportationPlan(g, ((9, 0, 1),)), "vertex index 9 out of range"),
    (lambda g: TransportationPlan(g, ((0, True, 1),)), "vertex index True out of range"),
    (lambda g: OrientedCycle(g, ((9, 1),)), "edge index 9 out of range"),
    (lambda g: OrientedCycle(g, ((-1, 1),)), "edge index -1 out of range"),
    (lambda g: OrientedCycle(g, ((0, 0), *C4_CYCLE[1:])), "arc sign 0 must be 1 or -1"),
    (lambda g: OrientedCycle(g, ((0, 2), *C4_CYCLE[1:])), "arc sign 2 must be 1 or -1"),
    (lambda g: OrientedCycle(g, ((0, True), *C4_CYCLE[1:])), "arc sign True must be 1 or -1"),
    (lambda g: TransportationProblem(g, {True: 1, 0: -1}), "vertex index True out of range"),
    (lambda g: Roadmap(g, {False: 1}), "edge index False out of range"),
], ids=["arc-head-4", "arc-tail-minus-1", "arc-head-true", "plan-minus-1", "plan-9",
        "plan-true", "cycle-edge-9", "cycle-edge-minus-1", "sign-0", "sign-2", "sign-true",
        "problem-true", "roadmap-false"])
def test_indices_and_signs_follow_one_rule(make, message):
    """Every vertex index, edge index and sign the Python API takes is an
    int, not a bool, in range (signs +-1), or InvalidInput names it: no
    numpy wrap-around of -1, no IndexError and no wrong complaint later."""
    g = c4_graph()
    with pytest.raises(InvalidInput, match=re.escape(message)):
        make(g)


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
