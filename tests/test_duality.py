from fractions import Fraction

import pytest

from corpus import c4_graph, is_acyclic, is_potential, point_difference, random_lipschitz
from oracles import (
    add_le,
    free_var,
    maximum,
    on_columns,
    oracle_tree_norm,
    supporting_unique_probe,
)
from tcspace import (
    DirectedSubgraph,
    ExactLP,
    InvalidInput,
    LPStatus,
    LipschitzFunction,
    NotLipschitz,
    NotRealizable,
    NullProblem,
    PreconditionFailed,
    TransportationPlan,
    TransportationProblem,
    canonical_graph,
    connected_components,
    downhill_graph,
    downhill_to_problem,
    directed_graph_of,
    evaluate,
    is_unique_supporting,
    maximal_support,
    realizable_as_downhill,
    space_from_weighted_graph,
    supporting_function,
    tc_norm,
    validate_metric,
)
from tcspace.randgen import random_problem


def _path3_unit():
    return canonical_graph(validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]))


def _distance_potential(graph, v):
    """l(x) = d(x, v) - d(base, v); 1-Lipschitz and tight toward v."""
    space = graph.space
    vals = tuple(space.d(x, v) - space.d(space.base_point, v)
                 for x in range(space.n))
    return LipschitzFunction(graph, vals)


# --- evaluation -------------------------------------------------------------------

def test_zero_function_evaluates_to_zero(small_corpus):
    for inst in small_corpus:
        l = LipschitzFunction.zero(inst.graph)
        assert evaluate(l, inst.problems[0]) == 0


def test_distance_potential_is_tight(small_corpus):
    for inst in small_corpus:
        g = inst.graph
        u, v = 0, g.n - 1
        f = TransportationProblem(g, {u: Fraction(1), v: Fraction(-1)})
        l = _distance_potential(g, v)
        assert evaluate(l, f) == g.space.d(u, v) == tc_norm(f)[0]


def test_weak_duality_on_random_pairs(small_corpus, rng):
    for inst in small_corpus[:6]:
        for _ in range(5):
            f = random_problem(rng, inst.graph, nonzero=True)
            l = random_lipschitz(rng, inst.graph)
            assert evaluate(l, f) <= tc_norm(f)[0]


def test_lipschitz_edge_check_implies_all_pairs(small_corpus, rng):
    for inst in small_corpus[:6]:
        l = random_lipschitz(rng, inst.graph)
        space = inst.graph.space
        for i in range(space.n):
            for j in range(space.n):
                assert abs(l[i] - l[j]) <= space.d(i, j)


def test_not_lipschitz_is_rejected():
    g = _path3_unit()
    with pytest.raises(NotLipschitz):
        LipschitzFunction(g, (Fraction(0), Fraction(2), Fraction(0)))


def test_lipschitz_json_round_trip():
    g = _path3_unit()
    l = LipschitzFunction.from_map(g, {"B": "-1", "C": "-3/2"})
    again = LipschitzFunction.from_json_obj(g, l.to_json_obj())
    assert again.values == l.values


# --- supporting functions ----------------------------------------------------------

def test_supporting_function_is_tight_on_a_pair(small_corpus):
    for inst in small_corpus:
        g = inst.graph
        f = point_difference(g, g.space.points[0], g.space.points[-1])
        s = supporting_function(f)
        assert s[0] - s[g.n - 1] == g.space.d(0, g.n - 1)


def test_supporting_function_on_unit_path_is_unique_staircase():
    g = _path3_unit()
    f = point_difference(g, "A", "C")
    s = supporting_function(f)
    assert s.values == (Fraction(0), Fraction(-1), Fraction(-2))
    unique, witness = is_unique_supporting(f)
    assert unique and witness is None


def test_supporting_value_is_the_norm(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            s = supporting_function(f)
            assert evaluate(s, f) == tc_norm(f)[0]


def test_supporting_matches_tree_cut_value(rng):
    g = canonical_graph(space_from_weighted_graph(
        ["A", "B", "C", "D", "E"],
        [("A", "B", "2"), ("B", "C", "1/2"), ("B", "D", "3"), ("A", "E", "1")]))
    for _ in range(10):
        f = random_problem(rng, g, nonzero=True)
        s = supporting_function(f)
        assert evaluate(s, f) == oracle_tree_norm(f)


def test_supporting_function_of_zero_is_zero():
    g = _path3_unit()
    s = supporting_function(TransportationProblem.zero(g))
    assert s.values == (Fraction(0),) * 3


# --- potentials --------------------------------------------------------------------

def test_optimal_plan_is_potential(small_corpus):
    for inst in small_corpus:
        f = inst.problems[0]
        _, rm = tc_norm(f)
        pts = inst.graph.space.points
        terms = []
        for e, val in rm.values.items():
            edge = inst.graph.edges[e]
            x, y = (edge.tail, edge.head) if val > 0 else (edge.head, edge.tail)
            terms.append((pts[x], pts[y], abs(val)))
        plan = TransportationPlan.from_names(inst.graph, terms)
        assert is_potential(plan, supporting_function(f))


def test_detoured_plan_is_never_potential(rng):
    g = c4_graph()
    plan = TransportationPlan.from_names(
        g, [("c0", "c3", 1), ("c3", "c2", 1), ("c2", "c1", 1)])
    f = plan.problem()
    assert not is_potential(plan, supporting_function(f))
    for _ in range(10):
        assert not is_potential(plan, random_lipschitz(rng, g))


def test_empty_plan_is_vacuously_potential():
    g = c4_graph()
    plan = TransportationPlan(g, ())
    assert is_potential(plan, LipschitzFunction.zero(g))


# --- downhill graphs ---------------------------------------------------------------

def test_zero_function_has_empty_downhill():
    assert len(downhill_graph(LipschitzFunction.zero(c4_graph()))) == 0


def test_staircase_downhill_on_path():
    g = _path3_unit()
    l = LipschitzFunction.from_map(g, {"B": -1, "C": -2})
    assert downhill_graph(l).arc_set() == {(0, 1), (1, 2)}


def test_distance_potential_downhill_points_at_the_target():
    g = canonical_graph(space_from_weighted_graph(
        ["A", "B", "C", "D", "E"],
        [("A", "B", "2"), ("B", "C", "1/2"), ("B", "D", "3"), ("A", "E", "1")]))
    target = g.space.index_of("B")
    dh = downhill_graph(_distance_potential(g, target))
    assert len(dh) == g.m  # every tree edge is supported
    for u, v in dh.arcs:
        assert g.space.d(v, target) < g.space.d(u, target)


def test_downhill_graphs_are_acyclic(small_corpus, rng):
    for inst in small_corpus[:6]:
        l = random_lipschitz(rng, inst.graph)
        assert is_acyclic(downhill_graph(l))


# --- uniqueness --------------------------------------------------------------------

def test_uniqueness_matches_probe_and_witnesses_verify(small_corpus):
    for inst in small_corpus:
        for f in inst.problems[:3]:
            unique, witness = is_unique_supporting(f)
            assert unique == supporting_unique_probe(f)
            if unique:
                assert witness is None
            else:
                s = supporting_function(f)
                assert witness.values != s.values
                assert evaluate(witness, f) == tc_norm(f)[0]


def test_disconnected_support_gives_a_witness():
    # strict 4-point metric: the only optimal roadmap for A -> B is the edge
    d = [["0", "1", "5/4", "3/2"],
         ["1", "0", "7/6", "4/3"],
         ["5/4", "7/6", "0", "9/8"],
         ["3/2", "4/3", "9/8", "0"]]
    g = canonical_graph(validate_metric(["A", "B", "C", "D"], d))
    f = point_difference(g, "A", "B")
    edges, _ = maximal_support(f)
    assert edges == {g.edge_index(0, 1)}
    unique, witness = is_unique_supporting(f)
    assert not unique
    assert evaluate(witness, f) == tc_norm(f)[0] == 1


def test_connected_support_means_unique(small_corpus):
    for inst in small_corpus:
        for f in inst.problems[:3]:
            edges, _ = maximal_support(f)
            pairs = [(inst.graph.edges[i].tail, inst.graph.edges[i].head)
                     for i in edges]
            comps = connected_components(inst.graph.n, pairs)
            assert (len(set(comps)) == 1) == is_unique_supporting(f)[0]


def test_uniqueness_rejects_zero():
    with pytest.raises(NullProblem):
        is_unique_supporting(TransportationProblem.zero(c4_graph()))


def test_same_component_downhill_edges_lie_in_the_support(small_corpus):
    for inst in small_corpus:
        for f in inst.problems[:3]:
            edges, _ = maximal_support(f)
            pairs = [(inst.graph.edges[i].tail, inst.graph.edges[i].head)
                     for i in edges]
            comps = connected_components(inst.graph.n, pairs)
            s = supporting_function(f)
            for u, v in downhill_graph(s).arcs:
                if comps[u] == comps[v]:
                    assert inst.graph.edge_index(u, v) in edges


# --- downhill realizability ---------------------------------------------------------

def test_single_edge_is_realizable_on_a_path():
    g = _path3_unit()
    ok, l = realizable_as_downhill(DirectedSubgraph(g, ((0, 1),)))
    assert ok
    assert downhill_graph(l).arc_set() == {(0, 1)}


def test_both_orientations_are_not_realizable():
    g = _path3_unit()
    ok, l = realizable_as_downhill(DirectedSubgraph(g, ((0, 1), (1, 0))))
    assert not ok and l is None


def test_directed_graphs_of_problems_are_realizable(small_corpus):
    for inst in small_corpus[:6]:
        f = inst.problems[0]
        ok, _ = realizable_as_downhill(directed_graph_of(f))
        assert ok


def test_empty_subgraph_is_rejected():
    g = _path3_unit()
    with pytest.raises(PreconditionFailed):
        realizable_as_downhill(DirectedSubgraph(g, ()))


def test_downhill_to_problem_telescopes():
    g = _path3_unit()
    f1 = downhill_to_problem(DirectedSubgraph(g, ((0, 1),)))
    assert f1.by_name() == {"A": 1, "B": -1}
    f2 = downhill_to_problem(DirectedSubgraph(g, ((0, 1), (1, 2))))
    assert f2.by_name() == {"A": 1, "C": -1}


def test_downhill_to_problem_on_c4_round_trips():
    g = c4_graph()
    H = DirectedSubgraph(g, ((0, 1), (1, 2), (0, 3), (3, 2)))
    f = downhill_to_problem(H)
    assert f.by_name() == {"c0": 2, "c2": -2}
    assert directed_graph_of(f).arc_set() == H.arc_set()


def test_unrealizable_subgraph_raises():
    g = c4_graph()
    with pytest.raises(NotRealizable):
        downhill_to_problem(DirectedSubgraph(g, ((0, 1), (1, 0))))


def test_subgraph_forcing_other_tight_edges_is_not_realizable():
    g = c4_graph()
    # c0 -> c1 -> c2 drops by 2 = d(c0, c2), so c0 -> c3 -> c2 is tight too
    ok, l = realizable_as_downhill(DirectedSubgraph(g, ((0, 1), (1, 2))))
    assert not ok and l is None


def _lp_realizable(H) -> bool:
    """Reference verdict: max t with H's arcs tight and slack >= t elsewhere."""
    graph = H.graph
    lp = ExactLP()
    lvar = [free_var(lp) for _ in range(graph.n)]
    t = free_var(lp)
    lp.add_eq(on_columns({lvar[graph.space.base_point]: 1}), 0)
    add_le(lp, {t: 1}, 1)
    used = H.edge_indices()
    for u, v in H.arcs:
        lp.add_eq(on_columns({lvar[u]: 1, lvar[v]: -1}),
                  graph.edges[graph.edge_index(u, v)].weight)
    for i, e in enumerate(graph.edges):
        if i not in used:
            add_le(lp, {lvar[e.tail]: 1, lvar[e.head]: -1, t: 1}, e.weight)
            add_le(lp, {lvar[e.tail]: -1, lvar[e.head]: 1, t: 1}, e.weight)
    res = maximum(lp, {t: 1})
    return res.status == LPStatus.OPTIMAL and res.value > 0


def test_realizability_matches_an_lp_reference(small_corpus, rng):
    verdicts = []
    for inst in small_corpus:
        for _ in range(4):
            arcs = list(downhill_graph(random_lipschitz(rng, inst.graph)).arcs)
            if not arcs:
                continue
            flipped = [(arcs[0][1], arcs[0][0])] + arcs[1:]
            for sub in (arcs, arcs[1:], flipped):
                if sub:
                    H = DirectedSubgraph(inst.graph, tuple(sub))
                    ok, l = realizable_as_downhill(H)
                    assert ok == _lp_realizable(H)
                    assert (l is not None) == ok
                    verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)


# --- input checks -------------------------------------------------------------------

@pytest.mark.parametrize("make,message", [
    (lambda g: LipschitzFunction(g, (0, 1, 2)), "one value per point"),
    (lambda g: evaluate(LipschitzFunction.zero(g),
                        TransportationProblem.zero(canonical_graph(g.space))),
     "different graphs"),
], ids=["function-too-short", "evaluate-across-graphs"])
def test_functions_refuse_the_wrong_graph(make, message):
    with pytest.raises(InvalidInput, match=message):
        make(c4_graph())
