from fractions import Fraction

import pytest

from corpus import metric_isomorphism
from tcspace import (
    InvalidInput,
    NotNormalized,
    TwoPortGraph,
    canonical_graph,
    complete_bipartite,
    compose,
    cycle,
    diamond,
    grid,
    k2n_two_port,
    metric,
    quadrilateral_two_port,
    recursive_family,
    unit_edge_two_port,
)


# --- diamonds ----------------------------------------------------------------------

def test_diamond_base_cases():
    d0, desc0 = diamond(0)
    assert d0.n == 2 and d0.d(0, 1) == 1
    d1, _ = diamond(1)
    assert d1.n == 4
    g1 = canonical_graph(d1)
    assert g1.m == 4
    assert all(e.weight == Fraction(1, 2) for e in g1.edges)
    # scaled C_4
    scaled = metric_isomorphism(
        d1, canonical_graph(cycle(4)).space.restrict([0, 1, 2, 3]))
    assert scaled is None  # different scale
    assert metric_isomorphism(d1, _scaled_c4()) is not None


def _scaled_c4():
    from tcspace import space_from_weighted_graph
    half = Fraction(1, 2)
    return space_from_weighted_graph(
        ["x0", "x1", "x2", "x3"],
        [("x0", "x1", half), ("x1", "x2", half),
         ("x2", "x3", half), ("x0", "x3", half)])


def test_diamond2_counts_and_degrees():
    space, desc = diamond(2)
    graph = canonical_graph(space)
    assert space.n == 12
    assert graph.m == 16
    newest = [v for v, name in enumerate(space.points)
              if desc.generations[name] == 2]
    assert len(newest) == 16 // 2
    assert all(graph.degree(v) == 2 for v in newest)


def test_diamond_generation_embedding_is_isometric():
    for n in (1, 2, 3):
        big, desc = diamond(n)
        small, _ = diamond(n - 1)
        keep = [i for i, name in enumerate(big.points)
                if desc.generations[name] <= n - 1]
        assert big.restrict(keep).dist == small.dist
        assert tuple(big.points[i] for i in keep) == small.points


def test_diamond_edge_weights_halve():
    for n in (1, 2, 3):
        space, _ = diamond(n)
        g = canonical_graph(space)
        assert {e.weight for e in g.edges} == {Fraction(1, 2**n)}


# --- grids, bipartite, cycles ---------------------------------------------------------

def test_grid2_is_c4():
    assert metric_isomorphism(grid(2), cycle(4)) is not None


def test_grid3_structure():
    g = canonical_graph(grid(3))
    assert g.n == 9 and g.m == 12
    center = g.space.index_of("1,1")
    assert g.degree(center) == 4
    assert g.max_degree() == 4


def test_complete_bipartite_degrees():
    assert canonical_graph(complete_bipartite(1, 1)).m == 1
    g24 = canonical_graph(complete_bipartite(2, 4))
    assert sorted(g24.degrees(), reverse=True) == [4, 4, 2, 2, 2, 2]
    g44 = canonical_graph(complete_bipartite(4, 4))
    assert g44.degrees() == [4] * 8


def test_unweighted_families_recover_their_edges():
    for space, m in ((grid(3), 12), (complete_bipartite(2, 3), 6),
                     (cycle(5), 5)):
        g = canonical_graph(space)
        assert g.m == m
        assert all(e.weight == 1 for e in g.edges)


# --- two-port composition ---------------------------------------------------------------

def test_two_port_validation():
    with pytest.raises(InvalidInput):
        TwoPortGraph(("a",), (), top="a", bottom="a")
    with pytest.raises(InvalidInput, match="graph is not connected"):
        TwoPortGraph(("a", "b", "c"), (("a", "b", Fraction(1)),),
                     top="a", bottom="b")
    with pytest.raises(InvalidInput, match="self-loops"):
        TwoPortGraph(("a", "b"), (("a", "b", Fraction(1)), ("a", "a", Fraction(1))),
                     top="a", bottom="b")


def test_a_two_port_graph_measures_itself_once(monkeypatch):
    """Each TwoPortGraph made runs one Floyd-Warshall, for its space; the
    NotNormalized checks of compose and recursive_family, and
    as_metric_space, read that space and run none."""
    runs, made = [], []
    floyd_warshall, post_init = metric._floyd_warshall, TwoPortGraph.__post_init__
    monkeypatch.setattr(metric, "_floyd_warshall",
                        lambda *a: runs.append(a) or floyd_warshall(*a))
    monkeypatch.setattr(TwoPortGraph, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    space, _ = recursive_family(k2n_two_port(3), 3)
    assert len(runs) == len(made) == 5  # B, the unit edge, and one per level
    runs.clear()
    last = made[-1]
    assert last.as_metric_space() is last.space
    assert last.as_metric_space(base="b") == space
    assert last.top_bottom_distance() == 1
    assert not runs


def test_ports_and_normalization():
    q = quadrilateral_two_port()
    assert q.top_bottom_distance() == 1
    assert q.max_degree() == 2
    k23 = k2n_two_port(3)
    assert k23.top_bottom_distance() == 1
    assert k23.max_degree() == 3
    stretched = TwoPortGraph(q.points,
                             tuple((u, v, w * 3) for u, v, w in q.edges),
                             q.top, q.bottom)
    assert stretched.top_bottom_distance() == 3
    assert stretched.normalized().top_bottom_distance() == 1
    with pytest.raises(NotNormalized):
        compose(stretched, q)


def test_compose_with_unit_edge_is_identity_like():
    q = quadrilateral_two_port()
    left = compose(unit_edge_two_port(), q)
    assert metric_isomorphism(left.as_metric_space(), q.as_metric_space()) \
        is not None
    right = compose(q, unit_edge_two_port())
    assert metric_isomorphism(right.as_metric_space(), q.as_metric_space()) \
        is not None


def test_compose_preserves_normalization():
    q = quadrilateral_two_port()
    once = compose(q, q)
    assert once.top_bottom_distance() == 1


def test_recursive_family_base_cases():
    space0, desc0 = recursive_family(k2n_two_port(3), 0)
    assert space0.n == 2 and space0.d(0, 1) == 1
    space1, desc1 = recursive_family(k2n_two_port(3), 1)
    assert metric_isomorphism(
        space1, k2n_two_port(3).as_metric_space()) is not None
    assert desc1.params["delta"] == 3


def test_recursive_quadrilateral_matches_diamond():
    space, desc = recursive_family(quadrilateral_two_port(), 2)
    dspace, ddesc = diamond(2)
    mapping = metric_isomorphism(
        space, dspace, klass_a=desc.generations, klass_b=ddesc.generations)
    assert mapping is not None


def test_recursive_generation_embedding():
    big, desc = recursive_family(k2n_two_port(3), 2)
    small, _ = recursive_family(k2n_two_port(3), 1)
    keep = [i for i, name in enumerate(big.points)
            if desc.generations[name] <= 1]
    assert big.restrict(keep).dist == small.dist


def test_descriptor_json_round_trip():
    _, desc = diamond(2)
    from tcspace import FamilyDescriptor
    again = FamilyDescriptor.from_json_obj(desc.to_json_obj())
    assert again.family == desc.family
    assert again.generations == desc.generations
    assert again.level_label(2) == "D_2"
