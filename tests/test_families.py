from fractions import Fraction

import numpy as np
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
    families,
    grid,
    k2n_two_port,
    metric,
    quadrilateral_two_port,
    recursive_family,
    space_from_weighted_graph,
    to_fraction,
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
    """Each TwoPortGraph made certifies its space once (one _matrix_mask):
    by Floyd-Warshall for B and the unit edge, which are made by hand, and
    from the construction for a composition.  recursive_family makes no
    other and certifies its last level alone, so 3 certificates at depth 3,
    not one per level.  The NotNormalized checks read the space and run
    neither."""
    runs, certified, made = [], [], []
    floyd_warshall, matrix_mask = metric._floyd_warshall, metric._matrix_mask
    post_init = TwoPortGraph.__post_init__
    monkeypatch.setattr(metric, "_floyd_warshall",
                        lambda *a: runs.append(a) or floyd_warshall(*a))
    monkeypatch.setattr(metric, "_matrix_mask",
                        lambda *a: certified.append(a) or matrix_mask(*a))
    monkeypatch.setattr(TwoPortGraph, "__post_init__",
                        lambda self, *a: made.append(self) or post_init(self, *a))
    B = k2n_two_port(3)
    recursive_family(B, 3)
    assert len(runs) == len(made) == 2  # B and the unit edge
    assert len(certified) == 3  # B, the unit edge and the last level
    runs.clear()
    certified.clear()
    assert B.top_bottom_distance() == 1
    assert not runs and not certified
    composed = compose(B, B)
    assert not runs and len(certified) == 1
    assert composed.top_bottom_distance() == 1


def test_ports_and_normalization():
    q = quadrilateral_two_port()
    assert q.top_bottom_distance() == 1
    assert q.max_degree() == 2
    k23 = k2n_two_port(3)
    assert k23.top_bottom_distance() == 1
    assert k23.max_degree() == 3
    stretched = _stretched_quadrilateral()
    assert stretched.top_bottom_distance() == 3
    with pytest.raises(NotNormalized):
        compose(stretched, q)


def test_compose_with_unit_edge_is_identity_like():
    q = quadrilateral_two_port()
    left = compose(unit_edge_two_port(), q)
    assert metric_isomorphism(left.space, q.space) is not None
    right = compose(q, unit_edge_two_port())
    assert metric_isomorphism(right.space, q.space) is not None


def test_compose_preserves_normalization():
    q = quadrilateral_two_port()
    once = compose(q, q)
    assert once.top_bottom_distance() == 1


def test_recursive_family_base_cases():
    space0, desc0 = recursive_family(k2n_two_port(3), 0)
    assert space0.n == 2 and space0.d(0, 1) == 1
    space1, desc1 = recursive_family(k2n_two_port(3), 1)
    assert metric_isomorphism(space1, k2n_two_port(3).space) is not None
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


# --- input checks -------------------------------------------------------------------

def _stretched_quadrilateral():
    q = quadrilateral_two_port()
    return TwoPortGraph(q.points, tuple((u, v, w * 3) for u, v, w in q.edges), q.top, q.bottom)


def _named_like_a_copy():
    """A normalized path b - e0.m0 - t, whose middle vertex has the name
    compose gives the first copy's first inner vertex."""
    half = Fraction(1, 2)
    return TwoPortGraph(("b", "t", "e0.m0"), (("b", "e0.m0", half), ("e0.m0", "t", half)),
                        top="t", bottom="b")


@pytest.mark.parametrize("make,error,message", [
    (lambda: TwoPortGraph(("a", "b"), (("a", "b", Fraction(1)),), top="x", bottom="a"),
     InvalidInput, "must be vertices"),
    (lambda: compose(_named_like_a_copy(), quadrilateral_two_port()),
     InvalidInput, "name collision"),
    (lambda: diamond(-1), InvalidInput, "nonnegative"),
    (lambda: recursive_family(k2n_two_port(3), -1), InvalidInput, "nonnegative"),
    (lambda: recursive_family(_stretched_quadrilateral(), 1), NotNormalized, "B must"),
    (lambda: k2n_two_port(1), InvalidInput, "at least 2 legs"),
    (lambda: grid(1), InvalidInput, "grid needs"),
    (lambda: cycle(2), InvalidInput, "cycle needs"),
    (lambda: complete_bipartite(0, 3), InvalidInput, "parts must be nonempty"),
], ids=["ports-not-vertices", "name-collision", "diamond-negative", "recursive-negative",
        "recursive-unnormalized", "k2n-one-leg", "grid-1", "cycle-2", "bipartite-empty"])
def test_generators_refuse_what_they_cannot_build(make, error, message):
    with pytest.raises(error, match=message):
        make()


# --- metrics from the construction ---------------------------------------------------

def _floyd_warshall_of(points, edges):
    """(the path metric of the named edges times D, D) by Floyd-Warshall."""
    at = {p: i for i, p in enumerate(points)}
    mat, denom, _ = metric._path_rows(len(points), [(at[u], at[v], to_fraction(w))
                                                    for u, v, w in edges])
    return mat, denom


def _same_distances(a, b) -> bool:
    """Whether two (scaled matrix, D) pairs hold the same distances."""
    (x, dx), (y, dy) = a, b
    return ([[v * dy for v in row] for row in x.tolist()]
            == [[v * dx for v in row] for row in y.tolist()])


def _two_ports():
    """The unit edge, the quadrilateral, K_{2,4}, a graph whose port-to-port
    edge is longer than the path beside it, and one with legs of unequal
    weights over denominators 3, 4, 5 and 7, a rung between its legs and a
    port-to-port edge: every one normalized."""
    detour = TwoPortGraph(("b", "m", "t"),
                          (("b", "m", Fraction(1, 2)), ("m", "t", Fraction(1, 2)),
                           ("b", "t", Fraction(3, 2))), top="t", bottom="b")
    uneven = TwoPortGraph(("b", "t", "x", "y"),
                          (("b", "x", Fraction(1, 3)), ("x", "t", Fraction(2, 3)),
                           ("b", "y", Fraction(3, 4)), ("y", "t", Fraction(1, 4)),
                           ("x", "y", Fraction(5, 7)), ("b", "t", Fraction(7, 5))),
                          top="t", bottom="b")
    return [unit_edge_two_port(), quadrilateral_two_port(), k2n_two_port(4), detour, uneven]


def test_the_kernel_is_floyd_warshall_on_compositions():
    """Each of the two-ports composed with each: the substitution kernel's
    candidate is Floyd-Warshall's matrix of the composed graph, and so is
    the composed space."""
    parts = _two_ports()
    assert all(g.top_bottom_distance() == 1 for g in parts)
    for H in parts:
        for G in parts:
            got = metric._substitute(H._level, G._level,
                                     (G.space.index_of(G.bottom), G.space.index_of(G.top)))
            composed = compose(H, G)
            assert _same_distances(got, _floyd_warshall_of(composed.points, composed.edges))
            assert composed.space == space_from_weighted_graph(composed.points, composed.edges)


def test_the_kernel_is_floyd_warshall_on_every_level(monkeypatch):
    """Every level the generators build, D_0 to D_5 and each level of the
    K_{2,3} recursion to depth 4, is Floyd-Warshall's matrix of its edges at
    its unit: each level enters a composition step or comes out of one."""
    levels = {}
    real = families._compose_step

    def spy(points, level, G, tag):
        out = real(points, level, G, tag)
        for named in ((points, level), out):
            levels.setdefault(tuple(named[0]), named[1])
        return out

    monkeypatch.setattr(families, "_compose_step", spy)
    diamond(5)
    recursive_family(k2n_two_port(3), 4)
    assert [len(points) for points in levels] == [2, 4, 12, 44, 172, 684, 2, 5, 23, 131, 779]
    for points, (mat, _, edges) in levels.items():
        assert np.array_equal(mat, metric._floyd_warshall(len(points), edges))


def test_a_wrong_candidate_is_refused_by_the_certificate(monkeypatch):
    """A construction's candidate with one distance (both entries) one unit
    too high or too low fails an assertion, also where it drops to zero:
    on compose(q, q), D_2 and the 3 x 3 grid."""
    real = families._path_space
    shift = []  # (i, k, delta): d(i, k) and d(k, i) moved by delta
    last = []
    final = []  # the points of the construction's last level, not of a part made by hand

    def off_by_one(names, mat, denom, edges, base=None):
        if tuple(names) in final:
            mat = mat.copy()
            for i, k, delta in shift:
                mat[i, k] += delta
                mat[k, i] += delta
        last[:] = [tuple(names), mat]
        return real(names, mat, denom, edges, base)

    monkeypatch.setattr(families, "_path_space", off_by_one)
    q = quadrilateral_two_port()
    for make in (lambda: compose(q, q).space, lambda: diamond(2)[0], lambda: grid(3)):
        shift.clear()
        right = make()
        final[:] = [last[0]]
        n = len(last[1])
        refused = 0
        for i in range(n):
            for k in range(i + 1, n):
                for delta in (1, -1):
                    shift[:] = [(i, k, delta)]
                    with pytest.raises(AssertionError, match="path metric"):
                        make()
                    refused += 1
        assert refused == n * (n - 1)
        shift.clear()
        assert make() == right


def test_a_wrong_level_is_refused_by_the_last_certificate(monkeypatch):
    """Only the last level is certified, and that covers the earlier ones: a
    first level whose candidate has one distance (both entries) one unit
    too high or too low makes D_3 and the depth-3 K_{2,3} recursion fail
    the final assertion."""
    real = families._compose_step
    shift = []

    def first_level_off_by_one(points, level, G, tag):
        out_points, (mat, denom, edges) = real(points, level, G, tag)
        if tag == "g1e":
            mat = mat.copy()
            for i, k, delta in shift:
                mat[i, k] += delta
                mat[k, i] += delta
        return out_points, (mat, denom, edges)

    monkeypatch.setattr(families, "_compose_step", first_level_off_by_one)
    for make, n in ((lambda: diamond(3), 4), (lambda: recursive_family(k2n_two_port(3), 3), 5)):
        right = make()[0]
        for i in range(n):
            for k in range(i + 1, n):
                for delta in (1, -1):
                    shift[:] = [(i, k, delta)]
                    with pytest.raises(AssertionError, match="path metric"):
                        make()
        shift.clear()
        assert make()[0] == right
