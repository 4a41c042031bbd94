import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from corpus import CORPUS, dijkstra_rows, is_acyclic
from oracles import incident
from tcspace import (
    DirectedSubgraph,
    InvalidInput,
    canonical_graph,
    connected_components,
    cycle,
    diamond,
    grid,
    path_metric,
    space_from_weighted_graph,
    validate_metric,
)
from tcspace import graph as graph_module
from tcspace import metric
from tcspace.graph import shortest_path_tree, tree_path
from tcspace.metric import (
    _adjacency,
    _dijkstra,
    _matrix_mask,
    _min_plus,
    _scaled_edges,
)
from tcspace.randgen import random_metric_space


def _edge_names(graph):
    return {(graph.space.points[e.tail], graph.space.points[e.head])
            for e in graph.edges}


def test_collinear_point_deletes_the_long_edge():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    graph = canonical_graph(space)
    assert _edge_names(graph) == {("A", "B"), ("B", "C")}


def test_c4_recovers_itself_diagonals_deleted():
    graph = canonical_graph(cycle(4))
    assert _edge_names(graph) == {("c0", "c1"), ("c1", "c2"),
                                  ("c2", "c3"), ("c0", "c3")}


def test_strict_triangles_give_the_complete_graph():
    d = [["0", "1", "5/4", "3/2"],
         ["1", "0", "7/6", "4/3"],
         ["5/4", "7/6", "0", "9/8"],
         ["3/2", "4/3", "9/8", "0"]]
    graph = canonical_graph(validate_metric(["A", "B", "C", "D"], d))
    assert graph.m == 6


def test_reference_orientation_tail_is_smaller_index():
    for inst in CORPUS:
        for e in inst.graph.edges:
            assert e.tail < e.head


def test_path_metric_of_canonical_graph_equals_input(corpus):
    for inst in corpus:
        g = inst.graph
        rows = path_metric(g.n, [(e.tail, e.head, e.weight) for e in g.edges])
        for i in range(g.n):
            assert tuple(rows[i]) == g.space.dist[i]


def test_canonical_graph_is_idempotent(corpus):
    for inst in corpus:
        g = inst.graph
        rebuilt_space = space_from_weighted_graph(
            g.space.points,
            [(g.space.points[e.tail], g.space.points[e.head], e.weight)
             for e in g.edges])
        rebuilt = canonical_graph(rebuilt_space)
        assert [(e.tail, e.head) for e in rebuilt.edges] == \
            [(e.tail, e.head) for e in g.edges]


def test_graph_json_round_trips_through_the_input_parser():
    graph = canonical_graph(cycle(5))
    obj = graph.to_json_obj()
    again = canonical_graph(space_from_weighted_graph(
        obj["vertices"], [(e["u"], e["v"], e["w"]) for e in obj["edges"]],
        base=obj["base"]))
    assert again.to_json_obj() == obj


def test_dot_export_carries_weights_and_arrows():
    graph = canonical_graph(cycle(4))
    dot = graph.to_dot()
    assert '"c0" -> "c1" [label="1"];' in dot
    assert dot.startswith("digraph")


def test_degrees_and_incident():
    graph = canonical_graph(cycle(4))
    assert graph.degrees() == [2, 2, 2, 2]
    assert graph.max_degree() == 2
    assert [v for _, v in incident(graph, 0)] == [1, 3]


def test_connected_components_labels():
    labels = connected_components(5, [(0, 1), (2, 3)])
    assert labels == [0, 0, 2, 2, 4]


def test_shortest_path_is_deterministic_on_ties():
    graph = canonical_graph(cycle(4))
    root, arcs = tree_path(graph, shortest_path_tree(graph, 0)[1], 2)
    assert root == 0
    # Two geodesics exist; the tie-break picks the one through vertex 1.
    verts = [graph.edges[e].tail if s > 0 else graph.edges[e].head
             for e, s in arcs]
    assert verts == [0, 1]


def test_directed_subgraph_validation():
    graph = canonical_graph(cycle(4))
    with pytest.raises(InvalidInput):
        DirectedSubgraph(graph, ((0, 2),))  # diagonal is not an edge
    with pytest.raises(InvalidInput):
        DirectedSubgraph(graph, ((0, 1), (0, 1)))
    with pytest.raises(InvalidInput):
        DirectedSubgraph(graph, ((-1, 0),))  # no wrap-around: 3 is not -1
    sub = DirectedSubgraph(graph, ((0, 1), (1, 2)))
    assert is_acyclic(sub)
    assert len(sub) == 2


def test_is_acyclic_does_not_recurse_along_a_long_path():
    """A directed path of 200 arcs, and the directed 201-cycle that closes
    it, under a recursion limit 100 frames above the caller's depth: one
    frame per arc would exceed it."""
    n = 201
    graph = canonical_graph(space_from_weighted_graph(
        [f"p{i}" for i in range(n)], [(f"p{i}", f"p{(i + 1) % n}", "1") for i in range(n)]))
    path = DirectedSubgraph(graph, tuple((i, i + 1) for i in range(n - 1)))
    around = DirectedSubgraph(graph, (*path.arcs, (n - 1, 0)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        verdicts = is_acyclic(path), is_acyclic(around)
    finally:
        sys.setrecursionlimit(limit)
    assert verdicts == (True, False)


def test_directed_subgraph_json_round_trip():
    graph = canonical_graph(cycle(4))
    sub = DirectedSubgraph(graph, ((0, 1), (2, 1)))
    again = DirectedSubgraph.from_json_obj(graph, sub.to_json_obj())
    assert again.arc_set() == sub.arc_set()


def test_two_point_space_has_one_edge():
    space = validate_metric(["A", "B"], [["0", "5/2"], ["5/2", "0"]])
    graph = canonical_graph(space)
    assert graph.m == 1
    assert graph.edges[0].weight == Fraction(5, 2)


def _tie_break_instances():
    for seed in range(5):
        for n in (8, 16, 32, 48):
            yield random_metric_space(random.Random(seed), n)
    yield grid(6)
    yield diamond(3)[0]


def test_shortest_path_tree_matches_a_brute_force_tie_break():
    for space in _tie_break_instances():
        graph = canonical_graph(space)
        for s in range(graph.n):
            dist, pred = shortest_path_tree(graph, s)
            # The canonical graph's path metric is the input metric.
            assert dist == list(space.dist[s])
            assert pred[s] is None
            for v in range(graph.n):
                if v == s:
                    continue
                best = min(u for e, u in incident(graph, v)
                           if dist[u] + graph.edges[e].weight == dist[v])
                assert pred[v] == graph.edge_index(best, v)


def _random_weighted_graph(rng, n):
    """Edges (u, v, w) of a random connected graph, weights 0..3: zero
    weights stand for the zero reduced costs the solver's Dijkstra meets."""
    edges = [(rng.randrange(i), i, rng.randint(0, 3)) for i in range(1, n)]
    tree = {(u, v) for u, v, _ in edges}
    edges += [(u, v, rng.randint(0, 3)) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in tree and rng.random() < 0.2]
    return edges


def test_dijkstra_from_several_sources_with_an_early_stop():
    """Every source is a root at distance 0, also when another source
    reaches it first over a zero-weight arc; with a stop set the search
    reports exactly the vertices settled up to the first stop vertex."""
    rng = random.Random(11)
    cases = [(3, [(0, 1, 0), (1, 2, 1)], [0, 1])]
    for n in (6, 12, 24):
        for _ in range(15):
            cases.append((n, _random_weighted_graph(rng, n),
                          rng.sample(range(n), rng.randint(2, n // 2 + 1))))
    for n, edges, sources in cases:
        adj = _adjacency(n, edges)
        single = dijkstra_rows(adj)
        flow, pot = [0] * len(edges), [0] * n
        dist, pred = _dijkstra(adj, sources, (), flow, pot)
        assert dist == [min(single[s][v] for s in sources) for v in range(n)]
        for v in range(n):
            if v in sources:
                assert pred[v] is None
                continue
            u, x, w = edges[pred[v]]
            assert dist[u if x == v else x] + w == dist[v]
        stop = set(rng.sample([v for v in range(n) if v not in sources], 1 + n // 4))
        early, _ = _dijkstra(adj, sources, stop, flow, pot)
        (sink,) = (v for v in stop if early[v] is not None)
        assert early[sink] == min(dist[v] for v in stop)
        for v in range(n):
            assert early[v] in (None, dist[v])
            assert (early[v] is None) <= (dist[v] >= early[sink])


def test_adjacency_is_the_reference_arc_for_arc():
    """canonical_graph keeps its self-check's integer adjacency; it is the
    one metric._adjacency builds over metric._scaled_edges, because the
    edges realise the metric and so their lcm is the space's D.  incident,
    degree() and edge_index read the same arcs, sorted by neighbour."""
    big = 2**60
    rng = random.Random(29)
    spaces = [inst.graph.space for inst in CORPUS]
    spaces += [random_metric_space(rng, n) for n in (3, 5, 8, 12, 16) for _ in range(4)]
    spaces += [s.restrict(list(range(0, s.n, 2))) for s in spaces if s.n >= 4]
    spaces += [validate_metric(s.points, [[x * big for x in row] for row in s.dist])
               for s in spaces[::3]]
    spaces.append(space_from_weighted_graph(
        ["A", "B", "C", "D"],
        [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "7/3"), ("C", "D", "1")]))
    assert any(s.scaled.dtype == object for s in spaces)
    for space in spaces:
        graph = canonical_graph(space)
        denom, scaled = _scaled_edges(graph.edges)
        assert graph.adjacency == _adjacency(graph.n, scaled)
        assert denom == space.denom
        for v in range(graph.n):  # incident reads the same arcs
            want = sorted((e.head if e.tail == v else e.tail, idx)
                          for idx, e in enumerate(graph.edges) if v in (e.tail, e.head))
            assert incident(graph, v) == tuple((idx, u) for u, idx in want)
            assert graph.degree(v) == len(want)
        index = {(e.tail, e.head): idx for idx, e in enumerate(graph.edges)}
        for u in range(-1, graph.n + 1):  # out-of-range points are no edge's
            for v in range(-1, graph.n + 1):
                assert graph.edge_index(u, v) == index.get((min(u, v), max(u, v)))


def _closes(mat, keep):
    """Whether one min-plus step over the graph of keep gives mat back
    (Bellman's equation), as _matrix_mask asks of its sure edges.  A graph
    with an isolated point is no path metric on two or more points; sure
    edges never leave one (each point's nearest neighbour is one), and
    _min_plus takes none."""
    if not keep.any(axis=1).all():
        return False
    return all(np.array_equal(best, mat[rows]) for rows, best in _min_plus(mat, keep))


def test_the_min_plus_step_agrees_with_all_pairs_shortest_paths():
    """The min-plus step gives the metric back on a graph (edges weighted
    by the metric) exactly when its all-pairs distances (per-source
    _dijkstra) are the metric: on the canonical edges with some dropped,
    with non-edges added, or both, with every edge at one point dropped, and
    with no edges at all.  No edges at all is the path metric of a
    one-point space, whose mask _matrix_mask leaves empty."""
    rng = random.Random(13)
    point = cycle(5).restrict([2])  # validation wants two points; restrict does not
    assert canonical_graph(point).m == 0
    hit, mask = _matrix_mask(point.scaled)
    assert hit is None and mask.tolist() == [[False]]
    assert dijkstra_rows(_adjacency(1, [])) == point.scaled.tolist()
    spaces = [cycle(5), grid(3), diamond(2)[0]]
    spaces += [random_metric_space(rng, n) for n in (3, 4, 6, 9, 12, 16) for _ in range(3)]
    spaces.append(validate_metric(spaces[-1].points,
                                  [[x * 2**60 for x in row] for row in spaces[-1].dist]))
    verdicts = []
    for space in spaces:
        mat, n = space.scaled, space.n
        canon = ~space._deletion_mask & ~np.eye(n, dtype=bool)
        isolated = canon.copy()
        isolated[n - 1, :] = isolated[:, n - 1] = False
        graphs = [isolated, np.zeros_like(canon)]
        for _ in range(12):
            keep = canon.copy()
            for u in range(n):
                for v in range(u + 1, n):
                    if canon[u, v] and rng.random() < 0.15:
                        keep[u, v] = keep[v, u] = False
                    elif not canon[u, v] and rng.random() < 0.3:
                        keep[u, v] = keep[v, u] = True
            graphs.append(keep)
        for keep in graphs:
            tails, heads = np.nonzero(np.triu(keep, 1))
            adj = _adjacency(n, list(zip(tails.tolist(), heads.tolist(),
                                         mat[tails, heads].tolist())))
            verdict = _closes(mat, keep)
            assert verdict == (dijkstra_rows(adj) == mat.tolist())
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_the_self_check_stays_within_a_few_matrices_of_memory():
    """On a dense 200-point space (every pair an edge) the min-plus step
    allocates a few times the scaled matrix, not a gather of every edge's
    row (2m x n entries, 200 times as much here)."""
    rng = random.Random(3)
    n = 200
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = f"{12 + rng.randrange(12)}/12"
    space = validate_metric([f"p{i}" for i in range(n)], rows)
    keep = ~space._deletion_mask & ~np.eye(n, dtype=bool)
    assert keep.sum() == n * (n - 1)
    tracemalloc.start()
    try:
        assert _closes(space.scaled, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * space.scaled.nbytes


def test_canonical_graph_runs_no_shortest_path_search(monkeypatch):
    """The mask's certificate is the min-plus step: no Dijkstra or all-pairs
    search (_path_rows, _floyd_warshall) runs while a canonical graph is
    built from the space's deletion mask, nor while restrict proves a
    restricted space's."""
    rng = random.Random(8)
    spaces = [cycle(4), grid(4), diamond(3)[0], random_metric_space(rng, 20)]

    def never(*args, **kwargs):
        raise AssertionError("shortest-path search in canonical_graph")

    monkeypatch.setattr(graph_module, "_dijkstra", never)
    for name in ("_dijkstra", "_path_rows", "_floyd_warshall"):
        monkeypatch.setattr(metric, name, never)
    spaces += [space.restrict(list(range(0, space.n, 2))) for space in spaces]
    for space in spaces:
        assert canonical_graph(space).m > 0
