import random
from fractions import Fraction
from math import lcm

import pytest

from corpus import (
    CORPUS,
    SMALL_CORPUS,
    c4_graph,
    point_difference,
    random_cycle_element,
    random_roadmap,
)
from tcspace import (
    InvalidInput,
    Improving,
    MetricSpace,
    NotImprovable,
    NullProblem,
    Optimal,
    Roadmap,
    TransportationPlan,
    TransportationProblem,
    cancel_cycle,
    canonical_graph,
    cycle,
    cycle_basis,
    diamond,
    directed_graph_of,
    grid,
    improving_cycle,
    maximal_roadmap,
    maximal_support,
    oracle_tc_norm,
    plan_to_roadmap,
    space_from_weighted_graph,
    tc_norm,
    validate_metric,
)
from tcspace import transport
from tcspace.transport import OrientedCycle
from tcspace.randgen import random_metric_space, random_problem


def _path3_weighted():
    return canonical_graph(space_from_weighted_graph(
        ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")]))


def _long_way_roadmap(graph):
    """1_c0 - 1_c1 on C_4 routed the wrong way around: c0 -> c3 -> c2 -> c1."""
    plan = TransportationPlan.from_names(
        graph, [("c0", "c3", 1), ("c3", "c2", 1), ("c2", "c1", 1)])
    return plan_to_roadmap(plan)


# --- plans -> roadmaps -----------------------------------------------------------

def test_plan_on_an_edge_matches_orientation():
    g = _path3_weighted()
    rm = plan_to_roadmap(TransportationPlan.from_names(g, [("B", "A", 1)]))
    assert rm.values == {g.edge_index(0, 1): Fraction(-1)}


def test_an_edge_is_its_own_shortest_path():
    """An edge {u, v} has no midpoint, so every other u-v path is longer:
    the Dijkstra tree from u reaches v by that edge, and a unit move u -> v
    is routed along it alone, signed by the reference orientation."""
    from tcspace.graph import shortest_path_tree

    for inst in CORPUS:
        graph = inst.graph
        trees = [shortest_path_tree(graph, u)[1] for u in range(graph.n)]
        for idx, e in enumerate(graph.edges):
            for u, v, sign in ((e.tail, e.head, 1), (e.head, e.tail, -1)):
                assert trees[u][v] == idx, inst.name
                rm = plan_to_roadmap(TransportationPlan(graph, ((u, v, Fraction(1)),)))
                assert rm.values == {idx: Fraction(sign)}, inst.name


def test_plan_routed_along_shortest_path():
    g = canonical_graph(validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]))
    rm = plan_to_roadmap(TransportationPlan.from_names(g, [("A", "C", 2)]))
    assert rm.cost() == 4
    assert rm[g.edge_index(0, 1)] == 2
    assert rm[g.edge_index(1, 2)] == 2


def test_opposite_terms_cancel():
    g = _path3_weighted()
    plan = TransportationPlan.from_names(g, [("A", "B", 1), ("B", "A", 1)])
    rm = plan_to_roadmap(plan)
    assert rm.is_zero()
    assert plan.cost() == 2 and rm.cost() == 0


def test_fake_plans_are_allowed():
    g = _path3_weighted()
    plan = TransportationPlan.from_names(g, [("C", "A", 5)])
    assert plan_to_roadmap(plan).problem().by_name() == {"A": -5, "C": 5}


def test_plan_cost_dominates_roadmap_cost(rng):
    for inst in SMALL_CORPUS:
        pts = inst.graph.space.points
        terms = []
        for _ in range(4):
            x, y = rng.sample(range(len(pts)), 2)
            terms.append((pts[x], pts[y], Fraction(rng.randint(1, 4))))
        plan = TransportationPlan.from_names(inst.graph, terms)
        rm = plan_to_roadmap(plan)
        assert rm.cost() <= plan.cost()
        assert rm.problem() == plan.problem()



def test_a_plan_is_priced_from_the_integer_distances(rng):
    """cost() reads the space's integer matrix and divides once by D: it
    builds no Fraction view (space.dist), and equals sum a * d(x, y)."""
    for inst in CORPUS:
        space = MetricSpace.from_json_obj(inst.graph.space.to_json_obj())  # nothing cached
        terms = tuple((*rng.sample(range(space.n), 2),
                       Fraction(rng.randint(1, 6), rng.randint(1, 4))) for _ in range(3))
        cost = TransportationPlan(canonical_graph(space), terms).cost()
        assert "dist" not in space.__dict__, inst.name
        assert cost == sum(a * inst.graph.space.d(x, y) for x, y, a in terms), inst.name

# --- cycle basis ------------------------------------------------------------------

def test_tree_has_empty_basis():
    g = _path3_weighted()
    assert cycle_basis(g).cycles == ()


def test_c4_has_one_cycle_of_length_four():
    basis = cycle_basis(c4_graph())
    assert len(basis.cycles) == 1
    assert len(basis.cycles[0].arcs) == 4


def test_k4_has_three_cycles():
    d = [["0", "1", "5/4", "3/2"],
         ["1", "0", "7/6", "4/3"],
         ["5/4", "7/6", "0", "9/8"],
         ["3/2", "4/3", "9/8", "0"]]
    g = canonical_graph(validate_metric(["A", "B", "C", "D"], d))
    basis = cycle_basis(g)
    assert len(basis.cycles) == 3
    # each fundamental cycle owns its defining non-forest edge
    non_forest = [set(c.indicator().support()) - basis.forest
                  for c in basis.cycles]
    defining = [next(iter(s)) for s in non_forest]
    assert all(len(s) == 1 for s in non_forest)
    assert len(set(defining)) == 3


def test_basis_spans_the_kernel(corpus, rng):
    # decompose a random kernel element in fundamental-cycle coordinates
    for inst in corpus[:8]:
        basis = cycle_basis(inst.graph)
        z = random_cycle_element(rng, basis)
        assert z.problem().is_zero()
        rebuilt = Roadmap.zero(inst.graph)
        for cyc in basis.cycles:
            defining = next(iter(set(cyc.indicator().support()) - basis.forest))
            coeff = z[defining] * cyc.indicator()[defining]
            rebuilt = rebuilt + cyc.indicator().scale(coeff)
        assert rebuilt == z


# --- improving cycles -------------------------------------------------------------

def test_solver_output_is_certified_optimal(small_corpus):
    for inst in small_corpus:
        for f in inst.problems:
            _, rm = tc_norm(f)
            assert isinstance(improving_cycle(rm), Optimal)


def test_long_way_routing_has_an_improving_cycle():
    g = c4_graph()
    rm = _long_way_roadmap(g)
    assert rm.cost() == 3
    cert = improving_cycle(rm)
    assert isinstance(cert, Improving)
    assert cert.gain == 2  # direct route costs 1, detour costs 3


def test_cycle_indicator_is_fully_cancelable():
    g = c4_graph()
    cyc = cycle_basis(g).cycles[0]
    rm = cyc.indicator()
    cert = improving_cycle(rm)
    assert isinstance(cert, Improving)
    assert cert.gain == sum(g.edges[e].weight for e, _ in cyc.arcs)
    assert cancel_cycle(rm, cert).is_zero()


def test_cancel_restores_the_direct_route():
    g = c4_graph()
    rm = _long_way_roadmap(g)
    out = cancel_cycle(rm, improving_cycle(rm))
    assert out.cost() == 1
    assert out.values == {g.edge_index(0, 1): Fraction(1)}


def test_cancel_rejects_optimal_certificates():
    g = c4_graph()
    _, rm = tc_norm(point_difference(g, "c0", "c1"))
    with pytest.raises(NotImprovable):
        cancel_cycle(rm, improving_cycle(rm))


def test_optimality_biconditional_on_random_roadmaps(small_corpus, rng):
    for inst in small_corpus:
        for _ in range(3):
            rm = random_roadmap(rng, inst.graph)
            optimal = isinstance(improving_cycle(rm), Optimal)
            assert optimal == (rm.cost() == oracle_tc_norm(rm.problem()))


# --- tc_norm ----------------------------------------------------------------------

def test_point_mass_norm_is_the_distance(corpus):
    for inst in corpus:
        space = inst.graph.space
        f = point_difference(inst.graph, space.points[0], space.points[-1])
        assert tc_norm(f)[0] == space.d(0, space.n - 1)


def test_weighted_path_example():
    g = _path3_weighted()
    f = TransportationProblem.from_names(g, {"A": 2, "B": -1, "C": -1})
    value, rm = tc_norm(f)
    assert value == 4
    assert rm.problem() == f


def test_zero_problem():
    g = c4_graph()
    value, rm = tc_norm(TransportationProblem.zero(g))
    assert value == 0 and rm.is_zero()


def test_norm_matches_oracle_on_the_corpus(corpus):
    for inst in corpus:
        for f in inst.problems:
            assert tc_norm(f)[0] == oracle_tc_norm(f)


PRIMES = (7919, 104729, 1299709)


def _prime_denominator_problem(rng, graph):
    """A zero-sum problem on every point, masses k/p with p from PRIMES."""
    masses = [Fraction(rng.randint(-6, 6), rng.choice(PRIMES)) for _ in range(graph.n - 1)]
    masses.append(-sum(masses))
    return TransportationProblem(graph, dict(enumerate(masses)))


def _solver_cases():
    """(name, problem): SMALL_CORPUS with its problems and one with prime
    denominators each, then random spaces of 8 to 48 points with those."""
    rng = random.Random(20241018)
    for inst in SMALL_CORPUS:
        for i, f in enumerate([*inst.problems, _prime_denominator_problem(rng, inst.graph)]):
            yield f"{inst.name}/{i}", f
    for n, seeds in ((8, range(6)), (10, range(6)), (16, range(3)), (32, range(2)), (48, range(2))):
        for seed in seeds:
            graph = canonical_graph(random_metric_space(random.Random(seed), n))
            yield f"random-{n}/{seed}", _prime_denominator_problem(rng, graph)


def test_solver_agrees_with_the_oracle_and_karp():
    """tc_norm against the dense-LP oracle where that is small enough, and
    its roadmap against the Bellman-Ford improving-cycle search, which shares
    only the residual digraph's arc costs with the successive shortest paths."""
    seen = set()
    for name, f in _solver_cases():
        value, rm = tc_norm(f)
        assert rm.problem() == f and rm.cost() == value, name
        if f.graph.n <= 10:
            assert value == oracle_tc_norm(f), name
        assert isinstance(improving_cycle(rm), Optimal), name
        seen.add(f.graph.n)
    assert seen >= {8, 10, 16, 32, 48}


def test_potential_certificate_holds_exactly_for_optimal_roadmaps():
    """The final potentials certify the solver's flow, and an optimal
    roadmap plus one basis-cycle indicator exactly when it is optimal too
    (complementary slackness holds for every optimal flow)."""
    from tcspace.transport import _certifies, _solve

    rejected = 0
    for name, f in _solver_cases():
        graph = f.graph
        if graph.n > 16:
            continue
        flow, pot = _solve(f)
        scale = lcm(*(x.denominator for x in f.values.values()))
        assert f.denom == scale, name
        adj = graph.adjacency
        assert _certifies(adj, flow, pot), name
        value, rm = tc_norm(f)
        assert [rm[e] * scale for e in range(graph.m)] == flow
        for cycle in cycle_basis(graph).cycles:
            shifted = rm + cycle.indicator()
            scaled = [int(shifted[e] * scale) for e in range(graph.m)]
            optimal = shifted.cost() == value
            assert _certifies(adj, scaled, pot) == optimal, name
            rejected += not optimal
    assert rejected > 0


def test_final_potentials_are_a_supporting_function():
    """_solve's potentials give l(v) = (pot[base] - pot[v]) / D, checked in
    exact integers (l scaled by D, masses by M): 1-Lipschitz on every
    canonical edge, dropping by the weight along the flow on every support
    edge, and paired with f equal to the norm."""
    from tcspace.transport import _solve

    cases = [(inst.name, f) for inst in CORPUS for f in inst.problems]
    cases += [(name, f) for name, f in _solver_cases() if name.startswith("random")]
    tight = 0
    for name, f in cases:
        graph = f.graph
        flow, pot = _solve(f)
        scale = lcm(*(x.denominator for x in f.values.values()))
        assert f.denom == scale, name
        denom = graph.space.denom
        lip = [pot[graph.space.base_point] - x for x in pot]  # l times D
        assert lip[graph.space.base_point] == 0
        total = 0
        for e, edge in enumerate(graph.edges):
            w = edge.weight * denom
            assert w.denominator == 1, name
            drop = lip[edge.tail] - lip[edge.head]  # l(tail) - l(head), times D
            assert abs(drop) <= w, name
            if flow[e]:
                assert drop == (w if flow[e] > 0 else -w), name
                tight += 1
            total += abs(flow[e]) * int(w)
        masses = [f[v] * scale for v in range(graph.n)]
        assert all(x.denominator == 1 for x in masses), name
        assert sum(x * m for x, m in zip(lip, masses)) == total, name
        assert Fraction(total, denom * scale) == tc_norm(f)[0], name
    assert tight > 0


def test_the_dijkstra_view_equals_the_rebuilt_residual_digraph(monkeypatch):
    """At every round of the solver, _dijkstra's (flow, pot) view returns
    what it returns on the whole reduced-cost digraph (_reduced_adjacency):
    the same distances and the same predecessor edges, ties included."""
    from tcspace.metric import _dijkstra
    from tcspace.metric import _reduced_adjacency

    seen = {"rounds": 0, "zero_arcs": 0, "ties": 0}

    def spy(adj, sources, sinks, flow, pot):
        got = _dijkstra(adj, sources, sinks, flow, pot)
        reduced = _reduced_adjacency(adj, flow, pot)
        assert got == _dijkstra(reduced, sources, sinks, [0] * len(flow), [0] * len(pot))
        dist = got[0]
        seen["rounds"] += 1
        seen["zero_arcs"] += sum(c == 0 for arcs in reduced for _, c, _ in arcs)
        for v in range(len(adj)):  # v settled with two tight arcs into it
            if dist[v] is not None and v not in sources:
                seen["ties"] += sum(dist[u] is not None and dist[u] + c == dist[v]
                                    for u, arcs in enumerate(reduced)
                                    for x, c, _ in arcs if x == v) > 1
        return got

    monkeypatch.setattr(transport, "_dijkstra", spy)
    rng = random.Random(77)
    graphs = [canonical_graph(space) for space in (cycle(6), grid(4), diamond(2)[0])]
    graphs += [canonical_graph(random_metric_space(rng, n)) for n in (8, 12, 16, 24)]
    for graph in graphs:
        for _ in range(3):
            f = random_problem(rng, graph, nonzero=True)
            assert tc_norm(f)[1].problem() == f
    assert seen["rounds"] > 50 and seen["zero_arcs"] > 0 and seen["ties"] > 0


def test_one_solve_builds_the_residual_digraph_once(monkeypatch):
    """The rounds price residual arcs inside Dijkstra; only the final
    certificate (_certifies) builds the residual digraph."""
    calls = []
    build = transport._reduced_adjacency
    monkeypatch.setattr(transport, "_reduced_adjacency",
                        lambda *a: calls.append(a) or build(*a))
    for name, f in _solver_cases():
        calls.clear()
        tc_norm(f)
        assert len(calls) == 1, name


def test_the_transport_check_fails_a_bad_flow(monkeypatch):
    """A flow one unit off on one edge, the potentials unchanged, does not
    transport f: _optimum's integer divergence check refuses it, on every
    reader of a solve (tc_norm, the norm alone, the maximal support and the
    supporting functions of `dual`)."""
    from tcspace.duality import is_unique_supporting, supporting_function

    readers = (tc_norm, transport._norm, maximal_support, supporting_function,
               is_unique_supporting)
    solve = transport._solve
    rng = random.Random(19)
    c4 = c4_graph()
    cases = [(c4, point_difference(c4, "c0", "c2"))]
    for n in (5, 8):
        graph = canonical_graph(random_metric_space(rng, n))
        cases.append((graph, random_problem(rng, graph, nonzero=True)))
    for graph, f in cases:
        for edge in range(graph.m):
            for delta in (1, -1):
                def off(f, edge=edge, delta=delta):
                    flow, pot = solve(f)
                    flow = list(flow)
                    flow[edge] += delta
                    return flow, pot

                monkeypatch.setattr(transport, "_solve", off)
                for read in readers:
                    with pytest.raises(AssertionError, match="the flow must transport f"):
                        read(f)
        monkeypatch.undo()
        assert tc_norm(f)[1].problem() == f


def test_cost_decreases_monotonically():
    g = c4_graph()
    rm = Roadmap(g, {0: Fraction(4), 1: Fraction(-3), 2: Fraction(2), 3: Fraction(1)})
    costs = [rm.cost()]
    while True:
        cert = improving_cycle(rm)
        if isinstance(cert, Optimal):
            break
        rm = cancel_cycle(rm, cert)
        costs.append(rm.cost())
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert rm.cost() == oracle_tc_norm(rm.problem())


# --- quotient structure -----------------------------------------------------------

def test_cycle_space_shifts_never_beat_the_solver(small_corpus, rng):
    for inst in small_corpus[:6]:
        basis = cycle_basis(inst.graph)
        p = random_roadmap(rng, inst.graph)
        f = p.problem()
        value, best = tc_norm(f)
        assert (best - p).problem().is_zero()
        for _ in range(20):
            z = random_cycle_element(rng, basis)
            assert (p + z).problem() == f
            assert value <= (p + z).cost()


def test_midpoint_of_optima_is_optimal(small_corpus):
    for inst in small_corpus:
        f = inst.problems[0]
        value, p1 = tc_norm(f)
        p2 = maximal_roadmap(f)
        mid = (p1 + p2).scale(Fraction(1, 2))
        assert mid.cost() == value
        for e in p1.support() & p2.support():
            assert p1[e] * p2[e] > 0


# --- maximal support --------------------------------------------------------------

def test_unique_roadmap_support_on_a_path():
    g = _path3_weighted()
    f = point_difference(g, "A", "C")
    edges, signs = maximal_support(f)
    assert edges == {0, 1}
    assert signs == {0: 1, 1: 1}


def test_two_geodesics_cover_all_of_c4():
    g = c4_graph()
    f = point_difference(g, "c0", "c2")
    edges, signs = maximal_support(f)
    assert edges == {0, 1, 2, 3}
    mr = maximal_roadmap(f)
    assert mr.support() == edges
    assert mr.cost() == 2


def test_zero_problem_has_empty_support():
    g = c4_graph()
    edges, signs = maximal_support(TransportationProblem.zero(g))
    assert edges == frozenset() and signs == {}
    assert maximal_roadmap(TransportationProblem.zero(g)).is_zero()


def test_directed_graph_examples():
    g = _path3_weighted()
    f = point_difference(g, "A", "C")
    dg = directed_graph_of(f)
    assert dg.arc_set() == {(0, 1), (1, 2)}

    c4 = c4_graph()
    f2 = point_difference(c4, "c0", "c2")
    assert directed_graph_of(f2).arc_set() == {(0, 1), (1, 2), (0, 3), (3, 2)}

    rev = directed_graph_of(f2.scale(-1))
    assert rev.arc_set() == {(v, u) for u, v in directed_graph_of(f2).arc_set()}


def test_directed_graph_of_zero_raises():
    with pytest.raises(NullProblem):
        directed_graph_of(TransportationProblem.zero(c4_graph()))


def _face_cases():
    """(name, problem): every CORPUS problem, then one random problem on
    each of 60 random spaces of 3 to 16 points."""
    for inst in CORPUS:
        for i, f in enumerate(inst.problems):
            yield f"{inst.name}/{i}", f
    rng = random.Random(1414)
    for seed in range(60):
        graph = canonical_graph(random_metric_space(random.Random(seed), 3 + seed % 14))
        yield f"random-{graph.n}/{seed}", random_problem(rng, graph, nonzero=True)


def _bellman_ford_distances(p):
    """Reference: Bellman-Ford distances from the base point in p's
    residual digraph, and in that of -p (its transpose: distances to the
    base point), as Fractions."""
    from tcspace.transport import _residual_digraph, bellman_ford

    out = []
    for q in (p, p.scale(-1)):
        dist, cycle = bellman_ford(_residual_digraph(q), p.graph.space.base_point)
        assert cycle is None
        out.append([Fraction(d, p.graph.space.denom) for d in dist])
    return out


def _bellman_ford_zero_cost_cycles(p):
    """Reference: the cycles of the arcs tight under the Bellman-Ford
    distances from the base point, dist[u] + c == dist[v], built by the
    same breadth-first trees."""
    from tcspace.graph import tree_path
    from tcspace.transport import OrientedCycle, _residual_digraph, _tight_tree, bellman_ford

    graph = p.graph
    adj = _residual_digraph(p)
    dist, _ = bellman_ford(adj, graph.space.base_point)
    tight = [[(v, e) for v, c, e in arcs if dist[u] + c == dist[v]]
             for u, arcs in enumerate(adj)]
    cycles = {}
    for u in range(graph.n):
        for v, e in tight[u]:
            if p[e] != 0:
                continue
            root, path = tree_path(graph, _tight_tree(tight, [v]), u)
            if root == v:
                cycles[e] = OrientedCycle(graph, ((e, 1 if u < v else -1), *path))
    return cycles


def test_the_optimal_face_from_the_certificate_matches_bellman_ford():
    """The solver's (flow, pot) gives, by one Dijkstra per direction, the
    Bellman-Ford residual distances from and to the base point, and by the
    arcs pot prices at 0 the same zero-cost cycles as the arcs tight under
    those distances; on connected and disconnected maximal supports."""
    from tcspace.graph import connected_components
    from tcspace.transport import _optimum, _roadmap, residual_distances, zero_cost_cycles

    disconnected = connected = cycles_seen = 0
    for name, f in _face_cases():
        graph = f.graph
        flow, pot = _optimum(f)
        assert f.denom == lcm(*(x.denominator for x in f.values.values())), name
        _, p = _roadmap(graph, flow, f.denom)
        assert p.problem() == f, name
        forward, backward = _bellman_ford_distances(p)
        assert residual_distances(graph, flow, pot) == forward, name
        negated = [-x for x in flow], [-x for x in pot]
        assert residual_distances(graph, *negated) == backward, name
        cycles = zero_cost_cycles(graph, flow, pot)
        assert cycles == _bellman_ford_zero_cost_cycles(p), name
        cycles_seen += len(cycles)
        edges = p.support() | cycles.keys()
        comp = connected_components(
            graph.n, ((graph.edges[i].tail, graph.edges[i].head) for i in edges))
        disconnected += len(set(comp)) > 1
        connected += len(set(comp)) == 1
    assert disconnected > 0 and connected > 0 and cycles_seen > 0


def test_the_maximal_support_runs_no_bellman_ford(monkeypatch):
    runs = []
    bellman_ford = transport.bellman_ford
    monkeypatch.setattr(transport, "bellman_ford",
                        lambda *a, **k: runs.append(a) or bellman_ford(*a, **k))
    for inst in SMALL_CORPUS:
        for f in inst.problems:
            maximal_support(f)
            maximal_roadmap(f)
    assert runs == []


def test_sign_consistency_across_solvers(small_corpus):
    for inst in small_corpus:
        f = inst.problems[-1]
        _, p1 = tc_norm(f)
        p2 = maximal_roadmap(f)
        for e in range(inst.graph.m):
            assert p1[e] * p2[e] >= 0


def test_roadmap_json_round_trip():
    g = _path3_weighted()
    _, rm = tc_norm(TransportationProblem.from_names(
        g, {"A": 2, "B": -1, "C": -1}))
    obj = rm.to_json_obj()
    assert obj["cost"] == "4"
    again = Roadmap.from_json_obj(g, obj)
    assert again == rm


def _all_simple_cycle_means(p):
    """Brute force: enumerate simple directed cycles in the residual graph
    (including two-arc cycles that traverse one edge forth and back)."""
    from tcspace.transport import _residual_digraph

    denom, adj = p.graph.space.denom, _residual_digraph(p)
    best = []

    def walk(start, node, cost, used_arcs, visited):
        for v, c, e in adj[node]:
            if (e, node) in used_arcs:
                continue
            if v == start:
                best.append(Fraction(cost + c, denom) / (len(used_arcs) + 1))
            elif v not in visited and v > start:
                walk(start, v, cost + c, used_arcs | {(e, node)}, visited | {v})

    for s in range(p.graph.n):
        walk(s, s, 0, frozenset(), frozenset({s}))
    return best


def _assert_certificate_matches_brute_force(p):
    """improving_cycle finds a cycle iff some residual cycle has negative
    mean, and the cycle it returns costs exactly -gain in the residual graph."""
    from tcspace.transport import _residual_digraph

    cert = improving_cycle(p)
    assert isinstance(cert, Improving) == (min(_all_simple_cycle_means(p)) < 0)
    if isinstance(cert, Improving):
        denom, adj = p.graph.space.denom, _residual_digraph(p)
        tails = [e.tail for e in p.graph.edges]
        cost = {(e, 1 if u == tails[e] else -1): c for u, arcs in enumerate(adj) for v, c, e in arcs}
        total = sum(cost[arc] for arc in cert.cycle.arcs)
        assert Fraction(total, denom) == -cert.gain


def test_min_mean_cycle_matches_brute_force(rng):
    for inst in SMALL_CORPUS:
        if not cycle_basis(inst.graph).cycles:
            continue
        for _ in range(3):
            _assert_certificate_matches_brute_force(random_roadmap(rng, inst.graph))


def test_stale_certificate_is_rejected():
    g = c4_graph()
    rm = _long_way_roadmap(g)
    cert = improving_cycle(rm)
    improved = cancel_cycle(rm, cert)
    with pytest.raises(NotImprovable):
        cancel_cycle(improved, cert)


def test_solver_is_deterministic():
    g = c4_graph()
    f = TransportationProblem.from_names(
        g, {"c0": "3/2", "c1": "-1/2", "c2": "-1"})
    first = tc_norm(f)
    second = tc_norm(f)
    assert first[0] == second[0]
    assert first[1] == second[1]


def _coprime_graph(rng, n, offset):
    """Canonical graph of a random connected graph on n points whose weights
    are offset + k/d with d in {7, 11, 13}."""
    names = [f"v{i}" for i in range(n)]

    def weight():
        return offset + Fraction(rng.randint(1, 20), rng.choice((7, 11, 13)))

    edges = [(names[rng.randrange(i)], names[i], weight()) for i in range(1, n)]
    tree = {(a, b) for a, b, _ in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (names[i], names[j]) not in tree and rng.random() < 0.6:
                edges.append((names[i], names[j], weight()))
    return canonical_graph(space_from_weighted_graph(names, edges))


@pytest.mark.parametrize("offset, wide", [(0, False), (2**58, True)])
def test_integer_karp_matches_brute_force_on_coprime_denominators(rng, offset, wide):
    """The improving-cycle certificate on integer-scaled costs, with small
    weights and with weights near 2**58 (beyond int64 once scaled); the
    solver agrees with the oracle there too."""
    from math import lcm

    from tcspace.metric import _INT64_SAFE
    from tcspace.randgen import random_problem

    denominators = set()
    for n in (3, 4, 5, 6):
        graph = _coprime_graph(rng, n, offset)
        denoms = {e.weight.denominator for e in graph.edges}
        denominators |= denoms
        peak = lcm(*denoms) * max(e.weight for e in graph.edges) * (n + 2)
        assert (peak >= _INT64_SAFE) == wide
        for _ in range(3):
            _assert_certificate_matches_brute_force(random_roadmap(rng, graph))
        f = random_problem(rng, graph, nonzero=True)
        assert tc_norm(f)[0] == oracle_tc_norm(f)
    assert denominators >= {7, 11, 13}


# --- input checks -------------------------------------------------------------------

# C_4's edges: 0 = c0-c1, 1 = c0-c3, 2 = c1-c2, 3 = c2-c3.
@pytest.mark.parametrize("make,message", [
    (lambda g: OrientedCycle(g, ()), "at least one arc"),
    (lambda g: OrientedCycle(g, ((0, 1), (0, 1))), "repeat an edge"),
    (lambda g: OrientedCycle(g, ((0, 1), (1, 1))), "repeat a vertex"),
    (lambda g: OrientedCycle(g, ((0, 1), (3, 1))), "do not chain"),
    (lambda g: TransportationPlan(g, ((0, 1, 1), (1, 2, -1))), "nonnegative"),
    (lambda g: Roadmap.from_json_obj(g, {"roads": []}), "needs 'edges'"),
    (lambda g: Roadmap.from_json_obj(g, {"edges": [{"u": "c0", "v": "c2", "p": "1"}]}),
     "is not an edge"),
], ids=["cycle-empty", "cycle-edge-twice", "cycle-vertex-twice", "cycle-unchained",
        "plan-negative", "roadmap-no-edges", "roadmap-non-edge"])
def test_malformed_cycles_plans_and_roadmaps_are_refused(make, message):
    with pytest.raises(InvalidInput, match=message):
        make(c4_graph())


def test_a_cycle_lists_its_vertices_in_walk_order():
    forward = OrientedCycle(c4_graph(), ((0, 1), (2, 1), (3, 1), (1, -1)))
    assert forward.vertices() == [0, 1, 2, 3]
    backward = OrientedCycle(c4_graph(), ((1, 1), (3, -1), (2, -1), (0, -1)))
    assert backward.vertices() == [0, 3, 2, 1]
