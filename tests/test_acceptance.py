"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Everything asserted here is exact rational equality unless a criterion
explicitly bounds a runtime.
"""

import itertools
import random
import time
from fractions import Fraction

from corpus import (
    CORPUS,
    SMALL_CORPUS,
    c4_graph,
    random_cycle_element,
    random_lipschitz,
    random_roadmap,
    random_tree_space,
    search_sign_basis,
)
from oracles import oracle_tree_norm, supporting_unique_probe
from tcspace import (
    Optimal,
    TransportationPlan,
    canonical_graph,
    certify_no_linfty,
    count_disjoint_roadmaps,
    cycle_basis,
    directed_graph_of,
    downhill_to_problem,
    evaluate,
    grid,
    diamond,
    improving_cycle,
    is_unique_supporting,
    k2n_two_port,
    oracle_tc_norm,
    plan_to_roadmap,
    quadrilateral_two_port,
    realizable_as_downhill,
    recursive_family,
    supporting_function,
    tc_norm,
    verify_linfty_basis,
)
from tcspace.randgen import random_metric_space, random_problem


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_01_oracle_equivalence():
    rng = random.Random(1001)
    start = time.monotonic()
    for i in range(500):
        space = random_metric_space(rng, rng.randint(3, 8))
        graph = canonical_graph(space)
        f = random_problem(rng, graph)
        assert tc_norm(f)[0] == oracle_tc_norm(f)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, f"500 random instances, solver == oracle exactly "
               f"({elapsed:.1f}s)")


def test_criterion_02_quotient_and_cycle_invariance():
    rng = random.Random(1002)
    cyclic = [inst for inst in CORPUS if cycle_basis(inst.graph).cycles]
    checked = 0
    for i in range(200):
        inst = cyclic[i % len(cyclic)]
        basis = cycle_basis(inst.graph)
        p = random_roadmap(rng, inst.graph)
        f = p.problem()
        value, best = tc_norm(f)
        # the solver's optimum lies in the same coset ...
        assert (best - p).problem().is_zero()
        assert best.cost() == value
        for _ in range(100):
            z = random_cycle_element(rng, basis)
            assert (p + z).problem() == f
            assert value <= (p + z).cost()
            checked += 1
    _report(2, f"200 roadmaps x 100 cycle shifts: incidence invariant, "
               f"solver attains the coset minimum ({checked} shifts)")


def test_criterion_03_improving_cycle_biconditional():
    rng = random.Random(1003)
    seen_optimal = seen_improvable = 0
    for inst in SMALL_CORPUS:
        basis = cycle_basis(inst.graph)
        pts = inst.graph.space.points
        roadmaps = []
        for f in inst.problems[:3]:
            _, p = tc_norm(f)
            roadmaps.append(p)
            for cyc in basis.cycles[:2]:
                roadmaps.append(p + cyc.indicator().scale(Fraction(rng.randint(1, 3))))
            # a deliberately detoured routing through a random waypoint
            terms = []
            for v, val in sorted(f.values.items()):
                w = rng.randrange(inst.graph.n)
                if val > 0:
                    terms.extend([(pts[v], pts[w], val), (pts[w], pts[v], 0)])
                else:
                    terms.append((pts[w], pts[v], -val))
                    terms.append((pts[v], pts[w], 0))
            roadmaps.append(plan_to_roadmap(
                TransportationPlan.from_names(inst.graph, terms)))
        roadmaps.append(random_roadmap(rng, inst.graph))
        for p in roadmaps:
            certified_optimal = isinstance(improving_cycle(p), Optimal)
            truly_optimal = p.cost() == oracle_tc_norm(p.problem())
            assert certified_optimal == truly_optimal
            seen_optimal += truly_optimal
            seen_improvable += not truly_optimal
    assert seen_optimal and seen_improvable
    _report(3, f"improving-cycle test == optimality on all small corpus "
               f"roadmaps ({seen_optimal} optimal, {seen_improvable} not)")


def test_criterion_04_duality():
    for inst in CORPUS:
        for f in inst.problems:
            s = supporting_function(f)
            assert evaluate(s, f) == tc_norm(f)[0]
    rng = random.Random(1004)
    pairs = 0
    while pairs < 10_000:
        inst = CORPUS[pairs % len(CORPUS)]
        f = random_problem(rng, inst.graph, nonzero=True)
        bound = tc_norm(f)[0]
        for _ in range(50):
            l = random_lipschitz(rng, inst.graph)
            assert evaluate(l, f) <= bound
            pairs += 1
    _report(4, f"supporting functions attain the norm on the corpus; weak "
               f"duality held on {pairs} fuzzed pairs")


def test_criterion_05_supporting_uniqueness():
    rng = random.Random(1005)
    agreements = witnesses = 0
    for inst in SMALL_CORPUS:
        problems = inst.problems[:3] + [
            random_problem(rng, inst.graph, nonzero=True)]
        for f in problems:
            unique, witness = is_unique_supporting(f)
            assert unique == supporting_unique_probe(f)
            agreements += 1
            if not unique:
                value = tc_norm(f)[0]
                s = supporting_function(f)
                assert witness.values != s.values
                assert evaluate(witness, f) == value  # feasible by type
                witnesses += 1
    assert witnesses > 0
    _report(5, f"connectivity test == LP probe on {agreements} cases; "
               f"{witnesses} non-unique witnesses verified supporting")


def test_criterion_06_tree_isometry():
    rng = random.Random(1006)
    for _ in range(100):
        space = random_tree_space(rng, rng.randint(3, 10))
        graph = canonical_graph(space)
        assert graph.m == graph.n - 1
        f = random_problem(rng, graph)
        assert tc_norm(f)[0] == oracle_tree_norm(f)
    _report(6, "100 random weighted trees: solver == cut formula exactly")


def test_criterion_07_c4_linfty3_basis():
    start = time.monotonic()
    cand = search_sign_basis(c4_graph(), 3, bound=1)
    assert cand is not None
    for theta in itertools.product((1, -1), repeat=3):
        assert tc_norm(cand.combine(theta))[0] == 1
    assert verify_linfty_basis(cand)
    assert count_disjoint_roadmaps(cand, 0) >= 2
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(7, f"found an l_infty^3 basis in TC(C_4): 8 sign norms exactly 1, "
               f">= 2 disjoint roadmaps ({elapsed:.1f}s)")


def test_criterion_08_grid_certificates():
    for n in range(2, 7):
        cert = certify_no_linfty(canonical_graph(grid(n)), 5)
        assert cert.ruled_out
    cert3 = certify_no_linfty(canonical_graph(grid(3)), 3)
    assert cert3.verdict == "inconclusive"
    _report(8, "grids 2..6 ruled out for k=5; grid(3) inconclusive at k=3")


def test_criterion_09_diamond_certificates_and_sharpness():
    for n in range(1, 6):
        space, desc = diamond(n)
        graph = canonical_graph(space)
        ruled = certify_no_linfty(graph, 4, family=desc)
        assert ruled.ruled_out, f"diamond({n}) k=4"
        sharp = certify_no_linfty(graph, 3, family=desc)
        assert sharp.verdict == "inconclusive", f"diamond({n}) k=3"
    _report(9, "diamonds 1..5: k=4 ruled out by peeling, k=3 inconclusive")


def test_criterion_10_recursive_family_certificates():
    cases = [(quadrilateral_two_port(), 2), (k2n_two_port(3), 3)]
    for base, delta in cases:
        assert base.max_degree() == delta
        for n in range(1, 5):
            space, desc = recursive_family(base, n)
            graph = canonical_graph(space)
            for k in range(3, 7):
                cert = certify_no_linfty(graph, k, family=desc)
                # k > log2(delta) + 2, in exact integer arithmetic
                expected = 2 ** (k - 2) > delta
                assert cert.ruled_out == expected, (delta, n, k)
    _report(10, "recursive families (delta=2,3), n=1..4: ruled out exactly "
                "for k > log2(delta)+2")


def test_criterion_11_directed_graph_round_trip():
    rng = random.Random(1011)
    for i in range(100):
        inst = SMALL_CORPUS[i % len(SMALL_CORPUS)]
        f = random_problem(rng, inst.graph, nonzero=True)
        H = directed_graph_of(f)
        ok, potential = realizable_as_downhill(H)
        assert ok and potential is not None
        g = downhill_to_problem(H)
        assert directed_graph_of(g).arc_set() == H.arc_set()
    _report(11, "100 random problems: directed graphs are downhill-"
                "realizable and round-trip exactly")
