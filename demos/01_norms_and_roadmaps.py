#!/usr/bin/env python3
"""Transportation cost 101: spaces, canonical graphs, roadmaps, cycles.

We build a small weighted space, watch the canonical graph drop redundant
edges, route a transportation problem badly on purpose, and let the
negative-cycle solver repair it step by step.
"""

import json

from tcspace import (
    Improving,
    TransportationPlan,
    TransportationProblem,
    cancel_cycle,
    canonical_graph,
    cycle_basis,
    improving_cycle,
    oracle_tc_norm,
    plan_to_roadmap,
    tc_norm,
    validate_metric,
)

# Four depots; note that d(A,C) = d(A,B) + d(B,C), so B sits exactly on the
# way from A to C, while every other triangle inequality is strict.
space = validate_metric(
    ["A", "B", "C", "D"],
    [["0", "1", "2", "3/2"],
     ["1", "0", "1", "2"],
     ["2", "1", "0", "5/4"],
     ["3/2", "2", "5/4", "0"]],
)
graph = canonical_graph(space)

print("canonical graph edges (tail -> head, weight):")
for e in graph.edges:
    print(f"  {space.points[e.tail]} -> {space.points[e.head]}   w = {e.weight}")
print("the pair {A,C} is gone: B realizes the distance exactly.\n")

basis = cycle_basis(graph)
print(f"cycle space dimension: {len(basis.cycles)} "
      f"(|E| - |V| + 1 = {graph.m} - {graph.n} + 1)\n")

# Move 2 units out of A, one to each of C and D ... the long way around.
f = TransportationProblem.from_names(graph, {"A": 2, "C": -1, "D": -1})
detour = TransportationPlan.from_names(
    graph, [("A", "D", 1), ("D", "C", 1), ("A", "B", 1), ("B", "D", 1)])
roadmap = plan_to_roadmap(detour)
print(f"detour plan cost: {detour.cost()}, as a roadmap: {roadmap.cost()}")

step = 0
while True:
    certificate = improving_cycle(roadmap)
    if not isinstance(certificate, Improving):
        break
    step += 1
    verts = [space.points[v] for v in certificate.cycle.vertices()]
    print(f"  step {step}: improving cycle {' -> '.join(verts)} "
          f"(gain {certificate.gain} per unit)")
    roadmap = cancel_cycle(roadmap, certificate)
    print(f"          cost now {roadmap.cost()}")

value, best = tc_norm(f)
print(f"\nsolver says ||f||_tc = {value}; the LP oracle agrees: "
      f"{oracle_tc_norm(f)}")
print("optimal roadmap as JSON:")
print(json.dumps({**best.to_json_obj(), "optimal": True}, indent=2, sort_keys=True))
