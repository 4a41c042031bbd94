#!/usr/bin/env python3
"""Degree obstructions: which TC spaces cannot contain an isometric
l_infty^k cube.

A k-cube forces 2^(k-2) pairwise disjoint optimal roadmaps through every
supported vertex, so small maximum degree rules it out.  On the 4-cycle we
can exhibit the k = 3 cube explicitly; on grids and diamonds we certify
that k = 5 (resp. k = 4) is impossible.
"""

import itertools
import json
from fractions import Fraction

from tcspace import (
    LinftyCandidate,
    TransportationProblem,
    canonical_graph,
    certify_no_linfty,
    check_sign_pattern_disjointness,
    complete_bipartite,
    count_disjoint_roadmaps,
    cycle,
    diamond,
    grid,
    tc_norm,
    verify_linfty_basis,
)

graph = canonical_graph(cycle(4))

# The l_infty^3 cube inside TC(C_4): two half-diagonals and the alternating
# vector.  All eight sign combinations have norm exactly 1.
half = Fraction(1, 2)
e1 = TransportationProblem.from_names(graph, {"c0": half, "c2": -half})
e2 = TransportationProblem.from_names(graph, {"c1": half, "c3": -half})
e3 = TransportationProblem.from_names(
    graph, {"c0": half, "c1": -half, "c2": half, "c3": -half})
cand = LinftyCandidate((e1, e2, e3))

for theta in itertools.product((1, -1), repeat=3):
    assert tc_norm(cand.combine(theta))[0] == 1
print("all 2^3 sign-vector norms are exactly 1")
print("full verification (sign-vector norms decide it):", verify_linfty_basis(cand))
print("disjoint optimal roadmaps for e1:", count_disjoint_roadmaps(cand, 0))
print("pairwise sign-pattern disjointness:",
      check_sign_pattern_disjointness(cand).ok, "\n")

# Grids: max degree 4 < 8 = 2^(5-2), so no l_infty^5, ever.
for n in (2, 4, 6):
    cert = certify_no_linfty(canonical_graph(grid(n)), 5)
    print(f"grid({n}) vs l_infty^5: {cert.verdict} "
          f"(max degree {cert.max_degree} < {cert.threshold})")
print()

# Diamonds need the peeling argument: old vertices have huge degree, but
# the newest generation is always degree 2 and carries no support.
space, descriptor = diamond(3)
dgraph = canonical_graph(space)
cert = certify_no_linfty(dgraph, 4, family=descriptor)
print("diamond(3) vs l_infty^4, peeled:")
print(json.dumps(cert.to_json_obj(), indent=2, sort_keys=True))

sharp = certify_no_linfty(dgraph, 3, family=descriptor)
print(f"\nand for k = 3 the certificate stays {sharp.verdict!r}:"
      " diamonds really do contain l_infty^3.")

# K_{4,4} contains an isometric l_infty^4, and indeed the degree test
# cannot rule it out (all degrees equal the threshold).
k44 = certify_no_linfty(canonical_graph(complete_bipartite(4, 4)), 4)
print(f"\nK_44 vs l_infty^4: {k44.verdict} (degrees reach {k44.threshold})")
