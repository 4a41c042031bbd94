"""Independent verification backend: the exact TC norm from a dense
transportation LP over supply x demand pairs, with no graph at all.  It
avoids the solver's code paths and runs on the exact simplex in
:mod:`tcspace.lp`.

The transportation LP is posed in integers: the masses f times M, M the
lcm of their denominators, and the costs the space's distances times its
D (its `scaled` matrix), with the value divided by M D at the end.  It has
one row per source and one per sink but the first; that row is implied,
since f sums to zero.  Its constraint matrix, the incidence matrix of a complete
bipartite graph, is totally unimodular, and so is the matrix with the
artificial columns beside it.  With integer masses every row keeps
scale 1, and the divisor of the fraction-free simplex, the determinant of
the basis up to sign, is 1: every pivot is 1, and so is every divisor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .lp import ExactLP, LPStatus
from .vectors import TransportationProblem


def oracle_tc_norm(f: TransportationProblem) -> Fraction:
    """Exact TC norm via the dense transportation LP.

    Minimizes sum a_xy * d(x,y) over nonnegative moves between the supply
    and demand supports with the marginals prescribed by f, in units of 1/M
    (M the lcm of f's denominators) and distances in units of 1/D (D the
    space's denom).  Bland's rule reads only the signs of the cost row, so
    the pivots are those of the LP on the Fraction distances.  The first
    sink's row is left out: the other rows imply it.  No shortest paths, no
    edges: this shares nothing with the shortest-path solver.  The zero
    problem poses an LP with no rows, whose value is 0.
    """
    space = f.graph.space
    dist = space.scaled.tolist()  # Python ints, which the LP keeps as they are
    scale = lcm(*(x.denominator for x in f.values.values()))
    mass = {v: x.numerator * (scale // x.denominator) for v, x in f.values.items()}
    sources = sorted(v for v, a in mass.items() if a > 0)
    sinks = sorted(v for v, a in mass.items() if a < 0)
    lp = ExactLP()
    cell = {(x, y): lp.add_var() for x in sources for y in sinks}
    for x in sources:
        lp.add_eq({cell[x, y]: 1 for y in sinks}, mass[x])
    for y in sinks[1:]:
        lp.add_eq({cell[x, y]: 1 for x in sources}, -mass[y])
    lp.minimize({cell[x, y]: dist[x][y] for x in sources for y in sinks})
    res = lp.solve()
    assert res.status == LPStatus.OPTIMAL
    return res.value / (scale * space.denom)
