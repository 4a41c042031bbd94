"""Output checks that recompute every claim from the benchmark's own inputs.

No check compares against a stored copy of the program's output.  Roadmaps
are re-priced from the input matrix and proven optimal by an exact potential
found here (Bellman-Ford on the roadmap's residual constraints); potentials
are tested for the Lipschitz bound on every input pair; certificates are
compared with the degree theorem evaluated on each family's definition.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from inputs import Family, Space


class CheckError(Exception):
    """An output that contradicts what the benchmark computed itself."""


def frac(lit) -> Fraction:
    if not isinstance(lit, (str, int)) or isinstance(lit, bool):
        raise CheckError(f"not an exact rational literal: {lit!r}")
    try:
        return Fraction(lit)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"not a rational literal: {lit!r}") from None


def _index(space: Space, name) -> int:
    try:
        return space.index[name]
    except (KeyError, TypeError):
        raise CheckError(f"unknown point {name!r}") from None


# --- roadmaps ------------------------------------------------------------------

def roadmap_flows(space: Space, out: dict) -> dict[tuple[int, int], Fraction]:
    """Positive flow per directed pair (from, to), as the roadmap states it."""
    flows: dict[tuple[int, int], Fraction] = {}
    for e in out["edges"]:
        u, v, p = _index(space, e["u"]), _index(space, e["v"]), frac(e["p"])
        if p == 0 or u == v:
            raise CheckError(f"degenerate roadmap entry {e}")
        if p < 0:
            u, v, p = v, u, -p
        if (u, v) in flows or (v, u) in flows:
            raise CheckError(f"pair {e['u']},{e['v']} listed twice")
        flows[(u, v)] = p
    return flows


def flows_cost(space: Space, flows) -> Fraction:
    return sum((a * space.d(u, v) for (u, v), a in flows.items()), Fraction(0))


def check_transports(space: Space, masses: dict[str, int], flows) -> None:
    net = [Fraction(0)] * space.n
    for (u, v), a in flows.items():
        net[u] += a
        net[v] -= a
    for i, name in enumerate(space.names):
        if net[i] != masses.get(name, 0):
            raise CheckError(f"roadmap moves {net[i]} out of {name}, "
                             f"problem says {masses.get(name, 0)}")


def optimality_potential(space: Space, flows) -> list[int]:
    """Integer potential phi (in distance units) proving the roadmap optimal.

    Constraints: phi(a) - phi(b) <= d(a, b) on every pair, and
    phi(u) - phi(v) = d(u, v) wherever the roadmap moves mass u -> v.  They
    are difference constraints, so Bellman-Ford from a virtual source finds
    a solution or meets a negative cycle, which is an improving cycle of the
    roadmap.  Pairing phi with the problem then equals the roadmap's cost.
    """
    dist = np.array(space.dist, dtype=np.int64)
    cost = dist.copy()  # arc b -> a with cost[b, a] encodes phi(a) <= phi(b) + cost
    for (u, v) in flows:
        cost[u, v] = -dist[u, v]
    phi = np.zeros(space.n, dtype=np.int64)
    for _ in range(space.n + 1):
        relaxed = np.minimum(phi, (phi[:, None] + cost).min(axis=0))
        if np.array_equal(relaxed, phi):
            break
        phi = relaxed
    else:
        raise CheckError("roadmap is not optimal: its residual graph has a "
                         "negative cycle")
    gaps = phi[:, None] - phi[None, :]
    if (gaps > dist).any():
        raise CheckError("potential is not 1-Lipschitz")
    for (u, v) in flows:
        if gaps[u, v] != dist[u, v]:
            raise CheckError("potential is not tight on the roadmap")
    return phi.tolist()


def check_roadmap(space: Space, masses: dict[str, int], out: dict
                  ) -> dict[tuple[int, int], Fraction]:
    """Exact transport, re-priced cost, and proven optimality."""
    flows = roadmap_flows(space, out)
    check_transports(space, masses, flows)
    cost = flows_cost(space, flows)
    if frac(out["cost"]) != cost:
        raise CheckError(f"stated cost {out['cost']} != recomputed {cost}")
    if out.get("optimal") is not True:
        raise CheckError(f"roadmap says optimal={out.get('optimal')}")
    phi = optimality_potential(space, flows)
    if sum(phi[_index(space, p)] * m for p, m in masses.items()) * space.unit != cost:
        raise CheckError("potential does not pair to the roadmap cost")
    return flows


def exact_norm(space: Space, masses: dict[str, int]) -> Fraction:
    """TC norm by successive shortest paths on the supply-demand bipartite
    graph (integer masses and scaled integer distances, so exact).

    Moving mass straight from a supply to a demand is never worse than via
    other points in a metric, so the bipartite problem has the same optimum.
    """
    src = [space.index[p] for p, m in masses.items() if m > 0]
    dst = [space.index[p] for p, m in masses.items() if m < 0]
    supply = np.array([masses[space.names[i]] for i in src], dtype=np.int64)
    demand = np.array([-masses[space.names[j]] for j in dst], dtype=np.int64)
    cost = np.array(space.dist, dtype=np.int64)[np.ix_(src, dst)]
    flow = np.zeros_like(cost)
    inf = np.iinfo(np.int64).max // 4
    cols, rows = np.arange(len(dst)), np.arange(len(src))
    while supply.any():
        # Bellman-Ford over the residual graph: s -> t at +cost, t -> s at
        # -cost where flow runs; a super-source feeds every open supply.
        # Labels change only on strict improvement, so predecessors form a tree.
        d_src = np.where(supply > 0, 0, inf)
        d_dst = np.full(len(dst), inf)
        pred_src = np.full(len(src), -1)
        pred_dst = np.full(len(dst), -1)
        while True:
            via = d_src[:, None] + cost
            arg = via.argmin(axis=0)
            better_t = via[arg, cols] < d_dst
            d_dst = np.where(better_t, via[arg, cols], d_dst)
            pred_dst = np.where(better_t, arg, pred_dst)
            back = np.where((flow > 0) & (d_dst[None, :] < inf),
                            d_dst[None, :] - cost, inf)
            arg = back.argmin(axis=1)
            better_s = back[rows, arg] < d_src
            d_src = np.where(better_s, back[rows, arg], d_src)
            pred_src = np.where(better_s, arg, pred_src)
            if not (better_t.any() or better_s.any()):
                break
        t = int(np.where(demand > 0, d_dst, inf).argmin())
        s = int(pred_dst[t])
        path = [(s, t, 1)]
        while pred_src[s] >= 0:
            t_back = int(pred_src[s])
            path.append((s, t_back, -1))
            s = int(pred_dst[t_back])
            path.append((s, t_back, 1))
        amount = min(int(supply[s]), int(demand[t]),
                     *(int(flow[a, b]) for a, b, sign in path if sign < 0))
        for a, b, sign in path:
            flow[a, b] += sign * amount
        supply[s] -= amount
        demand[t] -= amount
    return int((flow * cost).sum()) * space.unit


def check_norm(norm: Fraction, expected: Fraction) -> None:
    if norm != expected:
        raise CheckError(f"norm {norm} != exact optimum {expected}")


def check_support_contains(big, small) -> None:
    """Every directed pair of `small` appears in `big` with the same sign."""
    for pair in small:
        if pair not in big:
            raise CheckError(f"maximal roadmap drops or flips pair {pair}")


def _connected(n: int, pairs) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


# --- potentials ------------------------------------------------------------------

def potential_values(space: Space, obj: dict) -> list[Fraction]:
    """The potential as a list, after checking the base point and Lipschitz bound."""
    named = obj["l"]
    if set(named) != set(space.names):
        raise CheckError("potential must give one value per point")
    vals = [frac(named[name]) for name in space.names]
    if obj.get("base") is not None and vals[_index(space, obj["base"])] != 0:
        raise CheckError("potential does not vanish at the base point")
    base = space.json_obj.get("base", space.names[0])
    if vals[_index(space, base)] != 0:
        raise CheckError("potential does not vanish at the input's base point")
    for i in range(space.n):
        for j in range(i + 1, space.n):
            if abs(vals[i] - vals[j]) > space.d(i, j):
                raise CheckError(f"potential breaks the Lipschitz bound on "
                                 f"{space.names[i]},{space.names[j]}")
    return vals


def pairing(space: Space, vals: list[Fraction], masses: dict[str, int]) -> Fraction:
    return sum((vals[_index(space, p)] * m for p, m in masses.items()), Fraction(0))


def check_dual(space: Space, masses: dict[str, int], out: dict,
               norm: Fraction, maximal_flows) -> None:
    """Potential (and witness) attain the norm; uniqueness agrees with the
    connectivity of the maximal support (the paper's uniqueness criterion)."""
    vals = potential_values(space, out)
    if pairing(space, vals, masses) != norm:
        raise CheckError("potential does not pair with f to the norm")
    if frac(out["value"]) != norm:
        raise CheckError(f"stated value {out['value']} != norm {norm}")
    connected = _connected(space.n, maximal_flows)
    if out["unique"] is not connected:
        raise CheckError(f"unique={out['unique']} but the maximal support is "
                         f"{'' if connected else 'not '}connected")
    if out["unique"]:
        if "witness" in out:
            raise CheckError("unique potential comes with a witness")
        return
    witness = potential_values(space, out["witness"])
    if witness == vals:
        raise CheckError("non-uniqueness witness equals the potential")
    if pairing(space, witness, masses) != norm:
        raise CheckError("witness does not pair with f to the norm")


# --- certificates ----------------------------------------------------------------

def expected_certificate(k: int, max_degree: int, family: Family | None = None) -> dict:
    """The degree theorem on a family given by its definition.

    A copy of l_infty^k forces degree >= 2^(k-2) on the supports.  Without a
    family (plain certify) that rules out graphs of smaller maximum degree.
    Peeling a recursive family walks down its levels while the vertices born
    at the current level stay below the threshold.
    """
    threshold = 2 ** (k - 2)
    if family is None:
        verdict = "ruled_out" if max_degree < threshold else "inconclusive"
        return {"k": k, "verdict": verdict, "threshold": threshold,
                "degrees": {"max": max_degree}, "peeling": []}
    prefix = "D" if family.kind == "diamond" else "B"
    visited = []
    for level in range(family.depth, -1, -1):
        visited.append(f"{prefix}_{level}")
        deg = family.degrees(level)
        md = max(deg)
        if md < threshold:
            verdict = "ruled_out"
            break
        newest = max(d for d, g in zip(deg, family.generations) if g == level)
        if level == 0 or newest >= threshold:
            verdict = "inconclusive"
            break
    return {"k": k, "verdict": verdict, "threshold": threshold,
            "degrees": {"max": md}, "peeling": visited}


def check_certificate(out: dict, expected: dict) -> None:
    for key, want in expected.items():
        if out.get(key) != want:
            raise CheckError(f"certificate {key}={out.get(key)!r}, "
                             f"theorem gives {want!r}")


# --- generated families -------------------------------------------------------------

def check_generated(space_path: str, points: int, ends: tuple[str, str] | None,
                    descriptor_path: str | None = None,
                    generations: list[int] | None = None) -> None:
    """Point count, top-bottom distance 1, and generation sizes of a `gen` file."""
    with open(space_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    names = obj["points"]
    if len(names) != points or len(obj["dist"]) != points:
        raise CheckError(f"gen wrote {len(names)} points, expected {points}")
    if ends is not None:
        a, b = names.index(ends[0]), names.index(ends[1])
        if frac(obj["dist"][a][b]) != 1:
            raise CheckError(f"top-bottom distance {obj['dist'][a][b]} != 1")
    if descriptor_path is not None:
        with open(descriptor_path, encoding="utf-8") as fh:
            gens = json.load(fh)["generations"]
        if set(gens) != set(names):
            raise CheckError("descriptor does not cover the generated points")
        want = sorted(generations)
        if sorted(gens.values()) != want:
            raise CheckError("generation sizes differ from the definition")


# --- oracle batches ---------------------------------------------------------------

def check_oracle(out: dict, requested: int, seed: int) -> None:
    if out.get("checked") != requested:
        raise CheckError(f"checked {out.get('checked')} of {requested}")
    if out.get("mismatches") != 0 or out.get("ok") is not True or out.get("failures"):
        raise CheckError(f"oracle reports {out.get('mismatches')} mismatches")
    if out.get("seed") != seed:
        raise CheckError(f"batch seed {out.get('seed')} != {seed}")
