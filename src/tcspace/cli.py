"""Command-line front end: JSON in, JSON/DOT out, deterministic.

Exit codes: 0 success, 1 domain error (structured JSON on stderr), 2 usage
error.  Instance sizes are capped by TCSPACE_MAX_POINTS (default 64), before
any validation.
Space files may hold either metric-space JSON ({"points","dist"}) or
weighted-graph JSON ({"vertices","edges"}); the latter is converted to its
path metric before the canonical graph is rebuilt.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections.abc import Sized
from json.encoder import encode_basestring_ascii

from .duality import (
    LipschitzFunction,
    _least_supporting,
    _uniqueness,
    downhill_graph,
    evaluate,
    realizable_as_downhill,
)
from .errors import DomainError, InvalidInput
from .families import (
    FamilyDescriptor,
    complete_bipartite,
    cycle,
    diamond,
    grid,
    k2n_two_port,
    quadrilateral_two_port,
    recursive_family,
)
from .graph import DirectedSubgraph, canonical_graph
from .metric import MetricSpace, _distance_literals, weighted_graph_json_to_space
from .obstruction import (
    LinftyCandidate,
    certify_no_linfty,
    check_sign_pattern_disjointness,
    strongly_disjoint,
)
from .oracle import oracle_tc_norm
from .rational import frac_str
from .randgen import random_metric_space, random_problem
from .transport import _norm, _optimum, cycle_basis, maximal_roadmap, tc_norm
from .vectors import TransportationProblem


def _max_points() -> int:
    raw = os.environ.get("TCSPACE_MAX_POINTS", "64")
    try:
        return int(raw)
    except ValueError:
        raise InvalidInput(f"TCSPACE_MAX_POINTS must be an integer, got {raw!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise InvalidInput(f"{path}: not valid JSON: {exc}") from exc


def _check_cap(n: int):
    cap = _max_points()
    if n > cap:
        raise InvalidInput(
            f"instance has {n} points, above TCSPACE_MAX_POINTS={cap}")


def _load_space(path: str) -> MetricSpace:
    obj = _load_json(path)
    if isinstance(obj, dict) and "dist" in obj:
        names, parse = obj.get("points"), MetricSpace.from_json_obj
    elif isinstance(obj, dict) and "vertices" in obj:
        names, parse = obj["vertices"], weighted_graph_json_to_space
    else:
        raise InvalidInput(f"{path}: neither metric-space nor graph JSON")
    if isinstance(names, Sized):  # the cap acts before validation; the
        _check_cap(len(names))     # parser rejects a list without a length
    return parse(obj)


def _load_graph(path: str):
    return canonical_graph(_load_space(path))


def _emit(obj, stream=None) -> None:
    json.dump(obj, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


def _space_text(obj: dict, literals: dict) -> str:
    """_emit's text for a metric-space JSON object ({"base", "dist",
    "points"}, at least two points), each distinct string encoded once: the
    standard library's indenting encoder is pure Python, and a generated
    space can hold up to a million entries.  The entries of "dist" are keys
    of `literals`, which maps each to its string (`gen` passes the integer
    matrix and metric._distance_literals)."""
    code = {x: encode_basestring_ascii(text) for x, text in literals.items()}
    rows = ",\n".join("    [\n      " + ",\n      ".join(map(code.__getitem__, row)) + "\n    ]"
                      for row in obj["dist"])
    points = ",\n    ".join(map(encode_basestring_ascii, obj["points"]))
    return (f'{{\n  "base": {encode_basestring_ascii(obj["base"])},\n  "dist": [\n{rows}\n  ],\n'
            f'  "points": [\n    {points}\n  ]\n}}\n')


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot write: {exc.strerror or exc}") from exc


# --- subcommands ---------------------------------------------------------------

def _cmd_validate(args) -> int:
    space = _load_space(args.space)
    _emit({"valid": True, "points": space.n})
    return 0


def _cmd_canon(args) -> int:
    graph = _load_graph(args.space)
    if args.dot:
        _write_file(args.dot, graph.to_dot())
    _emit(graph.to_json_obj())
    return 0


def _cmd_norm(args) -> int:
    graph = _load_graph(args.space)
    f = TransportationProblem.from_json_obj(graph, _load_json(args.problem))
    _emit({"tc_norm": frac_str(_norm(f))})
    return 0


def _cmd_roadmap(args) -> int:
    graph = _load_graph(args.space)
    f = TransportationProblem.from_json_obj(graph, _load_json(args.problem))
    # Optimal by tc_norm's certificate; maximal_roadmap asserts its cost.
    rm = maximal_roadmap(f) if args.maximal else tc_norm(f)[1]
    _emit({**rm.to_json_obj(), "optimal": True})
    return 0


def _cmd_basis(args) -> int:
    graph = _load_graph(args.space)
    basis = cycle_basis(graph)
    pts = graph.space.points
    cycles = []
    for cyc in basis.cycles:
        cycles.append([
            {"u": pts[graph.edges[e].tail], "v": pts[graph.edges[e].head],
             "sign": s}
            for e, s in cyc.arcs
        ])
    forest = [[pts[graph.edges[i].tail], pts[graph.edges[i].head]]
              for i in sorted(basis.forest)]
    _emit({"count": len(cycles), "cycles": cycles, "forest": forest})
    return 0


def _cmd_dual(args) -> int:
    graph = _load_graph(args.space)
    f = TransportationProblem.from_json_obj(graph, _load_json(args.problem))
    flow, pot, _, _ = _optimum(f)  # one solve serves the potential and --unique
    s = _least_supporting(graph, flow, pot)
    out = s.to_json_obj()
    out["value"] = frac_str(evaluate(s, f))
    if args.unique:
        unique, witness = _uniqueness(graph, flow, pot, s)
        out["unique"] = unique
        if witness is not None:
            out["witness"] = witness.to_json_obj()
    _emit(out)
    return 0


def _cmd_downhill(args) -> int:
    graph = _load_graph(args.space)
    l = LipschitzFunction.from_json_obj(graph, _load_json(args.lipschitz))
    dh = downhill_graph(l)
    if args.dot:
        _write_file(args.dot, dh.to_dot())
    _emit(dh.to_json_obj())
    return 0


def _cmd_realizable(args) -> int:
    graph = _load_graph(args.space)
    sub = DirectedSubgraph.from_json_obj(graph, _load_json(args.subgraph))
    ok, func = realizable_as_downhill(sub)
    out = {"realizable": ok}
    if func is not None:
        out["l"] = func.to_json_obj()["l"]
    _emit(out)
    return 0


def _cmd_disjoint(args) -> int:
    graph = _load_graph(args.space)
    if args.candidate:
        raw = _load_json(args.candidate)
        if not isinstance(raw, list):
            raise InvalidInput("candidate file must be a JSON array of problems")
        problems = [TransportationProblem.from_json_obj(graph, o) for o in raw]
        cand = LinftyCandidate(tuple(problems))
        report = check_sign_pattern_disjointness(cand)
        out = {"ok": report.ok, "pairs_checked": report.pairs_checked}
        if not report.ok:
            out["failing_pair"] = [list(report.failing_pair[0]),
                                   list(report.failing_pair[1])]
            out["reason"] = report.reason
            if report.shared_edges is not None:
                pts = graph.space.points
                out["shared_edges"] = sorted(
                    [pts[graph.edges[i].tail], pts[graph.edges[i].head]]
                    for i in report.shared_edges)
        _emit(out)
        return 0
    if not args.problem or not args.other:
        raise InvalidInput("disjoint needs --candidate or both --problem and --other")
    f = TransportationProblem.from_json_obj(graph, _load_json(args.problem))
    g = TransportationProblem.from_json_obj(graph, _load_json(args.other))
    _emit({"strongly_disjoint": strongly_disjoint(f, g)})
    return 0


def _cmd_certify(args) -> int:
    graph = _load_graph(args.space)
    family = None
    if args.peel is not None:
        family = FamilyDescriptor.from_json_obj(_load_json(args.peel))
    cert = certify_no_linfty(graph, args.k, family=family)
    _emit(cert.to_json_obj())
    return 0


def _gen_points(args) -> int:
    """Point count of the `gen` instance, known before it is built: a K_{2,L}
    recursion (L = 2 for diamonds) adds L points per edge, (2L)^j at level j;
    counting stops at the first level past the cap."""
    n = max(args.n, 0)  # the generators reject negative sizes themselves
    if args.family == "grid":
        return n * n
    if args.family == "cycle":
        return n
    if args.family == "complete-bipartite":
        return args.m + n
    legs, cap = 2, _max_points()
    if args.family == "recursive" and args.base == "k2n":
        legs = args.legs
        if legs < 2:
            raise InvalidInput("need at least 2 legs")
        # Built and measured even at --n 0; from --n 1 on the instance is no smaller.
        if n == 0 and legs + 2 > cap:
            raise InvalidInput(
                f"base K_{{2,{legs}}} has {legs + 2} points, above TCSPACE_MAX_POINTS={cap}")
    points, edges = 2, 1
    for _ in range(n):
        if points > cap:
            raise InvalidInput(
                f"instance has more than {points} points, above TCSPACE_MAX_POINTS={cap}")
        points, edges = points + legs * edges, edges * 2 * legs
    return points


def _cmd_gen(args) -> int:
    points = _gen_points(args)
    _check_cap(points)
    descriptor = None
    if args.family == "diamond":
        space, descriptor = diamond(args.n)
    elif args.family == "grid":
        space = grid(args.n)
        descriptor = FamilyDescriptor("grid", {"n": args.n})
    elif args.family == "cycle":
        space = cycle(args.n)
        descriptor = FamilyDescriptor("cycle", {"n": args.n})
    elif args.family == "complete-bipartite":
        space = complete_bipartite(args.m, args.n)
        descriptor = FamilyDescriptor("complete_bipartite",
                                      {"m": args.m, "n": args.n})
    elif args.family == "recursive":
        if args.base == "quadrilateral":
            base = quadrilateral_two_port()
        else:
            base = k2n_two_port(args.legs)
        space, descriptor = recursive_family(base, args.n)
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidInput(f"unknown family {args.family!r}")
    assert space.n == points
    rows = space.scaled.tolist()
    text = _space_text({"base": space.points[space.base_point], "dist": rows,
                        "points": space.points}, _distance_literals(rows, space.denom))
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    if args.descriptor_out:
        text = json.dumps(descriptor.to_json_obj(), indent=2, sort_keys=True) + "\n"
        _write_file(args.descriptor_out, text)
    return 0


def _compare_with_oracle(f: TransportationProblem) -> tuple[bool, str, str]:
    """Whether the solver's and the LP oracle's norms of f agree, and both."""
    solver_value = _norm(f)
    oracle_value = oracle_tc_norm(f)
    return solver_value == oracle_value, frac_str(solver_value), frac_str(oracle_value)


def _oracle_check_one(task) -> tuple[int, bool, str, str]:
    seed, index, lo, hi = task
    rng = random.Random(seed * 1_000_003 + index)
    space = random_metric_space(rng, rng.randint(lo, hi))
    graph = canonical_graph(space)
    return (index, *_compare_with_oracle(random_problem(rng, graph)))


def _cmd_oracle_check(args) -> int:
    if args.jobs < 1:
        raise InvalidInput("--jobs must be >= 1")
    if args.space and args.problem:
        graph = _load_graph(args.space)
        f = TransportationProblem.from_json_obj(graph, _load_json(args.problem))
        ok, solver, oracle = _compare_with_oracle(f)
        _emit({"checked": 1, "mismatches": 0 if ok else 1, "ok": ok,
               "solver": solver, "oracle": oracle})
        return 0 if ok else 1
    if args.random is None:
        raise InvalidInput("oracle-check needs --space/--problem or --random N")
    if args.random < 0:
        raise InvalidInput("--random must be >= 0")
    if args.seed is None:
        raise InvalidInput("--random batches require --seed")
    lo, hi = args.min_points, args.max_points
    if not 2 <= lo <= hi:
        raise InvalidInput("need 2 <= --min-points <= --max-points")
    _check_cap(hi)
    tasks = [(args.seed, i, lo, hi) for i in range(args.random)]
    # A pool starts all its workers at its first task.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_oracle_check_one, tasks))
    else:
        results = [_oracle_check_one(t) for t in tasks]
    bad = [{"index": i, "solver": s, "oracle": o}
           for i, ok, s, o in results if not ok]
    _emit({"checked": len(results), "mismatches": len(bad), "ok": not bad,
           "seed": args.seed, "failures": bad})
    return 0 if not bad else 1


# --- parser ---------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process for every main call."""
    parser = argparse.ArgumentParser(
        prog="tcspace",
        description="Exact transportation-cost space toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", _cmd_validate, help="check the metric axioms")
    p.add_argument("--space", required=True)

    p = add("canon", _cmd_canon, help="build the canonical graph")
    p.add_argument("--space", required=True)
    p.add_argument("--dot", help="also write a DOT file")

    p = add("norm", _cmd_norm, help="transportation cost norm")
    p.add_argument("--space", required=True)
    p.add_argument("--problem", required=True)

    p = add("roadmap", _cmd_roadmap, help="optimal roadmap")
    p.add_argument("--space", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--maximal", action="store_true",
                   help="emit the maximal-support optimal roadmap")

    p = add("basis", _cmd_basis, help="fundamental cycle basis")
    p.add_argument("--space", required=True)

    p = add("dual", _cmd_dual, help="supporting function (potential)")
    p.add_argument("--space", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--unique", action="store_true",
                   help="also decide uniqueness and emit a witness")

    p = add("downhill", _cmd_downhill, help="downhill graph of a potential")
    p.add_argument("--space", required=True)
    p.add_argument("--lipschitz", required=True)
    p.add_argument("--dot", help="also write a DOT file")

    p = add("realizable", _cmd_realizable,
            help="is a directed subgraph a downhill graph?")
    p.add_argument("--space", required=True)
    p.add_argument("--subgraph", required=True)

    p = add("disjoint", _cmd_disjoint, help="strong disjointness checks")
    p.add_argument("--space", required=True)
    p.add_argument("--problem")
    p.add_argument("--other")
    p.add_argument("--candidate",
                   help="JSON array of problems: run the sign-pattern scan")

    p = add("certify", _cmd_certify, help="no-isometric-linfty certificate")
    p.add_argument("--space", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--peel", help="family descriptor JSON enabling peeling")

    p = add("gen", _cmd_gen, help="generate a family instance")
    p.add_argument("family", choices=("diamond", "grid", "cycle",
                                      "complete-bipartite", "recursive"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, help="left part size for K_{m,n}")
    p.add_argument("--base", choices=("quadrilateral", "k2n"),
                   default="quadrilateral", help="recursive composition base")
    p.add_argument("--legs", type=int, default=3,
                   help="legs of the k2n base (K_{2,legs})")
    p.add_argument("--out", help="write the space JSON here instead of stdout")
    p.add_argument("--descriptor-out", dest="descriptor_out",
                   help="write the family descriptor JSON here")

    p = add("oracle-check", _cmd_oracle_check,
            help="compare the solver against the dense LP oracle")
    p.add_argument("--space")
    p.add_argument("--problem")
    p.add_argument("--random", type=int, help="number of random instances")
    p.add_argument("--seed", type=int)
    p.add_argument("--min-points", type=int, default=3)
    p.add_argument("--max-points", type=int, default=8)
    p.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "family", None) == "complete-bipartite" and args.m is None:
        parser.error("complete-bipartite needs --m")
    try:
        return args.fn(args)
    except DomainError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        payload.update(exc.details())
        _emit(payload, stream=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
