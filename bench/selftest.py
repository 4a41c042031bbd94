"""Self-test of the benchmark's output checks: genuine outputs pass, and each
corrupted output is rejected.

    python3 bench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tcspace.cli as cli  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def command(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def main() -> int:
    failures = []

    def expect(label: str, check, should_pass: bool) -> None:
        try:
            check()
        except checks.CheckError as exc:
            if should_pass:
                failures.append(f"{label}: rejected a genuine output ({exc})")
            else:
                print(f"rejected as it should: {label}: {exc}")
            return
        if not should_pass:
            failures.append(f"{label}: accepted a corrupted output")

    rng = random.Random("selftest")
    space = inputs.dense_space(rng, 8)
    masses = inputs.spread_problem(rng, space)
    family = inputs.composed_family("diamond", 2, 3)
    dspace = inputs.family_space(rng, family)
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        sp = write(os.path.join(tmp, "space.json"), space.json_obj)
        pr = write(os.path.join(tmp, "problem.json"), inputs.problem_json(masses))
        ds = write(os.path.join(tmp, "diamond.json"), dspace.json_obj)
        dd = write(os.path.join(tmp, "diamond.desc.json"),
                   inputs.descriptor_json(family, dspace))
        roadmap = command(["roadmap", "--space", sp, "--problem", pr])
        maximal = command(["roadmap", "--maximal", "--space", sp, "--problem", pr])
        dual = command(["dual", "--unique", "--space", sp, "--problem", pr])
        cert = command(["certify", "--space", ds, "--k", "4", "--peel", dd])
        oracle = command(["oracle-check", "--random", "5", "--seed", "3",
                          "--max-points", "6"])

    flows = checks.roadmap_flows(space, maximal)
    norm = checks.flows_cost(space, flows)
    expected = checks.expected_certificate(4, dspace.max_hop_degree(), family)

    expect("roadmap", lambda: checks.check_roadmap(space, masses, roadmap), True)
    expect("dual", lambda: checks.check_dual(space, masses, dual, norm, flows), True)
    expect("certificate", lambda: checks.check_certificate(cert, expected), True)
    expect("oracle", lambda: checks.check_oracle(oracle, 5, 3), True)

    changed = copy.deepcopy(roadmap)
    edge = changed["edges"][0]
    edge["p"] = str(2 * Fraction(edge["p"]))
    expect("roadmap with one edge value changed",
           lambda: checks.check_roadmap(space, masses, changed), False)

    # Same problem, but flow pushed around a triangle: exact transport,
    # honest cost, and yet not optimal.
    detour = copy.deepcopy(roadmap)
    a, b, c = space.names[:3]
    detour["edges"] += [{"u": a, "v": b, "p": "1"}, {"u": b, "v": c, "p": "1"},
                        {"u": c, "v": a, "p": "1"}]
    detour["edges"] = _merge(detour["edges"])
    detour["cost"] = str(checks.flows_cost(space, checks.roadmap_flows(space, detour)))
    expect("roadmap with a costly detour",
           lambda: checks.check_roadmap(space, masses, detour), False)

    steep = copy.deepcopy(dual)
    base = steep["base"]
    other = next(p for p in space.names if p != base)
    steep["l"][other] = str(space.d(space.names.index(base),
                                    space.names.index(other)) + 1)
    expect("potential breaking the Lipschitz bound on one pair",
           lambda: checks.check_dual(space, masses, steep, norm, flows), False)

    wrong = dict(cert, verdict="inconclusive")
    expect("certificate with a wrong verdict",
           lambda: checks.check_certificate(wrong, expected), False)

    mismatch = dict(oracle, mismatches=1, ok=False,
                    failures=[{"index": 0, "solver": "1", "oracle": "2"}])
    expect("oracle-check result with one mismatch",
           lambda: checks.check_oracle(mismatch, 5, 3), False)

    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


def _merge(edges: list[dict]) -> list[dict]:
    """Sum roadmap entries on the same unordered pair."""
    total: dict[tuple[str, str], Fraction] = {}
    for e in edges:
        u, v, p = e["u"], e["v"], Fraction(e["p"])
        if (v, u) in total:
            total[(v, u)] -= p
        else:
            total[(u, v)] = total.get((u, v), Fraction(0)) + p
    return [{"u": u, "v": v, "p": str(p)} for (u, v), p in total.items() if p]


if __name__ == "__main__":
    sys.exit(main())
