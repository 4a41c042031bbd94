"""The four workloads: seeded inputs, the commands of one round, their checks.

A round is a fixed list of operations; a run repeats whole rounds.  Each
operation is one `tcspace` command line, and its check closes over what
the benchmark generated (and, for cross-command checks, over the outputs of
earlier commands on the same instance in the same round).

Why these workloads:
  norm-large        cycle cancelling (Karp) on 24-64 points; solver-core work.
  oracle-small      many tiny instances through `oracle-check`; the only
                    workload that runs the LP oracle, and one where Karp sees
                    small graphs, so a change tuned for large ones shows here.
  duality-small     exact LPs behind `dual --unique` and `roadmap --maximal`.
  families-certify  `gen` and `certify` on families of up to 779 points;
                    metric validation and canonical graphs, no transport.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks
import inputs

# (kind, points, extra edges for sparse spaces, instances).  Sparse spaces are
# a spanning tree plus the extra edges.
NORM_LARGE = (("sparse", 32, 24, 56), ("dense", 24, 0, 2), ("sparse", 64, 24, 1))
DUALITY_SMALL = (("sparse", 8, 4, 62), ("sparse", 10, 4, 39), ("sparse", 12, 4, 13),
                 ("sparse", 16, 4, 3))
# oracle-small: batches per round and instances per batch.
ORACLE_BATCHES, ORACLE_BATCH_SIZE = 80, 50
ORACLE_POINTS = (3, 10)
# families-certify: `gen` runs as (family, depth or side), and `certify`
# runs as (family, depth or side, k for plain certify, k for --peel).  Nine
# tiny operations (D_3, B_2) below and nine larger ones above put the median
# operation in the middle of the fifteen small ones (0.1-0.25 s), not on the
# edge between two kinds of operation, where it would jump between runs.
GEN = (("diamond", 3), ("diamond", 4), ("diamond", 5),
       ("k2n", 2), ("k2n", 3), ("k2n", 4), ("grid", 12), ("grid", 13),
       ("grid", 14), ("grid", 16))
CERTIFY = (("diamond", 3, (3, 4), (4,)), ("diamond", 4, (3, 4), (3, 4, 5)),
           ("diamond", 5, (), (4,)), ("k2n", 2, (3, 4), (3, 4)),
           ("k2n", 3, (3, 4, 5), (3, 4, 5)), ("grid", 12, (3, 4, 5, 6), ()))
K2N_LEGS = 3


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict | None], None]


@dataclass
class Plan:
    """What one run executes: a warm-up command, then rounds of `ops`."""

    warmup: list[str]
    ops: list[Op]


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _instances(rng, spec, tmp, tag):
    """Spaces and problems written to disk, one per requested instance."""
    out = []
    for kind, n, extra, count in spec:
        for i in range(count):
            if kind == "dense":
                space = inputs.dense_space(rng, n)
            else:
                space = inputs.sparse_space(rng, n, extra)
            masses = inputs.spread_problem(rng, space)
            stem = os.path.join(tmp, f"{tag}-{kind}{n}-{i}")
            sp = _write(stem + ".space.json", space.json_obj)
            pr = _write(stem + ".problem.json", inputs.problem_json(masses))
            out.append((space, masses, sp, pr))
    return out


def _warmup_instance(rng, tmp) -> list[str]:
    space = inputs.dense_space(rng, 6)
    masses = inputs.spread_problem(rng, space)
    sp = _write(os.path.join(tmp, "warmup.space.json"), space.json_obj)
    pr = _write(os.path.join(tmp, "warmup.problem.json"), inputs.problem_json(masses))
    return [sp, pr]


def norm_large(seed: int, tmp: str) -> Plan:
    """`norm` and `roadmap` alternate over the instances of each kind; both
    are checked against the benchmark's own min-cost-flow optimum."""
    rng = random.Random(f"norm-large/{seed}")
    sp, pr = _warmup_instance(rng, tmp)
    ops = []
    for i, (space, masses, sp_i, pr_i) in enumerate(_instances(rng, NORM_LARGE, tmp, "nl")):
        norm = checks.exact_norm(space, masses)

        def check_norm_out(out, norm=norm):
            checks.check_norm(checks.frac(out["tc_norm"]), norm)

        def check_roadmap_out(out, space=space, masses=masses, norm=norm):
            flows = checks.check_roadmap(space, masses, out)
            checks.check_norm(checks.flows_cost(space, flows), norm)

        if i % 2 == 0:
            ops.append(Op(["norm", "--space", sp_i, "--problem", pr_i], check_norm_out))
        else:
            ops.append(Op(["roadmap", "--space", sp_i, "--problem", pr_i],
                          check_roadmap_out))
    return Plan(["norm", "--space", sp, "--problem", pr], ops)


def duality_small(seed: int, tmp: str) -> Plan:
    """`roadmap`, `roadmap --maximal` and `dual --unique` on each instance;
    the later checks use the verified outputs of the earlier commands."""
    rng = random.Random(f"duality-small/{seed}")
    sp, pr = _warmup_instance(rng, tmp)
    ops = []
    for space, masses, sp_i, pr_i in _instances(rng, DUALITY_SMALL, tmp, "ds"):
        norm = checks.exact_norm(space, masses)
        seen: dict = {}

        def check_plain(out, space=space, masses=masses, seen=seen):
            seen["plain"] = checks.check_roadmap(space, masses, out)

        def check_maximal(out, space=space, masses=masses, seen=seen):
            flows = checks.check_roadmap(space, masses, out)
            if "plain" in seen:
                checks.check_support_contains(flows, seen["plain"])
            seen["maximal"] = flows

        def check_dual_out(out, space=space, masses=masses, seen=seen, norm=norm):
            if "maximal" not in seen:
                raise checks.CheckError("no verified maximal roadmap to compare with")
            checks.check_dual(space, masses, out, norm, seen["maximal"])

        ops.append(Op(["roadmap", "--space", sp_i, "--problem", pr_i], check_plain))
        ops.append(Op(["roadmap", "--maximal", "--space", sp_i, "--problem", pr_i],
                      check_maximal))
        ops.append(Op(["dual", "--unique", "--space", sp_i, "--problem", pr_i],
                      check_dual_out))
    return Plan(["dual", "--space", sp, "--problem", pr], ops)


def oracle_small(seed: int, tmp: str) -> Plan:
    """The batch seed is the command's own input, so the seeded generator
    that draws the instances is the program's (`tcspace.randgen`)."""
    lo, hi = ORACLE_POINTS
    ops = []
    for b in range(ORACLE_BATCHES):
        batch_seed = seed * 1000 + b

        def check(out, batch_seed=batch_seed):
            checks.check_oracle(out, ORACLE_BATCH_SIZE, batch_seed)

        ops.append(Op(["oracle-check", "--random", str(ORACLE_BATCH_SIZE),
                       "--seed", str(batch_seed), "--min-points", str(lo),
                       "--max-points", str(hi), "--jobs", "1"], check))
    warmup = ["oracle-check", "--random", "5", "--seed", str(seed),
              "--min-points", str(lo), "--max-points", str(hi), "--jobs", "1"]
    return Plan(warmup, ops)


def _family(kind: str, depth: int) -> inputs.Family:
    if kind == "diamond":
        return inputs.composed_family("diamond", 2, depth)
    return inputs.composed_family("recursive", K2N_LEGS, depth)


def _gen_op(tmp: str, kind: str, n: int) -> Op:
    """A `gen` command; its files are checked against the definition."""
    out = os.path.join(tmp, f"gen-{kind}-{n}.json")
    if kind == "grid":
        def check(_, out=out, n=n):
            checks.check_generated(out, n * n, None)

        return Op(["gen", "grid", "--n", str(n), "--out", out], check)
    desc = os.path.join(tmp, f"gen-{kind}-{n}.desc.json")
    fam = _family(kind, n)
    if kind == "diamond":
        args, ends = ["diamond", "--n", str(n)], ("v0", "v1")
    else:
        args = ["recursive", "--base", "k2n", "--legs", str(K2N_LEGS), "--n", str(n)]
        ends = ("b", "t")

    def check(_, out=out, desc=desc, fam=fam, ends=ends):
        checks.check_generated(out, len(fam.generations), ends, desc, fam.generations)

    return Op(["gen", *args, "--out", out, "--descriptor-out", desc], check)


def families_certify(seed: int, tmp: str) -> Plan:
    """`gen` on the families, then `certify` on seeded relabellings of them
    written by the benchmark, each verdict compared with the theorem."""
    rng = random.Random(f"families-certify/{seed}")
    ops = [_gen_op(tmp, kind, n) for kind, n in GEN]
    for kind, n, plain, peel in CERTIFY:
        fam = None if kind == "grid" else _family(kind, n)
        space = (inputs.grid_space(rng, n) if fam is None
                 else inputs.family_space(rng, fam))
        stem = os.path.join(tmp, f"{kind}-{n}")
        sp = _write(stem + ".space.json", space.json_obj)
        max_degree = space.max_hop_degree()
        for k in plain:
            expected = checks.expected_certificate(k, max_degree)
            ops.append(Op(["certify", "--space", sp, "--k", str(k)],
                          lambda out, e=expected: checks.check_certificate(out, e)))
        if peel:
            desc = _write(stem + ".desc.json", inputs.descriptor_json(fam, space))
        for k in peel:
            expected = checks.expected_certificate(k, max_degree, fam)
            ops.append(Op(["certify", "--space", sp, "--k", str(k), "--peel", desc],
                          lambda out, e=expected: checks.check_certificate(out, e)))
    warmup = ["gen", "diamond", "--n", "2", "--out", os.path.join(tmp, "warmup.json")]
    return Plan(warmup, ops)


# The CLI caps instances at 64 points unless told otherwise.
WORKLOAD_ENV = {"families-certify": {"TCSPACE_MAX_POINTS": "1000"}}

WORKLOADS = {
    "norm-large": norm_large,
    "oracle-small": oracle_small,
    "duality-small": duality_small,
    "families-certify": families_certify,
}
