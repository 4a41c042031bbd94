import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tcspace import Roadmap, cli, duality, metric, transport, validate_metric
from tcspace.cli import main


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def path3(tmp_path):
    return _write(tmp_path / "space.json", {
        "points": ["A", "B", "C"],
        "dist": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
        "base": "A",
    })


@pytest.fixture()
def c4(tmp_path):
    return _write(tmp_path / "c4.json", {
        "vertices": ["c0", "c1", "c2", "c3"],
        "edges": [{"u": "c0", "v": "c1", "w": "1"},
                  {"u": "c1", "v": "c2", "w": "1"},
                  {"u": "c2", "v": "c3", "w": "1"},
                  {"u": "c3", "v": "c0", "w": "1"}],
    })


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, path3):
    code, out, _ = _run(capsys, ["validate", "--space", path3])
    assert code == 0
    assert json.loads(out) == {"valid": True, "points": 3}


def test_validate_reports_violations(capsys, tmp_path):
    bad = _write(tmp_path / "bad.json", {
        "points": ["A", "B", "C"],
        "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
    })
    code, _, err = _run(capsys, ["validate", "--space", bad])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "TriangleViolation"
    assert payload["points"] == ["A", "B", "C"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm", "--space"])
    assert err.value.code == 2


def test_norm_example(capsys, path3, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"A": "2", "B": "-1", "C": "-1"}})
    code, out, _ = _run(capsys, ["norm", "--space", path3, "--problem", problem])
    assert code == 0
    assert json.loads(out) == {"tc_norm": "4"}


def test_roadmap_and_round_trip(capsys, path3, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"A": "2", "B": "-1", "C": "-1"}})
    code, out, _ = _run(capsys, ["roadmap", "--space", path3,
                                 "--problem", problem])
    assert code == 0
    obj = json.loads(out)
    assert obj["optimal"] is True
    assert obj["cost"] == "4"
    assert {"u": "A", "v": "B", "p": "2"} in obj["edges"]


def test_maximal_roadmap_flag(capsys, c4, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c2": "-1"}})
    code, out, _ = _run(capsys, ["roadmap", "--space", c4,
                                 "--problem", problem, "--maximal"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["edges"]) == 4
    assert obj["optimal"] is True


def test_canon_round_trips_and_dot(capsys, c4, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = _run(capsys, ["canon", "--space", c4, "--dot", str(dot)])
    assert code == 0
    graph_obj = json.loads(out)
    assert len(graph_obj["edges"]) == 4
    assert dot.read_text().startswith("digraph")
    # output is valid input again
    again = _write(tmp_path / "again.json", graph_obj)
    code2, out2, _ = _run(capsys, ["canon", "--space", again])
    assert code2 == 0
    assert json.loads(out2) == graph_obj


def test_basis(capsys, c4):
    code, out, _ = _run(capsys, ["basis", "--space", c4])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert len(obj["cycles"][0]) == 4


def test_dual_with_uniqueness(capsys, c4, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c1": "-1"}})
    code, out, _ = _run(capsys, ["dual", "--space", c4,
                                 "--problem", problem, "--unique"])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "1"
    assert obj["unique"] is False
    assert "witness" in obj


def test_downhill_and_realizable(capsys, path3, tmp_path):
    lip = _write(tmp_path / "l.json",
                 {"l": {"A": "0", "B": "-1", "C": "-3"}, "base": "A"})
    code, out, _ = _run(capsys, ["downhill", "--space", path3,
                                 "--lipschitz", lip])
    assert code == 0
    arcs = json.loads(out)["edges"]
    assert arcs == [{"u": "A", "v": "B"}, {"u": "B", "v": "C"}]

    sub = _write(tmp_path / "h.json", {"edges": [{"u": "A", "v": "B"}]})
    code, out, _ = _run(capsys, ["realizable", "--space", path3,
                                 "--subgraph", sub])
    assert code == 0
    obj = json.loads(out)
    assert obj["realizable"] is True and obj["l"]["B"] == "-1"


def test_disjoint_pair_and_candidate(capsys, c4, tmp_path):
    f = _write(tmp_path / "f.json", {"f": {"c0": "1", "c1": "-1"}})
    g = _write(tmp_path / "g.json", {"f": {"c2": "1", "c3": "-1"}})
    code, out, _ = _run(capsys, ["disjoint", "--space", c4,
                                 "--problem", f, "--other", g])
    assert code == 0
    assert json.loads(out) == {"strongly_disjoint": True}

    cand = _write(tmp_path / "cand.json", [
        {"f": {"c0": "1", "c2": "-1"}},
        {"f": {"c1": "1", "c3": "-1"}},
        {"f": {"c0": "1", "c1": "-1", "c2": "1", "c3": "-1"}},
    ])
    code, out, _ = _run(capsys, ["disjoint", "--space", c4,
                                 "--candidate", cand])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["pairs_checked"] == 24


@pytest.mark.parametrize("names,problems,report", [
    ("c0 c1 c2 c3", [{"c0": "1", "c1": "-1"}, {"c1": "1", "c2": "-1"}],
     {"reason": "maximal supports overlap", "shared_edges": [["c0", "c1"], ["c1", "c2"]]}),
    ("z y x w", [{"z": "1", "y": "-1"}, {"y": "1", "x": "-1"}],
     {"reason": "maximal supports overlap", "shared_edges": [["y", "x"], ["z", "y"]]}),
    ("c0 c1 c2 c3", [{"c0": "1", "c1": "-1"}, {"c0": "1", "c1": "-1"}],
     {"reason": "combination (1, -1) is the zero problem"}),
], ids=["overlap", "overlap-sorted-by-name", "degenerate"])
def test_disjoint_candidate_failures_name_the_pair(capsys, tmp_path, names, problems, report):
    """A failing scan prints its first failing pair of sign vectors and the
    reason; overlapping supports add the shared edges as (tail, head) name
    pairs, sorted by name, and a combination that is the zero problem adds
    none.  The space is the unit 4-cycle on names, in order."""
    v = names.split()
    space = _write(tmp_path / "c4.json", {
        "vertices": v,
        "edges": [{"u": v[i], "v": v[(i + 1) % 4], "w": "1"} for i in range(4)]})
    cand = _write(tmp_path / "cand.json", [{"f": f} for f in problems])
    code, out, err = _run(capsys, ["disjoint", "--space", space, "--candidate", cand])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ok": False, "pairs_checked": 1,
                               "failing_pair": [[1, 1], [1, -1]], **report}


def test_certify_plain_and_peeled(capsys, tmp_path):
    code, out, _ = _run(capsys, ["gen", "grid", "--n", "4",
                                 "--out", str(tmp_path / "grid.json")])
    assert code == 0
    code, out, _ = _run(capsys, ["certify", "--space",
                                 str(tmp_path / "grid.json"), "--k", "5"])
    assert code == 0
    assert json.loads(out)["verdict"] == "ruled_out"

    code, _, _ = _run(capsys, [
        "gen", "diamond", "--n", "2",
        "--out", str(tmp_path / "d2.json"),
        "--descriptor-out", str(tmp_path / "d2.desc.json")])
    assert code == 0
    code, out, _ = _run(capsys, [
        "certify", "--space", str(tmp_path / "d2.json"), "--k", "4",
        "--peel", str(tmp_path / "d2.desc.json")])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "ruled_out"
    assert obj["peeling"] == ["D_2", "D_1"]


def test_peeling_down_to_a_single_point(capsys, tmp_path):
    """The star d(a,b) = d(a,c) = 1, d(b,c) = 2 peels to its one-point base
    generation {a}, whose canonical graph has no edges: max degree 0.  So
    does the star scaled by 1/200, whose int8 matrix has D = 200 above the
    int8 range: the one-point restriction's D becomes 1 without dividing."""
    desc = _write(tmp_path / "star.desc.json", {
        "family": "star", "generations": {"a": 0, "b": 1, "c": 1}})
    for one, two in ((1, 2), ("1/200", "1/100")):
        space = _write(tmp_path / "star.json", {
            "points": ["a", "b", "c"], "dist": [[0, one, one], [one, 0, two], [one, two, 0]]})
        code, out, err = _run(capsys, ["certify", "--space", space, "--k", "3", "--peel", desc])
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["verdict"] == "ruled_out"
        assert obj["reason"] == "max degree 0 < 2 at star"
        assert obj["degrees"] == {"max": 0}


@pytest.fixture()
def star4(tmp_path):
    """The star with centre a and leaves b, c, d at distance 1: centre degree 3."""
    names = ["a", "b", "c", "d"]
    return _write(tmp_path / "star4.json", {
        "points": names,
        "dist": [[0 if u == v else 1 if "a" in (u, v) else 2 for v in names] for u in names]})


def _star_descriptor(tmp_path, generation):
    return _write(tmp_path / "star4.desc.json", {
        "family": "recursive", "generations": {"a": 0, "b": 0, "c": 0, "d": generation}})


@pytest.mark.parametrize("generation,error", [
    (10**9, "PeelNotApplicable"), (-1, "PeelNotApplicable"),
    (1.5, "InvalidInput"), (True, "InvalidInput")],
    ids=["1e9", "negative", "float", "boolean"])
def test_a_generation_no_family_on_the_points_has_is_a_structured_error(
        capsys, star4, tmp_path, generation, error):
    """A recursive family on n points has at most n - 1 levels, each a
    nonnegative integer: anything else fails before any level is peeled
    (a leaf at generation 10^9 would otherwise be peeled level by level)."""
    desc = _star_descriptor(tmp_path, generation)
    code, out, err = _run(capsys, ["certify", "--space", star4, "--k", "3", "--peel", desc])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == error


def test_generations_given_as_json_strings_are_a_structured_error(capsys, star4, tmp_path):
    """int() would read " 0" as 0 and "0_1" as 1, and peel on them."""
    desc = _write(tmp_path / "star4.desc.json", {
        "family": "recursive", "generations": {"a": "0", "b": " 0", "c": "0", "d": "0_1"}})
    code, out, err = _run(capsys, ["certify", "--space", star4, "--k", "3", "--peel", desc])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "InvalidInput",
        "message": "descriptor 'generations' must map point names to integers"}


def test_a_generation_gap_peels_to_the_same_certificate(capsys, monkeypatch, star4, tmp_path):
    """Levels 2 and 1 of a leaf at generation 3 remove no point: they are
    visited, and the graph is rebuilt only for level 3."""
    from tcspace import obstruction

    built = []
    canonical_graph = obstruction.canonical_graph
    monkeypatch.setattr(obstruction, "canonical_graph",
                        lambda space: built.append(space.n) or canonical_graph(space))
    desc = _star_descriptor(tmp_path, 3)
    code, out, err = _run(capsys, ["certify", "--space", star4, "--k", "3", "--peel", desc])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "degrees": {"max": 2}, "k": 3, "peeling": ["B_3", "B_2", "B_1", "B_0"],
        "reason": "base level B_0 still has degree 2", "threshold": 2,
        "verdict": "inconclusive"}
    assert built == [3]


def test_a_threshold_too_large_to_print_is_a_structured_error(capsys, c4):
    """2^(k-2) past Python's 4300-digit limit is refused before it is built."""
    code, out, err = _run(capsys, ["certify", "--space", c4, "--k", "100000"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "OversizedResult"


def test_gen_diamond_emits_space_json(capsys):
    code, out, _ = _run(capsys, ["gen", "diamond", "--n", "2"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["points"]) == 12


def test_gen_recursive_k2n(capsys, tmp_path):
    code, out, _ = _run(capsys, [
        "gen", "recursive", "--base", "k2n", "--legs", "3", "--n", "1",
        "--descriptor-out", str(tmp_path / "desc.json")])
    assert code == 0
    assert len(json.loads(out)["points"]) == 5
    desc = json.loads((tmp_path / "desc.json").read_text())
    assert desc["params"]["delta"] == 3


def test_max_points_cap(capsys, monkeypatch, c4):
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "3")
    code, _, err = _run(capsys, ["canon", "--space", c4])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "100")
    code, _, _ = _run(capsys, ["canon", "--space", c4])
    assert code == 0


def test_oracle_check_single(capsys, path3, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"A": "1", "C": "-1"}})
    code, out, _ = _run(capsys, ["oracle-check", "--space", path3,
                                 "--problem", problem])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["solver"] == obj["oracle"] == "3"


def test_oracle_check_batch_is_deterministic(capsys):
    code1, out1, _ = _run(capsys, ["oracle-check", "--random", "12",
                                   "--seed", "7"])
    code2, out2, _ = _run(capsys, ["oracle-check", "--random", "12",
                                   "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["checked"] == 12 and obj["mismatches"] == 0


def test_oracle_check_requires_seed(capsys):
    code, _, err = _run(capsys, ["oracle-check", "--random", "3"])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"


def test_oracle_check_parallel_matches_serial(capsys):
    code1, out1, _ = _run(capsys, ["oracle-check", "--random", "8",
                                   "--seed", "3", "--jobs", "2"])
    code2, out2, _ = _run(capsys, ["oracle-check", "--random", "8",
                                   "--seed", "3"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_oracle_check_batch_above_ten_points(capsys):
    code, out, _ = _run(capsys, ["oracle-check", "--random", "40", "--seed", "1",
                                 "--min-points", "12", "--max-points", "14"])
    assert code == 0
    assert json.loads(out)["mismatches"] == 0


def test_gen_point_count_is_known_before_building(capsys):
    for argv in (["grid", "--n", "3"], ["cycle", "--n", "5"],
                 ["complete-bipartite", "--m", "2", "--n", "3"],
                 ["diamond", "--n", "0"], ["diamond", "--n", "1"],
                 ["diamond", "--n", "2"], ["recursive", "--n", "2"],
                 ["recursive", "--base", "k2n", "--legs", "3", "--n", "2"],
                 ["recursive", "--base", "k2n", "--legs", "4", "--n", "1"]):
        code, out, _ = _run(capsys, ["gen", *argv])
        assert code == 0
        args = cli._build_parser().parse_args(["gen", *argv])
        assert len(json.loads(out)["points"]) == cli._gen_points(args)


def test_gen_writes_the_bytes_of_json_dumps(capsys, monkeypatch, tmp_path):
    """gen's writer (`_space_text`) prints every family, to --out and to
    stdout, byte for byte as json.dumps(obj, indent=2, sort_keys=True) + "\n",
    and so it does a space whose names need escaping."""
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "1000")
    out = tmp_path / "space.json"
    for argv in (["diamond", "--n", "3"], ["grid", "--n", "5"], ["cycle", "--n", "7"],
                 ["complete-bipartite", "--m", "2", "--n", "3"], ["recursive", "--n", "2"],
                 ["recursive", "--base", "k2n", "--legs", "3", "--n", "2"]):
        code, stdout, _ = _run(capsys, ["gen", *argv, "--out", str(out)])
        assert code == 0 and stdout == ""
        want = json.dumps(json.loads(out.read_bytes()), indent=2, sort_keys=True) + "\n"
        assert out.read_bytes() == want.encode("ascii")
        code, stdout, _ = _run(capsys, ["gen", *argv])
        assert code == 0 and stdout == want
    names = ['say "hi"', "back\\slash", "caf\u00e9", "line\nbreak\u2028", "\U0001d4b3", "/"]
    n = len(names)
    space = validate_metric(names, [["0" if i == j else f"{6 + i + j}/7" for j in range(n)]
                                    for i in range(n)], base="caf\u00e9")
    rows = space.scaled.tolist()
    text = cli._space_text({"base": space.points[space.base_point], "dist": rows,
                            "points": space.points}, metric._distance_literals(rows, space.denom))
    assert text == json.dumps(space.to_json_obj(), indent=2, sort_keys=True) + "\n"


def test_gen_over_the_cap_builds_nothing(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("generator called")

    monkeypatch.setenv("TCSPACE_MAX_POINTS", "64")
    monkeypatch.setattr(cli, "diamond", never)
    code, _, err = _run(capsys, ["gen", "diamond", "--n", "5"])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("argv, message", [
    (["diamond", "--n", "1000000000"], "above TCSPACE_MAX_POINTS=64"),
    (["recursive", "--n", "1000000000"], "above TCSPACE_MAX_POINTS=64"),
    (["recursive", "--base", "k2n", "--legs", "3", "--n", "1000000000"],
     "above TCSPACE_MAX_POINTS=64"),
    (["recursive", "--base", "k2n", "--legs", "1", "--n", "1000000000"],
     "need at least 2 legs"),
    (["recursive", "--base", "k2n", "--legs", "-3", "--n", "1000000000"],
     "need at least 2 legs"),
    (["recursive", "--base", "k2n", "--legs", "1000000000", "--n", "0"],
     "base K_{2,1000000000} has 1000000002 points, above TCSPACE_MAX_POINTS=64"),
    (["recursive", "--base", "k2n", "--legs", "1000000000", "--n", "1"],
     "instance has 1000000002 points, above TCSPACE_MAX_POINTS=64"),
])
def test_gen_with_a_huge_n_stops_counting_at_the_cap(capsys, monkeypatch, argv, message):
    """The point count stops growing once it passes the cap, so a huge --n
    fails at once with a short message, and builds nothing; so does a K_{2,L}
    base above the cap, which is built (and its path metric computed) even
    at --n 0."""
    def never(*args):
        raise AssertionError("generator called")

    monkeypatch.setenv("TCSPACE_MAX_POINTS", "64")
    for name in ("diamond", "recursive_family", "k2n_two_port", "quadrilateral_two_port"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = _run(capsys, ["gen", *argv])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidInput"
    assert message in payload["message"] and len(payload["message"]) < 80


def test_gen_at_level_zero_caps_the_k2n_base(capsys, monkeypatch):
    """At --n 0 the instance is one unit edge, but the K_{2,L} base is still
    built and measured, so the base's L + 2 points are held to the cap."""
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "64")
    argv = ["gen", "recursive", "--base", "k2n", "--n", "0", "--legs"]
    code, out, err = _run(capsys, argv + ["62"])
    assert (code, err) == (0, "")
    assert json.loads(out)["points"] == ["b", "t"]
    code, out, err = _run(capsys, argv + ["63"])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == "base K_{2,63} has 65 points, above TCSPACE_MAX_POINTS=64"


def test_oracle_check_starts_no_more_workers_than_tasks_and_cores(capsys, monkeypatch):
    """--jobs is capped by the batch size and the core count, and a batch
    with at most one worker runs in-process; the output is that of --jobs 1."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # cli imports the pool class from concurrent.futures when it starts one.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cases = [(4, "2", "10000", [2]), (4, "8", "3", [3]), (4, "8", "10000", [4]),
             (4, "0", "8", []), (4, "5", "1", []), (1, "8", "4", []), (None, "8", "4", [])]
    for cores, batch, jobs, want in cases:
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        argv = ["oracle-check", "--random", batch, "--seed", "3"]
        pools.clear()
        serial = _run(capsys, argv)
        assert pools == []
        assert _run(capsys, [*argv, "--jobs", jobs]) == serial
        assert pools == want


def test_roadmap_runs_no_karp_beyond_the_solver(capsys, monkeypatch, c4, tmp_path):
    """`roadmap` prints tc_norm's certified roadmap: the same Dijkstra runs
    as `norm`, and neither runs a Bellman-Ford (no cycle search, no residual
    distances) beyond the solver."""
    runs, searches = [], []
    dijkstra, bellman_ford = transport._dijkstra, transport.bellman_ford
    monkeypatch.setattr(transport, "_dijkstra",
                        lambda *a, **k: runs.append(a) or dijkstra(*a, **k))
    monkeypatch.setattr(transport, "bellman_ford",
                        lambda *a, **k: searches.append(a) or bellman_ford(*a, **k))
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c2": "-1"}})
    counts = []
    for command in ("norm", "roadmap", "dual --unique"):
        runs.clear()
        searches.clear()
        name, *flags = command.split()
        code, _, _ = _run(capsys, [name, "--space", c4, "--problem", problem, *flags])
        assert code == 0
        counts.append((len(runs), len(searches)))
    assert counts[0] == counts[1] and counts[0][0] > 0
    assert counts[0][1] == 0
    assert counts[2][1] == 0


def test_commands_that_print_no_roadmap_build_none(capsys, monkeypatch, c4, tmp_path):
    """`norm`, `oracle-check --random` and `dual --unique` read the norm, or
    the flow and potentials, straight from the solver's certified integers
    and construct no Roadmap; `roadmap` constructs the one it prints, and
    so does `roadmap --maximal`, whose problem has two optimal roadmaps."""
    built = []
    post_init = Roadmap.__post_init__
    monkeypatch.setattr(Roadmap, "__post_init__", lambda p: built.append(p) or post_init(p))
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c2": "-1"}})
    for argv in (["norm", "--space", c4, "--problem", problem],
                 ["oracle-check", "--random", "20", "--seed", "5"],
                 ["dual", "--space", c4, "--problem", problem, "--unique"]):
        code, out, _ = _run(capsys, argv)
        assert code == 0 and out, argv
        assert built == [], argv
    code, out, _ = _run(capsys, ["roadmap", "--space", c4, "--problem", problem])
    assert code == 0 and json.loads(out)["cost"] == "2"
    assert len(built) == 1
    built.clear()
    code, out, _ = _run(capsys, ["roadmap", "--space", c4, "--problem", problem, "--maximal"])
    assert code == 0 and json.loads(out)["cost"] == "2"
    assert len(json.loads(out)["edges"]) == 4
    assert len(built) == 1


def test_importing_the_cli_loads_no_process_pool():
    """Only `oracle-check` with more than one worker needs a process pool:
    importing the command line loads neither concurrent.futures nor
    multiprocessing."""
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = ("import sys, tcspace.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_dual_unique_solves_once(capsys, monkeypatch, c4, tmp_path):
    calls = []
    solve = transport._solve

    def counting(f):
        calls.append(f)
        return solve(f)

    monkeypatch.setattr(transport, "_solve", counting)
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c1": "-1"}})
    code, out, _ = _run(capsys, ["dual", "--space", c4, "--problem", problem, "--unique"])
    assert code == 0
    assert json.loads(out)["unique"] is False
    assert len(calls) == 1


def test_dual_unique_of_the_zero_problem_is_a_null_problem(capsys, c4, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {}})
    code, out, _ = _run(capsys, ["dual", "--space", c4, "--problem", problem])
    assert code == 0
    assert set(json.loads(out)["l"].values()) == {"0"}
    code, _, err = _run(capsys, ["dual", "--space", c4, "--problem", problem, "--unique"])
    assert code == 1
    assert json.loads(err)["error"] == "NullProblem"


def test_boolean_mass_is_rejected(capsys, path3, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": {"A": True, "B": "-1"}})
    code, out, err = _run(capsys, ["norm", "--space", path3, "--problem", problem])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("space", [
    {"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "base": True},
    {"vertices": ["a", "b", "c"],
     "edges": [{"u": "a", "v": "b", "w": "1"}, {"u": "b", "v": "c", "w": "1"}],
     "base": True}],
    ids=["metric", "weighted-graph"])
def test_boolean_base_is_rejected(capsys, tmp_path, space):
    """A JSON true is not the index 1, as a boolean mass is not the mass 1."""
    code, out, err = _run(capsys, ["canon", "--space", _write(tmp_path / "s.json", space)])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("extra", [
    ["--random", "-1", "--seed", "1"],
    ["--random", "3", "--seed", "1", "--jobs", "0"],
    ["--random", "3", "--seed", "1", "--jobs", "-2"]],
    ids=["random-negative", "jobs-zero", "jobs-negative"])
def test_oracle_check_rejects_negative_counts(capsys, extra):
    code, out, err = _run(capsys, ["oracle-check", *extra])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "InvalidInput"


def test_a_result_too_large_to_print_is_a_structured_error(capsys, tmp_path):
    """A norm of 10**5000 has more digits than Python turns into a string."""
    space = _write(tmp_path / "s.json", {"points": ["A", "B"],
                                         "dist": [["0", "1e4000"], ["1e4000", "0"]]})
    problem = _write(tmp_path / "f.json", {"f": {"A": "1e1000", "B": "-1e1000"}})
    code, out, err = _run(capsys, ["norm", "--space", space, "--problem", problem])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "OversizedResult"


def test_malformed_json_is_a_structured_error(capsys, path3, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    for argv in (["norm", "--space", str(bad), "--problem", str(bad)],
                 ["norm", "--space", path3, "--problem", str(bad)]):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidInput"


def test_missing_file_is_a_structured_error(capsys, path3, tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (["validate", "--space", missing],
                 ["norm", "--space", path3, "--problem", missing]):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "InvalidInput"


def _assert_invalid_input(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "InvalidInput"


def test_writing_into_a_missing_directory_is_a_structured_error(capsys, c4, tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    lipschitz = _write(tmp_path / "l.json", {"l": {"c0": "0", "c1": "1"}})
    for argv in (["gen", "grid", "--n", "2", "--out", target],
                 ["canon", "--space", c4, "--dot", target],
                 ["downhill", "--space", c4, "--lipschitz", lipschitz, "--dot", target]):
        _assert_invalid_input(capsys, argv)


def test_problem_masses_given_as_a_list_are_a_structured_error(capsys, path3, tmp_path):
    problem = _write(tmp_path / "f.json", {"f": [1, 2]})
    _assert_invalid_input(capsys, ["norm", "--space", path3, "--problem", problem])


def test_non_integer_descriptor_generation_is_a_structured_error(capsys, c4, tmp_path):
    desc = _write(tmp_path / "d.json", {"family": "diamond", "params": {"n": 1},
                                        "generations": {"c0": "x"}})
    _assert_invalid_input(capsys, ["certify", "--space", c4, "--k", "3", "--peel", desc])


def test_space_with_scalar_points_and_dist_is_a_structured_error(capsys, tmp_path):
    space = _write(tmp_path / "s.json", {"points": 5, "dist": 3})
    _assert_invalid_input(capsys, ["validate", "--space", space])


def test_lipschitz_values_given_as_a_list_are_a_structured_error(capsys, c4, tmp_path):
    lipschitz = _write(tmp_path / "l.json", {"l": [1, 2]})
    _assert_invalid_input(capsys, ["downhill", "--space", c4, "--lipschitz", lipschitz])


def test_subgraph_edges_given_as_a_number_are_a_structured_error(capsys, c4, tmp_path):
    sub = _write(tmp_path / "h.json", {"edges": 5})
    _assert_invalid_input(capsys, ["realizable", "--space", c4, "--subgraph", sub])


@pytest.mark.parametrize("command,option,obj", [
    ("downhill", "--lipschitz", {"l": {}, "base": []}),
    ("downhill", "--lipschitz", {"l": {}, "base": {"c0": 1}}),
    ("realizable", "--subgraph", {"edges": [{"u": ["c0"], "v": "c1"}]}),
    ("certify", "--peel", {"family": "diamond", "params": None, "generations": {"c0": 0}}),
    ("certify", "--peel", {"family": "diamond", "params": 3}),
    ("certify", "--peel", {"family": "diamond", "generations": {"c0": float("inf")}}),
], ids=["base-list", "base-object", "edge-end-list", "params-null", "params-number",
        "generation-1e400"])
def test_unhashable_names_and_malformed_descriptors_are_structured_errors(
        capsys, c4, tmp_path, command, option, obj):
    extra = ["--k", "3"] if command == "certify" else []
    path = _write(tmp_path / "in.json", obj)
    _assert_invalid_input(capsys, [command, "--space", c4, *extra, option, path])


@pytest.mark.parametrize("obj,message", [
    ({"dist": [["0", "1"], ["1", "0"]]}, "space JSON needs 'points' and 'dist'"),
    ({"vertices": ["a", "b"]}, "graph JSON needs 'vertices' and 'edges'"),
    ({"vertices": ["a", "b", "a"], "edges": [{"u": "a", "v": "b", "w": "1"}]},
     "vertex names must be distinct"),
    ({"vertices": "ab", "edges": [{"u": "a", "v": "b", "w": "1"}]},
     "'vertices' must be a list of names"),
], ids=["dist-without-points", "graph-without-edges", "duplicate-vertices", "vertices-string"])
def test_incomplete_space_and_graph_files_are_structured_errors(capsys, tmp_path, obj, message):
    code, out, err = _run(capsys, ["validate", "--space", _write(tmp_path / "in.json", obj)])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InvalidInput", "message": message}


def test_an_empty_descriptor_path_is_read_like_any_other(capsys, c4):
    """--peel names a file; an empty name is one that cannot be read."""
    code, out, err = _run(capsys, ["certify", "--space", c4, "--k", "3", "--peel", ""])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidInput"
    assert "cannot read" in json.loads(err)["message"]


def _never(*args, **kwargs):
    raise AssertionError("validation called")


@pytest.mark.parametrize("kind", ["space", "graph"])
def test_over_the_cap_input_is_rejected_before_validation(capsys, monkeypatch, tmp_path, kind):
    names = [f"P{i}" for i in range(65)]
    if kind == "space":
        obj = {"points": names,
               "dist": [["0" if u == v else "1" for v in names] for u in names]}
    else:
        obj = {"vertices": names,
               "edges": [{"u": u, "v": v, "w": "1"} for u, v in zip(names, names[1:])]}
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "64")
    monkeypatch.setattr(cli.MetricSpace, "from_json_obj", _never)
    monkeypatch.setattr(cli, "weighted_graph_json_to_space", _never)
    for name in ("validate_metric", "_path_rows", "_violations"):
        monkeypatch.setattr(metric, name, _never)
    code, out, err = _run(capsys, ["canon", "--space", _write(tmp_path / "big.json", obj)])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidInput"
    assert "65 points, above TCSPACE_MAX_POINTS=64" in payload["message"]


@pytest.mark.parametrize("obj", [
    {"points": 7, "dist": []},
    {"points": None, "dist": [["0"]]},
    {"vertices": 7, "edges": []},
    {"vertices": ["A", "B"], "edges": 7},
])
def test_malformed_point_lists_are_still_invalid_input(capsys, tmp_path, obj):
    space = _write(tmp_path / "bad.json", obj)
    code, _, err = _run(capsys, ["validate", "--space", space])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidInput"


SPACE_SHAPE = "'points' must be a list of names and 'dist' a list of rows"


@pytest.mark.parametrize("obj,message", [
    ({"points": "abc", "dist": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]},
     SPACE_SHAPE),
    ({"points": ["a", "b", "c"], "dist": ["012", "102", "220"]}, SPACE_SHAPE),
    ({"points": ["a", "b", "c"], "dist": [["0", "1", "2"], "102", ["2", "2", "0"]]},
     SPACE_SHAPE),
    ({"points": ["a", "b"], "dist": {"01": 1, "10": 1}}, SPACE_SHAPE),
    ({"points": ["a", "b"], "dist": 5}, SPACE_SHAPE),
    ({"points": {"a": 0, "b": 1}, "dist": [["0", "1"], ["1", "0"]]}, SPACE_SHAPE),
    ({"points": ["a", "b"], "dist": [["0", "1"], {"1": 0, "0": 1}]}, SPACE_SHAPE),
    ({"vertices": "ab", "edges": [{"u": "a", "v": "b", "w": "1"}]},
     "'vertices' must be a list of names"),
    ({"vertices": {"a": 0, "b": 1}, "edges": [{"u": "a", "v": "b", "w": "1"}]},
     "'vertices' must be a list of names"),
    ({"vertices": ["a", "b"], "edges": {}}, "'edges' must be a list of edges"),
    ({"vertices": ["a", "b"], "edges": "ab"}, "'edges' must be a list of edges"),
], ids=["points-string", "rows-strings", "one-row-string", "dist-object", "dist-number",
        "points-object",
        "row-object", "vertices-string", "vertices-object", "edges-object", "edges-string"])
def test_json_names_and_rows_must_be_arrays(capsys, tmp_path, obj, message):
    # A string or an object is iterable in Python; a JSON reader that took it
    # would read a string's characters as names or distances.
    space = _write(tmp_path / "in.json", obj)
    code, out, err = _run(capsys, ["validate", "--space", space])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InvalidInput", "message": message}


@pytest.mark.parametrize("dist,message", [
    ([["0", "1", "2"], ["1", "0"], ["2", "1", "0"]],
     "distance matrix must be square, one row per point"),
    ([["0", "x", "2"], ["1", "0"], ["2", "1", "0"]], "cannot parse rational literal 'x'"),
], ids=["short-row", "literal-first"])
def test_a_row_of_the_wrong_length_is_a_structured_error(capsys, tmp_path, dist, message):
    space = _write(tmp_path / "in.json", {"points": ["A", "B", "C"], "dist": dist})
    code, out, err = _run(capsys, ["validate", "--space", space])
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "InvalidInput", "message": message}


def test_a_point_cap_that_is_no_integer_is_a_structured_error(capsys, monkeypatch, c4):
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "abc")
    code, out, err = _run(capsys, ["validate", "--space", c4])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "InvalidInput",
                               "message": "TCSPACE_MAX_POINTS must be an integer, got 'abc'"}


@pytest.mark.parametrize("argv,files,message", [
    (["disjoint", "--space", "{c4}"], {},
     "disjoint needs --candidate or both --problem and --other"),
    (["disjoint", "--space", "{c4}", "--problem", "{f}"], {"f": {"f": {"c0": 1, "c1": -1}}},
     "disjoint needs --candidate or both --problem and --other"),
    (["oracle-check"], {}, "oracle-check needs --space/--problem or --random N"),
    (["oracle-check", "--random", "2", "--seed", "1", "--min-points", "5", "--max-points", "3"],
     {}, "need 2 <= --min-points <= --max-points"),
    (["downhill", "--space", "{c4}", "--lipschitz", "{l}"], {"l": {"l": {"c0": "1"}}},
     "function must vanish at the base point"),
    (["downhill", "--space", "{c4}", "--lipschitz", "{l}"], {"l": {"l": {}, "base": "c1"}},
     "base in JSON differs from the space's base point"),
], ids=["disjoint-alone", "disjoint-no-other", "oracle-check-no-mode",
        "oracle-check-min-above-max", "downhill-l-at-base", "downhill-other-base"])
def test_refusals_name_what_is_wrong(capsys, c4, tmp_path, argv, files, message):
    paths = {"c4": c4, **{name: _write(tmp_path / f"{name}.json", obj)
                          for name, obj in files.items()}}
    code, out, err = _run(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "InvalidInput", "message": message}


def test_dual_runs_one_dijkstra_per_direction(capsys, monkeypatch, c4, tmp_path):
    """The residual distances of the optimal flow are one Dijkstra per
    direction on the solver's certificate: forward at (flow, pot), computed
    once and shared by the least potential and the uniqueness test, and
    reverse at (-flow, -pot).  No command of the optimal face runs a
    Bellman-Ford."""
    solves, runs, searches, directions = [], [], [], []
    solve, dijkstra = transport._solve, transport._dijkstra
    bellman_ford, residual = transport.bellman_ford, transport.residual_distances

    def counting_residual(graph, flow, pot):
        solved_flow, solved_pot, _, _ = solves[-1]
        if (flow, pot) == (solved_flow, solved_pot):
            directions.append("forward")
        elif (flow, pot) == ([-x for x in solved_flow], [-x for x in solved_pot]):
            directions.append("reverse")
        else:
            directions.append(None)
        return residual(graph, flow, pot)

    monkeypatch.setattr(transport, "_solve", lambda f: solves.append(solve(f)) or solves[-1])
    monkeypatch.setattr(transport, "_dijkstra",
                        lambda *a, **k: runs.append(a) or dijkstra(*a, **k))
    for module in (transport, duality):
        monkeypatch.setattr(module, "bellman_ford",
                            lambda *a, **k: searches.append(a) or bellman_ford(*a, **k))
    monkeypatch.setattr(transport, "residual_distances", counting_residual)
    monkeypatch.setattr(duality, "residual_distances", counting_residual)
    problem = _write(tmp_path / "f.json", {"f": {"c0": "1", "c1": "-1"}})
    code, _, _ = _run(capsys, ["norm", "--space", c4, "--problem", problem])
    assert code == 0 and not searches
    solver_runs = len(runs)
    expected = {("dual",): ["forward"], ("dual", "--unique"): ["forward", "reverse"],
                ("roadmap", "--maximal"): []}
    for (name, *flags), want_directions in expected.items():
        runs.clear()
        directions.clear()
        code, _, _ = _run(capsys, [name, "--space", c4, "--problem", problem, *flags])
        assert code == 0
        assert sorted(directions) == want_directions
        assert len(runs) == solver_runs + len(want_directions)
        assert not searches


def test_the_parser_is_built_once(capsys, monkeypatch, path3):
    main(["validate", "--space", path3])
    built = []

    class Counting(cli.argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli.argparse, "ArgumentParser", Counting)
    for _ in range(2):
        code, _, _ = _run(capsys, ["validate", "--space", path3])
        assert code == 0
    with pytest.raises(SystemExit) as err:
        main(["gen", "complete-bipartite", "--n", "3"])
    assert err.value.code == 2
    assert "complete-bipartite needs --m" in capsys.readouterr().err
    assert built == []
