"""The solver's work and output on fixed random instances, byte for byte.

golden_solver.json holds, per instance below, the augmentations `tc_norm`
performs (in order: the shortest path as (edge, sign) arcs and the amount
pushed, in units of 1/M, M the lcm of the mass denominators) and the stdout
of `norm`, `roadmap`, `roadmap --maximal`, `dual --unique` and `basis` (the
space's cycle basis), recorded with the successive-shortest-path solver.
The augmentations are kept because where the optimum is unique the final
roadmap alone would not show a different sequence of paths.  The `norm` and
`dual --unique` stdouts are those of the earlier cycle-cancelling solver
too; its `roadmap` outputs differed on seeds 1, 3 and 4, whose optima are
not unique.  Re-record with
`PYTHONPATH=src python tests/test_golden.py` only when a change of either is
intended.
"""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from tcspace import canonical_graph, transport
from tcspace.cli import main
from tcspace.randgen import random_metric_space, random_problem

GOLDEN = Path(__file__).with_name("golden_solver.json")
INSTANCES = ((1, 12), (2, 12), (3, 24), (4, 24), (5, 32), (6, 32))  # (seed, points)
COMMANDS = ("norm", "roadmap", "roadmap --maximal", "dual --unique", "basis")


def _record(directory: Path, seed: int, points: int, monkeypatch) -> dict:
    rng = random.Random(seed)
    space = random_metric_space(rng, points)
    f = random_problem(rng, canonical_graph(space), nonzero=True)
    sp, pr = directory / f"space{seed}.json", directory / f"problem{seed}.json"
    sp.write_text(json.dumps(space.to_json_obj()))
    pr.write_text(json.dumps(f.to_json_obj()))

    augmentations = []
    augment = transport._augment

    def recording(flow, excess, source, sink, path):
        amount = augment(flow, excess, source, sink, path)
        augmentations.append({"path": [list(arc) for arc in path], "amount": amount})
        return amount

    def run(command: str) -> str:
        name, *flags = command.split()
        if name != "basis":
            flags += ["--problem", str(pr)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main([name, "--space", str(sp), *flags])
        assert code == 0
        return buf.getvalue()

    monkeypatch.setattr(transport, "_augment", recording)
    stdout = {"norm": run("norm")}
    solved = list(augmentations)  # those of `norm`; the other commands solve again
    stdout.update((command, run(command)) for command in COMMANDS[1:])
    return {"seed": seed, "points": points, "augmentations": solved, "stdout": stdout}


@pytest.mark.parametrize("seed, points", INSTANCES)
def test_solver_matches_the_recording(tmp_path, monkeypatch, seed, points):
    want = next(r for r in json.loads(GOLDEN.read_text()) if r["seed"] == seed)
    got = _record(tmp_path, seed, points, monkeypatch)
    assert got["augmentations"] == want["augmentations"]
    for command in COMMANDS:
        assert got["stdout"][command] == want["stdout"][command], command


if __name__ == "__main__":
    import tempfile

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed, points in INSTANCES:
            with pytest.MonkeyPatch.context() as mp:
                records.append(_record(Path(tmp), seed, points, mp))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
