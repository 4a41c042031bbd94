"""Fuzzing the command line's input files: arbitrary space and weighted-graph
JSON for `validate` and `canon`, and, next to a valid space, arbitrary
problem (`norm`), Lipschitz (`downhill`), subgraph (`realizable`), candidate
(`disjoint --candidate`) and descriptor (`certify --peel`) files.  Every
input ends in exit 0, a structured error (exit 1, JSON on stderr) or a usage
error (exit 2), never a traceback."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcspace.cli import main

NAMES = st.sampled_from(["A", "B", "C", "D", "E"])
LITERALS = st.sampled_from(["1", "5/4", "3/2", "7/4", "2"])  # any matrix of these is a metric
SCALARS = (st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2, 2)
           | st.sampled_from([float("inf"), float("nan")])  # JSON 1e400, NaN
           | st.sampled_from(["0", "-1", "0.5", "1/0", "x", ""]))
JSON = st.recursive(SCALARS | NAMES | LITERALS,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=10)


def _keys(obj):
    return range(len(obj)) if isinstance(obj, list) else sorted(obj)


@st.composite
def _corrupted(draw, obj):
    """obj with up to three of its parts, at any depth, replaced by arbitrary
    JSON; with none replaced it is a valid input."""
    for _ in range(draw(st.integers(0, 3))):
        parent, key = obj, draw(st.sampled_from(_keys(obj)))
        while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(_keys(parent)))
        parent[key] = draw(JSON)
    return obj


@st.composite
def space_json(draw, min_points=0, corrupt=True):
    n = draw(st.integers(min_points, 5))
    rows = [[draw(LITERALS) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = "0"
        for j in range(i):
            rows[i][j] = rows[j][i]
    obj = {"points": draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
           "dist": rows}
    if draw(st.booleans()):
        obj["base"] = draw(NAMES)
    return draw(_corrupted(obj)) if corrupt else obj


@st.composite
def graph_json(draw):
    names = draw(st.lists(NAMES, max_size=5, unique=True))
    pairs = list(zip(names, names[1:])) + draw(st.lists(st.tuples(NAMES, NAMES), max_size=3))
    obj = {"vertices": names,
           "edges": [{"u": u, "v": v, "w": draw(LITERALS)} for u, v in pairs]}
    if draw(st.booleans()):
        obj["base"] = draw(NAMES)
    return draw(_corrupted(obj))


@st.composite
def _problem(draw, names):
    u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    mass = draw(LITERALS)
    return {"f": {u: mass, v: "-" + mass}}


@st.composite
def _input_file(draw, kind, names):
    """A valid file of the given kind for a space on these point names."""
    if kind == "problem":
        return draw(_problem(names))
    if kind == "lipschitz":
        obj = {"l": {v: draw(LITERALS) for v in draw(st.lists(st.sampled_from(names)))}}
        if draw(st.booleans()):
            obj["base"] = names[0]
        return obj
    if kind == "subgraph":
        pairs = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
        return {"edges": [{"u": u, "v": v} for u, v in draw(st.lists(pairs, max_size=4))]}
    if kind == "candidate":
        return draw(st.lists(_problem(names), min_size=1, max_size=3))
    return {"family": draw(st.sampled_from(["diamond", "recursive", "grid"])),
            "params": {"n": draw(st.integers(0, 2))},
            "generations": {v: draw(st.integers(0, 2)) for v in names}}


# The subcommand that reads each kind of file, with the file's option.
READERS = {
    "problem": ["norm", "--problem"],
    "lipschitz": ["downhill", "--lipschitz"],
    "subgraph": ["realizable", "--subgraph"],
    "candidate": ["disjoint", "--candidate"],
    "descriptor": ["certify", "--k", "3", "--peel"],
}


@st.composite
def _space_and_input(draw):
    """(a valid space, a kind, that kind's file: valid, corrupted or arbitrary)."""
    space = draw(space_json(min_points=2, corrupt=False))
    kind = draw(st.sampled_from(sorted(READERS)))
    obj = draw(_corrupted(draw(_input_file(kind, space["points"]))) | JSON)
    return space, kind, obj


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_clean_exit(argv, *objs):
    """Run argv with its {0}, {1}, ... replaced by files holding objs."""
    paths = []
    try:
        for obj in objs:
            fd, path = tempfile.mkstemp(suffix=".json")
            paths.append(path)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        code, err = _exit_code([a.format(*paths) for a in argv])
    finally:
        for path in paths:
            os.remove(path)
    assert code in (0, 1, 2)
    if code == 1:
        assert "error" in json.loads(err)


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(obj=space_json() | graph_json() | JSON, command=st.sampled_from(["validate", "canon"]))
def test_validate_and_canon_never_crash(obj, command):
    _assert_clean_exit([command, "--space", "{0}"], obj)


@FUZZ
@given(case=_space_and_input())
def test_input_files_never_crash(case):
    space, kind, obj = case
    command, *options = READERS[kind]
    _assert_clean_exit([command, "--space", "{0}", *options, "{1}"], space, obj)
