"""Fuzzing `validate` and `canon` with arbitrary space and weighted-graph
JSON files: every input ends in exit 0, a structured error (exit 1, JSON on
stderr) or a usage error (exit 2), never a traceback."""

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
           | st.sampled_from(["0", "-1", "0.5", "1/0", "x", ""]))
JSON = st.recursive(SCALARS | NAMES | LITERALS,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                    max_leaves=10)


@st.composite
def _corrupted(draw, obj):
    """obj with up to three of its parts, at any depth, replaced by arbitrary
    JSON; with none replaced it is a valid input."""
    for _ in range(draw(st.integers(0, 3))):
        parent, key = obj, draw(st.sampled_from(sorted(obj)))
        while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.booleans()):
            parent = parent[key]
            keys = range(len(parent)) if isinstance(parent, list) else sorted(parent)
            key = draw(st.sampled_from(keys))
        parent[key] = draw(JSON)
    return obj


@st.composite
def space_json(draw):
    n = draw(st.integers(0, 5))
    rows = [[draw(LITERALS) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = "0"
        for j in range(i):
            rows[i][j] = rows[j][i]
    obj = {"points": draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
           "dist": rows}
    if draw(st.booleans()):
        obj["base"] = draw(NAMES)
    return draw(_corrupted(obj))


@st.composite
def graph_json(draw):
    names = draw(st.lists(NAMES, max_size=5, unique=True))
    pairs = list(zip(names, names[1:])) + draw(st.lists(st.tuples(NAMES, NAMES), max_size=3))
    obj = {"vertices": names,
           "edges": [{"u": u, "v": v, "w": draw(LITERALS)} for u, v in pairs]}
    if draw(st.booleans()):
        obj["base"] = draw(NAMES)
    return draw(_corrupted(obj))


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(obj=space_json() | graph_json() | JSON, command=st.sampled_from(["validate", "canon"]))
def test_validate_and_canon_never_crash(obj, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, err = _exit_code([command, "--space", path])
    finally:
        os.remove(path)
    assert code in (0, 1, 2)
    if code == 1:
        assert "error" in json.loads(err)
