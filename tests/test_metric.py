import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from corpus import d_name, dijkstra_rows
from oracles import midpoint_scan
from tcspace import (
    InvalidInput,
    MetricSpace,
    NegativeDistance,
    NonSymmetric,
    TriangleViolation,
    ZeroDistanceDistinctPoints,
    metric_violations,
    space_from_weighted_graph,
    to_fraction,
    validate_metric,
    weighted_graph_json_to_space,
)
from tcspace import (
    canonical_graph,
    complete_bipartite,
    cycle,
    diamond,
    grid,
    k2n_two_port,
    metric,
    path_metric,
    recursive_family,
)
from tcspace.cli import main
from tcspace.randgen import random_metric_space
from tcspace.rational import frac_str


def test_triangle_equality_is_allowed():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    assert d_name(space, "A", "C") == 2


def test_triangle_violation_reports_the_triple():
    with pytest.raises(TriangleViolation) as err:
        validate_metric(
            ["A", "B", "C"], [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]])
    assert err.value.points == ("A", "B", "C")


def test_exact_rational_distance_from_string():
    space = validate_metric(["A", "B"], [["0", "5/2"], ["5/2", "0"]])
    assert space.d(0, 1) == Fraction(5, 2)


def test_decimal_literals_parse_exactly():
    assert to_fraction("0.125") == Fraction(1, 8)
    assert to_fraction("-2.5") == Fraction(-5, 2)


def test_huge_decimal_exponents_are_rejected_before_parsing():
    """An exponent beyond 4300 in magnitude (Python's int/str digit limit)
    would build a number of that many digits; it is rejected first."""
    for literal in ("1e10000000", "1e-10000000"):
        with pytest.raises(InvalidInput):
            to_fraction(literal)
    assert to_fraction("1e4300") == 10**4300
    assert to_fraction("12.5e-3") == Fraction(1, 80)


def test_floats_are_rejected():
    with pytest.raises(InvalidInput):
        to_fraction(0.1)


@pytest.mark.parametrize("dist,err", [
    ([["0", "1"], ["2", "0"]], NonSymmetric),
    ([["0", "-1"], ["-1", "0"]], NegativeDistance),
    ([["0", "0"], ["0", "0"]], ZeroDistanceDistinctPoints),
])
def test_axiom_violations(dist, err):
    with pytest.raises(err):
        validate_metric(["A", "B"], dist)


def test_structural_problems():
    with pytest.raises(InvalidInput):
        validate_metric(["A"], [["0"]])
    with pytest.raises(InvalidInput):
        validate_metric(["A", "B"], [["0", "1"]])
    with pytest.raises(InvalidInput):
        validate_metric(["A", "A"], [["0", "1"], ["1", "0"]])
    with pytest.raises(InvalidInput):
        validate_metric(["A", "B"], [["0", "1"], ["1", "1"]])


def test_violation_report_collects_everything():
    bad = [["0", "1", "3"], ["1", "0", "0"], ["3", "0", "0"]]
    report = metric_violations(["A", "B", "C"], bad)
    assert any(isinstance(v, ZeroDistanceDistinctPoints) for v in report)


def test_base_point_selection():
    rows = [["0", "1"], ["1", "0"]]
    assert validate_metric(["A", "B"], rows).base_point == 0
    assert validate_metric(["A", "B"], rows, base="B").base_point == 1
    assert validate_metric(["A", "B"], rows, base=1).base_point == 1
    with pytest.raises(InvalidInput):
        validate_metric(["A", "B"], rows, base="Z")


@pytest.mark.parametrize("base,message", [
    (2, "index 2 out of range"),
    (-1, "index -1 out of range"),
    (True, "boolean base True rejected"),
])
def test_a_base_point_outside_the_space_is_refused(base, message):
    with pytest.raises(InvalidInput, match=message):
        validate_metric(["A", "B"], [["0", "1"], ["1", "0"]], base=base)


@pytest.mark.parametrize("points,dist", [(3, [[0]]), (["a", "b"], [0, 1])],
                         ids=["points-not-iterable", "rows-not-iterable"])
def test_a_matrix_that_is_not_lists_is_invalid_input(points, dist):
    # The Python API's readers turn the TypeError of a non-iterable into
    # InvalidInput, for validation and for the violation report alike.
    for check in (validate_metric, metric_violations):
        with pytest.raises(InvalidInput, match="^'points' must be a list of names "
                                               "and 'dist' a list of rows$"):
            check(points, dist)


def test_vertices_that_are_not_a_list_are_invalid_input():
    with pytest.raises(InvalidInput, match="^'vertices' must be a list of names$"):
        space_from_weighted_graph(3, [])


def test_json_round_trip():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        base="B")
    again = MetricSpace.from_json_obj(space.to_json_obj())
    assert again == space
    assert again is not space and len({space, again}) == 1  # equal spaces hash alike


def test_weighted_graph_input_gives_path_metric():
    space = space_from_weighted_graph(
        ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")])
    assert d_name(space, "A", "C") == 3


def test_weighted_graph_json_parsing():
    obj = {"vertices": ["A", "B"], "edges": [{"u": "A", "v": "B", "w": "1/2"}]}
    space = weighted_graph_json_to_space(obj)
    assert d_name(space, "A", "B") == Fraction(1, 2)


def test_weighted_graph_shortcut_tightens_metric():
    # The direct A-C edge is longer than the path through B.
    space = space_from_weighted_graph(
        ["A", "B", "C"],
        [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "5")])
    assert d_name(space, "A", "C") == 2


def test_disconnected_weighted_graph_rejected():
    with pytest.raises(InvalidInput):
        space_from_weighted_graph(
            ["A", "B", "C", "D"], [("A", "B", "1"), ("C", "D", "1")])


def test_restrict_keeps_distances():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    sub = space.restrict([0, 2])
    assert sub.points == ("A", "C")
    assert sub.d(0, 1) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=3, max_size=10))
def test_distances_in_unit_band_always_form_a_metric(raws):
    # d in [1, 2] satisfies every triangle inequality automatically.
    n = 0
    while n * (n - 1) // 2 <= len(raws):
        n += 1
    n -= 1
    if n < 2:
        n = 2
        raws = raws + [0]
    rows = [[Fraction(0)] * n for _ in range(n)]
    it = iter(raws)
    for i in range(n):
        for j in range(i + 1, n):
            d = 1 + Fraction(next(it, 6), 12)
            rows[i][j] = rows[j][i] = d
    space = validate_metric([f"P{i}" for i in range(n)], rows)
    assert space.n == n


def test_validate_metric_coerces_each_entry_once(monkeypatch):
    """Exactly one to_fraction call per distinct (type, literal), not per entry."""
    seen = []
    monkeypatch.setattr(metric, "to_fraction", lambda x: seen.append(x) or to_fraction(x))
    validate_metric(["A", "B", "C"],
                    [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    assert seen == ["0", "1", "2"]
    seen.clear()
    validate_metric(["A", "B"], [[0, "1"], [1, "0"]])
    assert seen == [0, "1", 1, "0"]
    seen.clear()
    space_from_weighted_graph("ABCD", [("A", "B", "1"), ("B", "C", "1"), ("C", "D", 1),
                                       ("A", "D", "1"), ("A", "C", 2), ("B", "D", "2")])
    assert seen == ["1", 1, 2, "2"]


# --- the JSON boundary: each distinct literal parsed and printed once --------

@pytest.mark.parametrize("odd,message", [
    (True, "boolean True rejected: pass a number"),
    (False, "boolean False rejected: pass a number"),
    (1.0, "float 1.0 rejected: pass an exact string or Fraction"),
    ([1], "cannot convert list to a rational"),
    ({"a": 1}, "cannot convert dict to a rational"),
    (None, "cannot convert NoneType to a rational"),
], ids=["true", "false", "float", "list", "object", "null"])
def test_entries_equal_to_a_valid_one_are_still_rejected(odd, message):
    """The memo is keyed by type: 1 (or 0) parsed first does not let True,
    False or 1.0 through, and unhashable entries are rejected as before."""
    rows = [[0, 1, odd], [1, 0, 1], [odd, 1, 0]]
    for check in (validate_metric, metric_violations):
        with pytest.raises(InvalidInput) as err:
            check(["A", "B", "C"], rows)
        assert str(err.value) == message
    with pytest.raises(InvalidInput) as err:
        space_from_weighted_graph("ABC", [("A", "B", 1), ("B", "C", 1), ("A", "C", odd)])
    assert str(err.value) == message


@pytest.mark.parametrize("edges,message", [
    ([("A", "B", "x"), ("B", "Z", "1")], "cannot parse rational literal 'x'"),
    ([("A", "B", "1"), ("B", "Z", "x")], "edge (B,Z) uses an unknown vertex"),
    ([("A", "B", "1"), ("B", "C", "x"), ("C", "A", True)], "cannot parse rational literal 'x'"),
    ([("A", "B", "1"), ("B", "C", 1.5), ("B", "A", "1")],
     "float 1.5 rejected: pass an exact string or Fraction"),
    ([("A", "B", "1"), ("A", "B", "y")], "duplicate edge {A,B}"),
    ([("A", "B", "1"), ("B", "C", "-1")], "edge weights must be positive"),
], ids=["weight-first", "vertex-first", "first-literal", "float", "duplicate", "sign"])
def test_a_graph_reports_its_first_invalid_edge(edges, message):
    """Edges are checked in order, each weight literal as its edge is read."""
    with pytest.raises(InvalidInput) as err:
        space_from_weighted_graph("ABC", edges)
    assert str(err.value) == message


SQUARE = "distance matrix must be square, one row per point"


@pytest.mark.parametrize("rows,message", [
    ([["0", "1", "2"], ["1", "0"], ["2", "1", "0"]], SQUARE),
    ([["0", "1", "2"], ["1", "0", "1", "1"], ["2", "1", "0"]], SQUARE),
    ([["0", "x", "2"], ["1", "0"], ["2", "1", "0"]], "cannot parse rational literal 'x'"),
    ([["0", "1", "2"], ["1", "0"], ["x", "1", "0"]], SQUARE),
], ids=["short", "long", "literal-first", "row-first"])
def test_a_matrix_reports_its_first_invalid_row(rows, message):
    """Rows are read in order up to the first of the wrong length: an
    invalid literal before it raises first, one after it is never read."""
    for check in (validate_metric, metric_violations):
        with pytest.raises(InvalidInput) as err:
            check(["A", "B", "C"], rows)
        assert str(err.value) == message


def test_equal_values_written_differently_validate_and_rows_share_objects():
    space = validate_metric(["A", "B", "C"],
                            [[0, 1, "2"], ["2/2", "0", "1"], ["4/2", Fraction(1), "0"]])
    assert space.dist == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert MetricSpace.from_json_obj(space.to_json_obj()) == space
    rng = random.Random(5)
    n = 12
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i] = rng.choice(["5/4", "3/2", "7/4"])  # always a metric
    space = validate_metric([f"p{i}" for i in range(n)], rows)
    distinct = {id(x) for row in space.dist for x in row}
    assert len(distinct) == len({x for row in rows for x in row})
    assert space.dist[0][1] is space.dist[1][0]


def test_json_output_bytes_are_pinned(tmp_path, monkeypatch):
    """`gen` files and to_json_obj are byte for byte those of per-entry
    formatting (digests recorded before the output was memoized), the
    benchmark's largest `gen` files are those of the Floyd-Warshall
    generators (digests recorded before the families' metrics came from
    their construction), and the recursive families' space and descriptor
    files are those of per-level two-port graphs (digests recorded before
    one composition step built every level), and the cycle and complete
    bipartite files are those of the named-graph reader before it was
    split from the generators' certificate."""
    monkeypatch.setenv("TCSPACE_MAX_POINTS", "64")
    digests = {  # args: (space file, descriptor file)
        "diamond --n 3": ("1a5030a9beab4eba36ab9c427f491c3aa9d761c10363217dbe7ea9479ce785d7",
                          "bcf0f8268b6b1ad624f02212ef12a0077cb26637171587f1075178e42d527bac"),
        "recursive --base k2n --legs 3 --n 2":
            ("bf14752eb4e20aae2239687fe0b016ff49d0bdad1bf206fcc82d73b1aa27b6af",
             "90dbe7509d54c7ba491b7d33e8a4e5feba1a0b7f7feb758d4c058da2e675133f"),
        "recursive --base quadrilateral --n 3":
            ("a90db1a7f005dea5bd4168fd2c0686e9796538951a6ac1514c1f507c1a82783f",
             "1fab509068221f00fa1ad7d73f16de2d14c929d6a6309c89aa79996433506396"),
        "grid --n 5": ("dd940b2af508400d2f765ebcfa240a1c7e1b2410024415d356f6c2e0a5c8a081", None),
        "cycle --n 7": ("a4df6accb39384dc065ae9c3715a01aaed44f238d64417aac720f695e7e87b2d", None),
        "complete-bipartite --m 2 --n 4":
            ("3d34fd711f1417ef408e30326740c5243d3c670a1c76bb6aefd4d6fa68a94e96", None),
    }
    large = {
        "diamond --n 5": ("29dcf03f6c71a73b19208ed08e3e0e89648b906f918e0dcf39cc127460fd7ffb",
                          "d4f5774d9675886da8977ca525e7df1e1d2d4217fe3fcc5dcf96e0bcd41457fa"),
        "recursive --base k2n --legs 3 --n 4":
            ("21124730ee277ad74f21c5041e4c79ebb62bc123d35295f7a20df67ef4ef3fc9",
             "61ce05305a1d74aeb6378b21e8ef10c4bd6d74b5d8e6fa30ed8fb40514c355de"),
        "grid --n 16": ("8427dd30c0e7c197e60f6255871b824aa90ae22b466eade8e9c1b3d6cf10803f", None),
    }
    for args, (digest, descriptor_digest) in [*digests.items(), *large.items()]:
        if args in large:
            monkeypatch.setenv("TCSPACE_MAX_POINTS", "1000")
        out, desc = tmp_path / "space.json", tmp_path / "space.desc.json"
        argv = ["gen", *args.split(), "--out", str(out)]
        if descriptor_digest:
            argv += ["--descriptor-out", str(desc)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
        if descriptor_digest:
            assert hashlib.sha256(desc.read_bytes()).hexdigest() == descriptor_digest, args
    n = 9
    # Distances in [1, 2) always form a metric.
    rows = tuple(tuple(Fraction(0) if i == j else Fraction(8 + (i + j) % 8, 8)
                       for j in range(n)) for i in range(n))  # no two entries share an object
    assert len({id(x) for row in rows for x in row}) == n * n
    space = validate_metric([f"q{i}" for i in range(n)], rows, base=2)
    assert space.to_json_obj() == {
        "points": list(space.points),
        "dist": [[frac_str(x) for x in row] for row in rows],
        "base": "q2",
    }


# --- the integer metric core: one scan at every width ---------------------

BIG = 2**60  # scaled copies overflow int64 sums: the scan runs on Python ints
# The pool's entries are at most 6 in magnitude, with denominators 1, 2 or 3,
# so its matrices scaled by these factors run in these dtypes.
SCALES = (1, 2**8, 2**16, 2**32, BIG)
WIDTHS = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64, object)]


def _reference_violations(names, rows):
    """metric_violations by brute force: a per-pair Fraction loop, then the
    first triangle violation of a midpoint-major triple loop."""
    out = []
    n = len(names)
    for i in range(n):
        if rows[i][i] != 0:
            out.append((InvalidInput, None, f"self-distance of {names[i]!r} must be 0"))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = names[i], names[j]
            if rows[i][j] != rows[j][i]:
                out.append((NonSymmetric, (a, b), f"d({a},{b}) != d({b},{a})"))
            elif rows[i][j] < 0:
                out.append((NegativeDistance, (a, b), f"d({a},{b}) < 0"))
            elif rows[i][j] == 0:
                out.append((ZeroDistanceDistinctPoints, (a, b),
                            f"d({a},{b}) = 0 for distinct points"))
    if out:
        return out
    for j in range(n):
        for i in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    a, b, c = names[i], names[j], names[k]
                    return [(TriangleViolation, (a, b, c),
                             f"d({a},{c}) > d({a},{b}) + d({b},{c})")]
    return out


def _described(violations):
    return [(type(v), getattr(v, "points", None), str(v)) for v in violations]


def _matrix_pool():
    """Small rational matrices: metrics, near-metrics with triangle
    violations, and matrices breaking the diagonal, symmetry and sign axioms
    (several at once)."""
    rng = random.Random(7)
    pool = []
    for _ in range(120):
        n = rng.randint(2, 7)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = Fraction(rng.randint(-2, 3), rng.choice((1, 2)))
            if rng.random() < 0.5:
                rows[j][i] = rows[i][j]
        pool.append(rows)
    return pool


def _dtype_spy(monkeypatch, name, arg=-1):
    """The dtypes of the matrix argument (positional index arg) of each call
    of metric's function name."""
    seen = []
    real = getattr(metric, name)
    monkeypatch.setattr(metric, name, lambda *a: seen.append(a[arg].dtype) or real(*a))
    return seen


def test_violations_match_a_brute_force_reference_at_every_width(monkeypatch):
    seen = _dtype_spy(monkeypatch, "_violations")
    kinds = set()
    for rows in _matrix_pool():
        names = [f"P{i}" for i in range(len(rows))]
        want = _reference_violations(names, rows)
        kinds.update(kind for kind, _, _ in want)
        seen.clear()
        for scale in SCALES:
            scaled = [[x * scale for x in row] for row in rows]
            assert _reference_violations(names, scaled) == want
            assert _described(metric_violations(names, scaled)) == want
        assert seen == WIDTHS
        if want:
            with pytest.raises(want[0][0]) as err:
                validate_metric(names, scaled)
            assert _described([err.value]) == want[:1]
    assert kinds == {InvalidInput, NonSymmetric, NegativeDistance,
                     ZeroDistanceDistinctPoints, TriangleViolation}


def _verdict_spy(monkeypatch):
    """(dtype, first violation or None) of each call of metric._matrix_mask."""
    seen = []
    real = metric._matrix_mask

    def spy(mat):
        hit, mask = real(mat)
        seen.append((mat.dtype, hit))
        return hit, mask

    monkeypatch.setattr(metric, "_matrix_mask", spy)
    return seen


def test_first_triangle_violation_is_the_same_at_every_width(monkeypatch):
    seen = _verdict_spy(monkeypatch)
    rows = [[0, 1, 5, 9], [1, 0, 1, 3], [5, 1, 0, 1], [9, 3, 1, 0]]
    found = []
    for scale in SCALES:
        with pytest.raises(TriangleViolation) as err:
            validate_metric(["A", "B", "C", "D"], [[x * scale for x in r] for r in rows])
        found.append(err.value.points)
    assert found == [("A", "B", "C")] * len(SCALES)
    assert seen == [(width, (0, 1, 2)) for width in WIDTHS]


# No shrinking: each example validates up to 90 points at five widths, and a
# failure took minutes to shrink; the failing n and random state are printed.
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(3, 90), st.randoms(use_true_random=False))
def test_triangle_violations_are_the_scans_at_every_width(n, rng):
    """Random non-metrics of up to 90 points (above 40 the certificate is
    tried first and falls back to the definition, over several blocks of
    rows): at every width the violation names midpoint_scan's triple.
    Distances in 4..7 form a metric; one to three pairs are then set
    above a path through a third point, so the violations are few and the
    least midpoint may lie in any block."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(i):
            rows[i][k] = rows[k][i] = rng.randint(4, 7)
    for _ in range(rng.randint(1, 3)):
        i, j, k = rng.sample(range(n), 3)
        rows[i][k] = rows[k][i] = rows[i][j] + rows[j][k] + 1
    names = [f"P{x}" for x in range(n)]
    widths = []
    for scale in SCALES:
        mat = np.array([[x * scale for x in row] for row in rows], dtype=object)
        mat = mat.astype(metric._int_dtype(int(mat.max())))
        widths.append(mat.dtype)
        hit, _ = midpoint_scan(mat)
        assert hit is not None
        with pytest.raises(TriangleViolation) as err:
            validate_metric(names, mat.tolist())
        assert err.value.points == tuple(names[x] for x in hit)
    assert widths == WIDTHS


def _peak_metrics(peak):
    """Two 4-point matrices of largest entry peak, where sums of two entries
    reach 2 * peak: a metric (C splits A-B, D is at distance peak from all),
    and the same with d(A,C) one less, which breaks d(A,B) <= d(A,C) + d(C,B)."""
    a = peak // 2
    b = peak - a
    valid = [[0, peak, a, peak], [peak, 0, b, peak], [a, b, 0, peak], [peak, peak, peak, 0]]
    broken = [row[:] for row in valid]
    broken[0][2] = broken[2][0] = a - 1
    return valid, broken


@pytest.mark.parametrize("narrower, width, bound, wider", [
    (None, np.int8, 2**6, np.int16),
    (np.int8, np.int16, 2**14, np.int32),
    (np.int16, np.int32, 2**30, np.int64),
    (np.int32, np.int64, 2**59, object),
])
def test_each_width_is_exact_up_to_its_bound(monkeypatch, narrower, width, bound, wider):
    # peak = bound - 1 is the width's largest; its sums would wrap in the
    # narrower dtype.  peak = bound is the wider dtype's smallest; a doubled
    # bound would scan it at this width, where for int8 to int32 its sums wrap.
    seen = _dtype_spy(monkeypatch, "_violations")
    names = ["A", "B", "C", "D"]
    for peak in (bound - 1, bound):
        if narrower is not None:
            assert 2 * peak > np.iinfo(narrower).max
        valid, broken = _peak_metrics(peak)
        assert _reference_violations(names, valid) == []
        assert [kind for kind, _, _ in _reference_violations(names, broken)] == [TriangleViolation]
        for rows in (valid, broken):
            assert _described(metric_violations(names, rows)) == _reference_violations(names, rows)
        edges = canonical_graph(validate_metric(names, valid)).edges
        assert [(e.tail, e.head) for e in edges] == _reference_edges(valid)
    assert seen == [np.dtype(width)] * 3 + [np.dtype(wider)] * 3


def test_scaled_matrix_matches_a_per_entry_reference():
    """_coerce_matrix scales each distinct literal once; the matrix and D are
    those of scaling entry by entry, whether the rows are literals, Fractions
    shared as parsed from JSON, or fresh Fractions."""
    literals = [["0", "1/2", "2/3", "7/5"], ["1/2", "0", "1/2", "2"],
                ["2/3", "1/2", "0", "2/3"], ["7/5", "2", "2/3", "0"]]
    # The lcm of the denominators stays 30, so the scaled peak is 60 * factor.
    cases = [(1, np.int8), (7, np.int16), (7**3, np.int32), (7**9, np.int64),
             (7**19, object)]
    for factor, dtype in cases:
        text = [[str(to_fraction(x) * factor) for x in row] for row in literals]
        parsed = {x: to_fraction(x) for row in text for x in row}
        shared = tuple(tuple(parsed[x] for x in row) for row in text)
        fresh = tuple(tuple(Fraction(x) for x in row) for row in text)
        assert len({id(x) for row in shared for x in row}) < 16
        assert len({id(x) for row in fresh for x in row}) == 16
        assert shared == fresh
        denom = lcm(*(x.denominator for row in fresh for x in row))
        want = [[x.numerator * denom // x.denominator for x in row] for row in fresh]
        for rows in (text, shared, fresh):
            names, got, mat = metric._coerce_matrix("ABCD", rows)
            assert names == tuple("ABCD") and got == denom
            assert mat.dtype == np.dtype(dtype)
            assert mat.tolist() == want


def test_canonical_edges_are_the_same_in_both_dtypes(monkeypatch):
    """Validating a matrix runs its min-plus kernel at the matrix's width
    (every width over SCALES, object for the copies scaled by BIG) and
    reports no violation; the canonical graphs reuse the proven mask.  (These
    spaces are small enough for the dense kernel, so the test keeps them on
    the certificate, which larger ones take.)"""
    rng = random.Random(11)
    spaces = [random_metric_space(rng, n) for n in (3, 5, 8, 12) for _ in range(3)]
    spaces += [cycle(6), complete_bipartite(2, 3)]
    _certificate_route(monkeypatch)
    seen = _dtype_spy(monkeypatch, "_min_plus", 0)
    verdicts = _verdict_spy(monkeypatch)
    widths = set()
    for space in spaces:
        for scale in SCALES:
            seen.clear()
            scaled = validate_metric(space.points, [[x * scale for x in row] for row in space.dist])
            assert seen and set(seen) == {scaled.scaled.dtype}
            widths.add(scaled.scaled.dtype)
        big = scaled
        assert seen[0] == np.dtype(object)
        seen.clear()
        edges = canonical_graph(space).edges
        big_edges = canonical_graph(big).edges
        assert seen == []  # both graphs reuse the mask validation proved
        assert [(e.tail, e.head, e.weight * BIG) for e in edges] == list(big_edges)
        assert [(e.tail, e.head) for e in edges] == _reference_edges(space.dist)
    assert widths == set(WIDTHS)
    assert len(verdicts) == len(spaces) * len(SCALES)
    assert {hit for _, hit in verdicts} == {None}


def _reference_edges(d):
    """Canonical-graph pairs i < k by brute force: no third point j with
    d(i,j) + d(j,k) = d(i,k)."""
    n = len(d)
    return [(i, k) for i in range(n) for k in range(i + 1, n)
            if all(d[i][j] + d[j][k] != d[i][k] for j in range(n) if j not in (i, k))]


def test_the_mask_is_dropped_by_restrict():
    """A restriction carries a mask of its own, the scan's, not a slice of
    its parent's: on C_6, 2 and 4 lose their midpoint 3 and become an edge."""
    space = cycle(6)
    sliced = []
    for keep in (list(range(space.n)), [0, 1, 2, 4], [0, 1, 2]):
        sub = space.restrict(keep)
        assert np.array_equal(sub._deletion_mask, midpoint_scan(sub.scaled)[1])
        again = validate_metric(sub.points, sub.dist)
        assert canonical_graph(sub).edges == canonical_graph(again).edges
        sliced.append(np.array_equal(sub._deletion_mask, space._deletion_mask[np.ix_(keep, keep)]))
    assert sliced == [True, False, True]
    assert canonical_graph(space.restrict(list(range(space.n)))).edges == canonical_graph(space).edges


def test_weighted_graphs_are_validated_without_a_fraction_round_trip(monkeypatch):
    scans = []
    real = metric._violations
    monkeypatch.setattr(metric, "validate_metric", _forbidden)
    monkeypatch.setattr(metric, "path_metric", _forbidden)
    monkeypatch.setattr(metric, "_violations", lambda *a: scans.append(a) or real(*a))
    space = space_from_weighted_graph(
        ["A", "B", "C", "D"], [("A", "B", "1"), ("B", "C", "1/2"), ("C", "D", "1")])
    assert len(scans) == 1
    assert space._deletion_mask is not None
    assert space.dist == validate_metric(space.points, space.dist).dist
    assert all(type(x) is Fraction for row in space.dist for x in row)


def _forbidden(*args, **kwargs):
    raise AssertionError("called")


# --- a weighted graph's mask: its edges, certified --------------------------

def _graph_spaces():
    """Spaces built from weighted graphs: random_metric_space's graph branch
    (at 3 to 12 points), a dense random graph on 90 points whose edge test
    runs in several blocks, the non-geodesic chord, also scaled by BIG, the
    centred path, and families."""
    # A generator whose first draw is at least 1/2 takes the graph branch.
    seeds = [seed for seed in range(80) if random.Random(seed).random() >= 0.5]
    spaces = [random_metric_space(random.Random(seed), 3 + seed % 10) for seed in seeds]
    rng = random.Random(23)
    names = [f"q{i}" for i in range(90)]
    spaces.append(space_from_weighted_graph(
        names, [(names[i], names[j], Fraction(rng.randint(4, 9), rng.choice((2, 3))))
                for i in range(90) for j in range(i) if rng.random() < 0.8]))
    spaces.append(space_from_weighted_graph(*_non_geodesic_graph()))
    vertices, edges = _non_geodesic_graph()
    spaces.append(space_from_weighted_graph(  # at object dtype
        vertices, [(u, v, to_fraction(w) * BIG) for u, v, w in edges]))
    spaces.append(space_from_weighted_graph(
        "ABCDE", [("ABCDE"[u], "ABCDE"[v], w) for u, v, w in _CENTRED_PATH]))
    spaces += [cycle(5), cycle(6), grid(6), diamond(3)[0],
               recursive_family(k2n_two_port(3), 2)[0]]
    return spaces


def test_a_graph_mask_is_the_scan_mask():
    spaces = _graph_spaces()
    assert len(spaces) > 40
    assert {space.scaled.dtype for space in spaces} >= {np.dtype(np.int8), np.dtype(np.int16),
                                                       np.dtype(object)}
    for space in spaces:
        hit, mask = midpoint_scan(space.scaled)
        assert hit is None
        assert np.array_equal(space._deletion_mask, mask)
        edges = canonical_graph(space).edges
        assert [(e.tail, e.head) for e in edges] == _reference_edges(space.dist)


def test_weighted_graphs_run_no_midpoint_scan(monkeypatch):
    """Neither a weighted graph nor a valid matrix (the graphs' path
    metrics, the 90-point one decided by the definition after its sure
    edges leave pairs open) finds a violation, and each matrix gives its
    graph's mask; an invalid matrix reports its first violation."""
    verdicts = _verdict_spy(monkeypatch)
    spaces = _graph_spaces()
    assert len(spaces) > 40
    built = len(verdicts)
    assert built >= len(spaces)
    for space in spaces:
        again = validate_metric(space.points, space.dist)
        assert again == space
        assert np.array_equal(again._deletion_mask, space._deletion_mask)
    assert len(verdicts) == built + len(spaces)
    assert {hit for _, hit in verdicts} == {None}
    verdicts.clear()
    with pytest.raises(TriangleViolation) as err:
        validate_metric(["A", "B", "C"], [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]])
    assert err.value.points == ("A", "B", "C")
    assert verdicts == [(np.dtype(np.int8), (0, 1, 2))]


@pytest.mark.parametrize("graph", ["triangle", "chord", "non-geodesic", "cycle", "diamond"])
def test_a_wrong_path_metric_is_refused_by_the_certificate(monkeypatch, graph):
    """Floyd-Warshall with one distance (both entries) one too high, or one
    too low where it stays positive: every such matrix fails an assertion.
    On the unit triangle, d(A,C) = 2 is the path metric of the other two
    edges, and only the weight of A-C refutes it.  On the chord graph,
    d(A,C) = 2 instead of 7/3 puts every distance in whole units, and the
    certificate, which runs at the unit of the weights, thirds, refutes it."""
    vertices, edges = {
        "triangle": (["A", "B", "C"], [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "1")]),
        "chord": (["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2"), ("A", "C", "7/3")]),
        "non-geodesic": _non_geodesic_graph(),
        "cycle": ([f"c{i}" for i in range(6)],
                  [(f"c{i}", f"c{(i + 1) % 6}", "1/2") for i in range(6)]),
        "diamond": ([f"d{i}" for i in range(4)],
                    [("d0", "d1", "1"), ("d0", "d2", "1"), ("d1", "d3", "1"),
                     ("d2", "d3", "1")]),
    }[graph]
    n = len(vertices)
    rows = metric._path_rows(n, [(vertices.index(u), vertices.index(v), to_fraction(w))
                                 for u, v, w in edges])[0]
    right = space_from_weighted_graph(vertices, edges)
    real = metric._floyd_warshall
    shift = []  # (i, k, delta): d(i, k) and d(k, i) moved by delta

    def off_by_one(*args):
        mat = real(*args)
        for i, k, delta in shift:
            mat[i, k] += delta
            mat[k, i] += delta
        return mat

    monkeypatch.setattr(metric, "_floyd_warshall", off_by_one)
    refused = 0
    for i in range(n):
        for k in range(i + 1, n):
            for delta in (1, -1):
                if rows[i, k] + delta > 0:
                    shift[:] = [(i, k, delta)]
                    with pytest.raises(AssertionError, match="path metric"):
                        space_from_weighted_graph(vertices, edges)
                    refused += 1
    assert refused >= n * (n - 1) // 2
    shift.clear()
    assert space_from_weighted_graph(vertices, edges) == right


def test_each_mask_is_checked_by_one_min_plus_step(monkeypatch):
    """Every validated space carries a mask proven by one _matrix_mask, whose
    min-plus step (_min_plus) runs once over the sure edges, and
    canonical_graph checks none of them again: a matrix's or a weighted
    graph's path metric's mask by that step alone when it closes (grid(4)),
    or by the definition after it, where the sure edges leave a pair open
    (the path P-A-B-Q); a restricted space's by the same routine in
    restrict.  All of them on the certificate route, as larger spaces take it."""
    _certificate_route(monkeypatch)
    steps, masks = [], []
    real_step, real_mask = metric._min_plus, metric._matrix_mask
    monkeypatch.setattr(metric, "_min_plus", lambda *a: steps.append(a) or real_step(*a))
    monkeypatch.setattr(metric, "_matrix_mask", lambda *a: masks.append(a) or real_mask(*a))
    definitions = _definition_runs(monkeypatch)

    def counted(build):
        for seen in (steps, definitions, masks):
            seen.clear()
        return build(), len(steps), len(definitions), len(masks)

    space, *counts = counted(lambda: grid(4))
    assert counts == [1, 0, 1]
    path = space_from_weighted_graph(*_long_middle_path())
    for built, opened in ((lambda: validate_metric(space.points, space.dist), 0),
                          (lambda: validate_metric(path.points, path.dist), 1)):
        matrix, *counts = counted(built)
        assert counts == [1, opened, 1]
        _, *counts = counted(lambda: canonical_graph(matrix))
        assert counts == [0, 0, 0]
    _, *counts = counted(lambda: space_from_weighted_graph(*_long_middle_path()))
    assert counts == [1, 1, 1]
    _, *counts = counted(lambda: canonical_graph(space))
    assert counts == [0, 0, 0]
    # A unit square, then every other point of the 4 x 4 grid.
    for keep, opened in (([0, 1, 4, 5], 0), (list(range(0, 16, 2)), 1)):
        sub, *counts = counted(lambda: space.restrict(keep))
        assert counts == [1, opened, 1]
        _, *counts = counted(lambda: canonical_graph(sub))
        assert counts == [0, 0, 0]


# --- a matrix's mask: sure edges and one min-plus certificate ---------------

def _assert_the_scan_verdict(mat):
    """_matrix_mask(mat) is midpoint_scan(mat): the same first violation,
    or the same mask; returns the violation."""
    hit, mask = midpoint_scan(mat)
    got_hit, got_mask = metric._matrix_mask(mat)
    assert got_hit == hit
    assert (got_mask is None) if mask is None else np.array_equal(got_mask, mask)
    return hit


def _peel_levels(space, generations):
    """The restrictions of a family's space to generations <= j, each level
    below the top, as certify --peel builds them."""
    gens = [generations[name] for name in space.points]
    return [space.restrict([v for v in range(space.n) if gens[v] <= j])
            for j in range(max(gens))]


def _certificate_route(monkeypatch):
    """Send every matrix of any size first to _matrix_mask's certificate
    (the sure edges and one min-plus step), as larger ones go."""
    monkeypatch.setattr(metric, "_dense_fits", lambda mat: False)


def _definition_runs(monkeypatch):
    """The sizes of the matrices whose mask the definition decided, one
    entry per run: it alone asks _block_rows for rows of n^2 sums (a row of
    a min-plus block holds degree x n < n^2)."""
    runs = []
    real = metric._block_rows
    monkeypatch.setattr(metric, "_block_rows", lambda mat, width: (
        width == mat.size and runs.append(len(mat))) or real(mat, width))
    return runs


def test_a_matrix_mask_is_the_scan_mask_on_random_spaces(monkeypatch):
    """random_metric_space at 2 to 64 points, matrix and graph branch: the
    mask is the scan's, validation keeps it proven, and the definition
    decides the graph branch's non-uniform path metrics, whose sure edges
    leave pairs open, at every size.  All of them on the certificate route,
    as spaces above the dense kernel's size take it."""
    _certificate_route(monkeypatch)
    definitions = _definition_runs(monkeypatch)
    sizes = [n for n in range(2, 25) for _ in range(8)] + [32, 40, 48, 64] * 3
    decided = []
    for seed, n in enumerate(sizes):
        space = random_metric_space(random.Random(seed), n)
        definitions.clear()
        assert _assert_the_scan_verdict(space.scaled) is None
        decided.append(len(definitions))
        again = validate_metric(space.points, space.dist)
        assert np.array_equal(again._deletion_mask, midpoint_scan(space.scaled)[1])
    assert set(decided) == {0, 1}
    assert sum(decided) > len(sizes) // 5
    assert {n for n, runs in zip(sizes, decided) if runs} >= {32, 40, 48, 64}


def test_a_matrix_mask_is_the_scan_mask_on_the_families_and_their_peel_levels():
    """Every family space, every peel level from restrict, and copies
    scaled by BIG (object dtype) of the smaller ones."""
    spaces = [cycle(n) for n in range(3, 10)] + [grid(n) for n in range(2, 9)]
    spaces += [complete_bipartite(2, 3), complete_bipartite(3, 4)]
    for space, desc in [diamond(n) for n in range(1, 5)] + [
            recursive_family(k2n_two_port(legs), n) for legs in (2, 3) for n in range(1, 4)]:
        spaces += [space, *_peel_levels(space, desc.generations)]
    assert max(space.n for space in spaces) >= 172
    big = 0
    for space in spaces:
        assert _assert_the_scan_verdict(space.scaled) is None
        if space.n <= 40:
            copy = space.scaled.astype(object) * BIG
            assert _assert_the_scan_verdict(copy) is None
            big += 1
    assert big > 20


def test_a_matrix_mask_is_the_scan_mask_at_int8_up_to_63():
    """Matrices whose entries reach 63, the largest at int8 (sums up to
    126): metrics with entries in [32, 63], path metrics of weighted paths
    and cycles of diameter 63, and matrices with entries in [1, 63] that are
    mostly not metrics."""
    rng = random.Random(29)
    mats = []
    for _ in range(150):
        n = rng.randint(2, 20)
        low = 32 if rng.random() < 0.5 else 1
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(low, 63)
        rows[0][n - 1] = rows[n - 1][0] = 63
        mats.append(rows)
    for n in range(3, 12):
        cuts = sorted(rng.sample(range(1, 63), n - 2))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [63])]
        mats.append(dijkstra_rows(metric._adjacency(n, [(i, i + 1, w) for i, w in
                                                        enumerate(weights)])))
        m = 2 * (n - 1)  # the path's weights twice around: its antipodes are 63 apart
        mats.append(dijkstra_rows(metric._adjacency(m, [(i, (i + 1) % m, w) for i, w in
                                                        enumerate(weights * 2)])))
    verdicts = set()
    for rows in mats:
        mat = np.array(rows)
        assert int(mat.max()) == 63
        mat = mat.astype(metric._int_dtype(63))
        assert mat.dtype == np.int8
        verdicts.add(_assert_the_scan_verdict(mat) is None)
    assert verdicts == {True, False}


def test_the_definition_decides_the_pairs_the_sure_edges_leave_open(monkeypatch):
    """Path metrics of weighted graphs with non-uniform weights, passed as
    matrices: their masks are the scan's (and the graph route's) although
    the sure edges and their min-plus step leave pairs open.  All of them
    on the certificate route, as spaces above the dense kernel's size take
    it."""
    _certificate_route(monkeypatch)
    definitions = _definition_runs(monkeypatch)
    spaces = _graph_spaces() + [space_from_weighted_graph(*_long_middle_path())]
    opened = 0
    for space in spaces:
        definitions.clear()
        assert _assert_the_scan_verdict(space.scaled) is None
        opened += len(definitions)
        assert validate_metric(space.points, space.dist) == space
        assert np.array_equal(validate_metric(space.points, space.dist)._deletion_mask,
                              space._deletion_mask)
    assert opened > 20


def test_the_dense_kernel_is_the_certificate_and_the_scan(monkeypatch):
    """_matrix_mask by either route, forced through its size gate, gives
    midpoint_scan's first violation or its mask, at every width: the
    pool's matrices with a clean diagonal, symmetry and sign, random spaces
    at 2 to 40 points, and copies of them with one distance moved by one
    or tripled."""
    mats = []
    for rows in _matrix_pool():
        n = len(rows)
        if all(rows[i][k] == rows[k][i] and (rows[i][k] > 0) == (i != k)
               for i in range(n) for k in range(n)):
            denom = lcm(*(x.denominator for row in rows for x in row))
            mats.append([[int(x * denom) for x in row] for row in rows])
    rng = random.Random(41)
    for n in range(2, 41):
        rows = random_metric_space(rng, n).scaled.tolist()
        mats.append(rows)
        i, k = rng.sample(range(n), 2)
        for moved in (max(1, rows[i][k] + rng.choice((1, -1))), 3 * rows[i][k]):
            copy = [row[:] for row in rows]
            copy[i][k] = copy[k][i] = moved
            mats.append(copy)
    widths, verdicts = set(), set()
    for rows in mats:
        for scale in SCALES:
            mat = np.array([[x * scale for x in row] for row in rows], dtype=object)
            mat = mat.astype(metric._int_dtype(int(mat.max())))
            widths.add(mat.dtype)
            hit, mask = midpoint_scan(mat)
            verdicts.add(hit is None)
            for dense in (True, False):
                monkeypatch.setattr(metric, "_dense_fits", lambda mat, dense=dense: dense)
                got_hit, got_mask = metric._matrix_mask(mat)
                assert got_hit == hit
                assert (got_mask is None) if mask is None else np.array_equal(got_mask, mask)
    assert widths == set(WIDTHS)
    assert verdicts == {True, False}


def test_small_spaces_take_the_dense_kernel_and_large_ones_the_certificate(monkeypatch):
    """The gate sends 10 and 40 points to the dense kernel, which runs no
    min-plus step, and 41 and 64 points to the certificate."""
    steps = []
    real = metric._min_plus
    monkeypatch.setattr(metric, "_min_plus", lambda *a: steps.append(a) or real(*a))
    for n, certified in ((10, False), (40, False), (41, True), (64, True)):
        space = random_metric_space(random.Random(n), n)
        steps.clear()
        assert np.array_equal(validate_metric(space.points, space.dist)._deletion_mask,
                              space._deletion_mask)
        assert bool(steps) == certified, n


def _uneven_path_metric(rng, n, most=3):
    """The path metric of a random connected graph on n points, a random
    tree plus a tenth of the other pairs, with integer weights in 1..most:
    uneven weights, so its sure edges leave canonical pairs open."""
    edges = [(rng.randrange(i), i, rng.randint(1, most)) for i in range(1, n)]
    edges += [(i, j, rng.randint(1, most)) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.1]
    return metric._floyd_warshall(n, edges)


def test_above_the_gate_the_definition_decides_what_the_sure_edges_leave_open(monkeypatch):
    """Uneven path metrics on 41 to 64 points at int8, copies with one
    distance moved by one either way, and all of them at object dtype
    (scaled by BIG): each runs one min-plus step over its sure edges, which
    does not close, then the definition, and gives midpoint_scan's mask or
    first violation."""
    rng = random.Random(47)
    mats = []
    for n in range(41, 65):
        mat = _uneven_path_metric(rng, n)
        assert int(mat.max()) <= 63
        mat = mat.astype(np.int8)
        i, k = rng.sample(range(n), 2)
        for delta in (0, 1, -1):
            copy = mat.copy()
            copy[i, k] = copy[k, i] = max(1, int(mat[i, k]) + delta)
            mats += [copy, copy.astype(object) * BIG]
    steps = []
    real = metric._min_plus
    monkeypatch.setattr(metric, "_min_plus", lambda *a: steps.append(a) or real(*a))
    definitions = _definition_runs(monkeypatch)
    verdicts = set()
    for mat in mats:
        steps.clear()
        definitions.clear()
        verdicts.add(_assert_the_scan_verdict(mat) is None)
        assert len(steps) == 1 and definitions == [len(mat)]
    assert {mat.dtype for mat in mats} == {np.dtype(np.int8), np.dtype(object)}
    assert verdicts == {True, False}


def test_the_definition_holds_one_row_of_sums_at_a_time(monkeypatch):
    """On an uneven 200-point path metric the definition decides the mask
    (after the min-plus step), over blocks of one row each: a few times the
    matrix at its peak, not the n^3 sums (200 times as much)."""
    mat = _uneven_path_metric(random.Random(5), 200, most=9)
    assert metric._block_rows(mat, mat.size) == 1
    want = midpoint_scan(mat)
    definitions = _definition_runs(monkeypatch)
    tracemalloc.start()
    try:
        got = metric._matrix_mask(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] is None and np.array_equal(got[1], want[1])
    assert definitions == [200]
    assert peak <= 6 * mat.nbytes


def test_invalid_matrices_raise_the_scans_first_violation():
    """Random integer matrices, and valid ones with one distance moved by
    one either way: accepted or rejected exactly as the scan does, with its
    first TriangleViolation.  Each verdict comes more than 200 times."""
    rng = random.Random(31)
    mats = []
    for _ in range(2000):
        n = rng.randint(2, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(1, 9)
        mats.append(rows)
    for space in _graph_spaces()[:30] + [grid(3), diamond(2)[0]]:
        for _ in range(10):
            rows = space.scaled.tolist()
            i, k = rng.sample(range(space.n), 2)
            rows[i][k] = rows[k][i] = max(1, rows[i][k] + rng.choice((1, -1)))
            mats.append(rows)
    verdicts = {True: 0, False: 0}
    for rows in mats:
        names = [f"P{i}" for i in range(len(rows))]
        hit = _assert_the_scan_verdict(np.array(rows, dtype=np.int64))
        verdicts[hit is None] += 1
        if hit is None:
            mask = midpoint_scan(np.array(rows, dtype=np.int64))[1]
            assert np.array_equal(validate_metric(names, rows)._deletion_mask, mask)
        else:
            with pytest.raises(TriangleViolation) as err:
                validate_metric(names, rows)
            assert err.value.points == tuple(names[x] for x in hit)
    assert min(verdicts.values()) > 200


def _long_middle_path():
    """The path P-A-B-Q with weights 1, 2, 1: d(A,B) = 2 is the sum of the
    least distances from A and from B, so {A, B} is no sure edge, and no
    sure neighbour of A or B lies between them: the definition decides it."""
    return ["P", "A", "B", "Q"], [("P", "A", "1"), ("A", "B", "2"), ("B", "Q", "1")]


# --- one canonical integer form --------------------------------------------

def _non_geodesic_graph():
    """The unit path A-B-C-D with a chord A-C of weight 7/3, longer than the
    path A-B-C: the chord is no shortest path, so every distance is an
    integer although the weights' denominators have lcm 3."""
    return ["A", "B", "C", "D"], [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "7/3"),
                                  ("C", "D", "1")]


def test_a_non_geodesic_weight_leaves_no_trace_in_the_denominator():
    vertices, edges = _non_geodesic_graph()
    index = {v: i for i, v in enumerate(vertices)}
    rows, denom, scaled = metric._path_rows(4, [(index[u], index[v], to_fraction(w))
                                                for u, v, w in edges])
    assert denom == 3
    assert scaled == [(0, 1, 3), (1, 2, 3), (0, 2, 7), (2, 3, 3)]
    space = space_from_weighted_graph(vertices, edges)
    assert space.denom == 1
    assert space.scaled.tolist() == [[x // 3 for x in row] for row in rows]
    assert space == MetricSpace.from_json_obj(space.to_json_obj())
    assert space == validate_metric(space.points, space.dist)
    assert space != validate_metric(space.points, space.dist, base="B")
    assert space != validate_metric(space.points, [[2 * x for x in row] for row in space.dist])


def test_a_candidate_metric_is_certified_at_the_unit_of_the_weights():
    """A candidate comes with its edges at one unit in which every weight is
    an integer, and is certified there: the non-geodesic graph's distances
    in thirds (its chord weighs 7/3) give Floyd-Warshall's space, in lowest
    terms.  An edge of weight 5/2 is no path of length 3, although 3 is 5/2
    rounded up to a whole unit."""
    vertices, edges = _non_geodesic_graph()
    want = space_from_weighted_graph(vertices, edges)
    assert want.denom == 1
    names, _, denom, scaled = metric._graph_level(vertices, edges)
    assert denom == 3 and (0, 2, 7) in scaled
    assert metric._path_space(names, np.array(want.scaled.tolist()) * 3, 3, scaled) == want
    with pytest.raises(AssertionError, match="path metric"):
        metric._path_space(("A", "B"), np.array([[0, 6], [6, 0]]), 2, [(0, 1, 5)])


def test_a_path_space_takes_distinct_pairs_only():
    """The certificate counts the canonical pairs among the edges, so a
    repeated pair is refused: C_4's matrix with the path 0-1-2-3 and its
    first edge again is no path metric, since the path's d(0, 3) is 3."""
    c4 = cycle(4)
    path = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    assert metric._path_space(c4.points, c4.scaled, 1, path + [(3, 0, 1)]) == c4
    for again in ((0, 1, 1), (1, 0, 1)):
        with pytest.raises(AssertionError, match="distinct pairs"):
            metric._path_space(c4.points, c4.scaled, 1, path + [again])


def test_a_restricted_space_is_in_lowest_terms():
    space = space_from_weighted_graph(["A", "B", "C"], [("A", "B", "1/2"), ("B", "C", "1/2")])
    assert space.denom == 2
    sub = space.restrict([2, 0])
    assert sub.denom == 1 and sub.base_point == 0
    assert sub == validate_metric(["C", "A"], [["0", "1"], ["1", "0"]])


def test_gen_validate_and_peel_never_build_the_fraction_view(tmp_path, monkeypatch, capsys):
    built = []
    real = metric._fraction_rows
    monkeypatch.setattr(metric, "_fraction_rows", lambda *a: built.append(a) or real(*a))
    space, desc = str(tmp_path / "d3.json"), str(tmp_path / "d3.desc.json")
    assert main(["gen", "diamond", "--n", "3", "--out", space, "--descriptor-out", desc]) == 0
    assert main(["validate", "--space", space]) == 0
    assert main(["certify", "--space", space, "--k", "4", "--peel", desc]) == 0
    assert built == []
    assert cycle(4).dist[0][2] == 2  # the spy sees the view when it is read
    assert len(built) == 1
    capsys.readouterr()


# --- shortest-path metrics of weighted graphs: one Floyd-Warshall -----------

def _graph_pool():
    """Integer-weighted graphs on 2 to 12 points with (n - 1) * max weight
    at most 54: random ones with mixed or uniform weights, parallel edges,
    some disconnected; the canonical graphs of uniform-weight families; and
    the centred path."""
    rng = random.Random(17)
    pool = []
    for _ in range(80):
        n = rng.randint(2, 10)
        pairs = [(rng.randrange(v), v) for v in range(1, n)] if rng.random() < 0.8 else []
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        uniform = rng.randint(1, 6) if rng.random() < 0.3 else None
        pool.append((n, [(u, v, uniform or rng.randint(1, 6)) for u, v in pairs]))
    for space in (cycle(6), grid(3), complete_bipartite(2, 3), diamond(2)[0]):
        pool.append((space.n, [(e.tail, e.head, int(e.weight * space.denom))
                               for e in canonical_graph(space).edges]))
    pool.append((5, _CENTRED_PATH))
    return pool


# The path 3-1-0-2-4, centred at point 0.
_CENTRED_PATH = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 4, 1)]


def test_floyd_warshall_matches_per_source_dijkstra_at_every_width():
    """Each matrix runs at _int_dtype of its sentinel, 1 + (n - 1) * max w;
    the pool's sentinels put the five scales at the five widths."""
    widths = set()
    disconnected = 0
    for n, edges in _graph_pool():
        for scale, width in zip(SCALES, WIDTHS):
            scaled = [(u, v, w * scale) for u, v, w in edges]
            want = dijkstra_rows(metric._adjacency(n, scaled))
            if any(None in row for row in want):
                disconnected += 1
                with pytest.raises(InvalidInput, match="^graph is not connected$"):
                    metric._floyd_warshall(n, scaled)
                continue
            got = metric._floyd_warshall(n, scaled)
            sentinel = 1 + (n - 1) * max(w for _, _, w in scaled)
            assert got.dtype == np.dtype(metric._int_dtype(sentinel)) == width
            assert got.tolist() == want
            widths.add(got.dtype)
    assert widths == set(WIDTHS) and disconnected


def test_floyd_warshall_on_no_and_one_point():
    assert metric._floyd_warshall(0, []).shape == (0, 0)
    assert metric._floyd_warshall(1, []).tolist() == [[0]]
    with pytest.raises(InvalidInput, match="^graph is not connected$"):
        metric._floyd_warshall(2, [])


def test_path_metric_keeps_the_lightest_parallel_edge():
    edges = [(0, 1, Fraction(3)), (1, 0, Fraction(1, 2)), (1, 2, Fraction(1)),
             (0, 1, Fraction(2)), (2, 1, Fraction(5, 3))]
    assert path_metric(3, edges) == [[0, Fraction(1, 2), Fraction(3, 2)],
                                     [Fraction(1, 2), 0, 1],
                                     [Fraction(3, 2), 1, 0]]
    scaled = [(u, v, int(w * 6)) for u, v, w in edges]
    want = dijkstra_rows(metric._adjacency(3, scaled))
    assert [[x * 6 for x in row] for row in path_metric(3, edges)] == want


def test_disconnected_and_tiny_weighted_graphs_keep_their_messages():
    for n, edges in [(3, [(0, 1, 1)]), (3, [(1, 2, 1)]),  # point 2, then point 0, alone
                     (4, [(0, 1, 1), (1, 2, 5), (0, 2, 1000)]),
                     (5, [(0, 1, 1), (0, 1, 2), (2, 3, 1), (3, 4, 2**70)])]:
        with pytest.raises(InvalidInput, match="^graph is not connected$"):
            path_metric(n, [(u, v, Fraction(w)) for u, v, w in edges])
    with pytest.raises(InvalidInput, match="^graph is not connected$"):
        space_from_weighted_graph(["A", "B", "C", "D"], [("A", "B", "1"), ("C", "D", "1")])
    for vertices in ([], ["A"]):
        with pytest.raises(InvalidInput, match="^a metric space needs at least 2 points$"):
            weighted_graph_json_to_space({"vertices": vertices, "edges": []})


def test_family_spaces_run_at_int8():
    """The path metric's sentinel widens its matrix; the space narrows it
    again, so the families' validations run at int8."""
    spaces = [diamond(3)[0], grid(5), cycle(9), complete_bipartite(3, 4),
              recursive_family(k2n_two_port(3), 2)[0]]
    assert [space.scaled.dtype for space in spaces] == [np.dtype(np.int8)] * len(spaces)


def test_no_floyd_warshall_runs_on_a_composed_level_or_a_grid(monkeypatch):
    """The families know their metrics: no composed level of the 779-point
    K_{2,3} recursion of depth 4 or of D_5, and no grid, runs Floyd-Warshall.
    It runs only on the graphs made by hand: the base B and the unit edge of
    the recursion, and the quadrilateral of the diamonds.  The three spaces
    are in int8, at scaled diameters 16, 32 and 30."""
    sizes = []
    real = metric._floyd_warshall
    monkeypatch.setattr(metric, "_floyd_warshall", lambda n, *a: sizes.append(n) or real(n, *a))
    space, _ = recursive_family(k2n_two_port(3), 4)
    assert space.n == 779 and sorted(sizes) == [2, 5]
    sizes.clear()
    d5, _ = diamond(5)
    assert d5.n == 684 and sizes == [4]
    sizes.clear()
    big = grid(16)
    assert big.n == 256 and sizes == []
    assert {s.scaled.dtype for s in (space, d5, big)} == {np.dtype(np.int8)}
    assert [int(s.scaled.max()) for s in (space, d5, big)] == [16, 32, 30]


def test_a_heavy_chord_widens_only_floyd_warshall():
    """A-B-C at weight 1 with a chord A-C of weight 1000: the sentinel is
    1 + 2 * 1000 = 2001, so Floyd-Warshall runs in int16, d(A,C) = 2, and
    the space narrows to int8."""
    names = ["A", "B", "C"]
    edges = [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "1000")]
    mat = metric._floyd_warshall(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1000)])
    assert mat.dtype == np.int16 and mat.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    space = space_from_weighted_graph(names, edges)
    assert d_name(space, "A", "C") == 2
    assert space.scaled.dtype == np.int8
    assert [(e.tail, e.head) for e in canonical_graph(space).edges] == [(0, 1), (1, 2)]
    assert path_metric(3, [(0, 1, Fraction(1)), (1, 2, Fraction(1)),
                           (0, 2, Fraction(1000))])[0][2] == 2
