from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_triangle_equality_is_allowed():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    assert space.d_name("A", "C") == 2


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


def test_json_round_trip():
    space = validate_metric(
        ["A", "B", "C"], [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
        base="B")
    again = MetricSpace.from_json_obj(space.to_json_obj())
    assert again == space


def test_weighted_graph_input_gives_path_metric():
    space = space_from_weighted_graph(
        ["A", "B", "C"], [("A", "B", "1"), ("B", "C", "2")])
    assert space.d_name("A", "C") == 3


def test_weighted_graph_json_parsing():
    obj = {"vertices": ["A", "B"], "edges": [{"u": "A", "v": "B", "w": "1/2"}]}
    space = weighted_graph_json_to_space(obj)
    assert space.d_name("A", "B") == Fraction(1, 2)


def test_weighted_graph_shortcut_tightens_metric():
    # The direct A-C edge is longer than the path through B.
    space = space_from_weighted_graph(
        ["A", "B", "C"],
        [("A", "B", "1"), ("B", "C", "1"), ("A", "C", "5")])
    assert space.d_name("A", "C") == 2


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
    import tcspace.metric as metric

    seen = []
    monkeypatch.setattr(metric, "to_fraction", lambda x: seen.append(x) or to_fraction(x))
    validate_metric(["A", "B", "C"],
                    [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]])
    assert len(seen) == 9
