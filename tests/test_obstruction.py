import itertools
import json
import tracemalloc

import pytest

from corpus import (
    c4_graph,
    grid_probe,
    integer_problem_pool,
    point_difference,
    search_sign_basis,
)
from tcspace import (
    FamilyDescriptor,
    LinftyCandidate,
    NullProblem,
    OversizedResult,
    PeelNotApplicable,
    PreconditionFailed,
    TransportationProblem,
    canonical_graph,
    certify_no_linfty,
    check_sign_pattern_disjointness,
    complete_bipartite,
    count_disjoint_roadmaps,
    cycle,
    diamond,
    evaluate,
    grid,
    space_from_weighted_graph,
    strongly_disjoint,
    supporting_function,
    tc_norm,
    verify_linfty_basis,
)
from tcspace import obstruction
from tcspace.transport import _norm


@pytest.fixture(scope="module")
def c4_basis():
    cand = search_sign_basis(c4_graph(), 3)
    assert cand is not None
    return cand


# --- strong disjointness -------------------------------------------------------

def test_opposite_sides_of_c4_are_strongly_disjoint():
    g = c4_graph()
    f = point_difference(g, "c0", "c1")
    h = point_difference(g, "c2", "c3")
    assert strongly_disjoint(f, h)


def test_a_problem_is_never_disjoint_from_its_multiple():
    g = c4_graph()
    f = point_difference(g, "c0", "c1")
    assert not strongly_disjoint(f, f.scale(2))


def test_l1_pairs_are_strongly_disjoint():
    g = c4_graph()
    f = point_difference(g, "c0", "c1")
    h = point_difference(g, "c2", "c3")
    norm = lambda q: tc_norm(q)[0]
    assert norm(f + h) == norm(f - h) == norm(f) + norm(h)
    assert strongly_disjoint(f, h)


def test_strong_disjointness_rejects_zero():
    g = c4_graph()
    f = point_difference(g, "c0", "c1")
    with pytest.raises(NullProblem):
        strongly_disjoint(f, TransportationProblem.zero(g))


# --- sign-pattern scans ----------------------------------------------------------

def test_valid_basis_passes_all_sign_pairs(c4_basis):
    report = check_sign_pattern_disjointness(c4_basis)
    assert report.ok
    assert report.pairs_checked == 24


def test_duplicated_vector_fails_immediately():
    g = c4_graph()
    f = point_difference(g, "c0", "c2").scale("1/2")
    cand = LinftyCandidate((f, f))
    report = check_sign_pattern_disjointness(cand)
    assert not report.ok
    assert report.pairs_checked == 1
    assert report.failing_pair == ((1, 1), (1, -1))
    assert "zero problem" in report.reason


def test_a_scan_builds_only_the_combinations_its_pairs_read(monkeypatch):
    """At k = 16 the first pair, all +1 against all +1 but the last, is a
    multiple of f against another: two combinations built, not 2^16."""
    g = c4_graph()
    f = point_difference(g, "c0", "c2").scale("1/2")
    k = 16
    cand = LinftyCandidate((f,) * k)
    built = []
    combine = LinftyCandidate.combine
    monkeypatch.setattr(LinftyCandidate, "combine",
                        lambda self, coeffs: built.append(coeffs) or combine(self, coeffs))
    report = check_sign_pattern_disjointness(cand)
    assert not report.ok and report.reason == "maximal supports overlap"
    assert report.pairs_checked == 1
    assert report.failing_pair == ((1,) * k, (1,) * (k - 1) + (-1,))
    assert len(built) == 2


def test_the_scan_holds_no_pool_of_sign_vectors():
    """At k = 20 all sign vectors, as itertools.combinations would pool them
    before the first pair, take about 200 MB; the scan reads them lazily and
    stops at this degenerate candidate's first pair."""
    f = point_difference(c4_graph(), "c0", "c2").scale("1/2")
    cand = LinftyCandidate((f,) * 20)
    tracemalloc.start()
    try:
        report = check_sign_pattern_disjointness(cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == 1
    assert peak < 2**21


def _reference_scan(cand):
    """check_sign_pattern_disjointness as every sign combination built first,
    then every pair of itertools.combinations that agrees somewhere and
    disagrees somewhere, in order."""
    signs = list(itertools.product((1, -1), repeat=cand.k))
    combos = {theta: cand.combine(theta) for theta in signs}
    checked = 0
    for a, b in itertools.combinations(signs, 2):
        if not (any(x == y for x, y in zip(a, b)) and any(x == -y for x, y in zip(a, b))):
            continue
        checked += 1
        zero = [t for t in (a, b) if combos[t].is_zero()]
        if zero:
            return False, checked, (a, b), None, f"combination {zero[0]} is the zero problem"
        support = {t: obstruction.maximal_support(combos[t])[0] for t in (a, b)}
        shared = support[a] & support[b]
        if shared:
            return False, checked, (a, b), frozenset(shared), "maximal supports overlap"
    return True, checked, None, None, None


def test_the_scan_walks_the_pairs_in_itertools_order(c4_basis):
    g = c4_graph()
    pool = integer_problem_pool(g, bound=1)
    cands = [c4_basis, LinftyCandidate((pool[0], pool[0]))]
    cands += [LinftyCandidate(tuple(pool[i:i + k])) for k in (2, 3, 4) for i in range(0, 10 - k, 2)]
    outcomes = set()
    for cand in cands:
        report = check_sign_pattern_disjointness(cand)
        got = (report.ok, report.pairs_checked, report.failing_pair, report.shared_edges,
               report.reason)
        assert got == _reference_scan(cand)
        outcomes.add((report.ok, report.reason, report.pairs_checked > 1))
    assert len(outcomes) >= 3


def test_norm_failure_and_disjointness_failure_coincide():
    g = c4_graph()
    f = point_difference(g, "c0", "c2").scale("1/2")
    h = point_difference(g, "c0", "c1")
    cand = LinftyCandidate((f, h))
    # f + h and f - h should both have norm 2 for an l_1^2 pair; one fails
    assert tc_norm(f - h)[0] == 1 != 2
    report = check_sign_pattern_disjointness(cand)
    assert not report.ok
    assert report.shared_edges


# --- basis verification ------------------------------------------------------------

def test_c4_basis_verifies(c4_basis):
    assert verify_linfty_basis(c4_basis)


def test_equal_vectors_fail():
    g = c4_graph()
    f = point_difference(g, "c0", "c2").scale("1/2")
    assert not verify_linfty_basis(LinftyCandidate((f, f)))


def _recorded_norms(monkeypatch) -> list:
    """The problems obstruction solves from now on, in order, by tc_norm
    (with a roadmap) or by _norm (the norm alone)."""
    norms = []
    monkeypatch.setattr(obstruction, "tc_norm", lambda h: norms.append(h) or tc_norm(h))
    monkeypatch.setattr(obstruction, "_norm", lambda h: norms.append(h) or _norm(h))
    return norms


def test_one_norm_per_sign_vector_pair(monkeypatch, c4_basis):
    """Both functions solve the 2^(k-1) sign vectors with one coordinate at
    +1, one of each +-theta pair: 4 norms on the C_4 cube, in the order of
    itertools.product((1, -1), repeat=k), each of count_disjoint_roadmaps'
    followed by its j-flip.  A pair off norm 1 is refused after its two
    norms, before a roadmap is built."""
    norms = _recorded_norms(monkeypatch)

    def solved(cand, *signs):
        return [cand.combine(theta) for theta in signs]

    assert verify_linfty_basis(c4_basis)
    assert norms == solved(c4_basis, (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))
    norms.clear()
    assert count_disjoint_roadmaps(c4_basis, 0) == 2  # the anchor is coordinate 1
    assert norms == solved(c4_basis, (1, 1, 1), (-1, 1, 1), (1, 1, -1), (-1, 1, -1))
    norms.clear()
    assert count_disjoint_roadmaps(c4_basis, 2) == 2
    assert norms == solved(c4_basis, (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))
    f = point_difference(c4_graph(), "c0", "c2").scale("1/2")
    cand = LinftyCandidate((f, f))
    norms.clear()
    with pytest.raises(PreconditionFailed, match="sign-vector norms"):
        count_disjoint_roadmaps(cand, 0)
    assert norms == solved(cand, (1, 1), (-1, 1))


@pytest.mark.parametrize("space,accepted", [(cycle(4), 6), (complete_bipartite(2, 3), 18)],
                         ids=["C4", "K23"])
def test_the_sign_vectors_agree_with_the_grid_probe(space, accepted):
    """Every pair and triple of the bound-1 pool that verify_linfty_basis
    accepts is an l_infty^k on a grid, and the supporting function l_j of
    each f_j has l_j(f_i) = delta_ij: the dual certificate of the lower
    bound, checked exactly."""
    pool = integer_problem_pool(canonical_graph(space), bound=1)
    hits = [cand for k in (2, 3) for cand in map(LinftyCandidate, itertools.combinations(pool, k))
            if verify_linfty_basis(cand)]
    assert len(hits) == accepted
    for cand in hits:
        assert grid_probe(cand, 3)
        for j, fj in enumerate(cand.problems):
            l = supporting_function(fj)
            assert [evaluate(l, fi) for fi in cand.problems] == [int(i == j) for i in range(cand.k)]


def test_tree_candidates_never_verify_for_k3():
    g = canonical_graph(space_from_weighted_graph(
        ["A", "B", "C", "D", "E"],
        [("A", "B", "1"), ("B", "C", "1"), ("B", "D", "1"), ("A", "E", "1")]))
    pool = integer_problem_pool(g, bound=1)
    hits = 0
    for trio in itertools.combinations(pool[:12], 3):
        if verify_linfty_basis(LinftyCandidate(tuple(trio))):
            hits += 1
    assert hits == 0
    assert search_sign_basis(g, 3) is None


def test_candidates_must_be_normalized(monkeypatch):
    """The constructor normalizes: it keeps each problem divided by its
    norm, one solve per problem, so every vector it holds has norm 1."""
    g = c4_graph()
    f = point_difference(g, "c0", "c2")  # norm 2
    given = (f, f.scale("1/2"), point_difference(g, "c1", "c3"))
    norms = _recorded_norms(monkeypatch)
    cand = LinftyCandidate(given)
    assert norms == list(given)
    assert cand.problems == (f.scale("1/2"), f.scale("1/2"), given[2].scale("1/2"))
    assert all(tc_norm(p)[0] == 1 for p in cand.problems)
    with pytest.raises(NullProblem):
        LinftyCandidate((f, TransportationProblem.zero(g)))


def test_fewer_than_two_problems_are_refused_before_any_norm(monkeypatch):
    """A lone problem, the zero one included, is refused before it is
    solved: the spy records no norm."""
    g = c4_graph()
    norms = _recorded_norms(monkeypatch)
    for given in ((point_difference(g, "c0", "c2"),), (TransportationProblem.zero(g),), ()):
        with pytest.raises(PreconditionFailed, match="at least two vectors"):
            LinftyCandidate(given)
    assert norms == []


# --- disjoint roadmap counting ------------------------------------------------------

def test_c4_basis_has_two_disjoint_roadmaps(c4_basis):
    for j in range(3):
        assert count_disjoint_roadmaps(c4_basis, j) >= 2


def test_k2_counts_one():
    g = c4_graph()
    # opposite diagonals: an exact l_infty^2 pair, all four sign norms are 1
    cand = LinftyCandidate((
        point_difference(g, "c0", "c2"),
        point_difference(g, "c1", "c3")))
    assert count_disjoint_roadmaps(cand, 0) == 1


def test_invalid_candidate_is_rejected():
    g = c4_graph()
    f = point_difference(g, "c0", "c2").scale("1/2")
    cand = LinftyCandidate((f, f))
    with pytest.raises(PreconditionFailed):
        count_disjoint_roadmaps(cand, 0)


@pytest.mark.parametrize("j", [-1, 3])
def test_a_vector_index_out_of_range_is_refused(c4_basis, j):
    with pytest.raises(PreconditionFailed, match="out of range"):
        count_disjoint_roadmaps(c4_basis, j)


# --- certificates -------------------------------------------------------------------

def test_grid_rules_out_k5():
    cert = certify_no_linfty(canonical_graph(grid(4)), 5)
    assert cert.ruled_out
    assert cert.max_degree == 4 and cert.threshold == 8


def test_diamond_peeling_trace_shape():
    space, desc = diamond(3)
    cert = certify_no_linfty(canonical_graph(space), 4, family=desc)
    assert cert.ruled_out
    assert cert.peeling == ("D_3", "D_2", "D_1")
    assert cert.to_json_obj()["degrees"] == {"max": 2}


def test_diamond_sharpness_for_k3():
    for n in (1, 2, 3):
        space, desc = diamond(n)
        cert = certify_no_linfty(canonical_graph(space), 3, family=desc)
        assert not cert.ruled_out


def test_k44_is_inconclusive_at_k4():
    cert = certify_no_linfty(canonical_graph(complete_bipartite(4, 4)), 4)
    assert cert.verdict == "inconclusive"


def test_k2_is_always_rejected():
    with pytest.raises(PreconditionFailed):
        certify_no_linfty(c4_graph(), 2)


def test_peel_needs_a_descriptor():
    with pytest.raises(PeelNotApplicable, match="recursive family descriptor"):
        certify_no_linfty(c4_graph(), 4, family=FamilyDescriptor("cycle", {"n": 4}))
    space, desc = diamond(1)
    with pytest.raises(PeelNotApplicable):
        # descriptor for a different vertex set
        certify_no_linfty(c4_graph(), 4, family=desc)


def test_the_largest_k_is_the_one_whose_threshold_prints():
    """2^(k-2) has at most 4300 digits, Python's int-to-string limit, up to
    k = 14286; past it the certificate is refused before the power is built."""
    cert = certify_no_linfty(c4_graph(), 14286)
    assert cert.ruled_out and len(json.dumps(cert.to_json_obj()["threshold"])) == 4300
    for k in (14287, 10**100):
        with pytest.raises(OversizedResult):
            certify_no_linfty(c4_graph(), k)


def test_certificates_are_monotone_in_k():
    graphs = [canonical_graph(grid(3)), canonical_graph(cycle(5)),
              canonical_graph(complete_bipartite(2, 4))]
    for g in graphs:
        ruled = [certify_no_linfty(g, k).ruled_out for k in range(3, 9)]
        assert ruled == sorted(ruled)


def test_ruled_out_graphs_admit_no_sign_basis():
    # soundness spot-check: where the degree certificate rules out k, a
    # bounded search over the small integer pool indeed finds no k-family
    star4 = canonical_graph(space_from_weighted_graph(
        ["O", "L1", "L2", "L3"],
        [("O", "L1", "1"), ("O", "L2", "1"), ("O", "L3", "1")]))
    for g, k in ((c4_graph(), 4), (star4, 4), (canonical_graph(cycle(5)), 4)):
        assert certify_no_linfty(g, k).ruled_out
        assert search_sign_basis(g, k) is None
