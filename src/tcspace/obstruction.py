"""Degree obstructions against isometric l_infty^k subspaces.

If TC(X) contains an isometric copy of l_infty^k, then for any k vectors
realizing it there are at least 2^(k-2) pairwise disjoint optimal roadmaps
for each of them, forcing every vertex touched by their supports to have
degree at least 2^(k-2) in the canonical graph.  The contrapositive yields
certificates: a graph whose maximum degree stays below the threshold cannot
host such a copy.  For recursive families (diamonds, edge-of-composition
graphs) the argument peels generations: newest-generation vertices have
small degree, so supports live in the previous generation, which embeds
isometrically.

The sign vectors theta of the combinations g_theta = sum theta_i f_i come in
one order, itertools.product((1, -1), repeat=k), read lazily and filtered
where coordinates are fixed at +1 (_signs), so that no scan holds all 2^k
of them at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NullProblem, OversizedResult, PeelNotApplicable, PreconditionFailed
from .graph import CanonicalGraph, canonical_graph
from .rational import MAX_DIGITS
from .transport import _norm, maximal_support, tc_norm
from .vectors import Roadmap, TransportationProblem

# 2^b has at most MAX_DIGITS digits, so prints, iff b < this bit length.
_PRINTABLE_BITS = (10**MAX_DIGITS).bit_length()

RULED_OUT = "ruled_out"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LinftyCandidate:
    """k transportation problems proposed as an l_infty^k unit vector basis.

    Built from any k >= 2 nonzero problems, it keeps each divided by its
    norm (one _norm each), so every vector it holds has norm 1.
    """

    problems: tuple[TransportationProblem, ...]

    def __post_init__(self):
        scaled = []
        for f in self.problems:
            norm = _norm(f)
            if norm == 0:
                raise NullProblem("cannot normalize the zero problem")
            scaled.append(f.scale(1 / norm))
        if len(scaled) < 2:
            raise PreconditionFailed("need at least two vectors")
        object.__setattr__(self, "problems", tuple(scaled))

    @property
    def k(self) -> int:
        return len(self.problems)

    @property
    def graph(self) -> CanonicalGraph:
        return self.problems[0].graph

    def combine(self, coeffs) -> TransportationProblem:
        out = TransportationProblem.zero(self.graph)
        for f, a in zip(self.problems, coeffs):
            if a != 0:
                out = out + f.scale(a)
        return out


def strongly_disjoint(f: TransportationProblem, g: TransportationProblem) -> bool:
    """Whether the maximal optimal supports of f and g share no edge."""
    if f.is_zero() or g.is_zero():
        raise NullProblem("strong disjointness needs nonzero problems")
    ef, _ = maximal_support(f)
    eg, _ = maximal_support(g)
    return not (ef & eg)


@dataclass(frozen=True)
class SignPatternReport:
    """Outcome of the pairwise strong-disjointness scan over sign vectors."""

    ok: bool
    pairs_checked: int
    failing_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    shared_edges: frozenset[int] | None
    reason: str | None = None


def check_sign_pattern_disjointness(cand: LinftyCandidate) -> SignPatternReport:
    """Check strong disjointness for every conflicting pair of sign vectors.

    Two +-1 combinations that agree in some coordinate and disagree in
    another must be strongly disjoint whenever the candidate really spans an
    isometric l_infty^k.  A combination that collapses to the zero problem
    (impossible for a genuine candidate, whose combinations all have norm 1)
    fails the pair on the spot; otherwise the scan stops at the first pair
    of overlapping supports.
    """
    # Pairs of sign vectors in itertools.combinations' order, but without
    # its pool of all 2^k of them: each pair's partner is read from a fresh
    # product, and a combination is built when a pair first reads it.
    combo = functools.cache(cand.combine)
    support = functools.cache(lambda theta: maximal_support(combo(theta))[0])
    checked = 0
    for i, a in enumerate(_signs(cand.k)):
        opposite = tuple(-s for s in a)  # agrees with a nowhere
        for b in itertools.islice(_signs(cand.k), i + 1, None):
            if b == opposite:
                continue
            checked += 1
            degenerate = [t for t in (a, b) if combo(t).is_zero()]
            if degenerate:
                return SignPatternReport(
                    False, checked, (a, b), None,
                    f"combination {degenerate[0]} is the zero problem")
            shared = support(a) & support(b)
            if shared:
                return SignPatternReport(False, checked, (a, b), frozenset(shared),
                                         "maximal supports overlap")
    return SignPatternReport(True, checked, None, None)


def _signs(k: int, *plus: int):
    """itertools.product((1, -1), repeat=k), lazily, without the sign
    vectors that are -1 at a coordinate of plus."""
    return (theta for theta in itertools.product((1, -1), repeat=k)
            if all(theta[i] == 1 for i in plus))


def verify_linfty_basis(cand: LinftyCandidate) -> bool:
    """Whether ||sum a_i f_i|| = max |a_i| for all coefficients a, decided by
    the norms of the sign vectors g_theta = sum theta_i f_i alone.

    Every f_j has norm 1, so the claim holds iff every g_theta has norm 1.
    Upper bound: a / max |a_i| is a convex combination of sign vectors.
    Lower bound: take any 1-Lipschitz l_j with l_j(f_j) = 1 (the supporting
    function of f_j is one).  The 2^(k-1) g_theta with theta_j = +1 average
    to f_j and have norm <= 1, so l_j(g_theta) = 1 for each of them.
    Flipping one theta_i then gives l_j(f_i) = delta_ij, so l_j and -l_j
    give ||sum a_i f_i|| >= |a_j|.  Since ||-g|| = ||g||, only the 2^(k-1)
    sign vectors with theta_0 = +1 are solved.
    """
    return all(_norm(cand.combine(theta)) == 1 for theta in _signs(cand.k, 0))


def count_disjoint_roadmaps(cand: LinftyCandidate, j: int) -> int:
    """Pairwise-disjoint optimal roadmaps for vector j from sign splittings.

    For each sign vector theta with an anchor coordinate and j at +1, half
    the difference of optimal roadmaps for theta and its j-flip is itself an
    optimal roadmap for vector j; these are pairwise disjoint for a genuine
    candidate, giving 2^(k-2) of them, kept greedily as they come.  The
    2^(k-1) combinations solved are the sign vectors with the anchor at +1,
    one of each +-theta pair, so their norms decide verify_linfty_basis:
    any one of them off 1 raises PreconditionFailed, before a roadmap is
    built from it.
    """
    k = cand.k
    if not 0 <= j < k:
        raise PreconditionFailed(f"index {j} out of range")
    anchor = 0 if j != 0 else 1
    kept: list[Roadmap] = []
    for theta in _signs(k, anchor, j):
        norm_plus, p_plus = tc_norm(cand.combine(theta))
        norm_minus, p_minus = tc_norm(cand.combine(theta[:j] + (-1,) + theta[j + 1:]))
        if norm_plus != 1 or norm_minus != 1:
            raise PreconditionFailed("candidate fails the sign-vector norms")
        r = (p_plus - p_minus).scale(Fraction(1, 2))
        assert r.problem() == cand.problems[j]
        assert r.cost() == 1, "splitting produced a non-optimal roadmap"
        if all(not (r.support() & other.support()) for other in kept):
            kept.append(r)
    return len(kept)


# --- certificates ---------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of the degree obstruction for a given k.

    RuledOut means no isometric l_infty^k copy can exist; Inconclusive means
    the degree argument does not decide (it never claims containment).
    """

    verdict: str
    k: int
    threshold: int
    max_degree: int
    peeling: tuple[str, ...]
    reason: str

    @property
    def ruled_out(self) -> bool:
        return self.verdict == RULED_OUT

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "degrees": {"max": self.max_degree},
            "peeling": list(self.peeling),
            "reason": self.reason,
        }


def certify_no_linfty(graph: CanonicalGraph, k: int, family=None) -> Certificate:
    """Degree certificate that TC(X) has no isometric l_infty^k copy.

    Without a family: ruled out iff every vertex degree is below 2^(k-2).
    With a family it peels (recursive families only, identified by the
    generation metadata of a FamilyDescriptor): repeatedly restrict to the
    previous generation while every high-degree vertex lies there, ruling
    out when some level's maximum degree drops below the threshold.  On n
    points the generations must lie between 0 and n - 1; a level that
    removes no point is visited without rebuilding the graph.

    A k whose threshold has more than MAX_DIGITS digits raises
    OversizedResult: the certificate could not print it.
    """
    if k < 3:
        raise PreconditionFailed("degree certificates need k >= 3")
    if k - 2 >= _PRINTABLE_BITS:  # decided before the power is built
        raise OversizedResult(f"threshold 2^{k - 2} has more than {MAX_DIGITS} digits")
    threshold = 2 ** (k - 2)
    if family is None:
        md = graph.max_degree()
        if md < threshold:
            return Certificate(RULED_OUT, k, threshold, md, (),
                               f"max degree {md} < {threshold}")
        return Certificate(INCONCLUSIVE, k, threshold, md, (),
                           f"max degree {md} reaches {threshold}")

    if getattr(family, "generations", None) is None:
        raise PeelNotApplicable("peeling needs a recursive family descriptor")
    gens = family.generations
    names = graph.space.points
    if set(gens) != set(names):
        raise PeelNotApplicable("descriptor does not match the graph's points")

    level = max(gens.values())
    if min(gens.values()) < 0 or level >= len(names):
        # Each level adds a point, so n points hold at most n - 1 levels.
        raise PeelNotApplicable(
            f"descriptor generations must lie between 0 and {len(names) - 1}")
    current = graph
    gen_of = [gens[name] for name in names]
    visited: list[str] = []
    while True:
        label = family.level_label(level)
        visited.append(label)
        md = current.max_degree()
        if md < threshold:
            return Certificate(RULED_OUT, k, threshold, md, tuple(visited),
                               f"max degree {md} < {threshold} at {label}")
        if level == 0:
            return Certificate(INCONCLUSIVE, k, threshold, md, tuple(visited),
                               f"base level {label} still has degree {md}")
        newest = [v for v in range(current.n) if gen_of[v] == level]
        blockers = [v for v in newest if current.degree(v) >= threshold]
        if blockers:
            name = current.space.points[blockers[0]]
            return Certificate(
                INCONCLUSIVE, k, threshold, md, tuple(visited),
                f"generation-{level} vertex {name} has degree "
                f"{current.degree(blockers[0])} >= {threshold}")
        if newest:  # a level that removes no point leaves the graph as it is
            keep = [v for v in range(current.n) if gen_of[v] < level]
            gen_of = [gen_of[v] for v in keep]
            current = canonical_graph(current.space.restrict(keep))
        level -= 1
