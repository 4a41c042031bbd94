"""Sparse exact vectors over a canonical graph.

Two kinds live here: roadmaps (edge vectors, elements of the weighted l1
space on the edge set) and transportation problems (vertex vectors with zero
sum).  A roadmap's cost is its weighted l1 norm and its problem its
incidence image, whose kernel is the cycle space.  Both kinds are
immutable, support exact linear arithmetic within their kind, and remember
the graph they belong to.  A problem keeps its masses in integers too, as a
metric space keeps its distances: `denom` and `scaled`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import InvalidInput, json_fields
from .graph import CanonicalGraph, _check_index
from .rational import ZERO, frac_str, to_fraction


@dataclass(frozen=True)
class _SparseVector:
    """Sparse map index -> nonzero Fraction on a graph, with exact linear
    arithmetic.  Subclasses set the index range (_size) and the nouns of
    their error messages (_index_noun, _plural)."""

    graph: CanonicalGraph
    values: dict

    def __post_init__(self):
        size = self._size()
        vals = {}
        for k, v in self.values.items():
            _check_index(k, size, self._index_noun)
            f = to_fraction(v)
            if f != 0:
                vals[k] = f
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, graph: CanonicalGraph):
        return cls(graph, {})

    def __getitem__(self, idx: int) -> Fraction:
        return self.values.get(idx, ZERO)

    def support(self) -> frozenset[int]:
        return frozenset(self.values)

    def is_zero(self) -> bool:
        return not self.values

    def _check_operand(self, other):
        if type(other) is not type(self):
            raise InvalidInput(f"{self._plural} add only to {self._plural}")
        if self.graph is not other.graph:
            raise InvalidInput(f"{self._plural} live on different graphs")

    def __add__(self, other):
        self._check_operand(other)
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, ZERO) + v
        return type(self)(self.graph, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.graph, {k: -v for k, v in self.values.items()})

    def scale(self, a):
        a = to_fraction(a)
        return type(self)(self.graph, {k: a * v for k, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self))
                and self.graph is other.graph
                and self.values == other.values)


class TransportationProblem(_SparseVector):
    """Zero-sum sparse vertex vector: supplies (>0) and demands (<0).

    Its integer form, built once with the zero-sum check: `denom`, M, the
    lcm of the denominators (1 for f = 0), and `scaled`, each mass times M.
    """

    _index_noun = "vertex"
    _plural = "problems"

    def _size(self) -> int:
        return self.graph.n

    def __post_init__(self):
        super().__post_init__()
        denom = lcm(*(x.denominator for x in self.values.values()))
        scaled = {v: x.numerator * (denom // x.denominator) for v, x in self.values.items()}
        if sum(scaled.values()):
            raise InvalidInput("transportation problem must have zero sum")
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "scaled", scaled)

    @classmethod
    def from_names(cls, graph: CanonicalGraph, named: dict) -> TransportationProblem:
        if not isinstance(named, dict):
            raise InvalidInput("a problem maps point names to masses")
        idx = {graph.space.index_of(name): v for name, v in named.items()}
        return cls(graph, idx)

    def by_name(self) -> dict[str, Fraction]:
        pts = self.graph.space.points
        return {pts[k]: v for k, v in sorted(self.values.items())}

    def to_json_obj(self) -> dict:
        return {"f": {name: frac_str(v) for name, v in self.by_name().items()}}

    @classmethod
    def from_json_obj(cls, graph: CanonicalGraph, obj: dict) -> TransportationProblem:
        (named,) = json_fields(obj, "problem JSON needs 'f'", "f")
        return cls.from_names(graph, named)


def _net_moves(graph: CanonicalGraph, moves) -> TransportationProblem:
    """The problem of signed moves (x, y, a): a leaves x and arrives at y."""
    acc: dict[int, Fraction] = {}
    for x, y, a in moves:
        acc[x] = acc.get(x, ZERO) + a
        acc[y] = acc.get(y, ZERO) - a
    return TransportationProblem(graph, acc)


class Roadmap(_SparseVector):
    """Edge-level transportation: a signed vector on the oriented edges, an
    element of l_{1,d}(E).

    Positive values move along the reference orientation, negative against
    it; the cost is the weighted l1 norm.
    """

    _index_noun = "edge"
    _plural = "roadmaps"

    def _size(self) -> int:
        return self.graph.m

    def cost(self) -> Fraction:
        """Weighted l1 norm: sum over edges of |value| * weight."""
        return self._cost

    @cached_property
    def _cost(self) -> Fraction:
        """cost(), computed once: a roadmap is immutable."""
        total = ZERO
        for k, v in self.values.items():
            total += abs(v) * self.graph.edges[k].weight
        return total

    def problem(self) -> TransportationProblem:
        """Vertex vector transported: at v, (flow out of v) - (flow into v).

        Equals the negated incidence operator applied to the roadmap; its
        kernel is the cycle space, so adding any cycle indicator leaves the
        result unchanged.
        """
        edges = self.graph.edges
        return _net_moves(self.graph, ((edges[idx].tail, edges[idx].head, val)
                                       for idx, val in self.values.items()))

    def to_json_obj(self) -> dict:
        g = self.graph
        return {
            "cost": frac_str(self.cost()),
            "edges": [
                {"u": g.space.points[g.edges[i].tail],
                 "v": g.space.points[g.edges[i].head],
                 "p": frac_str(v)}
                for i, v in sorted(self.values.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, graph: CanonicalGraph, obj: dict) -> Roadmap:
        (raw,) = json_fields(obj, "roadmap JSON needs 'edges'", "edges")
        if not isinstance(raw, list):
            raise InvalidInput("roadmap 'edges' must be a list")
        vals: dict[int, Fraction] = {}
        for e in raw:
            u, v, p = json_fields(e, "each roadmap edge needs 'u', 'v', 'p'", "u", "v", "p")
            tail = graph.space.index_of(u)
            idx = graph.edge_index(tail, graph.space.index_of(v))
            if idx is None:
                raise InvalidInput(f"({u},{v}) is not an edge")
            p = to_fraction(p)
            vals[idx] = vals.get(idx, ZERO) + (p if graph.edges[idx].tail == tail else -p)
        return cls(graph, vals)
