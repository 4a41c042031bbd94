"""Domain error types shared across the package.

Every error that corresponds to a violated contract of the toolkit derives
from :class:`DomainError`, so callers (and the CLI) can distinguish domain
failures from programming errors.  The class name doubles as the stable
error code emitted in structured error output.

Every JSON reader takes the fields of an input object through json_fields,
so a non-object, a missing key or a list element that is not an object
raises InvalidInput with the reader's message, never KeyError or TypeError.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for all domain-level failures."""

    def details(self) -> dict:
        """Structured payload for error reporting (JSON-friendly)."""
        return {}


class InvalidInput(DomainError):
    """Malformed input: wrong shapes, unknown names, bad literals."""


def json_fields(obj, message: str, *keys: str) -> tuple:
    """obj[key] for each of keys, in order: the one reader of a JSON input
    object's fields.  Raises InvalidInput(message) when obj is not an object
    holding them all (a list, a string or a number has no named fields)."""
    try:
        return tuple(obj[key] for key in keys)
    except (TypeError, KeyError) as exc:
        raise InvalidInput(message) from exc


# --- metric axiom violations -------------------------------------------------

class MetricViolation(DomainError):
    """Base class for metric-axiom violations; carries the offending points."""

    def __init__(self, message: str, points: tuple[str, ...]):
        super().__init__(message)
        self.points = points

    def details(self) -> dict:
        return {"points": list(self.points)}


class NonSymmetric(MetricViolation):
    """d(u, v) != d(v, u)."""


class NegativeDistance(MetricViolation):
    """A distance is negative."""


class ZeroDistanceDistinctPoints(MetricViolation):
    """d(u, v) = 0 for distinct u and v."""


class TriangleViolation(MetricViolation):
    """d(i, k) > d(i, j) + d(j, k) for the recorded triple (i, j, k)."""


# --- solver / duality / obstruction ------------------------------------------

class NullProblem(DomainError):
    """Operation undefined for the zero transportation problem."""


class NotImprovable(DomainError):
    """cancel_cycle called with an Optimal certificate."""


class NotLipschitz(DomainError):
    """Function violates the 1-Lipschitz edge constraints."""


class NotRealizable(DomainError):
    """Directed subgraph is not the downhill graph of any 1-Lipschitz function."""


class NotNormalized(DomainError):
    """Two-port graph does not have top-bottom distance 1."""


class PeelNotApplicable(DomainError):
    """Peeled certificate requested without usable generation metadata."""


class OversizedResult(DomainError):
    """A result has more digits than Python converts to a string."""


class PreconditionFailed(DomainError):
    """A stated operation precondition does not hold for the given input."""
