"""Exception types shared across the toolkit."""

from __future__ import annotations


class OcgrError(Exception):
    """Base class for all toolkit errors."""


class PddlParseError(OcgrError):
    """Malformed PDDL or data file; carries a source position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            pos = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{message} ({pos})"
        super().__init__(message)


class UnsupportedFeatureError(PddlParseError):
    """Input uses a PDDL construct outside the supported STRIPS subset."""


class GroundingError(OcgrError):
    """Grounding failed, e.g. the ground-action cap was exceeded."""


class GoalUnreachable(OcgrError):
    """A goal is unreachable even under delete relaxation.

    Constraint generators raise this instead of emitting a trivially
    infeasible set; recognizers map it to a heuristic value of infinity.
    """


class SolverFailure(OcgrError):
    """The LP solver gave up (iteration limit); distinct from infeasibility."""


class CapExceeded(OcgrError):
    """An oracle search hit its expansion or length cap."""
