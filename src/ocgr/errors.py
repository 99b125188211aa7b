"""Exception types shared across the toolkit; ``check_name``, the one check of a name
(backend, method, family, manifest key); and ``env_cap``, the one reader of a cap override."""

from __future__ import annotations

import os
from typing import Collection


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
    A witness search that finds no plan for a hidden goal raises it too.
    """


class SolverFailure(OcgrError):
    """An LP solve gave no answer, as distinct from an infeasible LP: the
    LP is unbounded, the simplex hit its pivot cap or its dual stalled, or
    the HiGHS backend failed. Scoring prefixes the hypothesis it solved for."""


class CapExceeded(OcgrError):
    """A search gave up: the oracle expanded more nodes than ``OCGR_OPTIMAL_CAP`` allows."""


def check_name(what: str, name: str, known: Collection[str]) -> None:
    """Raise ``ValueError`` (an input error) unless ``name`` is in ``known``."""
    if name not in known:
        raise ValueError(f"unknown {what} '{name}' (choose from {', '.join(sorted(known))})")


def env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, else ``default``."""
    raw = os.environ.get(name)
    if not raw:
        return default
    if not raw.isdecimal() or int(raw) == 0:
        raise ValueError(f"{name} must be a positive integer, not {raw!r}")
    return int(raw)
