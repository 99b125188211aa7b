"""Observation sequences, goal hypotheses, and problem bundle loading.

Bundle directory layout:
  domain.pddl    lifted domain
  template.pddl  problem; a :goal section is checked like the rest, then dropped
  hyps.dat       one hypothesis per line, fluents comma-separated
  obs.dat        one ground action per line, parenthesized
  real_hyp.dat   single line, verbatim copy of one hyps.dat line (optional)

In the .dat files, blank lines and ``;`` comment lines are skipped, and a
line's ``(...)`` groups may be separated by commas and whitespace only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator

from .errors import PddlParseError
from .grounding import PlanningTask, ground
from .pddl import DomainDef, parse_domain, parse_problem

BUNDLE_FILES = ("domain.pddl", "template.pddl", "hyps.dat", "obs.dat", "real_hyp.dat")
_GROUP = re.compile(r"\(([^()]*)\)")
_STRAY = re.compile(r"[^\s,]")  # outside the groups, only commas and whitespace may stand


@dataclass(frozen=True)
class ObservationSequence:
    """Ordered observed action indices; multiplicity is what constraints use."""

    obs: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.obs)

    @cached_property
    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for a in self.obs:
            out[a] = out.get(a, 0) + 1
        return out


@dataclass(frozen=True)
class GoalHypotheses:
    """Candidate goal fact sets, in file order, each with its hyps.dat line;
    ``hidden`` indexes the actual one. At least one goal is required."""

    goals: tuple[frozenset[int], ...]
    lines: tuple[str, ...]
    hidden: int | None = None

    def __post_init__(self) -> None:
        if not self.goals:
            raise ValueError("at least one goal hypothesis is required")
        if len(self.lines) != len(self.goals):
            raise ValueError(f"{len(self.goals)} goal hypotheses but {len(self.lines)} lines")
        if self.hidden is not None and not 0 <= self.hidden < len(self.goals):
            raise ValueError(f"hidden index {self.hidden} out of range")

    def __len__(self) -> int:
        return len(self.goals)


def _dat_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield ``(lineno, stripped line, group bodies)`` for each line that is neither
    blank nor a ``;`` comment; each ``(...)`` body is lowercased with single spaces.
    A line with groups and anything but commas and whitespace between them is an error."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith(";"):
            parts = _GROUP.split(stripped)  # outside, body, outside, ..., outside
            if len(parts) > 1 and _STRAY.search("".join(parts[::2])):
                raise PddlParseError(f"text outside parentheses in '{stripped}'", lineno)
            yield lineno, stripped, [" ".join(body.lower().split()) for body in parts[1::2]]


def parse_observations(text: str, task: PlanningTask) -> ObservationSequence:
    """Resolve one parenthesized ground action per nonempty line."""
    indices: list[int] = []
    by_name = task.action_index
    for lineno, stripped, names in _dat_lines(text):
        if not names:
            raise PddlParseError(f"expected a parenthesized action, got '{stripped}'", lineno)
        for name in names:
            idx = by_name.get(name)
            if idx is None:
                raise PddlParseError(
                    f"observation '({name})' names no ground action of the task "
                    "(domain/observation mismatch?)", lineno)
            indices.append(idx)
    return ObservationSequence(obs=tuple(indices))


def parse_hypotheses(text: str, task: PlanningTask) -> GoalHypotheses:
    """One hypothesis per line; each line a comma-separated conjunction of fluents."""
    goals: list[frozenset[int]] = []
    lines: list[str] = []
    fact_of = task.fact_index
    for lineno, stripped, names in _dat_lines(text):
        if not names:
            raise PddlParseError(f"expected parenthesized fluents, got '{stripped}'", lineno)
        goal: set[int] = set()
        for name in names:
            idx = fact_of.get(f"({name})")
            if idx is None:
                raise PddlParseError(
                    f"unknown fluent '({name})': not a ground fact of this task", lineno)
            goal.add(idx)
        goals.append(frozenset(goal))
        lines.append(stripped)
    return GoalHypotheses(goals=tuple(goals), lines=tuple(lines))


def parse_real_hyp(text: str, hyps: GoalHypotheses) -> int:
    """Match the single real_hyp.dat line verbatim against hyps.dat lines."""
    stripped = [line for _, line, _ in _dat_lines(text)]
    if len(stripped) != 1:
        raise PddlParseError("real_hyp.dat must contain exactly one line")
    try:
        return hyps.lines.index(stripped[0])
    except ValueError:
        raise PddlParseError(
            f"real hypothesis '{stripped[0]}' does not match any hyps.dat line") from None


@dataclass(frozen=True)
class Bundle:
    """A fully parsed problem bundle: its domain's name and what recognition
    reads. The parsed domain and problem are not kept, since nothing reads
    them once the task is grounded, and the problem's initial-state atoms
    are a large share of a small bundle's memory."""

    domain_name: str
    task: PlanningTask
    hyps: GoalHypotheses
    obs: ObservationSequence


@lru_cache(maxsize=1)
def _parsed_domain(text: str) -> DomainDef:
    """``parse_domain(text)``, reused from the last call when ``text`` is equal:
    bundles of one domain mostly load in a row, and ``parse_problem`` and
    ``ground`` only read a ``DomainDef``."""
    return parse_domain(text)


def bundle_from_texts(texts: dict[str, str | None], *, path: str = "<memory>",
                      require_obs: bool = True) -> Bundle:
    """Assemble a bundle from file contents keyed by bundle file name.

    The parsed domain of the domain text loaded last is kept and reused when
    the next bundle's domain text is equal; any other text is parsed and takes
    its place. The kept ``DomainDef`` never leaves this module, and a text that
    fails to parse raises as always and leaves the kept one in place."""

    def read(name: str, required: bool = True) -> str | None:
        text = texts.get(name)
        if text is None and required:
            raise PddlParseError(f"missing bundle file: {path}/{name}")
        return text

    dom = _parsed_domain(read("domain.pddl"))
    # hypotheses drive the recognition goals; a template :goal is checked, then dropped
    prob = replace(parse_problem(read("template.pddl"), dom), goal=())
    task = ground(dom, prob)
    hyps = parse_hypotheses(read("hyps.dat"), task)
    real = read("real_hyp.dat", required=False)
    if real is not None:
        hyps = replace(hyps, hidden=parse_real_hyp(real, hyps))
    obs_text = read("obs.dat", required=require_obs)
    obs = parse_observations(obs_text, task) if obs_text is not None else ObservationSequence(())
    return Bundle(domain_name=dom.name, task=task, hyps=hyps, obs=obs)


def load_bundle(directory: str | Path, *, require_obs: bool = True) -> Bundle:
    d = Path(directory)
    texts: dict[str, str | None] = {}
    for name in BUNDLE_FILES:
        p = d / name
        texts[name] = p.read_text(encoding="utf-8") if p.is_file() else None
    return bundle_from_texts(texts, path=str(d), require_obs=require_obs)
