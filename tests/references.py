"""Reference computations the tests check the package against.

None of these is on a path the package runs: bounded plan enumeration for
the soundness checks, the full-observation guarantee, observation floors
as explicit constraint rows (the cold reference for floors as bounds),
writing a suite manifest back out, and the two-pass s-expression reader
(tokenize, then read the tree recursively) that ``pddl.parse_sexpr`` is
compared against.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from ocgr.bench import SuiteSpec
from ocgr.constraints import LinearConstraint
from ocgr.errors import CapExceeded, PddlParseError
from ocgr.grounding import PlanningTask
from ocgr.inputs import GoalHypotheses, ObservationSequence
from ocgr.oracle import Plan, _goal_mask, _masks, validate_plan
from ocgr.pddl import Sym
from ocgr.recognition import METHOD_HC, RecognizerConfig, recognize

SRC_OBSERVATION = "observation"


def enumerate_plans(task: PlanningTask, goal: Iterable[int], max_len: int = 12,
                    node_cap: int = 500_000) -> list[Plan]:
    """All goal-achieving action sequences of length <= max_len, DFS order."""
    init, acts = _masks(task)
    gmask = _goal_mask(goal)
    plans: list[Plan] = []
    visited = 0

    def dfs(state: int, steps: list[int], cost: int) -> None:
        nonlocal visited
        visited += 1
        if visited > node_cap:
            raise CapExceeded(f"enumerate_plans node cap ({node_cap}) exceeded")
        if state & gmask == gmask:
            plans.append(Plan(steps=tuple(steps), cost=cost))
        if len(steps) >= max_len:
            return
        for aid, pre, add, ndel in acts:
            if state & pre == pre:
                steps.append(aid)
                dfs((state & ndel) | add, steps, cost + task.actions[aid].cost)
                steps.pop()

    dfs(init, [], 0)
    return plans


def full_observation_guarantee_check(task: PlanningTask, hyps: GoalHypotheses,
                                     plan: Plan, hidden: int,
                                     config: RecognizerConfig = RecognizerConfig()) -> bool:
    """With the complete plan observed, hc selection must contain the hidden goal."""
    check = validate_plan(task, plan.steps, hyps.goals[hidden])
    if not check.ok:
        raise ValueError(f"plan is not valid for hypothesis {hidden}: {check.reason}")
    obs = ObservationSequence(obs=plan.steps)
    report = recognize(task, hyps, obs, METHOD_HC, config)
    return hidden in report.selected


def observation_constraints(obs: ObservationSequence) -> tuple[LinearConstraint, ...]:
    """One floor Y_a >= k_a per observed action."""
    return tuple(LinearConstraint(terms=((a, 1),), rhs=k, source=SRC_OBSERVATION)
                 for a, k in sorted(obs.counts.items()) if k > 0)


def save_manifest(spec: SuiteSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=2) + "\n", encoding="utf-8")


def _tokenize(text: str) -> list[Sym]:
    tokens: list[Sym] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "()":
            tokens.append(Sym(ch, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
            col += 1
        tokens.append(Sym(text[start:i].lower(), line, start_col))
    return tokens


def _read_tree(tokens: list[Sym], pos: int) -> tuple[object, int]:
    if pos >= len(tokens):
        raise PddlParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items: list[object] = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise PddlParseError("unbalanced parenthesis", tok.line, tok.col)
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read_tree(tokens, pos)
            items.append(item)
    if tok == ")":
        raise PddlParseError("unexpected ')'", tok.line, tok.col)
    return tok, pos + 1


def reference_parse_sexpr(text: str) -> list[object]:
    """The two-pass reader: one top-level s-expression ``(define ...)``."""
    tokens = _tokenize(text)
    if not tokens:
        raise PddlParseError("empty input")
    tree, pos = _read_tree(tokens, 0)
    if pos != len(tokens):
        extra = tokens[pos]
        raise PddlParseError("trailing content after top-level form", extra.line, extra.col)
    if not isinstance(tree, list):
        raise PddlParseError("expected a parenthesized form", tree.line, tree.col)
    return tree
