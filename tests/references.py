"""Reference computations the tests check the package against.

None of these is on a path the package runs: bounded plan enumeration for
the soundness checks, the full-observation guarantee, observation floors
as explicit constraint rows (the cold reference for floors as bounds),
writing a suite manifest back out, classical h_max of a goal from any
facts under any costs, the two-pass s-expression reader (tokenize, counting
each token's line and column as it goes, then read the tree recursively)
that ``pddl.parse_sexpr`` is compared against, LM-cut with a full h_max pass
per round that ``constraints.landmark_constraints`` is compared against, and
the per-goal net-change loop over every fact, with each fact's producers and
consumers derived here, that ``constraints.net_change_constraints``, which
reads a task's goal-free rows from the ``grounding.task_memo`` of the task
used last, is compared against.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from ocgr.bench import SuiteSpec
from ocgr.constraints import (_LMCUT_ROUND_GUARD, SRC_LANDMARK, SRC_NET_CHANGE, LinearConstraint,
                              relaxed_plan)
from ocgr.errors import CapExceeded, GoalUnreachable, PddlParseError
from ocgr.grounding import INF, PlanningTask, hmax_values
from ocgr.inputs import GoalHypotheses, ObservationSequence
from ocgr.oracle import Plan, _mask, _masks, validate_plan
from ocgr.recognition import RecognizerConfig, recognize

SRC_OBSERVATION = "observation"


def enumerate_plans(task: PlanningTask, goal: Iterable[int], max_len: int = 12,
                    node_cap: int = 500_000) -> list[Plan]:
    """All goal-achieving action sequences of length <= max_len, DFS order."""
    init, acts = _masks(task)
    gmask = _mask(goal)
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
    report = recognize(task, hyps, obs, "hc", config)
    return hidden in report.selected


def observation_constraints(obs: ObservationSequence) -> tuple[LinearConstraint, ...]:
    """One floor Y_a >= k_a per observed action."""
    return tuple(LinearConstraint(terms=((a, 1),), rhs=k, source=SRC_OBSERVATION)
                 for a, k in sorted(obs.counts.items()) if k > 0)


def hmax(task: PlanningTask, from_facts: Iterable[int], goal: Iterable[int],
         costs: Sequence | None = None):
    """Classical h_max of ``goal`` from ``from_facts``; INF when unreachable."""
    goal = tuple(goal)
    if not goal:
        return 0
    costs = task.costs if costs is None else costs
    values = hmax_values(task.pres, task.adds, task.by_pre, costs, from_facts)
    return max(values[g] for g in goal)


def save_manifest(spec: SuiteSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(spec), indent=2) + "\n", encoding="utf-8")


class _Token(str):
    """A token of the two-pass reader with the line and column it counted."""

    def __new__(cls, value: str, line: int, col: int) -> "_Token":
        obj = super().__new__(cls, value)
        obj.line = line
        obj.col = col
        return obj


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
            continue
        start = i
        start_col = col
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
            col += 1
        tokens.append(_Token(text[start:i].lower(), line, start_col))
    return tokens


def _read_tree(tokens: list[_Token], pos: int) -> tuple[object, int]:
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


def reference_landmark_constraints(task: PlanningTask, goal: Iterable[int],
                                   minima: list[int] | None = None
                                   ) -> tuple[LinearConstraint, ...]:
    """LM-cut with a full h_max pass from init after every cut round; the cut
    minimum of each emitted row is appended to ``minima`` when given.

    Disjunctive action landmarks via justification-graph cut rounds.

    Each round picks, per action, its maximum-h_max precondition (ties by
    lowest fact index) as the supporter, extracts the cut between the
    init-side zone and the zero-cost goal zone, emits it as a landmark and
    reduces the cut actions' residual costs by the cut minimum. Costs are
    integers, so residuals stay exact integers. Each row's ``zeroed`` is the
    lowest-index cut action whose residual the round drives to 0 that lies
    on the goal's ``relaxed_plan``, else the lowest-index such action.
    """
    goal = frozenset(goal)
    num_a = task.num_actions
    if not goal:
        return ()
    goal_node = task.num_facts
    num_nodes = task.num_facts + 1
    # a virtual goal action (id num_a, cost 0) adds the goal node
    pres = task.pres + (tuple(sorted(goal)),)
    adds = task.adds + ((goal_node,),)
    adders = task.adders + ((num_a,),)
    by_pre = list(task.by_pre) + [()]
    for g in goal:
        by_pre[g] += (num_a,)
    residual = list(task.costs) + [0]
    init = sorted(task.init)

    out: list[LinearConstraint] = []
    seen: set[tuple[int, ...]] = set()
    # Round one runs on the original costs: the task's table, and the goal
    # node's value is that of its virtual action, the largest goal value.
    values = [*task.init_hmax, max(task.init_hmax[g] for g in goal)]
    for _ in range(_LMCUT_ROUND_GUARD):
        hg = values[goal_node]
        if hg == INF:
            raise GoalUnreachable("goal unreachable in the delete relaxation")
        if hg == 0:
            break

        supporter: list[int] = []  # -1 means the virtual init node
        for pre in pres:
            best = -1
            for f in pre:  # sorted, so strict > keeps the lowest index on ties
                if best == -1 or values[f] > values[best]:
                    best = f
            supporter.append(best)

        in_zone = [False] * num_nodes
        in_zone[goal_node] = True
        stack = [goal_node]
        while stack:
            v = stack.pop()
            for ai in adders[v]:
                if residual[ai] == 0:
                    s = supporter[ai]
                    if s >= 0 and not in_zone[s] and values[s] != INF:
                        in_zone[s] = True
                        stack.append(s)

        supported_by: dict[int, list[int]] = {}
        zero_pre: list[int] = []
        for ai, s in enumerate(supporter):
            if s == -1:
                zero_pre.append(ai)
            else:
                supported_by.setdefault(s, []).append(ai)

        cut: set[int] = set()
        before = [False] * num_nodes
        stack = []

        def expand(ai: int) -> None:
            hit_zone = False
            for q in adds[ai]:
                if in_zone[q]:
                    hit_zone = True
                elif not before[q]:
                    before[q] = True
                    stack.append(q)
            if hit_zone:
                cut.add(ai)

        for f in init:
            if not before[f] and not in_zone[f]:
                before[f] = True
                stack.append(f)
        for ai in zero_pre:
            expand(ai)
        while stack:
            u = stack.pop()
            for ai in supported_by.get(u, ()):
                expand(ai)

        if not cut:
            raise RuntimeError("landmark extraction found no cut with positive h_max")
        m = min(residual[ai] for ai in cut)
        if m <= 0:
            raise RuntimeError("zero-cost cut; justification graph is inconsistent")
        landmark = tuple(sorted(ai for ai in cut if ai < num_a))
        if landmark and landmark not in seen:
            seen.add(landmark)
            plan = relaxed_plan(task, goal)
            drained = [ai for ai in landmark if residual[ai] == m]
            zeroed = min((ai for ai in drained if ai in plan), default=drained[0])
            out.append(LinearConstraint(terms=tuple((a, 1) for a in landmark),
                                        rhs=1, source=SRC_LANDMARK, zeroed=zeroed))
            if minima is not None:
                minima.append(m)
        for ai in cut:
            residual[ai] -= m
        values = hmax_values(pres, adds, by_pre, residual, init)
    else:
        raise RuntimeError("landmark extraction did not converge")
    return tuple(out)


def producers_and_consumers(task: PlanningTask
                            ) -> tuple[list[list[int]], list[list[int]]]:
    """For each fact, the ids of the actions adding it without requiring it,
    and the ids of those with it in both pre and del."""
    producers: list[list[int]] = [[] for _ in task.facts]
    consumers: list[list[int]] = [[] for _ in task.facts]
    for i, a in enumerate(task.actions):
        for f in set(a.adds).difference(a.pre):
            producers[f].append(i)
        for f in set(a.dels).intersection(a.pre):
            consumers[f].append(i)
    return producers, consumers


def reference_net_change_constraints(task: PlanningTask, goal: Iterable[int]
                                     ) -> tuple[LinearConstraint, ...]:
    """Lower-bound state-change rows built from scratch for one goal, one per
    fact with any terms or demand, in fact order.

    Guaranteed producers (add without pre) count +1, guaranteed consumers
    (delete with pre) count -1. rhs = [fact in goal] - [fact in init].
    """
    goal = frozenset(goal)
    producers, consumers = producers_and_consumers(task)
    out: list[LinearConstraint] = []
    for f in range(task.num_facts):
        rhs = (1 if f in goal else 0) - (1 if f in task.init else 0)
        terms = [(a, 1) for a in producers[f]] + [(a, -1) for a in consumers[f]]
        if not terms:
            if rhs > 0:
                raise GoalUnreachable(
                    f"goal fact {task.facts[f]} has no producer and is not initially true")
            continue
        if not (rhs > 0) and all(c > 0 for _, c in terms):
            # no consumers and nothing demanded: trivially satisfied
            continue
        terms.sort()
        out.append(LinearConstraint(terms=tuple(terms), rhs=rhs, source=SRC_NET_CHANGE))
    return tuple(out)
