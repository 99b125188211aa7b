"""Operator-counting constraint generators.

Three families over the counting variables Y_a, all written as >= rows:

* landmarks  -- disjunctive action landmarks from cost-reduction cut rounds
  over the justification graph (sum of cut actions >= 1);
* net-change -- per-fact lower-bound flow rows: guaranteed producers minus
  guaranteed consumers >= required initial-to-goal change;
* post-hoc   -- per goal fact, the cost mass of its delete-relaxation
  relevance set is at least that fact's h_max value.

Every valid plan's occurrence counts satisfy every generated row, which is
what the test suite checks against enumerated plans.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GoalUnreachable
from .grounding import PlanningTask

INF = float("inf")

SRC_LANDMARK = "landmark"
SRC_NET_CHANGE = "net-change"
SRC_POST_HOC = "post-hoc"
SRC_OBSERVATION = "observation"

FAMILY_LANDMARKS = "lm"
FAMILY_NET_CHANGE = "nc"
FAMILY_POST_HOC = "ph"
ALL_FAMILIES = (FAMILY_LANDMARKS, FAMILY_NET_CHANGE, FAMILY_POST_HOC)

_LMCUT_ROUND_GUARD = 100_000


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * Y_action) >= rhs; coefficients are nonzero."""

    terms: tuple[tuple[int, int], ...]
    rhs: int
    source: str

    def satisfied_by(self, counts: Sequence, tol: float = 1e-9) -> bool:
        return sum(c * counts[a] for a, c in self.terms) >= self.rhs - tol

    def text(self, action_names: Sequence[str] | None = None) -> str:
        def name(a: int) -> str:
            return f"({action_names[a]})" if action_names is not None else f"Y{a}"

        body = " + ".join(f"{c}*{name(a)}" for a, c in self.terms) or "0"
        return f"sum {body} >= {self.rhs} [{self.source}]"


def dump_constraints(rows: Sequence[LinearConstraint], task: PlanningTask | None = None) -> str:
    names = [a.name for a in task.actions] if task is not None else None
    return "\n".join(c.text(names) for c in rows)


def _hmax_values(pres: Sequence[tuple[int, ...]], adds: Sequence[tuple[int, ...]],
                 by_pre: Sequence[tuple[int, ...]], costs: Sequence,
                 start: Iterable[int]) -> list:
    """Generalized Dijkstra fixpoint; returns per-node h_max values.

    ``by_pre[f]`` lists the actions with node ``f`` among their ``pres``,
    so it has one entry per node.
    """
    num_nodes = len(by_pre)
    values: list = [INF] * num_nodes
    settled = [False] * num_nodes
    unsat = [len(pre) for pre in pres]
    heap: list[tuple] = []

    def relax(fact: int, val) -> None:
        if val < values[fact]:
            values[fact] = val
            heapq.heappush(heap, (val, fact))

    for ai, pre in enumerate(pres):
        if not pre:
            for q in adds[ai]:
                relax(q, costs[ai])
    for f in start:
        relax(f, 0)

    while heap:
        val, fact = heapq.heappop(heap)
        if settled[fact]:
            continue
        settled[fact] = True
        for ai in by_pre[fact]:
            unsat[ai] -= 1
            if unsat[ai] == 0:
                fire = costs[ai] + val  # val is the max precondition value
                for q in adds[ai]:
                    relax(q, fire)
    return values


def hmax(task: PlanningTask, from_facts: Iterable[int], goal: Iterable[int],
         costs: Sequence | None = None):
    """Classical h_max of ``goal`` from ``from_facts``; INF when unreachable."""
    goal = tuple(goal)
    if not goal:
        return 0
    costs = task.costs if costs is None else costs
    values = _hmax_values(task.pres, task.adds, task.by_pre, costs, from_facts)
    return max(values[g] for g in goal)


def landmark_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Disjunctive action landmarks via justification-graph cut rounds.

    Each round picks, per action, its maximum-h_max precondition (ties by
    lowest fact index) as the supporter, extracts the cut between the
    init-side zone and the zero-cost goal zone, emits it as a landmark and
    reduces the cut actions' residual costs by the cut minimum. Costs are
    integers, so residuals stay exact integers.
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
    for _ in range(_LMCUT_ROUND_GUARD):
        values = _hmax_values(pres, adds, by_pre, residual, init)
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
            out.append(LinearConstraint(terms=tuple((a, 1) for a in landmark),
                                        rhs=1, source=SRC_LANDMARK))
        for ai in cut:
            residual[ai] -= m
    else:
        raise RuntimeError("landmark extraction did not converge")
    return tuple(out)


def net_change_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Lower-bound state-change rows, one per fact with any terms or demand.

    Guaranteed producers (add without pre) count +1, guaranteed consumers
    (delete with pre) count -1; may-consumers are left out so every plan
    stays feasible. rhs = [fact in goal] - [fact in init].
    """
    goal = frozenset(goal)
    out: list[LinearConstraint] = []
    for f in range(task.num_facts):
        rhs = (1 if f in goal else 0) - (1 if f in task.init else 0)
        terms = [(a, 1) for a in task.producers[f]] + [(a, -1) for a in task.consumers[f]]
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


def posthoc_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Per goal fact: cost of its relaxed relevance set >= its h_max value."""
    goal = sorted(set(goal))
    if not goal:
        return ()
    values = _hmax_values(task.pres, task.adds, task.by_pre, task.costs, task.init)
    out: list[LinearConstraint] = []
    for g in goal:
        hv = values[g]
        if hv == INF:
            raise GoalUnreachable(f"goal fact {task.facts[g]} is relaxed-unreachable")
        if hv == 0:
            continue
        relevant_facts: set[int] = {g}
        relevant_actions: set[int] = set()
        frontier = [g]
        while frontier:
            f = frontier.pop()
            for ai in task.adders[f]:
                if ai not in relevant_actions:
                    relevant_actions.add(ai)
                    for p in task.pres[ai]:
                        if p not in relevant_facts:
                            relevant_facts.add(p)
                            frontier.append(p)
        terms = tuple((a, task.costs[a]) for a in sorted(relevant_actions)
                      if task.costs[a] != 0)
        out.append(LinearConstraint(terms=terms, rhs=hv, source=SRC_POST_HOC))
    return tuple(out)


def base_constraints(task: PlanningTask, goal: Iterable[int],
                     families: Iterable[str] = ALL_FAMILIES) -> tuple[LinearConstraint, ...]:
    """Concatenation of the selected families, in a fixed order."""
    chosen = set(families)
    unknown = chosen - set(ALL_FAMILIES)
    if unknown:
        raise ValueError(f"unknown constraint families: {sorted(unknown)}")
    if not chosen:
        raise ValueError("at least one constraint family is required")
    goal = frozenset(goal)
    rows: tuple[LinearConstraint, ...] = ()
    if FAMILY_LANDMARKS in chosen:
        rows += landmark_constraints(task, goal)
    if FAMILY_NET_CHANGE in chosen:
        rows += net_change_constraints(task, goal)
    if FAMILY_POST_HOC in chosen:
        rows += posthoc_constraints(task, goal)
    return rows
