"""Brute-force ground truth: optimal plan search, count-constrained search,
plan validation, and bounded plan enumeration.

States are bitmasks over fact indices; searches are uniform-cost with FIFO
tie-breaking so emitted witness plans are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapExceeded
from .grounding import PlanningTask, _env_cap

DEFAULT_OPTIMAL_CAP = 5_000_000
DEFAULT_COUNTS_CAP = 2_000_000
DEFAULT_ENUM_LEN = 12
DEFAULT_ENUM_NODES = 500_000

UNREACHABLE = "unreachable"
CAP_EXCEEDED = "cap-exceeded"
OPTIMAL = "optimal"


@dataclass(frozen=True)
class Plan:
    steps: tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class SearchResult:
    status: str  # optimal | unreachable | cap-exceeded
    cost: int | None = None
    plan: Plan | None = None

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    failed_step: int | None = None
    reason: str | None = None
    final_state: frozenset[int] = frozenset()


def _masks(task: PlanningTask) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Initial state mask and per-action (pre, add, negated del) masks."""
    init = 0
    for f in task.init:
        init |= 1 << f
    acts = []
    for a in task.actions:
        pre = 0
        for f in a.pre:
            pre |= 1 << f
        add = 0
        for f in a.adds:
            add |= 1 << f
        dele = 0
        for f in a.dels:
            dele |= 1 << f
        acts.append((a.id, pre, add, ~dele))
    return init, acts


def _goal_mask(goal: Iterable[int]) -> int:
    m = 0
    for f in goal:
        m |= 1 << f
    return m


def _extract(parents: dict, key, task: PlanningTask) -> Plan:
    steps: list[int] = []
    while True:
        prev = parents[key]
        if prev is None:
            break
        key, aid = prev
        steps.append(aid)
    steps.reverse()
    cost = sum(task.actions[a].cost for a in steps)
    return Plan(steps=tuple(steps), cost=cost)


def optimal_cost(task: PlanningTask, goal: Iterable[int], cap: int | None = None) -> SearchResult:
    """Uniform-cost search for the exact optimal cost and a witness plan."""
    cap = cap if cap is not None else _env_cap("OCGR_OPTIMAL_CAP", DEFAULT_OPTIMAL_CAP)
    init, acts = _masks(task)
    gmask = _goal_mask(goal)
    frontier: list[tuple[int, int, int]] = [(0, 0, init)]
    parents: dict[int, tuple | None] = {init: None}
    best: dict[int, int] = {init: 0}
    closed: set[int] = set()
    tie = 0
    expanded = 0
    while frontier:
        cost, _, state = heapq.heappop(frontier)
        if state in closed:
            continue
        closed.add(state)
        if state & gmask == gmask:
            return SearchResult(OPTIMAL, cost, _extract(parents, state, task))
        expanded += 1
        if expanded > cap:
            return SearchResult(CAP_EXCEEDED)
        for aid, pre, add, ndel in acts:
            if state & pre == pre:
                nxt = (state & ndel) | add
                ncost = cost + task.actions[aid].cost
                if nxt not in closed and ncost < best.get(nxt, ncost + 1):
                    best[nxt] = ncost
                    parents[nxt] = (state, aid)
                    tie += 1
                    heapq.heappush(frontier, (ncost, tie, nxt))
    return SearchResult(UNREACHABLE)


def optimal_cost_with_counts(task: PlanningTask, goal: Iterable[int],
                             k: Mapping[int, int], cap: int | None = None) -> SearchResult:
    """Minimum cost of a goal-achieving plan using action a at least k[a] times."""
    cap = cap if cap is not None else _env_cap("OCGR_COUNTS_CAP", DEFAULT_COUNTS_CAP)
    init, acts = _masks(task)
    gmask = _goal_mask(goal)
    floor_ids = sorted(a for a, c in k.items() if c > 0)
    slot = {a: i for i, a in enumerate(floor_ids)}
    start = (init, tuple(k[a] for a in floor_ids))
    frontier: list[tuple[int, int, tuple]] = [(0, 0, start)]
    parents: dict[tuple, tuple | None] = {start: None}
    best: dict[tuple, int] = {start: 0}
    closed: set[tuple] = set()
    tie = 0
    expanded = 0
    while frontier:
        cost, _, node = heapq.heappop(frontier)
        if node in closed:
            continue
        closed.add(node)
        state, residual = node
        if state & gmask == gmask and not any(residual):
            return SearchResult(OPTIMAL, cost, _extract(parents, node, task))
        expanded += 1
        if expanded > cap:
            return SearchResult(CAP_EXCEEDED)
        for aid, pre, add, ndel in acts:
            if state & pre == pre:
                nstate = (state & ndel) | add
                if aid in slot and residual[slot[aid]] > 0:
                    nres = list(residual)
                    nres[slot[aid]] -= 1
                    nxt = (nstate, tuple(nres))
                else:
                    nxt = (nstate, residual)
                ncost = cost + task.actions[aid].cost
                if nxt not in closed and ncost < best.get(nxt, ncost + 1):
                    best[nxt] = ncost
                    parents[nxt] = (node, aid)
                    tie += 1
                    heapq.heappush(frontier, (ncost, tie, nxt))
    return SearchResult(UNREACHABLE)


def validate_plan(task: PlanningTask, steps: Iterable[int], goal: Iterable[int]) -> PlanCheck:
    """Step-by-step applicability check plus final goal satisfaction."""
    state = set(task.init)
    for i, aid in enumerate(steps):
        if not 0 <= aid < task.num_actions:
            return PlanCheck(False, i, f"step {i}: unknown action id {aid}")
        a = task.actions[aid]
        missing = a.pre - state
        if missing:
            names = ", ".join(task.facts[f] for f in sorted(missing))
            return PlanCheck(False, i, f"step {i} ({a.name}): unsatisfied preconditions {names}")
        state = (state - a.dels) | a.adds
    missing_goal = set(goal) - state
    if missing_goal:
        names = ", ".join(task.facts[f] for f in sorted(missing_goal))
        return PlanCheck(False, None, f"goal not satisfied: {names}", frozenset(state))
    return PlanCheck(True, final_state=frozenset(state))


def enumerate_plans(task: PlanningTask, goal: Iterable[int], max_len: int | None = None,
                    node_cap: int | None = None) -> list[Plan]:
    """All goal-achieving action sequences of length <= max_len, DFS order."""
    max_len = max_len if max_len is not None else _env_cap("OCGR_ENUM_LEN", DEFAULT_ENUM_LEN)
    node_cap = node_cap if node_cap is not None else _env_cap("OCGR_ENUM_NODES", DEFAULT_ENUM_NODES)
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
