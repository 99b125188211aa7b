"""Brute-force ground truth: optimal plan search, optionally under
per-action count floors, and plan validation.

States are bitmasks over fact indices; the search is uniform-cost with FIFO
tie-breaking so emitted witness plans are deterministic. A search answers
with an optimal plan or None (no plan exists), and raises ``CapExceeded``
when it expands more nodes than ``OCGR_OPTIMAL_CAP`` allows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapExceeded, env_cap
from .grounding import PlanningTask

DEFAULT_OPTIMAL_CAP = 5_000_000


@dataclass(frozen=True)
class Plan:
    steps: tuple[int, ...]
    cost: int


@dataclass(frozen=True)
class PlanCheck:
    ok: bool
    failed_step: int | None = None
    reason: str | None = None
    final_state: frozenset[int] = frozenset()


def _mask(facts: Iterable[int]) -> int:
    m = 0
    for f in facts:
        m |= 1 << f
    return m


def _masks(task: PlanningTask) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Initial state mask and per-action (index, pre, add, negated del) masks."""
    return _mask(task.init), [(i, _mask(a.pre), _mask(a.adds), ~_mask(a.dels))
                              for i, a in enumerate(task.actions)]


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


def optimal_cost(task: PlanningTask, goal: Iterable[int],
                 floors: Mapping[int, int] | None = None) -> Plan | None:
    """Uniform-cost search for an optimal plan, whose ``cost`` is the exact
    optimal cost, or None when no plan reaches ``goal``; with ``floors``,
    among plans that use action a at least ``floors[a]`` times (a node is
    the state mask and the floor counts still to meet). Expanding more
    nodes than ``OCGR_OPTIMAL_CAP`` raises ``CapExceeded``, naming the goal."""
    cap = env_cap("OCGR_OPTIMAL_CAP", DEFAULT_OPTIMAL_CAP)
    init, masks = _masks(task)
    gmask = _mask(goal)
    floor_ids = sorted(a for a, c in (floors or {}).items() if c > 0)
    slot = {a: i for i, a in enumerate(floor_ids)}
    acts = [(aid, pre, add, ndel, task.actions[aid].cost, slot.get(aid, -1))
            for aid, pre, add, ndel in masks]
    start = (init, tuple(floors[a] for a in floor_ids))
    frontier: list[tuple[int, int, tuple]] = [(0, 0, start)]
    parents: dict[tuple, tuple | None] = {start: None}
    best: dict[tuple, int] = {start: 0}
    tie = 0
    expanded = 0
    while frontier:
        cost, _, node = heapq.heappop(frontier)
        if cost > best[node]:
            continue  # a cheaper path to node was queued later
        state, residual = node
        if state & gmask == gmask and not any(residual):
            return _extract(parents, node, task)
        expanded += 1
        if expanded > cap:
            names = ", ".join(f for i, f in enumerate(task.facts) if gmask >> i & 1)
            raise CapExceeded(f"optimal plan search for {{{names}}} hit the expansion "
                              f"cap of {cap}; raise OCGR_OPTIMAL_CAP")
        for aid, pre, add, ndel, acost, i in acts:
            if state & pre == pre:
                res = residual
                if i >= 0 and res[i]:
                    res = res[:i] + (res[i] - 1,) + res[i + 1:]
                nxt = ((state & ndel) | add, res)
                ncost = cost + acost
                if ncost < best.get(nxt, ncost + 1):
                    best[nxt] = ncost
                    parents[nxt] = (node, aid)
                    tie += 1
                    heapq.heappush(frontier, (ncost, tie, nxt))
    return None


def validate_plan(task: PlanningTask, steps: Iterable[int], goal: Iterable[int]) -> PlanCheck:
    """Step-by-step applicability check plus final goal satisfaction."""
    state = set(task.init)
    for i, aid in enumerate(steps):
        if not 0 <= aid < task.num_actions:
            return PlanCheck(False, i, f"step {i}: unknown action id {aid}")
        a = task.actions[aid]
        missing = [f for f in a.pre if f not in state]
        if missing:
            names = ", ".join(task.facts[f] for f in missing)
            return PlanCheck(False, i, f"step {i} ({a.name}): unsatisfied preconditions {names}")
        state.difference_update(a.dels)
        state.update(a.adds)
    missing_goal = set(goal) - state
    if missing_goal:
        names = ", ".join(task.facts[f] for f in sorted(missing_goal))
        return PlanCheck(False, None, f"goal not satisfied: {names}", frozenset(state))
    return PlanCheck(True, final_state=frozenset(state))
