"""Grounding of lifted domains into propositional planning tasks."""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, merge
from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import GroundingError
from .pddl import DomainDef, OperatorSchema, ProblemDef, atom_text

log = logging.getLogger(__name__)

DEFAULT_GROUND_CAP = 100_000
INF = float("inf")


def _env_cap(name: str, default: int) -> int:
    """The positive integer in environment variable ``name``, else ``default``."""
    raw = os.environ.get(name)
    if not raw:
        return default
    if not raw.isdecimal() or int(raw) == 0:
        raise ValueError(f"{name} must be a positive integer, not {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class GroundAction:
    """Fully instantiated action over fact indices."""

    id: int
    name: str
    pre: frozenset[int]
    adds: frozenset[int]
    dels: frozenset[int]
    cost: int = 1

    def text(self) -> str:
        return f"({self.name})"


@dataclass(frozen=True)
class PlanningTask:
    """Immutable grounded STRIPS task.

    ``facts`` is the dense atom table; ``init`` and ``goal`` are fact-index
    sets. ``goal`` may be empty (hypothesis-template problems).
    """

    facts: tuple[str, ...]
    actions: tuple[GroundAction, ...]
    init: frozenset[int]
    goal: frozenset[int]

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def fact_index(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.facts)}

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {a.name: a.id for a in self.actions}

    @cached_property
    def pres(self) -> tuple[tuple[int, ...], ...]:
        """For each action, its precondition facts in ascending order."""
        return tuple(tuple(sorted(a.pre)) for a in self.actions)

    @cached_property
    def adds(self) -> tuple[tuple[int, ...], ...]:
        """For each action, its add effects in ascending order."""
        return tuple(tuple(sorted(a.adds)) for a in self.actions)

    def _by_fact(self, facts_of) -> tuple[tuple[int, ...], ...]:
        by_fact: list[list[int]] = [[] for _ in range(len(self.facts))]
        for a in self.actions:
            for f in facts_of(a):
                by_fact[f].append(a.id)
        return tuple(tuple(v) for v in by_fact)

    @cached_property
    def adders(self) -> tuple[tuple[int, ...], ...]:
        """For each fact, the ids of actions adding it."""
        return self._by_fact(lambda a: a.adds)

    @cached_property
    def by_pre(self) -> tuple[tuple[int, ...], ...]:
        """For each fact, the ids of actions requiring it."""
        return self._by_fact(lambda a: a.pre)

    @cached_property
    def costs(self) -> tuple[int, ...]:
        return tuple(a.cost for a in self.actions)

    @cached_property
    def init_hmax(self) -> tuple:
        """For each fact, its h_max value from ``init`` under ``costs``
        (``INF`` when relaxed-unreachable); every goal of the task shares it."""
        return tuple(hmax_values(self.pres, self.adds, self.by_pre, self.costs, self.init))


def hmax_values(pres: Sequence[tuple[int, ...]], adds: Sequence[tuple[int, ...]],
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
            heappush(heap, (val, fact))

    for ai, pre in enumerate(pres):
        if not pre:
            for q in adds[ai]:
                relax(q, costs[ai])
    for f in start:
        relax(f, 0)

    while heap:
        val, fact = heappop(heap)
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


def relaxed_reachable(task: PlanningTask, from_facts: frozenset[int] | None = None
                      ) -> tuple[frozenset[int], frozenset[int]]:
    """Delete-relaxation fixpoint; returns (reachable facts, applicable action ids).

    Each newly reached fact counts down, through ``task.by_pre``, the unreached
    preconditions of the actions requiring it."""
    start = task.init if from_facts is None else from_facts
    missing = [len(a.pre) for a in task.actions]
    applicable = [a for a, n in enumerate(missing) if n == 0]
    adds, by_pre = task.adds, task.by_pre
    queue = [*start, *(f for a in applicable for f in adds[a])]
    reached: set[int] = set()
    while queue:
        fact = queue.pop()
        if fact in reached:
            continue
        reached.add(fact)
        for a in by_pre[fact]:
            missing[a] -= 1
            if missing[a] == 0:
                applicable.append(a)
                queue.extend(adds[a])
    return frozenset(reached), frozenset(applicable)


def _bindings(schema: OperatorSchema, pools: list[list[str]], dynamic: set[str],
              init_args: dict[str, set[tuple[str, ...]]]) -> Iterator[tuple[str, ...]]:
    """Parameter tuples of ``schema`` whose static preconditions (predicates not
    in ``dynamic``) hold initially, lazily and in ``product(*pools)`` order.

    Each static literal's init tuples that fit its constants, repeated
    variables and parameter pools are hash-joined with the partial bindings
    on the parameters both bind; unbound parameters range over their pools."""
    var_pos = {v: i for i, (v, _) in enumerate(schema.params)}
    partial: list[dict[int, str]] = [{}]
    bound: set[int] = set()
    for lit in (lit for lit in schema.pre if lit[0] not in dynamic):
        slots = [(var_pos[t], set(pools[var_pos[t]])) if t in var_pos else (None, {t}) for t in lit[1:]]
        lit_vars = {i for i, _ in slots if i is not None}
        shared = sorted(bound & lit_vars)
        index: dict[tuple[str, ...], list[dict[int, str]]] = {}
        for args in init_args.get(lit[0], ()):
            row: dict[int, str] = {}
            if all(obj in allowed and (i is None or row.setdefault(i, obj) == obj)
                   for (i, allowed), obj in zip(slots, args)):
                index.setdefault(tuple(row[i] for i in shared), []).append(row)
        partial = [{**p, **row} for p in partial for row in index.get(tuple(p[i] for i in shared), ())]
        bound |= lit_vars
    # pools are sorted and duplicate-free, so tuple order is product order
    return merge(*(product(*([p[i]] if i in p else pool for i, pool in enumerate(pools)))
                   for p in partial))


def ground(dom: DomainDef, prob: ProblemDef, *, prune_unreachable: bool = True,
           max_actions: int | None = None) -> PlanningTask:
    """Instantiate every type-consistent schema application whose static
    preconditions (predicates never added or deleted) hold initially.

    Bindings come from joining each schema's static preconditions with the
    initial-state tuples of their predicates, not from filtering the full
    type product, but in that product's order, so fact and action ids follow
    it. With ``prune_unreachable`` the action set is further restricted to
    actions applicable somewhere in the delete relaxation of the initial
    state; the fact table always covers all grounded atoms.
    """
    cap = max_actions if max_actions is not None else _env_cap("OCGR_GROUND_CAP", DEFAULT_GROUND_CAP)

    objects = list(dom.constants) + list(prob.objects)
    seen_objs = {o for o, _ in objects}
    if len(seen_objs) != len(objects):
        raise GroundingError("duplicate object name across :constants/:objects")

    def candidates(want: str) -> list[str]:
        return sorted(o for o, t in objects if dom.is_subtype(t, want))

    dynamic = {lit[0] for sch in dom.operators for lit in sch.add + sch.delete}
    init_atoms = [atom_text(lit) for lit in prob.init]

    fact_of: dict[str, int] = {}
    facts: list[str] = []

    def intern(atom: str) -> int:
        idx = fact_of.get(atom)
        if idx is None:
            idx = len(facts)
            fact_of[atom] = idx
            facts.append(atom)
        return idx

    for atom in init_atoms:
        intern(atom)
    for lit in prob.goal:
        intern(atom_text(lit))

    init_args: dict[str, set[tuple[str, ...]]] = {}
    for lit in prob.init:
        init_args.setdefault(lit[0], set()).add(lit[1:])

    actions: list[GroundAction] = []
    overlap_dropped = 0
    for schema in dom.operators:
        pools = [candidates(t) for _, t in schema.params]
        var_pos = {v: i for i, (v, _) in enumerate(schema.params)}

        def instantiate(lit: tuple[str, ...], binding: tuple[str, ...]) -> str:
            args = [binding[var_pos[a]] if a.startswith("?") else a for a in lit[1:]]
            return atom_text((lit[0], *args))

        for binding in _bindings(schema, pools, dynamic, init_args):
            if len(actions) >= cap:
                raise GroundingError(
                    f"ground action cap exceeded ({cap}); raise OCGR_GROUND_CAP or simplify the task")
            pre = frozenset(intern(instantiate(lit, binding)) for lit in schema.pre)
            adds = frozenset(intern(instantiate(lit, binding)) for lit in schema.add)
            dels = frozenset(intern(instantiate(lit, binding)) for lit in schema.delete)
            if adds & dels:
                overlap_dropped += len(adds & dels)
                dels = dels - adds  # add wins, STRIPS semantics
            name = " ".join((schema.name,) + binding)
            actions.append(GroundAction(id=len(actions), name=name, pre=pre,
                                        adds=adds, dels=dels))
    if overlap_dropped:
        log.warning("dropped %d delete effects overlapping add effects", overlap_dropped)

    init_idx = frozenset(fact_of[a] for a in init_atoms)
    goal_idx = frozenset(fact_of[atom_text(lit)] for lit in prob.goal)
    task = PlanningTask(facts=tuple(facts), actions=tuple(actions),
                        init=init_idx, goal=goal_idx)
    if prune_unreachable:
        _, applicable = relaxed_reachable(task)
        if len(applicable) != len(actions):
            kept = [a for a in actions if a.id in applicable]
            renumbered = tuple(
                GroundAction(id=i, name=a.name, pre=a.pre, adds=a.adds, dels=a.dels, cost=a.cost)
                for i, a in enumerate(kept))
            task = PlanningTask(facts=tuple(facts), actions=renumbered,
                                init=init_idx, goal=goal_idx)
    return task
