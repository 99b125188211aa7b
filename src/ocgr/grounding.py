"""Grounding of lifted domains into propositional planning tasks."""

from __future__ import annotations

import logging
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, merge
from itertools import chain, islice, product
from operator import contains, itemgetter
from typing import Callable, Iterable, Sequence

from .errors import GroundingError, env_cap
from .pddl import DomainDef, OperatorSchema, ProblemDef, atom_text

log = logging.getLogger(__name__)

DEFAULT_GROUND_CAP = 100_000
INF = float("inf")


@dataclass(frozen=True, slots=True)
class GroundAction:
    """Fully instantiated action over fact indices.

    ``pre``, ``adds`` and ``dels`` are tuples of fact ids in strictly
    increasing order, and ``dels`` shares no fact with ``adds``; ``ground``
    builds every action that way, and a task built by hand must too. An
    action's id is its index in ``PlanningTask.actions``."""

    name: str
    pre: tuple[int, ...]
    adds: tuple[int, ...]
    dels: tuple[int, ...]
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
        return {a.name: i for i, a in enumerate(self.actions)}

    @cached_property
    def pres(self) -> tuple[tuple[int, ...], ...]:
        """For each action, its ``pre`` tuple itself (ascending fact ids)."""
        return tuple(a.pre for a in self.actions)

    @cached_property
    def adds(self) -> tuple[tuple[int, ...], ...]:
        """For each action, its ``adds`` tuple itself (ascending fact ids)."""
        return tuple(a.adds for a in self.actions)

    def _by_fact(self, facts_of) -> tuple[tuple[int, ...], ...]:
        by_fact: list[list[int]] = [[] for _ in range(len(self.facts))]
        for i, a in enumerate(self.actions):
            for f in facts_of(a):
                by_fact[f].append(i)
        return tuple(tuple(v) for v in by_fact)

    @cached_property
    def adders(self) -> tuple[tuple[int, ...], ...]:
        """For each fact, the indices of the actions adding it."""
        return self._by_fact(lambda a: a.adds)

    @cached_property
    def by_pre(self) -> tuple[tuple[int, ...], ...]:
        """For each fact, the indices of the actions requiring it."""
        return self._by_fact(lambda a: a.pre)

    @cached_property
    def costs(self) -> tuple[int, ...]:
        return tuple(a.cost for a in self.actions)

    @cached_property
    def init_hmax(self) -> tuple:
        """For each fact, its h_max value from ``init`` under ``costs``
        (``INF`` when relaxed-unreachable); every goal of the task shares it."""
        return tuple(hmax_values(self.pres, self.adds, self.by_pre, self.costs, self.init))


# What is derived from the task used last and shared by its goals: the
# constraint families' parts and recognition's per-goal base results. The
# task is held weakly and matched by identity (tasks are frozen); one task
# at a time keeps memory flat when a caller holds many, and the memo goes
# when its task dies. The lock lets callers score from their own threads; it
# is reentrant because the task's weak reference calls back when the task
# dies, which a collection started inside the lock can make happen.
_memo_lock = threading.RLock()
_memo: tuple[weakref.ref, dict] | None = None


def task_memo(task: PlanningTask) -> dict:
    """The memo of ``task``, empty unless ``task`` is the task used last."""
    global _memo
    with _memo_lock:
        if _memo is None or _memo[0]() is not task:
            _memo = (weakref.ref(task, _forget_memo), {})
        return _memo[1]


def _forget_memo(ref: weakref.ref) -> None:
    """Drop the memo of the task ``ref`` held, if no other task's has taken its place."""
    global _memo
    with _memo_lock:
        if _memo is not None and _memo[0] is ref:
            _memo = None


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


def relaxed_reachable(task: PlanningTask) -> tuple[frozenset[int], frozenset[int]]:
    """Delete-relaxation fixpoint from ``task.init``; returns (reachable facts,
    applicable action indices).

    Each newly reached fact counts down, through ``task.by_pre``, the unreached
    preconditions of the actions requiring it."""
    missing = [len(a.pre) for a in task.actions]
    applicable = [a for a, n in enumerate(missing) if n == 0]
    adds, by_pre = task.adds, task.by_pre
    queue = [*task.init, *(f for a in applicable for f in adds[a])]
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


def _picker(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function from a tuple to the tuple of its items at ``indices``."""
    if len(indices) == 1:
        i, = indices
        return lambda t: (t[i],)
    return itemgetter(*indices) if indices else lambda t: ()


def _bindings(schema: OperatorSchema, pools: list[list[str]], dynamic: set[str],
              init_args: dict[str, set[tuple[str, ...]]]) -> Iterable[tuple[str, ...]]:
    """Parameter tuples of ``schema`` whose static preconditions (predicates not
    in ``dynamic``) hold initially, in ``product(*pools)`` order, lazily where
    some parameter is left unbound.

    Each static literal's init tuples that fit its constants, repeated
    variables and parameter pools are hash-joined with the partial bindings
    on the parameters both bind; unbound parameters range over their pools."""
    var_pos = {v: i for i, (v, _) in enumerate(schema.params)}
    order: list[int] = []  # the parameters bound so far, in the order they were bound
    partial: list[tuple[str, ...]] = [()]  # their values, one tuple per partial binding
    for lit in (lit for lit in schema.pre if lit[0] not in dynamic):
        terms = lit[1:]
        first: dict[int, int] = {}  # each parameter of the literal to its first argument
        for j, t in enumerate(terms):
            if t in var_pos:
                first.setdefault(var_pos[t], j)
        allowed = [set(pools[var_pos[t]]) if t in var_pos else {t} for t in terms]
        repeats = [(j, first[var_pos[t]]) for j, t in enumerate(terms)
                   if t in var_pos and first[var_pos[t]] != j]
        shared = [i for i in first if i in order]
        fresh = [i for i in first if i not in order]
        shared_of, fresh_of = _picker([first[i] for i in shared]), _picker([first[i] for i in fresh])
        index: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for args in init_args.get(lit[0], ()):
            if all(map(contains, allowed, args)) and \
                    (not repeats or all(args[j] == args[k] for j, k in repeats)):
                index.setdefault(shared_of(args), []).append(fresh_of(args))
        key_of = _picker([order.index(i) for i in shared])
        partial = [p + row for p in partial for row in index.get(key_of(p), ())]
        order += fresh
    if len(order) == len(pools):
        # every binding is complete; pools are sorted and duplicate-free, so
        # product order is tuple order
        if order == sorted(order):
            return sorted(partial)
        return sorted(map(_picker([order.index(i) for i in range(len(pools))]), partial))
    return merge(*(product(*[pools[i] if i not in order else (p[order.index(i)],)
                             for i in range(len(pools))])
                   for p in partial))


class _FactIds(dict):
    """Each ground atom ``(predicate, *args)`` to its fact id; an atom not
    seen before gets the next id."""

    def __missing__(self, atom: tuple[str, ...]) -> int:
        idx = self[atom] = len(self)
        return idx


def _instantiate(schema: OperatorSchema, bindings: list[tuple[str, ...]], fact_of: _FactIds
                 ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The precondition, add and delete facts of ``schema`` under each binding,
    each as a tuple of fact ids in strictly increasing order.

    Each literal's ground atom ``(predicate, *args)`` is read off ``binding +
    fixed`` by one itemgetter, ``fixed`` holding the predicates and constants
    the literals name; an atom without arguments is itself one of the fixed
    values, which an itemgetter of one index returns whole. Atoms are read a
    literal at a time over every binding, but interned binding by binding,
    literal by literal, so fact ids follow the bindings' order."""
    var_pos = {v: i for i, (v, _) in enumerate(schema.params)}
    fixed: dict[object, int] = {}

    def fixed_slot(value: object) -> int:
        return fixed.setdefault(value, len(var_pos) + len(fixed))

    def term_slot(term: str) -> int:
        return var_pos[term] if term in var_pos else fixed_slot(term)

    lits = schema.pre + schema.add + schema.delete
    getters = [itemgetter(fixed_slot(lit[0]), *map(term_slot, lit[1:])) if len(lit) > 1
               else itemgetter(fixed_slot(lit)) for lit in lits]
    consts = tuple(fixed)
    values = [binding + consts for binding in bindings]
    ids = list(map(fact_of.__getitem__,
                   chain.from_iterable(zip(*[map(atom, values) for atom in getters]))))

    def fact_tuples(first: int, stop: int) -> list[tuple[int, ...]]:
        if first == stop:
            return [()] * len(bindings)
        columns = zip(*[ids[k::len(lits)] for k in range(first, stop)])
        # Groups of one or two literals (over 80% of those grounded in the
        # benchmark's workloads) are ordered without a set: a set for every
        # group made `ground` about 12% slower.
        if stop - first == 1:
            return list(columns)
        if stop - first == 2:
            return [(f, g) if f < g else (g, f) if g < f else (f,) for f, g in columns]
        return [tuple(sorted(set(c))) for c in columns]

    num_pre, num_add = len(schema.pre), len(schema.add)
    return (fact_tuples(0, num_pre), fact_tuples(num_pre, num_pre + num_add),
            fact_tuples(num_pre + num_add, len(lits)))


def ground(dom: DomainDef, prob: ProblemDef) -> PlanningTask:
    """Instantiate every type-consistent schema application whose static
    preconditions (predicates never added or deleted) hold initially, up to
    ``OCGR_GROUND_CAP`` actions, then keep those applicable somewhere in the
    delete relaxation of the initial state, in their order; the fact
    table covers every grounded atom. Each action's ``pre``, ``adds`` and
    ``dels`` are tuples of fact ids in strictly increasing order; a delete
    effect the action also adds is dropped (STRIPS semantics), and a warning
    counts those dropped."""
    task = _ground_all(dom, prob)
    _, applicable = relaxed_reachable(task)
    if len(applicable) == task.num_actions:
        return task
    return PlanningTask(facts=task.facts, init=task.init, goal=task.goal, actions=tuple(
        a for i, a in enumerate(task.actions) if i in applicable))


def _ground_all(dom: DomainDef, prob: ProblemDef) -> PlanningTask:
    """``ground``'s task before pruning.

    Bindings come from joining each schema's static preconditions with the
    initial-state tuples of their predicates, not from filtering the full
    type product, but in that product's order, so fact ids and action indices
    follow it. Atoms are interned by their ``(predicate, *args)`` tuple, and
    each fact's name is built once.
    """
    cap = env_cap("OCGR_GROUND_CAP", DEFAULT_GROUND_CAP)

    objects = list(dom.constants) + list(prob.objects)
    seen: set[str] = set()
    for i, (o, _) in enumerate(objects):
        if o in seen:  # the parser's wording, for a hand-built definition
            raise GroundingError(f"duplicate constant '{o}'" if i < len(dom.constants) else
                                 f"object '{o}' is already a domain constant"
                                 if o in dict(dom.constants) else f"duplicate object '{o}'")
        seen.add(o)

    pools: dict[str, list[str]] = {}

    def candidates(want: str) -> list[str]:
        if want not in pools:
            pools[want] = sorted(o for o, t in objects if dom.is_subtype(t, want))
        return pools[want]

    dynamic = {lit[0] for sch in dom.operators for lit in sch.add + sch.delete}

    fact_of = _FactIds()
    init_idx = frozenset(map(fact_of.__getitem__, prob.init))
    goal_idx = frozenset(map(fact_of.__getitem__, prob.goal))

    init_args: dict[str, set[tuple[str, ...]]] = {}
    for lit in prob.init:
        init_args.setdefault(lit[0], set()).add(lit[1:])

    actions: list[GroundAction] = []
    overlap_dropped = 0
    for schema in dom.operators:
        room = cap - len(actions)
        bindings = list(islice(_bindings(schema, [candidates(t) for _, t in schema.params],
                                         dynamic, init_args), room + 1))
        capped = len(bindings) > room
        del bindings[room:]
        pres, adds, dels = _instantiate(schema, bindings, fact_of)
        for binding, pre, add, delete in zip(bindings, pres, adds, dels):
            if any(f in add for f in delete):  # add wins, STRIPS semantics
                kept = tuple(g for g in delete if g not in add)
                overlap_dropped += len(delete) - len(kept)
                delete = kept
            actions.append(GroundAction(name=" ".join((schema.name,) + binding),
                                        pre=pre, adds=add, dels=delete))
        if capped:
            raise GroundingError(
                f"ground action cap exceeded ({cap}); raise OCGR_GROUND_CAP or simplify the task")
    if overlap_dropped:
        log.warning("dropped %d delete effects overlapping add effects", overlap_dropped)

    return PlanningTask(facts=tuple(map(atom_text, fact_of)), actions=tuple(actions),
                        init=init_idx, goal=goal_idx)
