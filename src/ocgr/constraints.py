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

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .errors import GoalUnreachable, check_name
from .grounding import INF, PlanningTask, task_memo

SRC_LANDMARK = "landmark"
SRC_NET_CHANGE = "net-change"
SRC_POST_HOC = "post-hoc"

FAMILY_LANDMARKS = "lm"
FAMILY_NET_CHANGE = "nc"
FAMILY_POST_HOC = "ph"
ALL_FAMILIES = (FAMILY_LANDMARKS, FAMILY_NET_CHANGE, FAMILY_POST_HOC)

_LMCUT_ROUND_GUARD = 100_000


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coef * Y_action) >= rhs, in canonical form: ``terms`` lists each
    action at most once, in increasing order, with a nonzero coefficient.
    ``lp.compile_rows`` rejects a row that is not canonical.

    ``zeroed`` is set on landmark rows only: the cut action whose residual
    cost the row's round drove to 0. It is not part of the row's identity.
    """

    terms: tuple[tuple[int, int], ...]
    rhs: int
    source: str
    zeroed: int | None = field(default=None, compare=False, repr=False)

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


class _LmCutSetup(NamedTuple):
    """LM-cut's graph without the goal. Nodes are the facts, the goal node
    ``num_facts`` and the init node ``num_facts + 1``; the virtual goal
    action is ``num_actions``, of cost 0, adding the goal node. Per action:
    its preconditions not true initially (its open ones), its round-one
    supporter (-1 for none) and its add effects, the virtual action's
    appended. Per node: its cost-0 adders, the virtual action's for the goal
    node, and the successor lists. An ``(action, add)`` pair is an action
    with one of its add effects, one pair per add effect. ``single[f]`` holds
    the pairs of the actions whose only open precondition is f, and the init
    node's those of the actions with none; ``multi[f]`` holds the actions
    with two or more open preconditions, f among them. Every field is a
    tuple: the task's memo shares them between its goals and between
    threads."""

    pres: tuple[tuple[int, ...], ...]
    supporter: tuple[int, ...]
    adds: tuple[tuple[int, ...], ...]
    free_adders: tuple[tuple[int, ...], ...]
    single: tuple[tuple[tuple[int, int], ...], ...]
    multi: tuple[tuple[int, ...], ...]


class _NetChange(NamedTuple):
    """The net-change rows of the empty goal, in fact order: one per fact
    with a guaranteed consumer. Fact f's row, if it has one, is
    ``rows[start[f]]``, and it has one when ``start[f + 1] > start[f]``;
    ``producers[f]`` lists the actions adding f without requiring it."""

    rows: tuple[LinearConstraint, ...]
    start: tuple[int, ...]
    producers: tuple[tuple[int, ...], ...]


def _shared(task: PlanningTask, build):
    """``build(task)``, the part every goal of ``task`` shares: built on first
    use and kept under ``build`` in the task's ``task_memo``. No part holds
    the task."""
    memo = task_memo(task)
    return memo[build] if build in memo else memo.setdefault(build, build(task))


def _lmcut_setup(task: PlanningTask) -> _LmCutSetup:
    init, value_of, costs = task.init, task.init_hmax.__getitem__, task.costs
    init_node = task.num_facts + 1
    pres, supporter = [], []
    free: dict[int, list[int]] = {task.num_facts: [task.num_actions]}
    single: dict[int, list[tuple[int, int]]] = {}
    multi: dict[int, list[int]] = {}
    # one plain loop, with no generator per action: every grounded task
    # builds this afresh, and its first goal pays for it
    for ai, pre, add in zip(count(), task.pres, task.adds):
        if not init.isdisjoint(pre):
            open_pre = ()
            for p in pre:
                if p not in init:
                    open_pre += (p,)
            pre = open_pre
        pres.append(pre)
        if len(pre) < 2:
            supporter.append(pre[0] if pre else -1)
            pairs = single.setdefault(pre[0] if pre else init_node, [])
            for q in add:
                pairs.append((ai, q))
        else:
            # pres are sorted, so max keeps the lowest index on ties
            supporter.append(max(pre, key=value_of))
            for f in pre:
                multi.setdefault(f, []).append(ai)
        if costs[ai] == 0:
            for f in add:
                free.setdefault(f, []).append(ai)

    def per_node(lists: dict[int, list]) -> tuple[tuple, ...]:
        out: list[tuple] = [()] * (init_node + 1)
        for v, items in lists.items():
            out[v] = tuple(items)
        return tuple(out)

    return _LmCutSetup(tuple(pres), tuple(supporter),
                       task.adds + ((task.num_facts,),), per_node(free),
                       per_node(single), per_node(multi))


def _net_change(task: PlanningTask) -> _NetChange:
    # per fact, in action order: producers +1 (add without pre) and
    # consumers -1 (pre and del); no action is both for a fact
    terms: list[list[tuple[int, int]]] = [[] for _ in range(task.num_facts)]
    for i, a in enumerate(task.actions):
        for f in a.adds:
            if f not in a.pre:
                terms[f].append((i, 1))
        for f in a.dels:
            if f in a.pre:
                terms[f].append((i, -1))
    rows: list[LinearConstraint] = []
    start = [0]
    for f, fact_terms in enumerate(terms):
        if any(c < 0 for _, c in fact_terms):
            rows.append(LinearConstraint(terms=tuple(fact_terms),
                                         rhs=-1 if f in task.init else 0,
                                         source=SRC_NET_CHANGE))
        start.append(len(rows))
    producers = tuple(tuple(a for a, c in fact_terms if c > 0) for fact_terms in terms)
    return _NetChange(tuple(rows), tuple(start), producers)


def relaxed_plan(task: PlanningTask, goal: Iterable[int]) -> frozenset[int]:
    """The actions of one relaxed plan for a relaxed-reachable ``goal``, read
    off ``task.init_hmax``; LM-cut takes its crash columns from it.

    Walks back from the goal facts not true initially: each such fact takes
    its h_max achiever (cost plus largest precondition value equal to the
    fact's value, lowest action index on ties), whose preconditions not true
    initially are walked in turn. The plan depends only on the task and the
    goal. With zero-cost actions a precondition can share its fact's value
    and the walk can close a cycle rather than a plan; that changes only
    which crash columns are taken.
    """
    values, init, costs, pres = task.init_hmax, task.init, task.costs, task.pres
    stack = list(set(goal) - init)
    seen = set(stack)
    plan: set[int] = set()
    while stack:
        f = stack.pop()
        a = next(a for a in task.adders[f]
                 if costs[a] + max((values[p] for p in pres[a]), default=0) == values[f])
        plan.add(a)
        for p in pres[a]:
            if p not in init and p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(plan)


def landmark_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Disjunctive action landmarks via justification-graph cut rounds.

    Each action's supporter is its maximum-h_max precondition among those not
    in ``task.init`` (ties by lowest fact index), or none when every
    precondition holds initially. Init facts keep h_max 0 in every round and
    the goal zone holds only facts valued at least the goal's (positive)
    value, so leaving them out changes no positive-valued supporter, no zone
    and no cut. Each round extracts the cut between the init-side zone and
    the zero-cost goal zone, emits it as a landmark and reduces the cut
    actions' residual costs by the cut minimum. Costs are integers, so
    residuals stay exact integers.

    Every round emits one row, in round order; its ``zeroed`` is a cut
    action whose residual the round drives to 0: the lowest-index one on the
    goal's ``relaxed_plan`` when the cut has one, else the lowest-index one.
    No cut holds an action of residual 0: its supporter would lie in the
    goal zone, or, needing only init facts, it would give a zone fact h_max
    0, below the goal's. The virtual goal action has residual 0. So each cut
    is a nonempty set of real actions, the zeroed actions are distinct, and
    a zeroed action lies in no later row: no landmark repeats, and the
    landmark rows' block on their zeroed columns is unit upper triangular,
    which the base LP's crash start relies on.

    Only round one's h_max values are a full pass (the task's ``init_hmax``),
    so every action's round-one supporter depends only on the task: the
    task's memo keeps them, with the preconditions not true initially, for
    its later goals; only the virtual goal action's is the goal's own.
    After a cut, values can only fall, and an action's maximum precondition
    value moves only when its supporter's value falls. So each later round
    propagates only the drops, in Dijkstra order from the cut actions' add
    effects, and recomputes a supporter only when its value falls; values
    and supporters stay those of a full pass under the residual costs.

    The cut search and the update walk the successor lists in the task's
    memo. An action whose only open precondition is f has f as supporter in
    every round, so reaching f expands it, and f's fall fires it at f's
    value, with no supporter test and no maximum. An action with several is
    taken only where f is its supporter, and the update then recomputes its
    supporter. A residual only falls, and reaches 0 only in the round that
    drains it, so the goal zone walks per node just the adders of residual
    0: the cost-0 actions and the virtual goal action, joined after each
    round by its drained actions.
    """
    goal = frozenset(goal)
    num_a = task.num_actions
    if not goal:
        return ()
    goal_node, init_node = task.num_facts, task.num_facts + 1
    num_nodes = task.num_facts + 1  # the nodes with a value: facts and goal
    # Round one runs on the original costs: the task's init_hmax, and the goal
    # node's value is that of its virtual action, the largest goal value.
    values = [*task.init_hmax, max(task.init_hmax[g] for g in goal)]
    if values[goal_node] == INF:
        raise GoalUnreachable("goal unreachable in the delete relaxation")
    if values[goal_node] == 0:
        return ()
    setup = _shared(task, _lmcut_setup)
    plan = relaxed_plan(task, goal)
    # a virtual goal action (id num_a, cost 0) adds the goal node; only
    # preconditions not true initially can be supporters. It joins copies of
    # the successor lists' outer sequences: the memo's tuples stay as built.
    goal_pre = tuple(sorted(goal - task.init))
    pres = setup.pres + (goal_pre,)
    adds, single, multi = setup.adds, setup.single, setup.multi
    if len(goal_pre) == 1:
        single = list(single)
        single[goal_pre[0]] += ((num_a, goal_node),)
    else:
        multi = list(multi)
        for g in goal_pre:
            multi[g] += (num_a,)
    residual = list(task.costs) + [0]
    # per node, its adders of residual 0; a round's drained actions join them
    zero_adders = list(setup.free_adders)

    out: list[LinearConstraint] = []
    value_of = values.__getitem__
    supporter = [*setup.supporter, max(goal_pre, key=value_of)]
    for _ in range(_LMCUT_ROUND_GUARD):
        in_zone = [False] * num_nodes
        in_zone[goal_node] = True
        stack = [goal_node]
        while stack:
            v = stack.pop()
            for ai in zero_adders[v]:
                s = supporter[ai]
                if s >= 0 and not in_zone[s] and values[s] != INF:
                    in_zone[s] = True
                    stack.append(s)

        # forward from the init node over the supported actions; those adding
        # a zone fact form the cut. Each action is expanded at most once.
        cut: set[int] = set()
        before = [False] * num_nodes
        stack.append(init_node)
        while stack:
            u = stack.pop()
            for ai, q in single[u]:
                if in_zone[q]:
                    cut.add(ai)
                elif not before[q]:
                    before[q] = True
                    stack.append(q)
            for ai in multi[u]:
                if supporter[ai] == u:
                    for q in adds[ai]:
                        if in_zone[q]:
                            cut.add(ai)
                        elif not before[q]:
                            before[q] = True
                            stack.append(q)

        if not cut:
            raise RuntimeError("landmark extraction found no cut with positive h_max")
        m = min(residual[ai] for ai in cut)
        if m <= 0:
            raise RuntimeError("zero-cost cut; justification graph is inconsistent")
        landmark = sorted(cut)
        drained = [ai for ai in landmark if residual[ai] == m]
        zeroed = next((ai for ai in drained if ai in plan), drained[0])
        out.append(LinearConstraint(terms=tuple((a, 1) for a in landmark), rhs=1,
                                    source=SRC_LANDMARK, zeroed=zeroed))
        for ai in drained:
            for q in adds[ai]:
                zero_adders[q] += (ai,)

        # every cut action's new value is taken before any value falls: a cut
        # action may add another's supporter, which is then no longer its max
        fires = []
        for ai in cut:
            residual[ai] -= m
            s = supporter[ai]
            fires.append((residual[ai] + (values[s] if s >= 0 else 0), ai))
        heap: list[tuple] = []
        for fire, ai in fires:
            for q in adds[ai]:
                if fire < values[q]:
                    values[q] = fire
                    heappush(heap, (fire, q))
        while heap:
            val, f = heappop(heap)
            if val > values[f]:
                continue  # stale: f fell again after this push
            # f is the supporter of each action whose one open precondition
            # it is, so val is that action's largest precondition value
            for ai, q in single[f]:
                fire = residual[ai] + val
                if fire < values[q]:
                    values[q] = fire
                    heappush(heap, (fire, q))
            for ai in multi[f]:
                if supporter[ai] == f:
                    s = supporter[ai] = max(pres[ai], key=value_of)
                    fire = residual[ai] + values[s]
                    for q in adds[ai]:
                        if fire < values[q]:
                            values[q] = fire
                            heappush(heap, (fire, q))
        if values[goal_node] == 0:
            break
    else:
        raise RuntimeError("landmark extraction did not converge")
    return tuple(out)


def net_change_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Lower-bound state-change rows, one per fact with any terms or demand,
    in fact order.

    Guaranteed producers (add without pre) count +1, guaranteed consumers
    (delete with pre) count -1; may-consumers are left out so every plan
    stays feasible. rhs = [fact in goal] - [fact in init]. Without demand a
    row is kept only when it has a consumer, so the goal-free rows in the
    task's memo are every row but the goal facts': a goal fact's row takes
    rhs 1 - [fact in init], and one with producers only is added.
    """
    rows, start, producers = _shared(task, _net_change)
    out = list(rows)
    added: list[tuple[int, LinearConstraint]] = []
    for g in sorted(set(goal)):
        at = start[g]
        rhs = 0 if g in task.init else 1
        if start[g + 1] > at:
            out[at] = LinearConstraint(terms=rows[at].terms, rhs=rhs, source=SRC_NET_CHANGE)
        elif rhs > 0:
            if not producers[g]:
                raise GoalUnreachable(
                    f"goal fact {task.facts[g]} has no producer and is not initially true")
            added.append((at, LinearConstraint(terms=tuple((a, 1) for a in producers[g]),
                                               rhs=rhs, source=SRC_NET_CHANGE)))
    for at, row in reversed(added):
        out.insert(at, row)
    return tuple(out)


def posthoc_constraints(task: PlanningTask, goal: Iterable[int]) -> tuple[LinearConstraint, ...]:
    """Per goal fact: cost of its relaxed relevance set >= its h_max value."""
    goal = sorted(set(goal))
    if not goal:
        return ()
    values = task.init_hmax
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


def check_families(families: Iterable[str]) -> None:
    """Raise ``ValueError`` (an input error), naming the first unknown family
    in sorted order, unless ``families`` is a non-empty set of ``ALL_FAMILIES``."""
    chosen = sorted(families)
    for family in chosen:
        check_name("constraint family", family, ALL_FAMILIES)
    if not chosen:
        raise ValueError("at least one constraint family is required")


def base_constraints(task: PlanningTask, goal: Iterable[int],
                     families: Iterable[str] = ALL_FAMILIES) -> tuple[LinearConstraint, ...]:
    """Concatenation of the selected families, in a fixed order."""
    chosen = set(families)
    check_families(chosen)
    goal = frozenset(goal)
    rows: tuple[LinearConstraint, ...] = ()
    if FAMILY_LANDMARKS in chosen:
        rows += landmark_constraints(task, goal)
    if FAMILY_NET_CHANGE in chosen:
        rows += net_change_constraints(task, goal)
    if FAMILY_POST_HOC in chosen:
        rows += posthoc_constraints(task, goal)
    return rows
