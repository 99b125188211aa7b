"""Shared fixtures and small task builders for the test suite."""

from __future__ import annotations

import random

import pytest

from ocgr.generators import CORRIDOR_DOMAIN, demo_grid_bundle
from ocgr.grounding import GroundAction, PlanningTask
from ocgr.inputs import Bundle, bundle_from_texts
from ocgr.pddl import parse_domain, parse_problem

CHAIN_DOMAIN = """\
(define (domain chain)
  (:requirements :strips)
  (:predicates (p) (q))
  (:action a
    :parameters ()
    :precondition (p)
    :effect (and (q) (not (p)))))
"""

CHAIN_PROBLEM = """\
(define (problem chain-1)
  (:domain chain)
  (:objects)
  (:init (p))
  (:goal (q)))
"""

MOVE_DOMAIN = """\
(define (domain mover)
  (:requirements :strips)
  (:predicates (at ?x) (visited ?x))
  (:action move
    :parameters (?a ?b)
    :precondition (at ?a)
    :effect (and (at ?b) (visited ?b) (not (at ?a)))))
"""

ONE_WAY_BUNDLE = {
    "domain.pddl": CORRIDOR_DOMAIN,
    "template.pddl": ("(define (problem fork) (:domain corridor)"
                      " (:objects s0 l1 l2 r1 r2 - node)"
                      " (:init (at s0) (linked s0 l1) (linked l1 l2)"
                      " (linked s0 r1) (linked r1 r2)))"),
    "hyps.dat": "(at l2)\n(at r2)\n",
    "real_hyp.dat": "(at l2)\n",
}

# The one-way fork plus an island i1 -> i2 that nothing links to from s0,
# so the third hypothesis is relaxed-unreachable.
ISLAND_BUNDLE = {
    **ONE_WAY_BUNDLE,
    "template.pddl": ("(define (problem fork) (:domain corridor)"
                      " (:objects s0 l1 l2 r1 r2 i1 i2 - node)"
                      " (:init (at s0) (linked s0 l1) (linked l1 l2)"
                      " (linked s0 r1) (linked r1 r2) (linked i1 i2)))"),
    "hyps.dat": "(at l2)\n(at r2)\n(at i2)\n",
}


def open_grid_bundle(n: int) -> dict[str, str]:
    """An open n x n corridor grid with no observations, three corner hypotheses."""
    cells = [f"c{x}_{y}" for x in range(n) for y in range(n)]
    links = [f"(linked c{x}_{y} c{x + dx}_{y + dy})"
             for x in range(n) for y in range(n) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
             if 0 <= x + dx < n and 0 <= y + dy < n]
    far = n - 1
    return {
        "domain.pddl": CORRIDOR_DOMAIN,
        "template.pddl": (f"(define (problem open{n}) (:domain corridor)"
                          f" (:objects {' '.join(cells)} - node)"
                          f" (:init (at c0_0) {' '.join(links)}))"),
        "hyps.dat": f"(at c{far}_{far})\n(at c0_{far})\n(at c{far // 2}_{far})\n",
        "real_hyp.dat": f"(at c{far}_{far})\n",
    }


def chain_task() -> PlanningTask:
    dom = parse_domain(CHAIN_DOMAIN)
    prob = parse_problem(CHAIN_PROBLEM, dom)
    from ocgr.grounding import ground
    return ground(dom, prob)


@pytest.fixture(scope="session")
def chain() -> PlanningTask:
    return chain_task()


@pytest.fixture(scope="session")
def demo_bundle() -> Bundle:
    return bundle_from_texts(dict(demo_grid_bundle()))


def with_template_goal(template: str, goal: str) -> str:
    """``template`` with ``(:goal goal)`` on its own line before its closing parenthesis."""
    end = template.rstrip().rfind(")")
    return f"{template[:end]}  (:goal {goal})\n{template[end:]}"


def fact_tuple(ids) -> tuple[int, ...]:
    """``ids`` as a ``GroundAction`` keeps facts: ascending, without repeats."""
    return tuple(sorted(set(ids)))


def make_micro_task(rng: random.Random, num_facts: int = 6, num_actions: int = 7,
                    walk: int = 5) -> PlanningTask:
    """Random tiny task whose goal lies on a random walk from init."""
    facts = tuple(f"(f{i})" for i in range(num_facts))
    actions = []
    for i in range(num_actions):
        pre = fact_tuple(rng.sample(range(num_facts), rng.randint(0, 2)))
        add = fact_tuple(rng.sample(range(num_facts), rng.randint(1, 2)))
        dels = fact_tuple(f for f in rng.sample(range(num_facts), rng.randint(0, 2))
                          if f not in add)
        actions.append(GroundAction(name=f"a{i}", pre=pre, adds=add, dels=dels))
    init = frozenset(rng.sample(range(num_facts), rng.randint(1, 3)))
    state = set(init)
    for _ in range(rng.randint(1, walk)):
        applicable = [a for a in actions if state.issuperset(a.pre)]
        if not applicable:
            break
        a = rng.choice(applicable)
        state = state.difference(a.dels).union(a.adds)
    goal = frozenset(rng.sample(sorted(state), min(len(state), rng.randint(1, 2))))
    return PlanningTask(facts=facts, actions=tuple(actions), init=init, goal=goal)


def plan_counts(task: PlanningTask, steps) -> list[int]:
    counts = [0] * task.num_actions
    for a in steps:
        counts[a] += 1
    return counts
