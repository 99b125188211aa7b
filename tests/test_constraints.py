import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_micro_task, plan_counts
from ocgr.constraints import (ALL_FAMILIES, INF, SRC_LANDMARK, SRC_NET_CHANGE,
                              SRC_POST_HOC, base_constraints, dump_constraints,
                              hmax, landmark_constraints, net_change_constraints,
                              posthoc_constraints)
from ocgr.errors import CapExceeded, GoalUnreachable
from ocgr.grounding import GroundAction, PlanningTask
from ocgr.lp import LinearProgram, solve_lp
from ocgr.oracle import enumerate_plans, optimal_cost


def test_hmax_chain(chain):
    assert hmax(chain, chain.init, chain.goal) == 1


def test_hmax_goal_in_from(chain):
    assert hmax(chain, chain.init, chain.init) == 0


def test_hmax_unreachable():
    task = PlanningTask(facts=("(p)", "(q)"), actions=(), init=frozenset({0}),
                        goal=frozenset({1}))
    assert hmax(task, task.init, task.goal) == INF


def test_hmax_respects_costs(chain):
    assert hmax(chain, chain.init, chain.goal, costs=(Fraction(5),)) == 5


def test_hmax_admissible_on_random_tasks():
    rng = random.Random(5)
    for _ in range(40):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal, cap=200_000)
        assert opt.status == "optimal"
        assert hmax(task, task.init, task.goal) <= opt.cost


def test_landmarks_chain(chain):
    cset = landmark_constraints(chain, chain.goal)
    assert len(cset) == 1
    row = cset[0]
    assert row.terms == ((0, 1),) and row.rhs == 1 and row.source == SRC_LANDMARK


def test_landmarks_goal_in_init(chain):
    assert len(landmark_constraints(chain, chain.init)) == 0


def test_landmarks_unreachable_goal():
    task = PlanningTask(facts=("(p)", "(q)"), actions=(), init=frozenset({0}),
                        goal=frozenset({1}))
    with pytest.raises(GoalUnreachable):
        landmark_constraints(task, task.goal)


def _is_disjunctive_landmark(task, goal, landmark_actions):
    """Removing every landmark action must make the goal unreachable."""
    kept = tuple(a for a in task.actions if a.id not in landmark_actions)
    renumbered = tuple(
        GroundAction(id=i, name=a.name, pre=a.pre, adds=a.adds, dels=a.dels, cost=a.cost)
        for i, a in enumerate(kept))
    cut_task = PlanningTask(facts=task.facts, actions=renumbered,
                            init=task.init, goal=frozenset(goal))
    return optimal_cost(cut_task, goal, cap=500_000).status == "unreachable"


def test_landmark_validity_demo_grid(demo_bundle):
    task = demo_bundle.task
    for goal in demo_bundle.hyps.goals:
        cset = landmark_constraints(task, goal)
        assert len(cset) >= 1
        for row in cset:
            actions = {a for a, _ in row.terms}
            assert _is_disjunctive_landmark(task, goal, actions)


def test_landmark_validity_random_tasks():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        task = make_micro_task(rng)
        try:
            cset = landmark_constraints(task, task.goal)
        except GoalUnreachable:
            continue
        for row in cset:
            actions = {a for a, _ in row.terms}
            assert _is_disjunctive_landmark(task, task.goal, actions)
            checked += 1
    assert checked >= 10


def test_net_change_chain(chain):
    cset = net_change_constraints(chain, chain.goal)
    rows = {tuple(c.terms): c.rhs for c in cset}
    assert rows == {((0, 1),): 1, ((0, -1),): -1}
    assert all(c.source == SRC_NET_CHANGE for c in cset)


def test_net_change_fact_in_init_and_goal_dropped():
    # p is in both init and goal and has no producers/consumers
    a = GroundAction(0, "a", frozenset(), frozenset({1}), frozenset())
    task = PlanningTask(facts=("(p)", "(q)"), actions=(a,), init=frozenset({0}),
                        goal=frozenset({0}))
    cset = net_change_constraints(task, task.goal)
    assert all(0 not in {v for v, _ in c.terms} for c in cset)
    facts_with_rows = {v for c in cset for v, _ in c.terms}
    assert facts_with_rows <= {0}  # only the producer-free row for p could appear
    assert len(cset) == 0  # q's row (producers only, rhs 0) is trivially satisfied


def test_net_change_unreachable_goal_fact():
    task = PlanningTask(facts=("(p)", "(q)"), actions=(), init=frozenset({0}),
                        goal=frozenset({1}))
    with pytest.raises(GoalUnreachable):
        net_change_constraints(task, task.goal)


def test_posthoc_chain(chain):
    cset = posthoc_constraints(chain, chain.goal)
    assert len(cset) == 1
    row = cset[0]
    assert row.terms == ((0, 1),) and row.rhs == 1 and row.source == SRC_POST_HOC


def test_posthoc_goal_in_init(chain):
    assert len(posthoc_constraints(chain, chain.init)) == 0


def _lp_value(task, cset):
    out = solve_lp(LinearProgram.from_constraints(cset, task.costs))
    assert out.status == "optimal"
    return out.value


def test_posthoc_only_lp_below_oracle():
    rng = random.Random(31)
    for _ in range(30):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal, cap=200_000)
        assert opt.status == "optimal"
        try:
            cset = posthoc_constraints(task, task.goal)
        except GoalUnreachable:
            continue
        assert _lp_value(task, cset) <= opt.cost + 1e-6


def test_base_constraints_default_is_union(chain):
    full = base_constraints(chain, chain.goal)
    sources = {c.source for c in full}
    assert sources == {SRC_LANDMARK, SRC_NET_CHANGE, SRC_POST_HOC}
    nc_only = base_constraints(chain, chain.goal, families=("nc",))
    assert {c.source for c in nc_only} == {SRC_NET_CHANGE}


def test_base_constraints_rejects_bad_families(chain):
    with pytest.raises(ValueError):
        base_constraints(chain, chain.goal, families=("xx",))
    with pytest.raises(ValueError):
        base_constraints(chain, chain.goal, families=())


def test_family_monotonicity():
    """More families never lower the LP objective."""
    rng = random.Random(43)
    subsets = [("nc",), ("lm",), ("ph",), ("lm", "nc"), ("lm", "nc", "ph")]
    for _ in range(20):
        task = make_micro_task(rng)
        try:
            values = {fams: _lp_value(task, base_constraints(task, task.goal, fams))
                      for fams in subsets}
        except GoalUnreachable:
            continue
        for small in subsets:
            for big in subsets:
                if set(small) <= set(big):
                    assert values[small] <= values[big] + 1e-6


def test_constraint_soundness_against_enumerated_plans():
    """Every enumerated plan's count vector satisfies every family."""
    rng = random.Random(71)
    families = {"lm": landmark_constraints, "nc": net_change_constraints,
                "ph": posthoc_constraints}
    tasks_checked = plans_checked = 0
    while tasks_checked < 25:
        task = make_micro_task(rng)
        try:
            plans = enumerate_plans(task, task.goal, max_len=6, node_cap=80_000)
        except CapExceeded:
            continue
        if not plans:
            continue
        tasks_checked += 1
        csets = {}
        for name, gen in families.items():
            try:
                csets[name] = gen(task, task.goal)
            except GoalUnreachable:
                pytest.fail("plan exists but generator says unreachable")
        for plan in plans[:200]:
            counts = plan_counts(task, plan.steps)
            for name, cset in csets.items():
                for row in cset:
                    assert row.satisfied_by(counts), (name, row.text(), plan.steps)
            plans_checked += 1
    assert plans_checked >= 25


def test_rows_have_int_coefficients_and_rhs():
    rng = random.Random(29)
    rows_checked = 0
    for _ in range(30):
        task = make_micro_task(rng)
        task = PlanningTask(
            facts=task.facts, init=task.init, goal=task.goal,
            actions=tuple(replace(a, cost=rng.randint(1, 3)) for a in task.actions))
        for gen in (landmark_constraints, posthoc_constraints):
            for row in gen(task, task.goal):
                assert type(row.rhs) is int, row.text()
                assert all(type(c) is int for _, c in row.terms), row.text()
                rows_checked += 1
    assert rows_checked >= 30


def test_dump_format(chain):
    text = dump_constraints(net_change_constraints(chain, chain.goal), chain)
    assert "sum 1*(a) >= 1 [net-change]" in text
    assert "sum -1*(a) >= -1 [net-change]" in text


def test_landmark_validity_blocks_four():
    from ocgr.generators import BLOCKS_DOMAIN
    from ocgr.grounding import ground
    from ocgr.pddl import parse_domain, parse_problem

    dom = parse_domain(BLOCKS_DOMAIN)
    prob = parse_problem(
        "(define (problem b4) (:domain blocks) (:objects a b c d)"
        " (:init (handempty) (on a b) (clear a) (ontable b)"
        " (ontable c) (clear c) (ontable d) (clear d)))", dom)
    task = ground(dom, prob)
    goal = frozenset({task.fact_index["(on b c)"], task.fact_index["(on c d)"]})
    cset = landmark_constraints(task, goal)
    assert len(cset) >= 2
    for row in cset:
        actions = {a for a, _ in row.terms}
        assert _is_disjunctive_landmark(task, goal, actions)
