import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import ocgr.grounding
from conftest import ISLAND_BUNDLE, fact_tuple, make_micro_task, open_grid_bundle, plan_counts
from ocgr.bench import SuiteSpec, generated_problems
from ocgr.constraints import (ALL_FAMILIES, INF, SRC_LANDMARK, SRC_NET_CHANGE,
                              SRC_POST_HOC, LinearConstraint, _lmcut_setup,
                              base_constraints, dump_constraints,
                              landmark_constraints, net_change_constraints,
                              posthoc_constraints, relaxed_plan)
from ocgr.errors import CapExceeded, GoalUnreachable
from ocgr.generators import gen_blocks, gen_logistics
from ocgr.grounding import GroundAction, PlanningTask, task_memo
from ocgr.inputs import bundle_from_texts
from ocgr.lp import LinearProgram, solve_lp
from ocgr.oracle import optimal_cost
from references import (enumerate_plans, hmax, producers_and_consumers,
                        reference_landmark_constraints, reference_net_change_constraints)


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


def test_hmax_admissible_on_random_tasks(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "200000")
    rng = random.Random(5)
    for _ in range(40):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal)
        assert opt is not None
        assert hmax(task, task.init, task.goal) <= opt.cost


def test_init_hmax_table_is_each_facts_hmax():
    rng = random.Random(8)
    for _ in range(30):
        task = make_micro_task(rng)
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((0, 1, 2)))
                                           for a in task.actions))
        assert task.init_hmax == tuple(hmax(task, task.init, [f])
                                       for f in range(task.num_facts))


def _family_rows(task, goal):
    out = []
    for family in (landmark_constraints, posthoc_constraints):
        try:
            out.append(family(task, goal))
        except GoalUnreachable as exc:
            out.append(str(exc))
    return out


def test_landmark_and_posthoc_rows_are_pinned():
    """Whole landmark and post-hoc row tuples, order included, as computed
    when every goal ran its own h_max pass from init: the task's shared
    ``init_hmax`` table must leave them unchanged."""
    sources: dict[str, list] = {}
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=3,
                     seed=11, observability=(100,))
    for p in generated_problems(spec):
        sources.setdefault(p.domain_name, []).extend(_family_rows(p.task, g)
                                                     for g in p.hyps.goals)
    bundles = [(f"open{n}", open_grid_bundle(n)) for n in (8, 10, 12)]
    for name, files in bundles + [("island", ISLAND_BUNDLE)]:
        b = bundle_from_texts(files, require_obs=False)
        sources[name] = [_family_rows(b.task, g) for g in b.hyps.goals]
    rng = random.Random(21)
    sources["micro"] = []
    for _ in range(60):  # some actions cost 0
        task = make_micro_task(rng)
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((0, 1, 1, 3)))
                                           for a in task.actions))
        sources["micro"].append(_family_rows(task, task.goal))
    digests = {k: hashlib.sha256(repr(v).encode()).hexdigest() for k, v in sources.items()}
    assert digests == {
        "grid": "4de0454a5ae90cf01f1b260d9816f6aa327eac3ec8fc9814a4f889eb9359ebad",
        "blocks": "30bc2d1ff35855f125a8b40043499e4bccdbabf88fa268a34f1144e89269b3c7",
        "logistics": "696d98835dd2102e12ae461a9a67ba59644f784ab98ca797978354edfed20385",
        "corridor": "868b94295481fea1c20259f68eff4aef3da03e79bb23969b1ca9bf4b52af5228",
        "open8": "4270e94d6e772f85aaf060ad9f70e8cc25f007fb3c86ad6558fc6fe25d5d926f",
        "open10": "5823ee614b1d4354ed9ea341517b41bb6c1644f80ac3cca08ec1bf9e432c5388",
        "open12": "a726531c2999fbb66f726bd36593d0574e2dadf3463fe38dde45ddefb80da439",
        "island": "495a456b89559e1ad825d31d16f2f46bfa3240500662f01f125b73e91f7360e1",
        "micro": "a301c6473f3519d670cc939b664066bc35564bb03c87ead10ec4ea7b0b729379",
    }


def _landmark_outcome(family, task, goal):
    """The rows with their ``zeroed``, which row equality leaves out, or the error."""
    try:
        return tuple((r.terms, r.rhs, r.source, r.zeroed) for r in family(task, goal))
    except (GoalUnreachable, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def test_landmark_rows_match_full_pass_per_round():
    """The incremental h_max update after each cut gives the whole row tuples,
    or the error, of a full h_max pass from init per round."""
    cases = []
    for seed in (1, 2, 3):
        spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                         seed=seed, observability=(100,))
        cases += [(p.task, g) for p in generated_problems(spec) for g in p.hyps.goals]
    for n in range(8, 19, 2):
        b = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        cases += [(b.task, g) for g in b.hyps.goals]
    rng = random.Random(31)
    for _ in range(3000):  # some actions cost 0; some goals empty or unreachable
        num_facts = rng.randint(3, 12)
        task = make_micro_task(rng, num_facts, rng.randint(1, 16), rng.randint(1, 8))
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((0, 0, 1, 1, 2, 5)))
                                           for a in task.actions))
        other = frozenset(rng.sample(range(num_facts), rng.randint(1, 3)))
        cases += [(task, task.goal), (task, other)]
    kinds = set()
    for task, goal in cases:
        expected = _landmark_outcome(reference_landmark_constraints, task, goal)
        assert _landmark_outcome(landmark_constraints, task, goal) == expected
        if expected and isinstance(expected[0], str):
            kinds.add(expected[0])
        else:
            kinds.add("rows" if expected else "empty")
    assert kinds == {"GoalUnreachable", "rows", "empty"}


def test_landmark_rows_match_reference_with_large_init():
    """Supporters are chosen among the preconditions not true initially, so
    tasks whose init covers up to half the facts, with zero-cost actions,
    must still give the reference's rows or error, goal by goal."""
    rng = random.Random(7)
    kinds = set()
    for _ in range(3000):
        num_facts = rng.randint(3, 12)
        task = make_micro_task(rng, num_facts, rng.randint(1, 16), rng.randint(1, 8))
        extra = [f for f in range(num_facts) if f not in task.init]
        room = max(0, min(len(extra), num_facts // 2 - len(task.init)))
        task = replace(task, init=task.init | frozenset(rng.sample(extra, rng.randint(0, room))),
                       actions=tuple(replace(a, cost=rng.choice((0, 0, 1, 1, 2, 5)))
                                     for a in task.actions))
        other = frozenset(rng.sample(range(num_facts), rng.randint(1, 3)))
        for goal in (task.goal, other):
            expected = _landmark_outcome(reference_landmark_constraints, task, goal)
            assert _landmark_outcome(landmark_constraints, task, goal) == expected
            kinds.add(expected[0] if expected and isinstance(expected[0], str)
                      else "rows" if expected else "empty")
    assert kinds == {"GoalUnreachable", "rows", "empty"}


def test_landmark_rows_match_reference_on_random_tasks():
    """Tasks past micro size: 8-40 facts, 8-80 actions with 0-3 preconditions
    outside init each (and at most one in it), and one cost set per task out
    of {1}, {0, 1}, {1, 2, 3} and {0, 1, 5}. Each of three goals per task,
    one to three facts of positive h_max, gives the reference's rows with
    their ``zeroed``, or its error. Several open preconditions make the h_max
    update recompute supporters, which the micro tasks seldom reach."""
    rng = random.Random(22)
    goals = rounds = 0
    for _ in range(200):
        num_facts = rng.randint(8, 40)
        init = rng.sample(range(num_facts), rng.randint(1, 3))
        outside = [f for f in range(num_facts) if f not in init]
        costs = rng.choice(((1,), (0, 1), (1, 2, 3), (0, 1, 5)))
        actions = []
        for i in range(rng.randint(8, 80)):
            pre = rng.sample(outside, rng.randint(0, 3)) + rng.sample(init, rng.randint(0, 1))
            adds = fact_tuple(rng.sample(range(num_facts), rng.randint(1, 3)))
            dels = fact_tuple(f for f in rng.sample(range(num_facts), rng.randint(0, 2))
                              if f not in adds)
            actions.append(GroundAction(f"a{i}", fact_tuple(pre), adds, dels, rng.choice(costs)))
        task = PlanningTask(tuple(f"(f{i})" for i in range(num_facts)), tuple(actions),
                            frozenset(init), frozenset())
        positive = [f for f, value in enumerate(task.init_hmax) if 0 < value < INF]
        for _ in range(3 if positive else 0):
            goal = frozenset(rng.sample(positive, min(len(positive), rng.randint(1, 3))))
            expected = _landmark_outcome(reference_landmark_constraints, task, goal)
            assert _landmark_outcome(landmark_constraints, task, goal) == expected
            goals += 1
            rounds += len(expected)
    assert goals >= 500 and rounds >= 2 * goals


def test_landmark_rows_do_not_depend_on_goal_order():
    """A task's goals share its LM-cut setup, to which each goal adds its
    virtual goal action on copies only: a goal's rows, with their
    ``zeroed``, are the same on a freshly grounded task as after the task's
    other goals and their union ran on it. Each grid goal has one open
    fact, and a blocks goal and every union goal have several, so both
    kinds of virtual goal action are covered."""
    sources = [open_grid_bundle(12), gen_blocks(random.Random(1)).files,
               gen_logistics(random.Random(1)).files]
    for files in sources:
        hyps = bundle_from_texts(files, require_obs=False).hyps
        goals = [*hyps.goals, frozenset().union(*hyps.goals)]
        for goal in goals:
            alone = _landmark_outcome(landmark_constraints,
                                      bundle_from_texts(files, require_obs=False).task, goal)
            task = bundle_from_texts(files, require_obs=False).task
            for other in goals:
                if other != goal:
                    landmark_constraints(task, other)
            assert _landmark_outcome(landmark_constraints, task, goal) == alone
            setup = task_memo(task)[_lmcut_setup]
            assert all(type(part) is tuple for part in setup)
            assert all(type(entry) is tuple for part in setup if part is not setup.supporter
                       for entry in part)


def test_landmarks_when_an_achiever_needs_only_init_facts():
    """The goal holds the init fact p and the open fact q, whose only
    achiever a0 needs only p: a0 has no supporter, so the forward cut search
    must start from it, and {a0} is the one landmark."""
    actions = (GroundAction(name="a0", pre=(0,), adds=(1,), dels=()),)
    task = PlanningTask(facts=("(p)", "(q)"), actions=actions, init=frozenset({0}),
                        goal=frozenset({0, 1}))
    rows = landmark_constraints(task, task.goal)
    assert [row.terms for row in rows] == [((0, 1),)]
    assert rows == reference_landmark_constraints(task, task.goal)


def test_landmarks_when_a_cut_action_adds_anothers_supporter():
    """The first cut is {a0, a1}, and a0 adds p, the supporter of a1. After
    the cut p falls to 0, but r keeps a1's precondition maximum at 1, so r
    stays at 1 and the second round finds the landmark {a2}."""
    actions = (GroundAction(name="a0", pre=(), adds=(0, 1), dels=()),
               GroundAction(name="a1", pre=(0, 2), adds=(1, 2), dels=()),
               GroundAction(name="a2", pre=(), adds=(2,), dels=()))
    task = PlanningTask(facts=("(p)", "(q)", "(r)", "(s)"), actions=actions,
                        init=frozenset({3}), goal=frozenset({1, 2}))
    rows = landmark_constraints(task, task.goal)
    assert [row.terms for row in rows] == [((0, 1), (1, 1)), ((2, 1),)]
    assert rows == reference_landmark_constraints(task, task.goal)


def test_landmarks_run_no_full_hmax_pass(monkeypatch):
    """Round one reads the task's ``init_hmax``; later rounds update it from
    the cut actions, so LM-cut never calls ``hmax_values``."""
    b = bundle_from_texts(open_grid_bundle(12), require_obs=False)
    goals = [*b.hyps.goals, frozenset().union(*b.hyps.goals)]
    expected = [reference_landmark_constraints(b.task, g) for g in goals]
    assert all(expected)

    def full_pass(*args, **kwargs):
        raise AssertionError("LM-cut ran a full h_max pass")

    monkeypatch.setattr(ocgr.grounding, "hmax_values", full_pass)
    assert [landmark_constraints(b.task, g) for g in goals] == expected


def test_relaxed_plan_is_made_of_hmax_achievers():
    """Each action of a goal's relaxed plan gives one of its add effects its
    h_max value, and with positive costs the plan alone, applied in the delete
    relaxation, reaches the goal. On the open grids it is a shortest path."""
    cases = []
    for n in (8, 12, 18):
        b = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        cases += [(b.task, g, True) for g in b.hyps.goals]
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                     seed=1, observability=(100,))
    cases += [(p.task, g, False) for p in generated_problems(spec) for g in p.hyps.goals]
    rng = random.Random(17)
    for _ in range(300):
        task = make_micro_task(rng, rng.randint(3, 10), rng.randint(2, 12), rng.randint(1, 6))
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((1, 2, 5)))
                                           for a in task.actions))
        if max(task.init_hmax[g] for g in task.goal) != INF:
            cases.append((task, task.goal, False))
    for task, goal, open_grid in cases:
        values = task.init_hmax
        plan = relaxed_plan(task, goal)
        for a in plan:
            fire = task.costs[a] + max((values[p] for p in task.pres[a]), default=0)
            assert any(values[f] == fire for f in task.adds[a])
        reached = set(task.init)
        while any(set(task.pres[a]) <= reached and not set(task.adds[a]) <= reached
                  for a in plan):
            reached.update(f for a in plan if set(task.pres[a]) <= reached
                           for f in task.adds[a])
        assert goal <= reached
        if open_grid:
            assert len(plan) == max(values[g] for g in goal)
    assert len(cases) > 300


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
    kept = tuple(a for i, a in enumerate(task.actions) if i not in landmark_actions)
    cut_task = PlanningTask(facts=task.facts, actions=kept,
                            init=task.init, goal=frozenset(goal))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OCGR_OPTIMAL_CAP", "500000")
        return optimal_cost(cut_task, goal) is None


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
    a = GroundAction("a", (), (1,), ())
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


def _rows_or_error(family, task, goal, **kwargs):
    try:
        return [(r.terms, r.rhs, r.source, r.zeroed) for r in family(task, goal, **kwargs)]
    except GoalUnreachable as exc:
        return str(exc)


def _goal_fact_kinds(task, goal):
    producers, consumers = producers_and_consumers(task)
    for g in goal:
        if g in task.init:
            yield "true initially"
        elif consumers[g]:
            yield "consumed"
        else:
            yield "producers only" if producers[g] else "no producer"


def _rows_from_scratch(task, goal):
    """``goal``'s base rows (``zeroed`` included) or error, and its relaxed
    plan, built for a new copy of ``task``, which gets a memo of its own."""
    fresh = replace(task)
    rows = _rows_or_error(base_constraints, fresh, goal)
    return rows, (relaxed_plan(fresh, goal) if goal and not isinstance(rows, str) else None)


def test_task_table_rows_match_rows_built_from_scratch():
    """Each task's goals, taken forwards and then in reverse, with the tasks
    interleaved in pairs as A, B, A, B, get the base rows and the relaxed
    plan that a new copy of the task gets, or the same error, whichever goal
    built the task's memo, and the per-goal reference loop's net-change
    rows. The hand-made task puts a producers-only goal fact's row between
    two goal-free net-change rows."""
    cases = []
    for seed in range(1, 6):
        spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                         seed=seed, observability=(100,))
        cases += [(p.task, list(p.hyps.goals)) for p in generated_problems(spec)]
    for n in range(8, 25, 2):
        b = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        cases.append((b.task, list(b.hyps.goals)))
    rng = random.Random(41)
    for _ in range(1000):  # some actions cost 0; some goals unreachable
        num_facts = rng.randint(3, 12)
        task = make_micro_task(rng, num_facts, rng.randint(1, 16), rng.randint(1, 8))
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((0, 1, 1, 2)))
                                           for a in task.actions))
        cases.append((task, [task.goal] + [frozenset(rng.sample(range(num_facts), rng.randint(1, 3)))
                                           for _ in range(2)]))
    # p and r are consumed, q has a producer only, s has no producer
    acts = (GroundAction("a", (0,), (1,), (0,)),
            GroundAction("b", (2,), (0,), (2,)))
    hand = PlanningTask(facts=("(p)", "(q)", "(r)", "(s)"), actions=acts,
                        init=frozenset({2}), goal=frozenset({1}))
    cases.append((hand, [frozenset({1}), frozenset({0, 1}), frozenset({1, 2}),
                         frozenset({1, 3}), frozenset({3})]))
    kinds = set()
    for i in range(0, len(cases), 2):
        pair = (cases[i], cases[(i + 1) % len(cases)])
        expected = [{goal: _rows_from_scratch(task, goal) for goal in goals}
                    for task, goals in pair]
        for reverse in (False, True):
            for (task, goals), rows in zip(pair, expected):
                for goal in (goals[::-1] if reverse else goals):
                    got = _rows_or_error(base_constraints, task, goal)
                    plan = relaxed_plan(task, goal) if goal and not isinstance(got, str) else None
                    assert (got, plan) == rows[goal]
                    reference = _rows_or_error(reference_net_change_constraints, task, goal)
                    assert _rows_or_error(net_change_constraints, task, goal) == reference
                    if isinstance(_rows_or_error(landmark_constraints, task, goal), str):
                        kinds.add("relaxed-unreachable")
                    kinds.update(_goal_fact_kinds(task, goal))
    assert kinds == {"true initially", "consumed", "producers only", "no producer",
                     "relaxed-unreachable"}
    assert net_change_constraints(hand, {1}) == (
        LinearConstraint(((0, -1), (1, 1)), 0, SRC_NET_CHANGE),
        LinearConstraint(((0, 1),), 1, SRC_NET_CHANGE),
        LinearConstraint(((1, -1),), -1, SRC_NET_CHANGE))


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


def test_posthoc_only_lp_below_oracle(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "200000")
    rng = random.Random(31)
    for _ in range(30):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal)
        assert opt is not None
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


def test_every_family_writes_canonical_rows():
    """Each family alone writes every row as ``LinearConstraint`` requires:
    distinct variables in increasing order, nonzero coefficients. The tasks
    are the soundness test's draws, some actions costing 0; the goals include
    facts whose net-change row is rewritten from a goal-free row and facts
    with producers only, whose row is inserted."""
    rng, other = random.Random(71), random.Random(72)
    families = {"lm": landmark_constraints, "nc": net_change_constraints,
                "ph": posthoc_constraints}
    kinds = set()
    for _ in range(300):
        task = make_micro_task(rng)
        task = replace(task, actions=tuple(replace(a, cost=other.choice((0, 1, 2)))
                                           for a in task.actions))
        goal_free = net_change_constraints(task, ())
        for goal in (task.goal, frozenset(other.sample(range(task.num_facts), 3))):
            for name, family in families.items():
                try:
                    rows = family(task, goal)
                except GoalUnreachable:
                    continue
                for row in rows:
                    variables = [a for a, _ in row.terms]
                    assert variables == sorted(set(variables)), (name, row.text())
                    assert all(c != 0 for _, c in row.terms), (name, row.text())
                    if name == "nc" and row not in goal_free:
                        kinds.add("rewritten" if any(row.terms == r.terms for r in goal_free)
                                  else "inserted")
    assert kinds == {"rewritten", "inserted"}


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
