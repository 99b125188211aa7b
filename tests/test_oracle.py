import hashlib
import random

import pytest

from conftest import ISLAND_BUNDLE, make_micro_task, plan_counts
from ocgr.bench import sample_observations
from ocgr.cli import main
from ocgr.errors import CapExceeded
from ocgr.generators import GENERATORS
from ocgr.grounding import GroundAction, PlanningTask
from ocgr.inputs import bundle_from_texts
from ocgr.oracle import optimal_cost, validate_plan
from references import enumerate_plans


def test_chain_optimal(chain):
    res = optimal_cost(chain, chain.goal)
    assert res is not None and res.cost == 1
    assert res.steps == (0,)


def test_goal_in_init_costs_zero(chain):
    res = optimal_cost(chain, chain.init)
    assert res is not None and res.cost == 0 and res.steps == ()


def test_unreachable_goal():
    task = PlanningTask(facts=("(p)", "(q)"), actions=(), init=frozenset({0}),
                        goal=frozenset({1}))
    assert optimal_cost(task, task.goal) is None


def test_cap_exceeded(demo_bundle, monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "1")
    with pytest.raises(CapExceeded) as err:
        optimal_cost(demo_bundle.task, demo_bundle.hyps.goals[0])
    assert str(err.value) == ("optimal plan search for {(at c_1_2)} hit the expansion "
                              "cap of 1; raise OCGR_OPTIMAL_CAP")


def test_demo_grid_costs(demo_bundle):
    task, hyps = demo_bundle.task, demo_bundle.hyps
    assert optimal_cost(task, hyps.goals[0]).cost == 3
    assert optimal_cost(task, hyps.goals[1]).cost == 3


def test_counts_floor_chain(chain):
    assert optimal_cost(chain, chain.goal, floors={0: 1}).cost == 1


def test_counts_empty_equals_optimal(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "200000")
    rng = random.Random(11)
    for _ in range(25):
        task = make_micro_task(rng)
        a = optimal_cost(task, task.goal)
        b = optimal_cost(task, task.goal, floors={})
        assert a is not None and b is not None
        assert a.cost == b.cost


def test_counts_monotone_in_floor(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    goal = hyps.goals[0]
    prev = optimal_cost(task, goal).cost
    floors: dict[int, int] = {}
    for a in obs.obs[:4]:
        floors[a] = floors.get(a, 0) + 1
        cur = optimal_cost(task, goal, floors=floors).cost
        assert cur >= prev
        prev = cur


def test_demo_grid_full_counts(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    assert optimal_cost(task, hyps.goals[0], floors=obs.counts).cost == 7
    assert optimal_cost(task, hyps.goals[1], floors=obs.counts).cost == 9


def test_validate_plan_chain(chain):
    assert validate_plan(chain, (0,), chain.goal).ok
    check = validate_plan(chain, (0, 0), chain.goal)
    assert not check.ok and check.failed_step == 1
    assert "(p)" in check.reason
    check = validate_plan(chain, (0, chain.num_actions), chain.goal)
    assert not check.ok and check.failed_step == 1
    assert check.reason == f"step 1: unknown action id {chain.num_actions}"


def test_validate_goal_failure(chain):
    check = validate_plan(chain, (), chain.goal)
    assert not check.ok and check.failed_step is None
    assert "(q)" in check.reason


def test_optimal_plans_validate_on_random_tasks(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "200000")
    rng = random.Random(23)
    for _ in range(40):
        task = make_micro_task(rng)
        res = optimal_cost(task, task.goal)
        assert res is not None
        assert validate_plan(task, res.steps, task.goal).ok


def test_enumerate_chain(chain):
    plans = enumerate_plans(chain, chain.goal, max_len=2)
    assert [p.steps for p in plans] == [(0,)]


def test_enumerate_unreachable():
    task = PlanningTask(facts=("(p)", "(q)"), actions=(), init=frozenset({0}),
                        goal=frozenset({1}))
    assert enumerate_plans(task, task.goal, max_len=3) == []


def test_enumerate_commuting_actions():
    acts = (GroundAction("a", (), (0,), ()),
            GroundAction("b", (), (1,), ()))
    task = PlanningTask(facts=("(x)", "(y)"), actions=acts, init=frozenset(),
                        goal=frozenset({0, 1}))
    plans = {p.steps for p in enumerate_plans(task, task.goal, max_len=2)}
    assert plans == {(0, 1), (1, 0)}


def test_enumerate_node_cap(demo_bundle):
    with pytest.raises(CapExceeded):
        enumerate_plans(demo_bundle.task, demo_bundle.hyps.goals[0], max_len=8, node_cap=50)


def test_counts_vector_of_witness(demo_bundle):
    task, obs = demo_bundle.task, demo_bundle.obs
    counts = plan_counts(task, obs.obs)
    assert sum(counts) == 7


def _search_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        row = ("optimal", r.cost, r.steps) if r is not None else ("unreachable", None, None)
        h.update(repr(row).encode())
    return h.hexdigest()


def test_search_outputs_are_pinned(demo_bundle, tmp_path):
    """The search's plans with and without floors, and the observations gen
    samples from its witness plans, stay byte for byte as pinned."""
    bundles = [demo_bundle, bundle_from_texts(ISLAND_BUNDLE, require_obs=False)]
    bundles += [bundle_from_texts(dict(GENERATORS[family](random.Random(seed)).files),
                                  require_obs=False)
                for family in sorted(GENERATORS) for seed in range(3)]
    plain, floored = [], []
    for b in bundles:
        opts = [optimal_cost(b.task, g) for g in b.hyps.goals]
        plain += opts
        for i, opt in enumerate(opts):
            if opt is not None:
                obs = sample_observations(opt, 50, random.Random(i))
                floored += [optimal_cost(b.task, g, floors=obs.counts) for g in b.hyps.goals]
    assert (len(plain), len(floored)) == (46, 153)
    assert _search_digest(plain) == \
        "bf9de376746268e0f3adc9c33276c0acc9ebd5f691c8661f74c9dd17d6533d56"
    assert _search_digest(floored) == \
        "9cbe2cf29c48157ca445591f5bbaf71edbecd695f234d667160b1b81bf09cc4c"

    obs_files = hashlib.sha256()
    for family in sorted(GENERATORS):
        out = tmp_path / family
        assert main(["gen", "--family", family, "--count", "3", "--seed", "5",
                     "--pct", "50", "--out", str(out)]) == 0
        for path in sorted(out.glob("*/obs.dat")):
            obs_files.update(path.read_bytes())
    assert obs_files.hexdigest() == \
        "111299c44171f22f1cb967042f314937e3b79d34c076171215bbbafc1ab46a52"

    # every other file those runs write, and the fixed demo, by path and text
    assert main(["gen", "--demo-grid", "--out", str(tmp_path / "demo")]) == 0
    bundle_files = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        rel = path.relative_to(tmp_path)
        if path.name != "obs.dat" or rel.parts[0] == "demo":
            bundle_files.update(rel.as_posix().encode() + path.read_bytes())
    assert bundle_files.hexdigest() == \
        "2e66ffc5c3f63e2dbed85e051772ac0651c62995b58aaa5990aff4bfb9c987e3"
