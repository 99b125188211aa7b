import dataclasses
import gc
import json
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import (ISLAND_BUNDLE, ONE_WAY_BUNDLE, make_micro_task,
                      open_grid_bundle)
from ocgr.bench import SuiteSpec, generated_problems, materialize_suite
from ocgr.errors import SolverFailure
from ocgr.generators import demo_grid_bundle
from ocgr.inputs import (GoalHypotheses, ObservationSequence, bundle_from_texts,
                         load_bundle)
from ocgr.lp import LinearProgram, solve_lp, solve_with
from ocgr.oracle import Plan, optimal_cost
from ocgr.recognition import (INF, METHODS, RecognizerConfig, base_rows,
                              full_observation_guarantee_check,
                              observation_constraints, recognize,
                              report_from_dict, report_to_dict, score_all,
                              score_hypothesis, select, uncertainty)


def _obs(*actions):
    return ObservationSequence(tuple(actions))


def test_observation_constraints_counts():
    cset = observation_constraints(_obs(0, 1, 0))
    rows = {c.terms[0][0]: c.rhs for c in cset}
    assert rows == {0: 2, 1: 1}
    assert all(c.source == "observation" for c in cset)


def test_observation_constraints_empty():
    assert len(observation_constraints(_obs())) == 0


def test_observation_constraints_demo_full(demo_bundle):
    cset = observation_constraints(demo_bundle.obs)
    assert len(cset) == 7  # seven distinct observed moves, counts merged


def test_demo_grid_scores_full_obs(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    s0 = score_hypothesis(task, hyps.goals[0], obs)
    s1 = score_hypothesis(task, hyps.goals[1], obs)
    assert abs(s0.h - 3) <= 1e-6 and abs(s0.h_hc - 7) <= 1e-6 and abs(s0.delta - 4) <= 1e-6
    assert abs(s1.h - 3) <= 1e-6 and abs(s1.h_hc - 9) <= 1e-6 and abs(s1.delta - 6) <= 1e-6


def test_empty_obs_neutrality(demo_bundle):
    task, hyps = demo_bundle.task, demo_bundle.hyps
    for goal in hyps.goals:
        s = score_hypothesis(task, goal, _obs())
        assert s.h_hc == s.h and s.delta == 0
    report = recognize(task, hyps, _obs(), "delta-u")
    assert report.selected == (0, 1)


def test_uncertainty_examples():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, 3, 7, 4), HypothesisScore(1, 3, 9, 6))
    assert abs(uncertainty(scores, 1) - (1 + 6 / 7)) <= 1e-12
    assert abs(uncertainty(scores, 4) - (1 + 3 / 7)) <= 1e-12
    assert uncertainty(scores, 7) == 1.0


def test_uncertainty_all_infeasible():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, INF, INF, INF),)
    assert uncertainty(scores, 3) is None


def test_uncertainty_zero_minimum():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, 0, 0, 0),)
    assert uncertainty(scores, 0) == 1.0


def test_recognize_hc_demo_single_obs(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    report = recognize(task, hyps, ObservationSequence(obs.obs[2:3]), "hc-u")
    assert report.selected == (0, 1)
    assert abs(report.uncertainty - (1 + 6 / 7)) <= 1e-9


def test_recognize_hc_threshold_follows_formula(demo_bundle):
    # with |O|=4: threshold = 7 * (1 + 3/7) = 10, so G1 at h_hc=9 stays in
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    report = recognize(task, hyps, ObservationSequence(obs.obs[:4]), "hc-u")
    assert report.selected == (0, 1)
    report_flat = recognize(task, hyps, ObservationSequence(obs.obs[:4]), "hc")
    assert report_flat.selected == (0,)


def test_recognize_hc_tie_kept():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, 2, 5, 3), HypothesisScore(1, 2, 5, 3))
    selected, u, fallback = select(scores, "hc", 3)
    assert selected == (0, 1) and u == 1.0 and fallback is None
    with pytest.raises(ValueError, match="unknown method"):
        select(scores, "h_hc", 3)


def test_recognize_delta_demo_cases(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    full = recognize(task, hyps, obs, "delta-u")
    assert full.selected == (0,) and full.uncertainty == 1.0
    one = recognize(task, hyps, ObservationSequence(obs.obs[2:3]), "delta-u")
    assert one.selected == (0, 1)
    four = recognize(task, hyps, ObservationSequence(obs.obs[:4]), "delta-u")
    assert four.selected == (0,)
    assert abs(four.uncertainty - (1 + 3 / 7)) <= 1e-9


def test_delta_zero_minimum_selects_only_zeros(demo_bundle):
    # empty observations: every delta is 0, threshold collapses to 0, all kept
    task, hyps = demo_bundle.task, demo_bundle.hyps
    report = recognize(task, hyps, _obs(), "delta-u")
    assert report.selected == (0, 1)
    assert all(s.delta == 0 for s in report.scores)


def test_uncertainty_selection_is_superset(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    for k in (1, 2, 4, 7):
        o = ObservationSequence(obs.obs[:k])
        for plain, widened in ((recognize(task, hyps, o, "hc"), recognize(task, hyps, o, "hc-u")),
                               (recognize(task, hyps, o, "delta"),
                                recognize(task, hyps, o, "delta-u"))):
            assert set(widened.selected) >= set(plain.selected)
            assert widened.uncertainty >= 1.0


def test_dominance_on_random_tasks():
    rng = random.Random(13)
    for _ in range(30):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal, cap=100_000)
        if opt.status != "optimal":
            continue
        obs = ObservationSequence(opt.plan.steps[: rng.randint(0, len(opt.plan.steps))])
        s = score_hypothesis(task, task.goal, obs)
        if s.h != INF and s.h_hc != INF:
            assert s.h_hc >= s.h - 1e-6
            assert s.delta >= -1e-6


def test_one_way_fork_infeasible_noise():
    """A noisy action on the other one-way branch makes both goals infeasible."""
    b = bundle_from_texts(dict(ONE_WAY_BUNDLE), require_obs=False)
    walk_l = b.task.action_index["walk s0 l1"]
    walk_r = b.task.action_index["walk s0 r1"]
    obs = _obs(walk_l, walk_r)
    scores, _ = score_all(b.task, b.hyps, obs, RecognizerConfig())
    assert all(s.h_hc == INF for s in scores)
    assert all(s.h != INF for s in scores)
    report = recognize(b.task, b.hyps, obs, "delta-u")
    assert report.selected == ()
    assert report.uncertainty is None
    assert report.all_infeasible
    assert report.fallback_ranking is not None


def test_unreachable_hypothesis_scores_infinite():
    b = bundle_from_texts(dict(ONE_WAY_BUNDLE), require_obs=False)
    hyps2 = type(b.hyps)(goals=(b.hyps.goals[0], frozenset({b.task.fact_index["(at s0)"]})),
                         lines=("(at l2)", "(at s0)"), hidden=0)
    # goal (at s0) is satisfiable; make an impossible one by demanding both tips
    impossible = frozenset(b.hyps.goals[0] | b.hyps.goals[1])
    s = score_hypothesis(b.task, impossible, _obs())
    assert s.h == INF and s.h_hc == INF and s.delta == INF
    del hyps2


def test_full_observation_guarantee_chain(chain):
    from ocgr.inputs import GoalHypotheses

    hyps = GoalHypotheses(goals=(chain.goal,), lines=("(q)",), hidden=0)
    assert full_observation_guarantee_check(chain, hyps, Plan((0,), 1), 0)


def test_full_observation_guarantee_demo_suboptimal(demo_bundle):
    plan = Plan(demo_bundle.obs.obs, 7)  # valid but non-optimal for G0
    assert full_observation_guarantee_check(demo_bundle.task, demo_bundle.hyps, plan, 0)


def test_full_observation_guarantee_random_tasks():
    rng = random.Random(37)
    from ocgr.inputs import GoalHypotheses

    passed = 0
    while passed < 25:
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal, cap=100_000)
        if opt.status != "optimal":
            continue
        decoy = frozenset(rng.sample(range(task.num_facts), 1))
        hyps = GoalHypotheses(goals=(task.goal, decoy), lines=("(g)", "(d)"), hidden=0)
        assert full_observation_guarantee_check(task, hyps, opt.plan, 0)
        passed += 1


def test_full_observation_rejects_invalid_plan(chain):
    from ocgr.inputs import GoalHypotheses

    hyps = GoalHypotheses(goals=(chain.goal,), lines=("(q)",), hidden=0)
    with pytest.raises(ValueError, match="not valid"):
        full_observation_guarantee_check(chain, hyps, Plan((0, 0), 2), 0)


def test_report_json_round_trip(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    report = recognize(task, hyps, obs, "delta-u")
    data = json.loads(json.dumps(report_to_dict(report)))
    back = report_from_dict(data)
    assert back.selected == report.selected
    assert back.method == report.method
    assert back.obs_len == report.obs_len
    assert back.uncertainty == report.uncertainty
    assert back.scores == report.scores
    assert back.timings == report.timings


def test_report_json_round_trip_with_infinities():
    b = bundle_from_texts(dict(ONE_WAY_BUNDLE), require_obs=False)
    walk_l = b.task.action_index["walk s0 l1"]
    walk_r = b.task.action_index["walk s0 r1"]
    report = recognize(b.task, b.hyps, _obs(walk_l, walk_r), "delta-u")
    back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
    assert back.scores == report.scores
    assert back.fallback_ranking == report.fallback_ranking


def _island():
    b = bundle_from_texts(dict(ISLAND_BUNDLE), require_obs=False)
    act = b.task.action_index
    return b, [_obs(), _obs(act["walk s0 l1"]), _obs(act["walk s0 l1"], act["walk s0 r1"])]


def test_rescoring_a_task_solves_each_base_lp_once(monkeypatch):
    import ocgr.recognition as rec

    b = bundle_from_texts(dict(demo_grid_bundle().files))
    solves = []
    real = rec.solve_with
    monkeypatch.setattr(rec, "solve_with",
                        lambda lp, backend: solves.append(lp) or real(lp, backend))
    k = len(b.hyps)
    recognize(b.task, b.hyps, b.obs)
    assert len(solves) == k + k
    recognize(b.task, b.hyps, ObservationSequence(b.obs.obs[:2]))
    assert len(solves) == k + k + k


def _outcome(report):
    return ([(repr(s.h), repr(s.h_hc), repr(s.delta)) for s in report.scores],
            repr(report.uncertainty), report.selected)


def test_reused_base_results_match_a_fresh_grounding(tmp_path):
    """Scoring one task at every level equals scoring a freshly grounded copy each time."""
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=11, observability=(100,), noise_count=1)
    sources = [lambda: bundle_from_texts(dict(demo_grid_bundle().files))]
    sources += [lambda d=d: load_bundle(d)
                for d in materialize_suite(spec, tmp_path)]
    island, island_obs = _island()
    cases = [(lambda: bundle_from_texts(dict(ISLAND_BUNDLE), require_obs=False), island_obs)]
    for load in sources:
        full = load().obs.obs
        cases.append((load, [ObservationSequence(full[:n])
                             for n in sorted({0, 1, len(full) // 2, len(full)})]))
    for load, levels in cases:
        shared = load()
        reused = [_outcome(recognize(shared.task, shared.hyps, obs, method))
                  for obs in levels for method in METHODS]
        fresh = []
        for obs in levels:
            for method in METHODS:
                b = load()
                fresh.append(_outcome(recognize(b.task, b.hyps, obs, method)))
        assert reused == fresh


def test_threaded_scoring_with_reused_bases_matches_sequential():
    """Two caller threads scoring one task share its memo of base results."""
    b, levels = _island()
    hyps = GoalHypotheses(goals=b.hyps.goals * 3, lines=b.hyps.lines * 3, hidden=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for obs in levels:
            results = [None, None]

            def score(slot):
                results[slot] = score_all(b.task, hyps, obs)[0]

            threads = [threading.Thread(target=score, args=(slot,)) for slot in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            seq, _ = score_all(bundle_from_texts(dict(ISLAND_BUNDLE), require_obs=False).task,
                               hyps, obs)
            assert results == [seq, seq]
    finally:
        sys.setswitchinterval(interval)


def test_failed_base_lp_is_solved_again(monkeypatch):
    from ocgr.lp import BACKENDS, UNBOUNDED, LpOutcome, solve_lp

    calls = []

    def flaky(lp):
        calls.append(lp)
        return LpOutcome(UNBOUNDED) if len(calls) == 1 else solve_lp(lp)

    monkeypatch.setitem(BACKENDS, "flaky-test", flaky)
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    config = RecognizerConfig(backend="flaky-test")
    with pytest.raises(SolverFailure, match="base LP for hypothesis 0 came back unbounded"):
        recognize(b.task, b.hyps, b.obs, config=config)
    report = recognize(b.task, b.hyps, b.obs, config=config)
    assert report.scores == recognize(b.task, b.hyps, b.obs).scores


def test_unknown_backend_raises_the_cli_message():
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    with pytest.raises(ValueError) as err:
        recognize(b.task, b.hyps, b.obs, config=RecognizerConfig(backend="hihgs"))
    assert str(err.value) == "unknown backend 'hihgs' (have: scipy, simplex)"


def test_scored_task_is_not_kept_alive():
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    task, hyps, obs = b.task, b.hyps, b.obs
    del b
    recognize(task, hyps, obs)
    ref = weakref.ref(task)
    del task
    gc.collect()
    assert ref() is None


def _floored(task, goal, obs):
    """The cold reference: base rows plus one observation row per floor."""
    rows = base_rows(task, goal) + observation_constraints(obs)
    return LinearProgram.from_constraints(rows, task.costs)


def test_rescoring_warm_starts_every_observation_lp(monkeypatch):
    import ocgr.recognition as rec

    solves = []
    real = rec.solve_with

    def spy(lp, backend):
        solves.append(real(lp, backend))
        return solves[-1]

    monkeypatch.setattr(rec, "solve_with", spy)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                     seed=5, observability=(100,))
    bundles = [bundle_from_texts(dict(demo_grid_bundle().files))] + list(generated_problems(spec))
    checked = 0
    for b in bundles:
        recognize(b.task, b.hyps, _obs())  # solves the base LPs
        full = b.obs.obs
        for obs in {ObservationSequence(full[:n]) for n in (1, len(full) // 2, len(full))}:
            del solves[:]
            scores = recognize(b.task, b.hyps, obs).scores
            finite = [g for g, s in zip(b.hyps.goals, scores) if s.h != INF]
            assert len(solves) == len(finite)
            for goal, out in zip(finite, solves):
                assert out.warm
                assert out.pivots < solve_lp(_floored(b.task, goal, obs)).pivots
                checked += 1
    assert checked >= 30


def test_warm_observation_lp_matches_cold_floor_rows():
    """Warm-started h_hc with the floors as bounds against the base + floor
    rows LP solved cold, and h and h_hc against HiGHS with the floors as
    bounds, with random floors, on tasks past toy size."""
    rng = random.Random(8)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=21, observability=(100,))
    bundles = [(p.task, p.hyps) for p in generated_problems(spec)]
    for texts in (ONE_WAY_BUNDLE, *(open_grid_bundle(n) for n in (8, 10, 14, 18))):
        b = bundle_from_texts(dict(texts), require_obs=False)
        bundles.append((b.task, b.hyps))
    statuses = set()
    for task, hyps in bundles:
        for goal in hyps.goals:
            h = score_hypothesis(task, goal, _obs()).h
            highs_h = solve_with(LinearProgram.from_constraints(base_rows(task, goal), task.costs),
                                 "scipy")
            assert abs(h - highs_h.value) <= 1e-6
            for _ in range(3):
                picks = rng.sample(range(task.num_actions), min(task.num_actions, rng.randint(1, 4)))
                obs = ObservationSequence(tuple(a for a in picks for _ in range(rng.randint(1, 2))))
                score = score_hypothesis(task, goal, obs)
                cold = solve_lp(_floored(task, goal, obs))
                highs = solve_with(LinearProgram.from_constraints(
                    base_rows(task, goal), task.costs, lower=sorted(obs.counts.items())), "scipy")
                statuses.add(cold.status)
                assert highs.status == cold.status
                if cold.status == "infeasible":
                    assert score.h_hc == INF
                    continue
                assert score.h == h
                assert abs(score.h_hc - cold.value) <= 1e-9
                assert abs(score.h_hc - highs.value) <= 1e-6
                counts = score.counts_hc
                assert all(counts[a] >= k for a, k in obs.counts.items())
                assert all(row.satisfied_by(counts) for row in base_rows(task, goal))
    assert statuses == {"optimal", "infeasible"}


def test_rescoring_compiles_each_goal_once(monkeypatch):
    """Re-scoring a task at five levels compiles each goal's rows once; every
    h_hc LP carries them, and its outcome equals a freshly built LP's."""
    import ocgr.lp as lp_mod
    import ocgr.recognition as rec

    compiled, solves = [], []
    real_compile, real_solve = lp_mod.compile_rows, rec.solve_with

    def counting(num_vars, constraints):
        compiled.append(constraints)
        return real_compile(num_vars, constraints)

    def spy(lp, backend):
        solves.append((lp, lp.compiled, real_solve(lp, backend)))
        return solves[-1][2]

    monkeypatch.setattr(lp_mod, "compile_rows", counting)
    monkeypatch.setattr(rec, "solve_with", spy)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                     seed=6, observability=(10, 30, 50, 70, 100))
    problems = generated_problems(spec)
    warm = 0
    for first in range(0, len(problems), 5):
        task = problems[first].task
        del compiled[:], solves[:]
        for problem in problems[first:first + 5]:
            assert problem.task is task
            recognize(task, problem.hyps, problem.obs)
        goals = {g for g in problems[first].hyps.goals if score_hypothesis(task, g, _obs()).h != INF}
        assert len(compiled) == len(goals)
        rows = {base_rows(task, g): g for g in goals}
        for lp, carried, out in solves:
            if lp.start is None:
                continue
            assert carried is not None
            fresh = LinearProgram.from_constraints(base_rows(task, rows[lp.constraints]),
                                                   task.costs, start=lp.start, lower=lp.lower)
            assert out == solve_with(fresh, "simplex")
            warm += 1
    assert warm >= 40


def _arrays(obj, seen):
    """Every ndarray reachable from ``obj`` through containers, dataclass
    fields and array bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        yield from _arrays(obj.base, seen)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            yield from _arrays(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), seen)


def test_memo_holds_no_dense_matrix():
    """The base memo keeps compiled rows and B^-1 (m x m, m < n), never an
    m x n matrix or a tableau."""
    import ocgr.recognition as rec

    b = bundle_from_texts(open_grid_bundle(12), require_obs=False)
    recognize(b.task, b.hyps, _obs(0))
    entries = list(rec._base_memo(b.task).values())
    assert len(entries) == len(b.hyps.goals)
    for lp, out in entries:
        m, n = len(lp.constraints), lp.num_vars
        arrays = list(_arrays((lp, out), set()))
        assert out.basis is not None and lp.compiled is not None and len(arrays) >= 5
        assert max(a.size for a in arrays) < m * n
