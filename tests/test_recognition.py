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
from ocgr.constraints import ALL_FAMILIES
from ocgr.errors import SolverFailure
from ocgr.generators import demo_grid_bundle
from ocgr.grounding import GroundAction, PlanningTask
from ocgr.inputs import (GoalHypotheses, ObservationSequence, bundle_from_texts,
                         load_bundle)
from ocgr.lp import Basis, LinearProgram, LpOutcome, solve_lp, solve_with
from ocgr.oracle import Plan, optimal_cost
from ocgr.recognition import (INF, SELECTION_RULES, HypothesisScore, RecognitionReport,
                              RecognizerConfig, base_lp, recognize, report_from_dict,
                              report_to_dict, score_hypothesis, uncertainty)
from references import full_observation_guarantee_check, observation_constraints


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

    scores = (HypothesisScore(0, 3, 7), HypothesisScore(1, 3, 9))
    assert abs(uncertainty(scores, 1) - (1 + 6 / 7)) <= 1e-12
    assert abs(uncertainty(scores, 4) - (1 + 3 / 7)) <= 1e-12
    assert uncertainty(scores, 7) == 1.0


def test_uncertainty_all_infeasible():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, INF, INF),)
    assert uncertainty(scores, 3) is None


def test_uncertainty_zero_minimum():
    from ocgr.recognition import HypothesisScore

    scores = (HypothesisScore(0, 0, 0),)
    assert uncertainty(scores, 0) == 1.0


def test_uncertainty_is_never_below_one():
    """With a cost-0 observed action the least h_hc falls below |O|. The
    estimate of missing observations is then 0, not negative, so the -u
    threshold does not drop below the best score."""
    from ocgr.recognition import HypothesisScore

    actions = (GroundAction("a", (0,), (1,), (0,), cost=0),  # p -> q
               GroundAction("b", (1,), (2,), ()),  # q -> r
               GroundAction("c", (1,), (3,), ()))  # q -> s
    task = PlanningTask(("(p)", "(q)", "(r)", "(s)"), actions, frozenset({0}), frozenset())
    hyps = GoalHypotheses(goals=(frozenset({2}), frozenset({3})), lines=("(r)", "(s)"), hidden=0)
    report = recognize(task, hyps, _obs(0, 1), "hc-u")
    assert [s.h_hc for s in report.scores] == [1.0, 2.0] and not report.all_infeasible
    assert report.uncertainty == 1.0 and report.selected == (0,)
    assert uncertainty((HypothesisScore(0, 0, 1),), 2) == 1.0


def test_delta_is_derived_from_h_and_h_hc():
    """A score stores h and h_hc; delta is h_hc - h, INF when h_hc is, and
    a positional delta argument is an error rather than the counts."""
    from ocgr.recognition import HypothesisScore

    assert [f.name for f in dataclasses.fields(HypothesisScore)] == [
        "goal_index", "h", "h_hc", "counts_base", "counts_hc"]
    assert HypothesisScore(0, 3, 7).delta == 4
    assert HypothesisScore(0, 3, INF).delta == HypothesisScore(0, INF, INF).delta == INF
    with pytest.raises(TypeError):
        HypothesisScore(0, 3, 7, 4)


def test_an_unknown_method_is_rejected_before_any_lp_is_solved(monkeypatch):
    import ocgr.recognition as rec

    b = bundle_from_texts(dict(demo_grid_bundle().files))
    solves = []
    monkeypatch.setattr(rec, "solve_with", lambda *args, **solve: solves.append(args))
    with pytest.raises(ValueError,
                       match=r"^unknown method 'delta_u' \(choose from delta, delta-u, hc, hc-u\)$"):
        recognize(b.task, b.hyps, b.obs, method="delta_u")
    assert solves == []


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


def _derived(report):
    """What a report derives from its scores: its selection, U and fallback ranking."""
    return report.selected, report.uncertainty, report.fallback_ranking


def test_recognize_hc_tie_kept():
    scores = (HypothesisScore(0, 2, 5), HypothesisScore(1, 2, 5))
    selected, u, fallback = _derived(RecognitionReport(scores, "hc", 3))
    assert selected == (0, 1) and u == 1.0 and fallback is None
    with pytest.raises(ValueError, match="unknown method"):
        RecognitionReport(scores, "h_hc", 3)


def test_fallback_ranks_by_each_goals_own_h():
    """The fallback ranking reads each score's h by its goal index, for
    scores out of index order and for indexes with gaps."""
    def infeasible(index, h):
        return HypothesisScore(index, h, INF)

    shuffled = (infeasible(2, 1), infeasible(0, 5), infeasible(1, 3))
    assert _derived(RecognitionReport(shuffled, "delta-u", 3)) == ((), None, (2, 1, 0))
    gaps = (infeasible(7, 4), infeasible(3, 4), infeasible(12, 0))
    assert _derived(RecognitionReport(gaps, "hc", 3)) == ((), None, (12, 3, 7))


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


def test_dominance_on_random_tasks(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "100000")
    rng = random.Random(13)
    for _ in range(30):
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal)
        if opt is None:
            continue
        obs = ObservationSequence(opt.steps[: rng.randint(0, len(opt.steps))])
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
    scores = recognize(b.task, b.hyps, obs).scores
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


def test_full_observation_guarantee_random_tasks(monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "100000")
    rng = random.Random(37)
    from ocgr.inputs import GoalHypotheses

    passed = 0
    while passed < 25:
        task = make_micro_task(rng)
        opt = optimal_cost(task, task.goal)
        if opt is None:
            continue
        decoy = frozenset(rng.sample(range(task.num_facts), 1))
        hyps = GoalHypotheses(goals=(task.goal, decoy), lines=("(g)", "(d)"), hidden=0)
        assert full_observation_guarantee_check(task, hyps, opt, 0)
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


def _replace_cases():
    """(task, hyps, obs) of the demo at 1 and 7 observations, of the one-way
    fork with both branches observed (every hypothesis infeasible), and of one
    generated noisy problem per family."""
    demo = bundle_from_texts(dict(demo_grid_bundle().files))
    fork = bundle_from_texts(dict(ONE_WAY_BUNDLE), require_obs=False)
    both = _obs(fork.task.action_index["walk s0 l1"], fork.task.action_index["walk s0 r1"])
    cases = [(demo.task, demo.hyps, ObservationSequence(demo.obs.obs[:k])) for k in (1, 7)]
    cases.append((fork.task, fork.hyps, both))
    for family in ("blocks", "corridor", "grid", "logistics"):
        p = generated_problems(SuiteSpec(families=(family,), per_family=1,
                                         observability=(50,), noise_count=1, seed=5))[0]
        cases.append((p.task, p.hyps, p.obs))
    return cases


def test_replacing_the_method_derives_that_methods_selection():
    """A report built again under another method gives what ``recognize``
    gives under it: the same scores, U, selection and fallback ranking."""
    infeasible = 0
    for task, hyps, obs in _replace_cases():
        report = recognize(task, hyps, obs, "delta-u")
        infeasible += report.all_infeasible
        for method in SELECTION_RULES:
            other = dataclasses.replace(report, method=method)
            direct = recognize(task, hyps, obs, method)
            assert other.method == method
            assert other.scores == direct.scores
            assert _derived(other) == _derived(direct)
    assert infeasible == 1


def test_a_report_takes_no_selection():
    """What a report derives cannot be given to it. (Its unknown-method error is
    checked with every other entry point's, in test_cli.)"""
    scores = (HypothesisScore(0, 2, 5),)
    for derived in ("selected", "uncertainty", "fallback_ranking"):
        with pytest.raises(TypeError, match=derived):
            RecognitionReport(scores, "hc", 1, **{derived: None})


def test_report_from_dict_derives_what_the_scores_give(demo_bundle):
    """Delta, U, the selection and the fallback ranking are read back from
    the scores and the method, not as the JSON states them."""
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    report = recognize(task, hyps, ObservationSequence(obs.obs[:4]), "hc-u")
    assert report.selected == (0, 1)
    data = json.loads(json.dumps(report_to_dict(report)))
    data["selected"], data["uncertainty"], data["fallback_ranking"] = [1], 1.0, [1, 0]
    data["scores"][1]["delta"] = 0.0
    assert report_from_dict(data) == report
    with pytest.raises(ValueError, match="unknown method 'delta_u'"):
        report_from_dict({**data, "method": "delta_u"})


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


def test_config_is_checked_when_built():
    """An unknown backend is an error even where no LP is solved, as when
    every hypothesis is relaxed-unreachable; so is an unknown family. A
    config keeps its families as a tuple, in ``ALL_FAMILIES`` order."""
    island = {**ISLAND_BUNDLE, "hyps.dat": "(at i2)\n", "real_hyp.dat": "(at i2)\n"}
    b = bundle_from_texts(island, require_obs=False)
    assert recognize(b.task, b.hyps, _obs()).scores[0].h == INF
    with pytest.raises(ValueError,
                       match=r"^unknown backend 'hihgs' \(choose from scipy, simplex\)$"):
        recognize(b.task, b.hyps, _obs(), config=RecognizerConfig(backend="hihgs"))
    with pytest.raises(ValueError, match="^unknown constraint family 'xx' "):
        RecognizerConfig(families=("lm", "xx"))
    config = RecognizerConfig(families=["nc", "lm"])
    assert config.families == ("lm", "nc") and config == RecognizerConfig(("nc", "lm"))
    assert hash(config) == hash(RecognizerConfig(("nc", "lm")))


def test_a_config_is_its_family_set(monkeypatch):
    """Every spelling of one family set is one config, so scoring the demo
    under three of them builds and solves each goal's base LP once."""
    import ocgr.recognition as rec

    spellings = (("lm", "nc", "ph"), ("ph", "nc", "lm"), ("lm", "lm", "nc", "ph"))
    assert RecognizerConfig(("ph", "nc", "lm")) == RecognizerConfig()
    assert all(RecognizerConfig(s).families == ALL_FAMILIES for s in spellings)
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    bases = []
    real = rec.solve_with

    def spy(lp, backend, *, lower=(), start=()):
        if not isinstance(start, Basis):
            bases.append(lp)
        return real(lp, backend, lower=lower, start=start)

    monkeypatch.setattr(rec, "solve_with", spy)
    reports = [recognize(b.task, b.hyps, b.obs, config=RecognizerConfig(s)) for s in spellings]
    assert len(bases) == len(b.hyps)
    assert reports[0].scores == reports[1].scores == reports[2].scores


def test_rescoring_a_task_solves_each_base_lp_once(monkeypatch):
    import ocgr.recognition as rec

    b = bundle_from_texts(dict(demo_grid_bundle().files))
    solves = []
    real = rec.solve_with
    monkeypatch.setattr(rec, "solve_with",
                        lambda lp, backend, **solve: solves.append(lp) or real(lp, backend, **solve))
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
                  for obs in levels for method in SELECTION_RULES]
        fresh = []
        for obs in levels:
            for method in SELECTION_RULES:
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
                results[slot] = recognize(b.task, hyps, obs).scores

            threads = [threading.Thread(target=score, args=(slot,)) for slot in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            seq = recognize(bundle_from_texts(dict(ISLAND_BUNDLE), require_obs=False).task,
                            hyps, obs).scores
            assert results == [seq, seq]
    finally:
        sys.setswitchinterval(interval)


def test_failed_base_lp_is_solved_again(monkeypatch):
    from ocgr.lp import BACKENDS, solve_lp

    calls = []

    def flaky(lp, **solve):
        calls.append(lp)
        if len(calls) == 1:
            raise SolverFailure("injected")
        return solve_lp(lp, **solve)

    monkeypatch.setitem(BACKENDS, "flaky-test", flaky)
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    config = RecognizerConfig(backend="flaky-test")
    with pytest.raises(SolverFailure, match="^hypothesis 0: injected$"):
        recognize(b.task, b.hyps, b.obs, config=config)
    report = recognize(b.task, b.hyps, b.obs, config=config)
    assert report.scores == recognize(b.task, b.hyps, b.obs).scores


def test_a_capped_solve_names_its_hypothesis(monkeypatch):
    """The pivot cap raises one SolverFailure that names the hypothesis and the LP."""
    import ocgr.lp as lp_mod

    spec = SuiteSpec(families=("blocks",), per_family=2, seed=7, observability=(50,),
                     noise_count=1)
    p = generated_problems(spec)[0]
    monkeypatch.setattr(lp_mod, "PIVOT_CAP", 0)
    with pytest.raises(SolverFailure, match=r"^hypothesis 0: simplex gave up at its cap of 0 "
                                            r"pivots on a \d+ x \d+ LP; try --backend scipy$"):
        recognize(p.task, p.hyps, p.obs)


def test_unknown_backend_raises_the_cli_message():
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    with pytest.raises(ValueError) as err:
        recognize(b.task, b.hyps, b.obs, config=RecognizerConfig(backend="hihgs"))
    assert str(err.value) == "unknown backend 'hihgs' (choose from scipy, simplex)"


def test_scored_task_is_not_kept_alive():
    b = bundle_from_texts(dict(demo_grid_bundle().files))
    task, hyps, obs = b.task, b.hyps, b.obs
    del b
    recognize(task, hyps, obs)
    ref = weakref.ref(task)
    del task
    gc.collect()
    assert ref() is None


def test_dropped_task_frees_its_memo_and_table():
    """The one memo, with the base results and the constraint families'
    parts, goes with its task, without another task being scored, but not
    while a later task holds it."""
    import ocgr.grounding as grounding

    def scored():
        b = bundle_from_texts(dict(demo_grid_bundle().files))
        recognize(b.task, b.hyps, b.obs)
        return b.task

    first = scored()
    second = scored()
    del first
    gc.collect()
    assert grounding._memo[0]() is second and len(grounding._memo[1]) == 3
    del second
    gc.collect()
    assert grounding._memo is None


def _floored(task, goal, obs):
    """The cold reference: base rows plus one observation row per floor."""
    rows = base_lp(task, goal)[0].constraints + observation_constraints(obs)
    return LinearProgram.from_constraints(rows, task.costs)


def test_rescoring_warm_starts_every_observation_lp(monkeypatch):
    import ocgr.recognition as rec

    solves = []
    real = rec.solve_with

    def spy(lp, backend, **solve):
        solves.append(real(lp, backend, **solve))
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
            base = base_lp(task, goal)[0].constraints
            highs_h = solve_with(LinearProgram.from_constraints(base, task.costs), "scipy")
            assert abs(h - highs_h.value) <= 1e-6
            for _ in range(3):
                picks = rng.sample(range(task.num_actions), min(task.num_actions, rng.randint(1, 4)))
                obs = ObservationSequence(tuple(a for a in picks for _ in range(rng.randint(1, 2))))
                score = score_hypothesis(task, goal, obs)
                cold = solve_lp(_floored(task, goal, obs))
                highs = solve_with(LinearProgram.from_constraints(base, task.costs), "scipy",
                                   lower=sorted(obs.counts.items()))
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
                assert all(row.satisfied_by(counts) for row in base)
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

    def spy(lp, backend, *, lower=(), start=None):
        solves.append((lp, lp.compiled, lower, start,
                       real_solve(lp, backend, lower=lower, start=start)))
        return solves[-1][4]

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
        rows = {base_lp(task, g)[0].constraints: g for g in goals}
        for lp, carried, lower, start, out in solves:
            if not isinstance(start, Basis):  # a base LP, with its landmark crash
                continue
            assert carried is not None
            fresh = LinearProgram.from_constraints(base_lp(task, rows[lp.constraints])[0].constraints,
                                                   task.costs)
            assert out == solve_with(fresh, "simplex", lower=lower, start=start)
            warm += 1
    assert warm >= 40


def _reachable(obj, seen):
    """``obj`` and every object reachable from it through containers,
    dataclass fields and cached properties, and array bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, np.ndarray):
        yield from _reachable(obj.base, seen)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for item in obj:
            yield from _reachable(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _reachable(item, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _reachable(getattr(obj, f.name), seen)
        for item in getattr(obj, "__dict__", {}).values():  # cached properties too
            yield from _reachable(item, seen)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from _reachable(item, seen)


def _arrays(obj, seen):
    """Every ndarray reachable from ``obj`` (see ``_reachable``)."""
    return (item for item in _reachable(obj, seen) if isinstance(item, np.ndarray))


def test_memo_holds_no_dense_matrix():
    """The task's memo keeps per goal only the base LP and its outcome: the
    compiled rows, B^-1 (m x m, m < n) and the basis's reduced costs (n + m),
    never an m x n matrix or a tableau. The constraint families' parts, its
    other entries, hold no array and nothing mutable: each is built whole."""
    import ocgr.constraints as cons
    import ocgr.recognition as rec
    from ocgr.grounding import task_memo

    assert [f.name for f in dataclasses.fields(Basis)] == ["columns", "inverse", "lp"]
    b = bundle_from_texts(open_grid_bundle(12), require_obs=False)
    recognize(b.task, b.hyps, _obs(0))
    memo = dict(task_memo(b.task))
    bases = memo.pop(rec._base)
    assert set(memo) == {cons._lmcut_setup, cons._net_change}
    assert not list(_arrays(list(memo.values()), set()))
    for part in memo.values():
        assert not [item for item in _reachable(part, set())
                    if isinstance(item, (list, dict, set))]
    assert type(bases) is dict and len(bases) == len(b.hyps.goals)
    for lp, out in bases.values():
        assert type(lp) is LinearProgram and type(out) is LpOutcome
        m, n = len(lp.constraints), lp.num_vars
        arrays = list(_arrays((lp, out), set()))
        assert out.basis is not None and lp.compiled is not None and len(arrays) >= 5
        assert any(a is out.basis.priced[0] for a in arrays)
        assert max(a.size for a in arrays) < m * n


def test_scoring_another_task_drops_the_first_tasks_table():
    """Scoring another task frees the first task's memo: its constraint
    parts (seen through a goal-free net-change row) and its base LPs."""
    import ocgr.constraints as cons
    import ocgr.recognition as rec
    from ocgr.grounding import task_memo

    first, second = (bundle_from_texts(dict(demo_grid_bundle().files)) for _ in range(2))
    recognize(first.task, first.hyps, first.obs)
    memo = task_memo(first.task)
    kept = [weakref.ref(memo[cons._net_change].rows[0]),
            *(weakref.ref(lp) for lp, _ in memo[rec._base].values())]
    del memo
    recognize(second.task, second.hyps, second.obs)
    gc.collect()
    assert len(kept) == 1 + len(first.hyps.goals) and not any(ref() for ref in kept)
    assert not task_memo(first.task)


def test_rows_for_another_task_between_scorings_leave_scores_unchanged():
    """Building rows for task B between two ``recognize`` calls on task A
    drops A's base results; A's second scores are those of a fresh grounding,
    bit for bit."""
    import ocgr.recognition as rec
    from ocgr.constraints import base_constraints
    from ocgr.grounding import task_memo

    def load():
        return bundle_from_texts(dict(demo_grid_bundle().files))

    a, b = load(), bundle_from_texts(open_grid_bundle(8), require_obs=False)
    first = recognize(a.task, a.hyps, a.obs)
    base_constraints(b.task, b.hyps.goals[0])
    assert rec._base not in task_memo(a.task)
    again = recognize(a.task, a.hyps, a.obs)
    fresh = load()
    assert again.scores == first.scores == recognize(fresh.task, fresh.hyps, fresh.obs).scores
    assert again.selected == first.selected


def test_no_answer_depends_on_what_was_scored_before():
    """Each (problem, backend, families, method) answered from a fresh parse
    and ground equals, bit for bit, its answer inside one shuffled stream that
    interleaves problems over shared tasks while a second thread scores its
    own shuffled stream alongside."""
    spec = SuiteSpec(families=("blocks", "corridor", "grid", "logistics"), per_family=1,
                     observability=(30, 70, 100), seed=5)
    problems = [(p.task, p.hyps, p.obs,
                 {**p.files, "obs.dat": "".join(p.task.actions[a].text() + "\n"
                                                 for a in p.obs.obs)})
                for p in generated_problems(spec)]
    open_grid = {**open_grid_bundle(8), "obs.dat": "(walk c0_0 c1_0)\n(walk c1_0 c1_1)\n"}
    for texts in (dict(demo_grid_bundle().files), open_grid):
        b = bundle_from_texts(texts)
        problems.append((b.task, b.hyps, b.obs, texts))
    configs = [RecognizerConfig(), RecognizerConfig(families=("lm",)),
               RecognizerConfig(families=("nc", "ph")), RecognizerConfig(backend="scipy")]
    # each problem under every configuration, with every method once
    methods = tuple(SELECTION_RULES)
    units = [(k, config, methods[(k + i) % len(methods)]) for k in range(len(problems))
             for i, config in enumerate(configs)]

    def answer(task, hyps, obs, config, method):
        report = recognize(task, hyps, obs, method, config)
        return repr((report.scores, report.uncertainty, report.selected,
                     report.fallback_ranking))

    fresh = {}
    for k, config, method in units:
        bundle_from_texts(dict(ONE_WAY_BUNDLE), require_obs=False)  # an unrelated domain
        b = bundle_from_texts(problems[k][3])
        fresh[k, config, method] = answer(b.task, b.hyps, b.obs, config, method)

    def stream(seed):
        """``units`` in runs of one to three of a problem's units, the
        problems in random order."""
        rng = random.Random(seed)
        left = {k: rng.sample([u for u in units if u[0] == k], len(configs))
                for k in range(len(problems))}
        while left:
            k = rng.choice(sorted(left))
            for _ in range(rng.randint(1, 3)):
                if left[k]:
                    yield left[k].pop()
            if not left[k]:
                del left[k]

    got = [{}, {}]

    def score(slot):
        for k, config, method in stream(slot):
            got[slot][k, config, method] = answer(*problems[k][:3], config, method)

    side = threading.Thread(target=score, args=(1,))
    side.start()
    score(0)
    side.join(timeout=60)
    assert not side.is_alive()
    assert got[0] == fresh and got[1] == fresh
