"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The generated suites are
desk-scale stand-ins for the published benchmark sets; they check the
qualitative claims (dominance, completeness, admissibility, soundness,
uncertainty behavior, noise robustness) rather than dataset averages.
"""

from __future__ import annotations

import random
import time

import pytest

from conftest import make_micro_task, plan_counts
from ocgr.bench import SuiteSpec, format_rows, generated_problems, run_suite
from ocgr.cli import main
from ocgr.constraints import (base_constraints, landmark_constraints,
                              net_change_constraints, posthoc_constraints)
from ocgr.errors import CapExceeded, GoalUnreachable
from ocgr.generators import demo_grid_bundle
from ocgr.inputs import ObservationSequence, bundle_from_texts
from ocgr.lp import LinearProgram, solve_lp, solve_with
from ocgr.oracle import optimal_cost, validate_plan
from ocgr.recognition import INF, SELECTION_RULES, RecognizerConfig, recognize
from references import enumerate_plans, observation_constraints

LP_EPS = 1e-6

CLEAN_SPEC = SuiteSpec(
    families=("grid", "blocks", "logistics", "corridor"), per_family=10,
    observability=(10, 30, 50, 70, 100),
    methods=tuple(SELECTION_RULES), seed=1201)

NOISY_SPEC = SuiteSpec(
    families=("grid", "blocks", "logistics", "corridor"), per_family=10,
    noise_count=2, methods=tuple(SELECTION_RULES), seed=2201)

COMPLETENESS_SPEC = SuiteSpec(
    families=("grid", "blocks", "logistics", "corridor"), per_family=50,
    observability=(100,), noise_count=0, suboptimal_fraction=0.5,
    methods=("hc",), seed=3301)


@pytest.fixture(scope="module")
def clean_problems():
    return generated_problems(CLEAN_SPEC)


@pytest.fixture(scope="module")
def clean_scored(clean_problems):
    config = RecognizerConfig()
    t0 = time.perf_counter()
    scored = [(p, recognize(p.task, p.hyps, p.obs, config=config).scores)
              for p in clean_problems]
    return scored, time.perf_counter() - t0


@pytest.fixture(scope="module")
def clean_rows():
    return run_suite(CLEAN_SPEC).rows


@pytest.fixture(scope="module")
def noisy_rows():
    return run_suite(NOISY_SPEC).rows


def test_criterion_1_example_fixture_values():
    """Grid demo reproduces the published example numbers, in under 1s."""
    t0 = time.perf_counter()
    bundle = bundle_from_texts(dict(demo_grid_bundle()))
    task, hyps, obs = bundle.task, bundle.hyps, bundle.obs
    full = recognize(task, hyps, obs, "delta-u")
    elapsed = time.perf_counter() - t0

    for score, (h, h_hc, delta) in zip(full.scores, ((3, 7, 4), (3, 9, 6))):
        assert abs(score.h - h) <= LP_EPS
        assert abs(score.h_hc - h_hc) <= LP_EPS
        assert abs(score.delta - delta) <= LP_EPS
    assert full.selected == (0,)

    one = recognize(task, hyps, ObservationSequence(obs.obs[2:3]), "delta-u")
    assert abs(one.uncertainty - (1 + 6 / 7)) <= 1e-9
    assert one.selected == (0, 1)

    four = recognize(task, hyps, ObservationSequence(obs.obs[:4]), "delta-u")
    assert abs(four.uncertainty - (1 + 3 / 7)) <= 1e-9
    assert four.selected == (0,)

    assert elapsed < 1.0
    print(f"\nCRITERION 1 (example fixture, {elapsed * 1000:.0f} ms): PASS")


def test_criterion_2_dominance(clean_scored):
    scored, elapsed = clean_scored
    domains = set()
    triples = violations = 0
    for problem, scores in scored:
        domains.add(problem.domain_name)
        for s in scores:
            triples += 1
            if s.h != INF and s.h_hc != INF:
                if s.h_hc < s.h - LP_EPS:
                    violations += 1
    assert triples >= 500
    assert len(domains) >= 4
    assert violations == 0
    assert elapsed < 300
    print(f"\nCRITERION 2 (dominance, {triples} triples, {len(domains)} domains, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_3_completeness_full_observability():
    problems = generated_problems(COMPLETENESS_SPEC)
    assert len(problems) >= 200
    config = RecognizerConfig()
    hits = 0
    for p in problems:
        check = validate_plan(p.task, p.plan.steps, p.hyps.goals[p.hyps.hidden])
        assert check.ok, f"witness plan invalid for {p.problem_id}"
        assert p.obs.obs == p.plan.steps  # 100% observability
        scores = recognize(p.task, p.hyps, p.obs, config=config).scores
        finite = {s.goal_index: s.h_hc for s in scores if s.h_hc != INF}
        threshold = min(finite.values()) + 1e-9
        selected = {i for i, v in finite.items() if v <= threshold}
        assert p.hyps.hidden in selected, f"hidden goal dropped on {p.problem_id}"
        hits += 1
    assert hits == len(problems)
    print(f"\nCRITERION 3 (completeness on {hits} problems, half spliced): PASS")


def test_criterion_4_admissibility_against_oracle(clean_scored, monkeypatch):
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "400000")
    scored, _ = clean_scored
    opt_cache: dict[tuple[int, frozenset[int]], object] = {}
    checked_h = checked_hc = 0
    for problem, scores in scored:
        for s in scores:
            goal = problem.hyps.goals[s.goal_index]
            key = (id(problem.task), goal)
            if key not in opt_cache:
                opt_cache[key] = optimal_cost(problem.task, goal)
            opt = opt_cache[key]
            if opt is not None:
                if s.h != INF:
                    assert s.h <= opt.cost + LP_EPS
                checked_h += 1
            if problem.pct not in (10, 30):
                continue  # small count floors keep the counts oracle tractable
            floors = problem.obs.counts
            with_counts = optimal_cost(problem.task, goal, floors=floors)
            if with_counts is not None and s.h_hc != INF:
                assert s.h_hc <= with_counts.cost + LP_EPS
                checked_hc += 1
    assert checked_h >= 500 and checked_hc >= 150
    print(f"\nCRITERION 4 (admissibility, {checked_h} base / {checked_hc} counted): PASS")


def test_criterion_5_constraint_soundness_micro_tasks():
    rng = random.Random(4401)
    families = (landmark_constraints, net_change_constraints, posthoc_constraints)
    tasks_checked = plans_checked = 0
    while tasks_checked < 50:
        task = make_micro_task(rng, num_facts=rng.randint(4, 6),
                               num_actions=rng.randint(4, 8))
        try:
            plans = enumerate_plans(task, task.goal, max_len=8, node_cap=120_000)
        except CapExceeded:
            continue
        if not plans:
            continue
        try:
            csets = [gen(task, task.goal) for gen in families]
        except GoalUnreachable:
            pytest.fail("plans exist but a generator reported unreachable")
        tasks_checked += 1
        for plan in plans[:400]:
            counts = plan_counts(task, plan.steps)
            for cset in csets:
                for row in cset:
                    assert row.satisfied_by(counts), (row.text(), plan.steps)
            plans_checked += 1
    print(f"\nCRITERION 5 (soundness, {tasks_checked} tasks, {plans_checked} plans): PASS")


def _selections(rows):
    by_key = {}
    for r in rows:
        by_key[(r.domain, r.problem_id, r.pct, r.method)] = set(r.selected)
    return by_key


def test_criterion_6_uncertainty_invariants(clean_rows, noisy_rows):
    checked_u = checked_superset = 0
    for rows in (clean_rows, noisy_rows):
        for r in rows:
            if r.u is not None:
                assert r.u >= 1.0 - 1e-12
                checked_u += 1
        sel = _selections(rows)
        for (domain, pid, pct, method), chosen in sel.items():
            if method in ("hc", "delta"):
                assert sel[(domain, pid, pct, method + "-u")] >= chosen
                checked_superset += 1
    assert checked_u > 0 and checked_superset > 0
    print(f"\nCRITERION 6 (U >= 1 on {checked_u} rows, "
          f"{checked_superset} superset checks): PASS")


def test_criterion_7_trend_checks(clean_rows, noisy_rows):
    low = [r for r in clean_rows if r.pct == 10]
    acc = {}
    for method in ("delta", "delta-u"):
        rows = [r for r in low if r.method == method]
        assert len(rows) >= 40
        acc[method] = sum(r.correct for r in rows) / len(rows)
    assert acc["delta-u"] >= acc["delta"]

    noisy_full = [r for r in noisy_rows if r.pct == 100 and r.method == "delta"]
    assert len(noisy_full) >= 40
    assert all(r.status == "ok" for r in noisy_rows)
    noise_acc = sum(r.correct for r in noisy_full) / len(noisy_full)
    assert noise_acc >= 0.8
    print(f"\nCRITERION 7 (low-obs: delta-u {acc['delta-u']:.2f} >= delta "
          f"{acc['delta']:.2f}; noisy full-obs delta {noise_acc:.2f} >= 0.8): PASS")


def test_criterion_8_cross_backend_agreement():
    rng = random.Random(8801)
    compared = 0
    while compared < 1000:
        task = make_micro_task(rng, num_facts=rng.randint(4, 7),
                               num_actions=rng.randint(4, 9))
        try:
            base = base_constraints(task, task.goal)
        except GoalUnreachable:
            continue
        variants = [base]
        for _ in range(3):
            floors = {a: rng.randint(1, 2)
                      for a in rng.sample(range(task.num_actions),
                                          rng.randint(1, min(3, task.num_actions)))}
            obs = ObservationSequence(tuple(a for a, k in sorted(floors.items())
                                            for _ in range(k)))
            variants.append(base + observation_constraints(obs))
        for cset in variants:
            lp = LinearProgram.from_constraints(cset, task.costs)
            ours = solve_lp(lp)
            ref = solve_with(lp, "scipy")
            assert ours.status == ref.status, (ours, ref)
            if ours.status == "optimal":
                assert abs(ours.value - ref.value) <= 1e-6
            compared += 1
    print(f"\nCRITERION 8 (cross-backend agreement on {compared} LPs): PASS")


def test_criterion_9_bench_determinism(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        '{"families": ["corridor", "grid"], "per_family": 2,'
        ' "observability": [50, 100], "methods": ["delta-u"], "seed": 11}')
    payloads = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["bench", "--manifest", str(manifest), "--out", str(out)]) == 0
        payloads.append((out / "rows.csv").read_bytes())
    assert payloads[0] == payloads[1]
    print("\nCRITERION 9 (byte-identical bench rows): PASS")
