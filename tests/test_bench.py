import csv
import random

import pytest

from ocgr import lp
from ocgr.bench import (SuiteSpec, _witness_plan, format_aggregate_table, format_rows,
                        generate_problem, generated_problems, inject_noise,
                        load_manifest, materialize_suite, run_suite,
                        sample_observations, stable_seed, write_suite_outputs)
from ocgr.errors import CapExceeded, OcgrError, SolverFailure
from ocgr.generators import GENERATORS, demo_grid_bundle, write_bundle
from ocgr.inputs import ObservationSequence, bundle_from_texts
from ocgr.oracle import Plan, optimal_cost, validate_plan
from ocgr.recognition import SELECTION_RULES
from references import save_manifest


def _plan10():
    return Plan(steps=tuple(range(10)), cost=10)


def test_sample_full_observability():
    plan = _plan10()
    obs = sample_observations(plan, 100, random.Random(1))
    assert obs.obs == plan.steps


def test_sample_size_and_order():
    obs = sample_observations(_plan10(), 30, random.Random(2))
    assert len(obs) == 3
    assert list(obs.obs) == sorted(obs.obs)  # steps are distinct ids 0..9 here


def test_sample_minimum_one():
    obs = sample_observations(Plan(steps=(4, 5), cost=2), 10, random.Random(3))
    assert len(obs) == 1


def test_sample_deterministic():
    a = sample_observations(_plan10(), 50, random.Random(7))
    b = sample_observations(_plan10(), 50, random.Random(7))
    assert a.obs == b.obs


def test_inject_noise_zero(demo_bundle):
    obs = demo_bundle.obs
    assert inject_noise(obs, demo_bundle.task, demo_bundle.hyps, 0,
                        random.Random(1)).obs == obs.obs


def test_inject_noise_properties(demo_bundle):
    task, hyps, obs = demo_bundle.task, demo_bundle.hyps, demo_bundle.obs
    noisy = inject_noise(obs, task, hyps, 2, random.Random(5), exclude=obs.obs)
    assert len(noisy) == 9
    added = list(noisy.obs)
    for a in obs.obs:
        added.remove(a)
    assert len(added) == 2 and added[0] != added[1]
    goal_facts = hyps.goals[0] | hyps.goals[1]
    for a in added:
        assert a not in obs.obs
        assert goal_facts.isdisjoint(task.actions[a].adds)


def test_inject_noise_deterministic(demo_bundle):
    args = (demo_bundle.obs, demo_bundle.task, demo_bundle.hyps, 2)
    a = inject_noise(*args, random.Random(9), exclude=demo_bundle.obs.obs)
    b = inject_noise(*args, random.Random(9), exclude=demo_bundle.obs.obs)
    assert a.obs == b.obs


def test_inject_noise_too_small(chain):
    from ocgr.inputs import GoalHypotheses

    hyps = GoalHypotheses(goals=(chain.goal,), lines=("(q)",), hidden=0)
    obs = ObservationSequence((0,))
    with pytest.raises(OcgrError, match="too small"):
        inject_noise(obs, chain, hyps, 1, random.Random(1), exclude=(0,))


def _problem(b, hidden, pct, noise, seed, suboptimal=False):
    plan = _witness_plan(b.task, b.hyps.goals[hidden], suboptimal, random.Random(seed))
    return generate_problem(b.task, b.hyps.with_hidden(hidden), pct, noise, seed=seed, plan=plan)


def test_generate_problem_full_clean(demo_bundle):
    p = _problem(demo_bundle, 0, 100, 0, seed=4)
    assert p.obs.obs == p.plan.steps
    assert p.plan.cost == 3  # optimal witness
    assert validate_plan(demo_bundle.task, p.plan.steps, demo_bundle.hyps.goals[0]).ok


def test_generate_problem_suboptimal(demo_bundle):
    p = _problem(demo_bundle, 0, 100, 0, seed=11, suboptimal=True)
    opt = optimal_cost(demo_bundle.task, demo_bundle.hyps.goals[0]).cost
    assert validate_plan(demo_bundle.task, p.plan.steps, demo_bundle.hyps.goals[0]).ok
    assert p.plan.cost >= opt


def test_a_capped_detour_search_stops_generation(monkeypatch):
    """A detour search that hits its cap raises instead of leaving the
    optimal plan in place of a suboptimal one."""
    base = stable_seed(2, "grid", 9)
    b = bundle_from_texts(GENERATORS["grid"](random.Random(base)).files, require_obs=False)
    goal = b.hyps.goals[b.hyps.hidden]

    def witness():
        return _witness_plan(b.task, goal, True, random.Random(stable_seed(base, "detour")))

    assert witness().steps == (46, 9, 10, 35)
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "4")
    assert optimal_cost(b.task, goal).steps == (7, 8)  # the main search fits the cap
    with pytest.raises(CapExceeded, match="raise OCGR_OPTIMAL_CAP"):
        witness()


def test_generate_problem_deterministic(demo_bundle):
    a = _problem(demo_bundle, 1, 50, 2, seed=8)
    b = _problem(demo_bundle, 1, 50, 2, seed=8)
    assert a.obs.obs == b.obs.obs and a.plan.steps == b.plan.steps


def test_stable_seed_is_stable():
    assert stable_seed(1, "grid", 2) == stable_seed(1, "grid", 2)
    assert stable_seed(1, "grid", 2) != stable_seed(1, "grid", 3)


def test_manifest_round_trip(tmp_path):
    spec = SuiteSpec(families=("corridor",), per_family=2, observability=(50, 100),
                     methods=("delta", "delta-u"), seed=5)
    path = tmp_path / "m.json"
    save_manifest(spec, path)
    assert load_manifest(path) == spec


def test_manifest_unknown_key(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"families": ["grid"], "x": 1}')
    with pytest.raises(ValueError, match=r"^unknown manifest key 'x' \(choose from backend, "):
        load_manifest(path)


def test_spec_validation():
    with pytest.raises(ValueError, match="neither"):
        SuiteSpec()
    with pytest.raises(ValueError, match="observability"):
        SuiteSpec(families=("grid",), observability=(0,))
    with pytest.raises(ValueError, match="method"):
        SuiteSpec(families=("grid",), methods=("nope",))
    with pytest.raises(ValueError, match="backend 'hihgs'"):
        SuiteSpec(families=("grid",), backend="hihgs")
    with pytest.raises(ValueError,
                       match=r"^unknown constraint family 'xx' \(choose from lm, nc, ph\)$"):
        SuiteSpec(families=("grid",), constraint_families=("lm", "xx"))
    with pytest.raises(ValueError, match="at least one constraint family"):
        SuiteSpec(families=("grid",), constraint_families=())
    with pytest.raises(ValueError, match="per_family"):
        SuiteSpec(families=("grid",), per_family=-2)
    for fraction in (-0.1, 1.5):
        with pytest.raises(ValueError, match="suboptimal_fraction"):
            SuiteSpec(families=("grid",), suboptimal_fraction=fraction)
    SuiteSpec(bundles=("demo",), families=("grid",), per_family=0, suboptimal_fraction=1.0,
              backend="scipy")


def test_spec_that_composes_no_problem_is_rejected():
    """per_family 0 with no bundles would write header-only outputs: an
    error that names the key. With a bundle it is a suite of that bundle."""
    with pytest.raises(ValueError, match=r"^per_family must be >= 1$"):
        SuiteSpec(families=("grid",), per_family=0)
    SuiteSpec(bundles=("demo",), families=("grid",), per_family=0)


def test_spec_rejects_an_empty_method_or_level_list():
    """No method would score every problem and write no row; no level would
    compose no problem. Each is an error that names its key."""
    with pytest.raises(ValueError, match="^methods must list at least one method$"):
        SuiteSpec(families=("grid",), methods=())
    with pytest.raises(ValueError, match="^observability must list at least one level$"):
        SuiteSpec(families=("grid",), observability=())


def test_default_levels_depend_on_noise():
    assert SuiteSpec(families=("grid",)).levels() == (10, 30, 50, 70, 100)
    assert SuiteSpec(families=("grid",), noise_count=2).levels() == (25, 50, 75, 100)


def _tiny_spec(**kw):
    defaults = dict(families=("corridor", "grid"), per_family=2,
                    observability=(50, 100), methods=tuple(SELECTION_RULES),
                    seed=3)
    defaults.update(kw)
    return SuiteSpec(**defaults)


def test_run_suite_row_cardinality_and_metrics():
    spec = _tiny_spec()
    result = run_suite(spec)
    assert len(result.rows) == 2 * 2 * 2 * 4  # families * per_family * levels * methods
    assert all(r.status == "ok" for r in result.rows)
    for agg in result.aggregates:
        assert 0.0 <= agg.accuracy <= 1.0
        assert agg.spread_mean >= 1.0  # every selection nonempty here
    # full observability with hc must always contain the hidden goal
    for r in result.rows:
        if r.pct == 100 and r.method == "hc":
            assert r.correct


def test_run_suite_deterministic_rows():
    a = run_suite(_tiny_spec())
    b = run_suite(_tiny_spec())
    assert format_rows(a.rows, False) == format_rows(b.rows, False)


def test_run_suite_uncertainty_supersets():
    result = run_suite(_tiny_spec())
    by_key = {}
    for r in result.rows:
        by_key[(r.domain, r.problem_id, r.pct, r.method)] = set(r.selected)
    for (domain, pid, pct, method), sel in by_key.items():
        if method in ("hc", "delta"):
            widened = by_key[(domain, pid, pct, method + "-u")]
            assert widened >= sel


def test_run_suite_spread_superset_invariant():
    result = run_suite(_tiny_spec(noise_count=2, observability=(50, 100)))
    spread = {(a.domain, a.pct, a.method): a.spread_mean for a in result.aggregates}
    for (domain, pct, method), s in spread.items():
        if method in ("hc", "delta"):
            assert spread[(domain, pct, method + "-u")] >= s - 1e-12


def test_run_suite_bundle_mode(tmp_path):
    write_bundle(tmp_path / "demo", demo_grid_bundle().files)
    spec = SuiteSpec(bundles=(str(tmp_path / "demo"),), observability=(50, 100),
                     methods=("delta-u",), seed=1)
    result = run_suite(spec)
    assert len(result.rows) == 2
    full = next(r for r in result.rows if r.pct == 100)
    assert full.correct and full.selected == (0,)


def test_bench_outputs_quote_a_name_with_a_comma(tmp_path):
    write_bundle(tmp_path / "a,b", demo_grid_bundle().files)
    spec = SuiteSpec(bundles=(str(tmp_path / "a,b"),), observability=(50, 100),
                     methods=("delta-u",), seed=1)
    rows_path, agg_path = write_suite_outputs(run_suite(spec), tmp_path / "out", spec)
    with rows_path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 11 and len(rows) == 2
    assert all(len(row) == 11 and row[1] == "a,b" for row in rows)
    with agg_path.open(newline="") as fh:
        assert {len(row) for row in csv.reader(fh)} == {8}


@pytest.mark.parametrize("timings", [True, False])
def test_rows_carry_times_only_when_asked(tmp_path, timings):
    spec = _tiny_spec(per_family=1, timings=timings)
    rows_path, _ = write_suite_outputs(run_suite(spec), tmp_path / "out", spec)
    with rows_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["status"] == "ok" for r in rows)
    for r in rows:
        assert float(r["time_s"]) >= 0 if timings else r["time_s"] == ""


def test_a_failed_solve_is_an_error_row_of_each_method(tmp_path, monkeypatch):
    """A problem whose scoring raises gets one row per method with the
    error's type as its status and no time, verdict, spread, U or selection;
    the aggregates count those rows and report no accuracy."""
    def broken(prog, **solve):
        raise SolverFailure("injected failure")

    monkeypatch.setitem(lp.BACKENDS, "broken-test", broken)
    spec = _tiny_spec(per_family=1, timings=True, backend="broken-test")
    rows_path, agg_path = write_suite_outputs(run_suite(spec), tmp_path / "out", spec)
    with rows_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 1 * 2 * 4  # families * per_family * levels * methods
    for r in rows:
        assert r["status"] == "error:SolverFailure"
        assert r["time_s"] == r["correct"] == r["spread"] == r["U"] == r["selected_goals"] == ""
    with agg_path.open(newline="") as fh:
        aggregates = list(csv.DictReader(fh))
    assert len(aggregates) == 2 * 2 * 4  # families * levels * methods
    assert all(a["n"] == "1" and a["acc_pct"] == "" for a in aggregates)


def test_an_all_error_group_has_no_mean_time(tmp_path, monkeypatch):
    """A group whose every row is an error has no time or spread to average:
    its ``time_mean_s`` and ``spread_mean`` are empty in aggregate.csv and
    blank in the table."""
    def broken(prog, **solve):
        raise SolverFailure("injected failure")

    monkeypatch.setitem(lp.BACKENDS, "broken-test", broken)
    spec = _tiny_spec(families=("grid",), per_family=1, observability=(100,),
                      methods=("delta-u",), timings=True, backend="broken-test")
    result = run_suite(spec)
    assert [(a.time_mean_s, a.spread_mean) for a in result.aggregates] == [(None, None)]
    _, agg_path = write_suite_outputs(result, tmp_path / "out", spec)
    assert agg_path.read_text() == ("domain,pct,noise,method,n,time_mean_s,acc_pct,spread_mean\n"
                                    "grid,100,0,delta-u,1,,,\n")
    assert format_aggregate_table(result.aggregates).splitlines()[-1] == \
        "grid           100     0 delta-u     1" + " " * 25


def test_a_mixed_group_means_cover_the_scored_rows(tmp_path, monkeypatch):
    """In a group of one error row and one scored row, mean time, accuracy and
    spread all average the scored row alone."""
    calls = []

    def first_fails(prog, **solve):
        calls.append(prog)
        if len(calls) == 1:
            raise SolverFailure("injected failure")
        return lp.BACKENDS["simplex"](prog, **solve)

    monkeypatch.setitem(lp.BACKENDS, "first-fails-test", first_fails)
    spec = _tiny_spec(families=("grid",), per_family=2, observability=(100,),
                      methods=("delta-u",), timings=True, backend="first-fails-test")
    result = run_suite(spec)
    assert [(r.problem_id, r.status, r.spread) for r in result.rows] == \
        [("grid-000", "error:SolverFailure", None), ("grid-001", "ok", 3)]
    (agg,) = result.aggregates
    assert (agg.n, agg.accuracy, agg.spread_mean) == (2, 1.0, 3.0)
    assert agg.time_mean_s == result.rows[1].time_s
    _, agg_path = write_suite_outputs(result, tmp_path / "out", spec)
    with agg_path.open(newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["n"], row["acc_pct"], row["spread_mean"]) == ("2", "100.00", "3.00")


def test_materialize_suite_writes_generated_problems_only(tmp_path):
    write_bundle(tmp_path / "demo", demo_grid_bundle().files)
    shipped = SuiteSpec(bundles=(str(tmp_path / "demo"),), observability=(50,))
    with pytest.raises(ValueError, match="not shipped bundles"):
        materialize_suite(shipped, tmp_path / "out")
    with pytest.raises(ValueError, match="one observability level, not 2"):
        materialize_suite(_tiny_spec(observability=(50, 100)), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_rows_accuracy_definition():
    result = run_suite(_tiny_spec())
    for agg in result.aggregates:
        rows = [r for r in result.rows
                if (r.domain, r.pct, r.noise, r.method) ==
                   (agg.domain, agg.pct, agg.noise, agg.method)]
        assert agg.n == len(rows)
        assert agg.accuracy == pytest.approx(sum(r.correct for r in rows) / len(rows))
        assert agg.spread_mean == pytest.approx(sum(r.spread for r in rows) / len(rows))
