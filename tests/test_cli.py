import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHAIN_DOMAIN, ISLAND_BUNDLE, with_template_goal
from ocgr import lp
from ocgr.bench import SuiteSpec, _witness_plan, generated_problems, materialize_suite
from ocgr.constraints import ALL_FAMILIES, base_constraints
from ocgr.cli import main
from ocgr.errors import GoalUnreachable, SolverFailure
from ocgr.generators import CORRIDOR_DOMAIN, demo_grid_bundle, write_bundle
from ocgr.grounding import ground
from ocgr.inputs import bundle_from_texts, load_bundle
from ocgr.oracle import optimal_cost
from ocgr.pddl import parse_domain, parse_problem
from ocgr.recognition import RecognitionReport, RecognizerConfig, recognize, report_from_dict


# Both goals need one branch of the fork; observing both branches makes every
# hypothesis infeasible, and every action achieves a goal fact.
FORK_BUNDLE = {
    "domain.pddl": CORRIDOR_DOMAIN,
    "template.pddl": ("(define (problem fork) (:domain corridor)"
                      " (:objects s0 l1 r1 - node)"
                      " (:init (at s0) (linked s0 l1) (linked s0 r1)))"),
    "hyps.dat": "(at l1)\n(at r1)\n",
    "real_hyp.dat": "(at l1)\n",
    "obs.dat": "(walk s0 l1)\n(walk s0 r1)\n",
}


@pytest.fixture()
def demo_dir(tmp_path) -> Path:
    d = tmp_path / "demo"
    write_bundle(d, demo_grid_bundle())
    return d


def test_main_builds_its_parser_once(demo_dir, capsys, monkeypatch):
    """``main`` reuses one parser across calls; ``build_parser`` still
    returns a fresh one."""
    import ocgr.cli as cli

    assert cli.build_parser() is not cli.build_parser()
    assert main(["recognize", "-b", str(demo_dir)]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    assert main(["recognize", "-b", str(demo_dir), "--json"]) == 0
    with pytest.raises(SystemExit):
        main(["recognize", "--nope"])
    assert main(["recognize", "-b", str(demo_dir), "--method", "hc"]) == 0
    assert "method: hc" in capsys.readouterr().out


def test_recognize_full_obs(demo_dir, capsys):
    assert main(["recognize", "-b", str(demo_dir)]) == 0
    out = capsys.readouterr().out
    assert "delta=4" in out and "delta=6" in out
    assert "selected: G0" in out
    assert "h=3 h_hc=7" in out and "h=3 h_hc=9" in out


def test_recognize_single_obs_selects_both(demo_dir, capsys):
    obs = (demo_dir / "obs.dat").read_text().splitlines()
    (demo_dir / "obs.dat").write_text(obs[2] + "\n")
    assert main(["recognize", "-b", str(demo_dir)]) == 0
    out = capsys.readouterr().out
    assert "uncertainty: 1.857143" in out
    assert "selected: G0, G1" in out


def test_recognize_json_round_trips(demo_dir, capsys):
    assert main(["recognize", "-b", str(demo_dir), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = report_from_dict(doc)
    assert report.selected == (0,)
    assert doc["goals"] == ["(at c_1_2)", "(at c_0_3)"]
    assert "parse_ground" in report.timings


def test_recognize_missing_obs_exits_2(demo_dir, capsys):
    (demo_dir / "obs.dat").unlink()
    assert main(["recognize", "-b", str(demo_dir)]) == 2
    assert "obs.dat" in capsys.readouterr().err


def test_recognize_parse_error_exits_2(demo_dir, capsys):
    (demo_dir / "domain.pddl").write_text("(define (domain broken)")
    assert main(["recognize", "-b", str(demo_dir)]) == 2


def test_recognize_checks_a_template_goal(demo_dir, capsys):
    """A template's :goal is checked like the rest of the file: an unknown
    object in it exits 2 with one error line naming :goal and the line."""
    template = demo_dir / "template.pddl"
    template.write_text(with_template_goal(template.read_text(), "(at nowhere)"))
    assert main(["recognize", "-b", str(demo_dir)]) == 2
    assert capsys.readouterr().err == "error: unknown term 'nowhere' in :goal (line 50, col 11)\n"


def test_recognize_separate_files(demo_dir, capsys):
    code = main(["recognize",
                 "-d", str(demo_dir / "domain.pddl"),
                 "-p", str(demo_dir / "template.pddl"),
                 "-y", str(demo_dir / "hyps.dat"),
                 "-o", str(demo_dir / "obs.dat"),
                 "--real-hyp", str(demo_dir / "real_hyp.dat"),
                 "--method", "hc"])
    assert code == 0
    assert "selected: G0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["recognize", "heuristic"])
def test_separate_files_without_obs_name_the_flag(demo_dir, capsys, command):
    """The error names the missing ``--obs`` flag, not a bundle path never given;
    ``plan`` needs no observations and runs without it."""
    files = ["-d", str(demo_dir / "domain.pddl"), "-p", str(demo_dir / "template.pddl"),
             "-y", str(demo_dir / "hyps.dat")]
    assert main([command, *files]) == 2
    assert capsys.readouterr().err == "error: missing input files: --obs (or use --bundle)\n"
    assert main(["plan", *files, "--goal-index", "0"]) == 0
    assert "G0: cost 3" in capsys.readouterr().out


@pytest.mark.parametrize("flag, name", [("-d", "domain.pddl"), ("-p", "template.pddl"),
                                        ("-y", "hyps.dat"), ("-o", "obs.dat"),
                                        ("--real-hyp", "real_hyp.dat")])
def test_bundle_with_a_file_flag_exits_2(demo_dir, capsys, flag, name):
    """A file flag next to ``--bundle`` is an error that names it, in every
    command that reads a bundle, not a file silently left unread."""
    long = {"-d": "--domain", "-p": "--problem", "-y": "--hyps", "-o": "--obs"}.get(flag, flag)
    for command in ("recognize", "heuristic", "plan"):
        assert main([command, "-b", str(demo_dir), flag, str(demo_dir / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --bundle reads its own files; drop {long}\n"


def test_recognize_solver_failure_exits_3(demo_dir, capsys, monkeypatch):
    def broken(prog, **solve):
        raise SolverFailure("injected failure")

    monkeypatch.setitem(lp.BACKENDS, "broken-test", broken)
    assert main(["recognize", "-b", str(demo_dir), "--backend", "broken-test"]) == 3
    assert "injected" in capsys.readouterr().err


def test_recognize_pivot_cap_exits_3_naming_the_hypothesis(tmp_path, capsys, monkeypatch):
    argv = ["--family", "blocks", "--count", "2", "--seed", "7", "--pct", "50", "--noise", "1"]
    assert main(["gen", "--out", str(tmp_path), *argv]) == 0
    capsys.readouterr()
    monkeypatch.setattr(lp, "PIVOT_CAP", 0)
    assert main(["recognize", "-b", str(tmp_path / "blocks-000")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("solver error: hypothesis 0: simplex gave up at its cap ")


def test_heuristic_solver_failure_exits_3(demo_dir, capsys, monkeypatch):
    """A family's LP that hits the pivot cap is a solver failure, not an
    unreachable goal."""
    monkeypatch.setattr(lp, "PIVOT_CAP", 0)
    assert main(["heuristic", "-b", str(demo_dir), "--goal-index", "0"]) == 3
    captured = capsys.readouterr()
    assert "unreachable" not in captured.out
    assert captured.err.startswith("solver error: simplex ")


@pytest.mark.parametrize("command", ["plan", "heuristic"])
def test_goal_index_out_of_range_exits_2(demo_dir, capsys, command):
    assert main([command, "-b", str(demo_dir), "--goal-index", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --goal-index 9 out of range\n"


@pytest.mark.parametrize("command", ["recognize", "heuristic"])
def test_unknown_backend_exits_2_before_loading(tmp_path, demo_dir, capsys, command):
    """So does an unknown constraint family of ``recognize``."""
    for bundle in (demo_dir, tmp_path / "missing"):
        assert main([command, "-b", str(bundle), "--backend", "hihgs"]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown backend 'hihgs' (choose from scipy, simplex)\n"
        if command == "recognize":
            assert main([command, "-b", str(bundle), "--constraints", "lm,xx"]) == 2
            assert capsys.readouterr().err == \
                "error: unknown constraint family 'xx' (choose from lm, nc, ph)\n"


def test_recognize_all_infeasible_exits_4(tmp_path, capsys):
    d = tmp_path / "fork"
    write_bundle(d, FORK_BUNDLE)
    assert main(["recognize", "-b", str(d)]) == 4
    out = capsys.readouterr().out
    assert "fallback ranking" in out


def test_recognize_json_is_strict_on_infinite_scores(tmp_path, capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    d = tmp_path / "fork"
    write_bundle(d, FORK_BUNDLE)
    assert main(["recognize", "-b", str(d), "--json"]) == 4
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [s["h_hc"] for s in doc["scores"]] == ["inf", "inf"]
    assert [s["delta"] for s in doc["scores"]] == ["inf", "inf"]
    report = report_from_dict(doc)
    assert all(s.h_hc == float("inf") and s.h == 1.0 for s in report.scores)


def test_recognize_dumps(demo_dir, capsys):
    assert main(["recognize", "-b", str(demo_dir), "--dump-constraints", "--dump-lp"]) == 0
    out = capsys.readouterr().out
    assert "[net-change]" in out
    assert "Minimize" in out and "Subject To" in out
    # the floors are bounds, not rows: (move-right c_0_0 c_1_0) is observed once
    assert "[observation]" not in out
    assert out.count("(move-right c_0_0 c_1_0) >= 1 [bound]") == 2
    assert out.count(" 1 <= y") == 2 * 7


def test_recognize_json_takes_no_dump(tmp_path, capsys):
    """``--json`` prints the report alone, so a dump flag with it exits 2
    before any input is read."""
    missing = str(tmp_path / "missing")
    for dumps in (["--dump-lp"], ["--dump-constraints"], ["--dump-constraints", "--dump-lp"]):
        assert main(["recognize", "-b", missing, "--json", *dumps]) == 2
        assert capsys.readouterr() == (
            "", f"error: --json prints the report alone; drop {', '.join(dumps)}\n")


def test_recognize_dumps_read_the_rows_recognition_built(demo_dir, capsys, monkeypatch):
    import ocgr.constraints as cons

    calls = []
    real = cons.landmark_constraints
    monkeypatch.setattr(cons, "landmark_constraints",
                        lambda task, goal, **kw: calls.append(goal) or real(task, goal, **kw))
    assert main(["recognize", "-b", str(demo_dir), "--dump-constraints"]) == 0
    assert "# constraints for G1" in capsys.readouterr().out
    assert len(calls) == 2


def test_heuristic_command(demo_dir, capsys):
    assert main(["heuristic", "-b", str(demo_dir), "--goal-index", "0"]) == 0
    out = capsys.readouterr().out
    assert "h    = 3.0" in out
    assert "h_hc = 7.0" in out
    assert "lp[lm]" in out and "lp[nc]" in out and "lp[ph]" in out


def test_heuristic_prints_each_familys_highs_optimum(demo_dir, tmp_path, capsys):
    """``lp[f]`` is HiGHS's optimum over family f's rows alone, or
    ``unreachable``, for every goal of the demo, the island fork and one
    generated bundle per family, on both backends."""
    spec = SuiteSpec(families=("blocks", "corridor", "grid", "logistics"), per_family=1,
                     seed=4, observability=(50,), noise_count=1)
    island = tmp_path / "island"
    write_bundle(island, {**ISLAND_BUNDLE, "obs.dat": "(walk s0 l1)\n"})
    checked, unreachable = 0, 0
    for d in [demo_dir, island, *materialize_suite(spec, tmp_path / "gen")]:
        b = load_bundle(d)
        for idx, goal in enumerate(b.hyps.goals):
            want = {}
            for family in ALL_FAMILIES:
                try:
                    rows = base_constraints(b.task, goal, (family,))
                except GoalUnreachable:
                    want[family] = "unreachable"
                    continue
                out = lp.solve_with(lp.LinearProgram.from_constraints(rows, b.task.costs), "scipy")
                assert out.status == "optimal"
                want[family] = out.value
            for backend in ("simplex", "scipy"):
                assert main(["heuristic", "-b", str(d), "--goal-index", str(idx),
                             "--backend", backend]) == 0
                got = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                           if line.startswith("lp["))
                assert got.keys() == {f"lp[{f}]" for f in ALL_FAMILIES}
                for family, value in want.items():
                    shown = got[f"lp[{family}]"]
                    assert shown == value if value == "unreachable" else (
                        abs(float(shown) - value) <= 1e-6), (d, idx, backend, family)
                checked += 1
                unreachable += "unreachable" in want.values()
    assert checked >= 20 and unreachable == 2


def test_heuristic_dumps_for_unreachable_hypothesis(tmp_path, capsys):
    d = tmp_path / "island"
    write_bundle(d, {**ISLAND_BUNDLE, "obs.dat": "(walk s0 l1)\n"})
    for dump in ("--dump-constraints", "--dump-lp"):
        assert main(["heuristic", "-b", str(d), "--goal-index", "2", dump]) == 0
        out = capsys.readouterr().out
        assert "h    = inf" in out
        assert "# G2: " in out


def test_heuristic_dumps_floors_as_bounds(demo_dir, capsys):
    assert main(["heuristic", "-b", str(demo_dir), "--goal-index", "0",
                 "--dump-constraints", "--dump-lp"]) == 0
    out = capsys.readouterr().out
    assert "[observation]" not in out
    assert "(move-right c_0_0 c_1_0) >= 1 [bound]" in out
    assert out.count(" 1 <= y") == 7


def test_plan_command_chain(tmp_path, capsys):
    d = tmp_path / "chain"
    write_bundle(d, {
        "domain.pddl": CHAIN_DOMAIN,
        "template.pddl": "(define (problem c) (:domain chain) (:objects) (:init (p)))",
        "hyps.dat": "(q)\n",
        "real_hyp.dat": "(q)\n",
    })
    assert main(["plan", "-b", str(d)]) == 0
    out = capsys.readouterr().out
    assert "cost 1" in out and "(a)" in out


def test_gen_demo_grid(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path), "--demo-grid"]) == 0
    assert (tmp_path / "grid-demo" / "obs.dat").is_file()


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--out", str(out), "--family", "blocks",
                     "--count", "2", "--seed", "9"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


@pytest.mark.parametrize("family", ["grid", "blocks", "logistics", "corridor"])
def test_gen_observations_match_bench_problems(tmp_path, family):
    assert main(["gen", "--out", str(tmp_path), "--family", family,
                 "--count", "4", "--seed", "7", "--pct", "100"]) == 0
    spec = SuiteSpec(families=(family,), per_family=4, seed=7, observability=(100,))
    for problem in generated_problems(spec):
        written = (tmp_path / problem.problem_id / "obs.dat").read_text().splitlines()
        assert written == [problem.task.actions[a].text() for a in problem.obs.obs]


def test_bench_command(tmp_path, demo_dir, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "bundles": [str(demo_dir)],
        "observability": [50, 100],
        "methods": ["hc", "delta-u"],
        "seed": 2,
    }))
    out_dir = tmp_path / "out"
    assert main(["bench", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
    rows = (out_dir / "rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 1 * 2 * 2  # header + bundles * levels * methods
    table = capsys.readouterr().out
    assert "Acc %" in table


def test_bench_rows_byte_identical(tmp_path, demo_dir):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "bundles": [str(demo_dir)],
        "families": ["corridor"],
        "per_family": 1,
        "observability": [50, 100],
        "methods": ["delta-u"],
        "seed": 6,
    }))
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        assert main(["bench", "--manifest", str(manifest), "--out", str(out_dir)]) == 0
        outs.append((out_dir / "rows.csv").read_bytes())
    assert outs[0] == outs[1]


def test_bench_rows_are_pinned(tmp_path):
    """Shipped and generated problems of every family, noisy, all four methods."""
    write_bundle(tmp_path / "grid-demo", demo_grid_bundle())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "bundles": [str(tmp_path / "grid-demo")],
        "families": ["blocks", "corridor", "grid", "logistics"],
        "per_family": 3,
        "noise_count": 2,
        "seed": 9,
        "methods": ["hc", "hc-u", "delta", "delta-u"],
    }))
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "rows.csv").read_bytes()
    assert len(rows.splitlines()) == 1 + (1 + 4 * 3) * 4 * 4
    assert hashlib.sha256(rows).hexdigest() == \
        "b64267a3d316780d20f9cefb8aff17e75f3dd398097ebb4db7b4a3b116916a1b"


def test_bench_bad_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    for body, message in (('{"families": ["grid"], "bogus": true}',
                           "error: unknown manifest key 'bogus' (choose from backend, bundles, "),
                          ('{"families": ["grid"], "backend": "hihgs"}', "unknown backend"),
                          ('{"families": ["grid"], "per_family": -1}', "per_family"),
                          ('{"families": ["grid"], "suboptimal_fraction": 2}',
                           "suboptimal_fraction"),
                          ('{"families": ["grid"], "constraint_families": ["xx"]}',
                           "error: unknown constraint family 'xx' (choose from lm, nc, ph)"),
                          ('{"families": ["grid"], "constraint_families": []}',
                           "error: at least one constraint family is required")):
        manifest.write_text(body)
        assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("body, named", [
    ('{"families": ["grid"], "per_family": "2"}', "'per_family'"),
    ('{"families": ["grid"], "per_family": true}', "'per_family'"),
    ('{"families": ["grid"], "suboptimal_fraction": "0.5"}', "'suboptimal_fraction'"),
    ('{"families": ["grid"], "noise_count": 1.5}', "'noise_count'"),
    ('{"families": ["grid"], "observability": 100}', "'observability'"),
    ('{"families": ["grid"], "observability": []}', "'observability'"),
    ('{"families": ["grid"], "seed": "x"}', "'seed'"),
    ('{"families": ["grid"], "timings": "no"}', "'timings'"),
    ('{"families": ["grid"], "backend": 1}', "'backend'"),
    ('{"families": "grid"}', "'families'"),
    ('{"families": ["grid"], "methods": "delta-u"}', "'methods'"),
    ('{"families": ["grid"], "constraint_families": "lm"}', "'constraint_families'"),
    ('{"bundles": "b"}', "'bundles'"),
    ("5", "JSON object"),
    ("[1, 2]", "JSON object"),
])
def test_bench_ill_typed_manifest_exits_2(tmp_path, capsys, body, named):
    """A manifest value of the wrong JSON type is one error line naming its
    key, before anything runs."""
    manifest = tmp_path / "m.json"
    manifest.write_text(body)
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "o").exists()


def test_bench_manifest_without_methods_exits_2(tmp_path, capsys):
    """A manifest with an empty ``methods`` is one error line naming the key,
    before anything runs, rather than a run that writes only the headers."""
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": ["grid"], "per_family": 1,
                                    "observability": [50], "methods": [], "seed": 1}))
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: methods must list at least one method"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, values, named", [
    ("families", ["grid", "corridor", "grid"], 'families lists "grid" more than once'),
    ("observability", [50, 100, 50], "observability lists 50 more than once"),
    ("methods", ["delta-u", "hc", "delta-u"], 'methods lists "delta-u" more than once'),
    ("bundles", ["{demo}", "{demo}"], 'bundles lists "{demo}" more than once'),
    ("bundles", ["{demo}", "{demo}/"], 'bundles lists "{demo}/" more than once, first as "{demo}"'),
    ("bundles", ["{demo}", "{demo}/../{name}"], 'bundles lists "{demo}/../{name}"'),
], ids=["families", "observability", "methods", "bundles", "bundles-slash", "bundles-dotdot"])
def test_bench_repeated_manifest_value_exits_2(tmp_path, demo_dir, capsys, key, values, named):
    """A repeated family, level, method or bundle, however its directory is
    spelled, would run the same problems once per repeat and count each in
    the aggregates; it is one error line naming the key and the value,
    before anything runs."""
    def fill(v):
        return v.format(demo=demo_dir, name=demo_dir.name) if isinstance(v, str) else v
    body = {"families": ["grid"], "per_family": 1, "observability": [50], "seed": 1}
    body[key] = [fill(v) for v in values]
    named = fill(named)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(body))
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
    assert not (tmp_path / "o").exists()


def test_bench_too_few_noise_candidates_exits_2(tmp_path, capsys):
    write_bundle(tmp_path / "fork", FORK_BUNDLE)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"bundles": [str(tmp_path / "fork")], "noise_count": 1}))
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert "error: task too small to supply 1 distinct spurious actions" in capsys.readouterr().err


def test_gen_search_cap_exits_2(tmp_path, capsys, monkeypatch):
    """A witness search that gives up names its cap; an unreachable hidden
    goal keeps its own wording."""
    island = bundle_from_texts(ISLAND_BUNDLE, require_obs=False)
    with pytest.raises(GoalUnreachable) as err:
        _witness_plan(island.task, island.hyps.goals[2], False, random.Random(0))
    assert str(err.value) == "no witness plan for the hidden goal (unreachable)"
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "1")
    assert main(["gen", "--out", str(tmp_path), "--family", "grid"]) == 2
    assert capsys.readouterr().err == ("error: grid-0: optimal plan search for {(at c_2_2)} "
                                       "hit the expansion cap of 1; raise OCGR_OPTIMAL_CAP\n")


@pytest.mark.parametrize("command", ["recognize", "heuristic", "plan", "bench"])
def test_empty_hypotheses_exit_2(tmp_path, capsys, command):
    """A bundle whose hyps.dat lists no goal is an input error in every command."""
    files = {**demo_grid_bundle(), "hyps.dat": ""}
    del files["real_hyp.dat"]
    write_bundle(tmp_path / "empty", files)
    argv = [command, "-b", str(tmp_path / "empty")]
    if command == "bench":
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"bundles": [str(tmp_path / "empty")]}))
        argv = ["bench", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: at least one goal hypothesis is required\n"
    assert not (tmp_path / "out").exists()


def test_plan_search_cap_exits_2(tmp_path, demo_dir, capsys, monkeypatch):
    """A search that gives up is an error; an unreachable goal is an answer."""
    write_bundle(tmp_path / "island", ISLAND_BUNDLE)
    assert main(["plan", "-b", str(tmp_path / "island"), "--goal-index", "2"]) == 0
    assert capsys.readouterr().out == "G2: unreachable\n"
    monkeypatch.setenv("OCGR_OPTIMAL_CAP", "1")
    assert main(["plan", "-b", str(demo_dir), "--goal-index", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: optimal plan search for {(at c_0_3)} hit the expansion "
                            "cap of 1; raise OCGR_OPTIMAL_CAP\n")
    assert captured.out == ""


@pytest.mark.parametrize("raw", ["abc", "-5", "0", "1.5"])
@pytest.mark.parametrize("var", ["OCGR_GROUND_CAP", "OCGR_OPTIMAL_CAP"])
def test_a_bad_cap_override_is_one_line_from_its_reader_and_the_cli(demo_dir, capsys,
                                                                    monkeypatch, var, raw):
    """``errors.env_cap`` reads each cap's override where the cap is used:
    ``ground`` reads OCGR_GROUND_CAP and ``optimal_cost`` OCGR_OPTIMAL_CAP. A
    value that is not a positive integer raises one message from the reader,
    and ``ocgr plan``, which runs both, exits 2 with that one line."""
    files = demo_grid_bundle()
    dom = parse_domain(files["domain.pddl"])
    prob = parse_problem(files["template.pddl"], dom)
    task = ground(dom, prob)
    readers = {"OCGR_GROUND_CAP": lambda: ground(dom, prob),
               "OCGR_OPTIMAL_CAP": lambda: optimal_cost(task, task.goal)}
    message = f"{var} must be a positive integer, not '{raw}'"
    monkeypatch.setenv(var, raw)
    with pytest.raises(ValueError) as err:
        readers[var]()
    assert str(err.value) == message
    assert main(["plan", "-b", str(demo_dir)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flags, message", [
    (["--pct", "0"], "observability level 0"),
    (["--pct", "101"], "observability level 101"),
    (["--noise", "-1"], "noise_count"),
    (["--count", "-2"], "per_family"),
    (["--count", "0"], "per_family"),
])
def test_gen_bad_options_exit_2(tmp_path, capsys, flags, message):
    assert main(["gen", "--out", str(tmp_path / "o"), "--family", "grid", *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bench_manifest_that_composes_no_problem_exits_2(tmp_path, capsys):
    """No bundles and per_family 0 compose no problem: rather than write
    header-only outputs, bench exits 2 with one line naming the key."""
    manifest = tmp_path / "m.json"
    manifest.write_text('{"families": ["grid"], "per_family": 0, "seed": 1}')
    assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: per_family must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_gen_requires_family_or_demo(tmp_path):
    assert main(["gen", "--out", str(tmp_path)]) == 2


def test_gen_takes_demo_grid_or_family(tmp_path, capsys):
    """--demo-grid would ignore --family and the options that shape it, so
    the two together are an error, as is neither; either way nothing is written."""
    both = ["--demo-grid", "--family", "blocks", "--count", "3", "--seed", "9", "--pct", "50"]
    for flags in (both, []):
        assert main(["gen", "--out", str(tmp_path / "x"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gen takes exactly one of --demo-grid and --family\n"
        assert not (tmp_path / "x").exists()


def test_gen_unknown_family_exits_2_naming_the_families(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "o"), "--family", "nosuch"]) == 2
    assert "unknown generator family 'nosuch' (choose from blocks, corridor, grid, logistics)" \
        in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _recognize(bundle, method: str):
    return recognize(bundle.task, bundle.hyps, bundle.obs, method)


def _bad_manifest(tmp_path: Path, **body) -> list[str]:
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"families": ["grid"], **body}))
    return ["bench", "--manifest", str(path), "--out", str(tmp_path / "out")]


# Each kind of name: a bad name, the names it may be, and every entry point
# that takes one, called as (tmp_path, demo bundle directory, bad name). A
# Python entry point raises; a CLI one returns the argv to run.
_NAME_ENTRIES = {
    ("backend", "hihgs", "scipy, simplex"): {
        "RecognizerConfig": lambda tmp, demo, x: RecognizerConfig(backend=x),
        "solve_with": lambda tmp, demo, x: lp.solve_with(lp.LinearProgram((1.0,), ()), x),
        "recognize": lambda tmp, demo, x: ["recognize", "-b", str(demo), "--backend", x],
        "heuristic": lambda tmp, demo, x: ["heuristic", "-b", str(demo), "--backend", x],
        "manifest": lambda tmp, demo, x: _bad_manifest(tmp, backend=x),
    },
    ("constraint family", "xx", "lm, nc, ph"): {
        "RecognizerConfig": lambda tmp, demo, x: RecognizerConfig(families=("lm", x)),
        "base_constraints": lambda tmp, demo, x: base_constraints(
            load_bundle(demo).task, (), ("lm", x)),
        "recognize": lambda tmp, demo, x: ["recognize", "-b", str(demo), "--constraints",
                                           f"lm,{x}"],
        "manifest": lambda tmp, demo, x: _bad_manifest(tmp, constraint_families=["lm", x]),
    },
    ("method", "nope", "delta, delta-u, hc, hc-u"): {
        "recognize": lambda tmp, demo, x: _recognize(load_bundle(demo), x),
        "RecognitionReport": lambda tmp, demo, x: RecognitionReport((), x, 0),
        # checked before any input is read: the bundle directory does not exist
        "recognize-cli": lambda tmp, demo, x: ["recognize", "-b", str(tmp / "missing"),
                                               "--method", x],
        "manifest": lambda tmp, demo, x: _bad_manifest(tmp, methods=[x]),
    },
    ("manifest key", "familes", "backend, bundles, constraint_families, families, methods, "
                                "noise_count, observability, per_family, seed, "
                                "suboptimal_fraction, timings"): {
        "manifest": lambda tmp, demo, x: _bad_manifest(tmp, **{x: ["grid"]}),
    },
    ("generator family", "nosuch", "blocks, corridor, grid, logistics"): {
        "SuiteSpec": lambda tmp, demo, x: SuiteSpec(families=(x,)),
        "gen": lambda tmp, demo, x: ["gen", "--out", str(tmp / "out"), "--family", x],
        "manifest": lambda tmp, demo, x: _bad_manifest(tmp, families=[x]),
    },
}


@pytest.mark.parametrize("kind, entry", [
    pytest.param(kind, entry, id=f"{kind[0].replace(' ', '-')}-{label}")
    for kind, entries in _NAME_ENTRIES.items() for label, entry in entries.items()])
def test_every_entry_point_rejects_an_unknown_name_in_one_form(tmp_path, demo_dir, capsys,
                                                                kind, entry):
    """Every entry point that takes a name rejects an unknown one with
    ``errors.check_name``'s message; a CLI one exits 2 with that one line
    after ``error: `` and writes nothing."""
    what, bad, known = kind
    message = f"unknown {what} '{bad}' (choose from {known})"
    try:
        argv = entry(tmp_path, demo_dir, bad)
    except ValueError as err:
        assert str(err) == message
        return
    assert isinstance(argv, list), f"{entry} took {bad!r}"
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_loads_no_generators():
    """Only ``gen`` and ``bench`` use ``ocgr.bench`` and ``ocgr.generators``,
    so ``recognize`` starts without them."""
    code = ("import sys, ocgr.cli\n"
            "print(sorted(m for m in ('ocgr.bench', 'ocgr.generators') if m in sys.modules))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
