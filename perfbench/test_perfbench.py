"""Tests for the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ocgr  # noqa: E402
import ocgr.cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_identical_bundle_texts():
    assert [p.files for p in gen.suite_problems(7, 0)] == [p.files for p in gen.suite_problems(7, 0)]
    assert [p.files for p in gen.ladder_problems(7, (8, 12), (30, 70), 2)] == \
        [p.files for p in gen.ladder_problems(7, (8, 12), (30, 70), 2)]
    assert [p.files for p in gen.suite_problems(7, 0)] != [p.files for p in gen.suite_problems(8, 0)]


def _library_outcome(problem: gen.Problem) -> checks.Outcome:
    texts = dict(problem.files)
    bundle = ocgr.bundle_from_texts(texts)
    return checks.from_report(ocgr.recognize(bundle.task, bundle.hyps, bundle.obs))


def test_suite_checks_accept_the_program_and_reject_corruptions():
    problem = next(p for p in gen.suite_problems(3, 0, per_family=2) if p.pct == 100)
    out = _library_outcome(problem)
    assert checks.check_suite(problem, out) == []

    raised = list(out.h)
    raised[0] = problem.optimal[0] + 1
    assert any("admissibility" in f for f in
               checks.check_suite(problem, dataclasses.replace(out, h=tuple(raised))))
    dropped = tuple(i for i in out.selected if i != problem.hidden)
    assert checks.check_suite(problem, dataclasses.replace(out, selected=dropped))
    assert checks.check_suite(problem, dataclasses.replace(out, uncertainty=(out.uncertainty or 1) + 0.5))
    shifted = list(out.delta)
    shifted[problem.hidden] += 1
    assert any("h_hc - h" in f for f in
               checks.check_suite(problem, dataclasses.replace(out, delta=tuple(shifted))))
    low = list(out.h_hc)
    low[problem.hidden] = out.h[problem.hidden] - 1
    assert any("dominance" in f for f in
               checks.check_suite(problem, dataclasses.replace(out, h_hc=tuple(low))))


def test_full_observability_check_catches_a_dropped_hidden_goal():
    problem = next(p for p in gen.suite_problems(3, 0, per_family=2) if p.pct == 100)
    out = _library_outcome(problem)
    worse = list(out.h_hc)
    worse[problem.hidden] = min(worse) + 5
    fails = checks.check_suite(problem, dataclasses.replace(out, h_hc=tuple(worse)))
    assert any("full observability" in f for f in fails)


def test_grid_checks_accept_the_cli_and_reject_corruptions(tmp_path, capsys):
    problem = gen.ladder_problems(5, (6,), (50,), 0)[0]
    for name, text in problem.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert ocgr.cli.main(["recognize", "-b", str(tmp_path), "--json"]) == 0
    out = checks.from_json(json.loads(capsys.readouterr().out))
    assert checks.check_grid(problem, out) == []
    shifted = tuple(h + 1 for h in out.h)
    assert any("BFS distance" in f for f in
               checks.check_grid(problem, dataclasses.replace(out, h=shifted)))
    long = list(out.h_hc)
    long[problem.hidden] = problem.witness_len + 1
    assert any("witness length" in f for f in
               checks.check_grid(problem, dataclasses.replace(out, h_hc=tuple(long))))


def test_scaler_brackets_each_operation_by_the_samples_around_it():
    scaler = refclock.Scaler()
    scaler.samples = [(0, 0.002), (2, 0.004), (3, 0.006)]
    ref = refclock.REF_SECONDS
    assert scaler.scale([1.0, 1.0, 1.0]) == pytest.approx(
        [ref / 0.003, ref / 0.003, ref / 0.005])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_runs_name_every_metric_and_tracing_keeps_outputs(workload):
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        record = ROOT / ".perfbench_out" / f"{workload}-seed11-trace{trace}.json"
        digests.append(json.loads(record.read_text(encoding="utf-8"))["outputs_digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("suite-clean", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
