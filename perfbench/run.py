"""Benchmark for ocgr: two closed-loop workloads with one client each.

    python3 perfbench/run.py --workload suite-clean --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark generates its own inputs from ``--seed`` (see ``gen.py``),
hands ocgr only bundle texts, checks every output (see ``checks.py``) and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer figures from
spans (see ``spans.py``). Run records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import gen
import refclock
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    kind: str  # "suite": library calls on pre-grounded tasks; "cli": `ocgr recognize` per bundle
    rungs: tuple[int, ...] = ()
    levels: tuple[int, ...] = gen.SUITE_LEVELS
    per_family: int = gen.SUITE_PER_FAMILY
    round_seconds: float = 1.0  # nominal time of one round on the reference machine

    def rounds(self, seconds: float) -> int:
        """Whole rounds per run: a fixed count for a given --seconds, so that
        machine speed never changes which problems a run measures."""
        return max(1, round(seconds / self.round_seconds))


WORKLOADS = {
    "suite-clean": Workload("suite", round_seconds=4.5),
    "grid-mid": Workload("cli", rungs=(8, 10, 12), levels=(30, 70, 100), round_seconds=3.3),
}

# Small versions of the same workloads for the benchmark's own tests.
TINY = {
    "suite-clean": Workload("suite", levels=(50, 100), per_family=1,
                            round_seconds=0.5),
    "grid-mid": Workload("cli", rungs=(4, 5), levels=(50, 100), round_seconds=0.5),
}


@dataclass
class Op:
    problem: gen.Problem
    inputs: object  # suite: (task, hyps, obs); cli: bundle directory


class Runner:
    """Set-up, one operation, and checks for one workload in this process."""

    def __init__(self, workload: Workload, seed: int, rounds: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.rounds = rounds
        self.workdir = workdir
        self.ocgr = None

    def suite_problems(self) -> list[list[gen.Problem]]:
        """The warm-up problem, then every round of the suite."""
        w = self.workload
        warm = gen.suite_problems(self.seed, -1, 1, w.levels[-1:])[:1]
        return [warm] + [gen.suite_problems(self.seed, i, w.per_family, w.levels)
                         for i in range(self.rounds)]

    def imports(self) -> None:
        self.ocgr = importlib.import_module("ocgr")
        importlib.import_module("ocgr.cli")

    def setup(self, rounds: list[list[gen.Problem]]) -> list[list[Op]]:
        """The program's own set-up: imports, then parse and ground every suite task once."""
        self.imports()
        tasks = {}
        out = []
        for problems in rounds:
            ops = []
            for p in problems:
                bundle = tasks.get(p.task_id)
                if bundle is None:
                    texts = {k: v for k, v in p.files.items() if k != "obs.dat"}
                    bundle = tasks[p.task_id] = self.ocgr.bundle_from_texts(
                        texts, path=p.task_id, require_obs=False)
                obs = self.ocgr.parse_observations(p.files["obs.dat"], bundle.task)
                ops.append(Op(p, (bundle.task, bundle.hyps, obs)))
            out.append(ops)
        return out

    def ladder_ops(self, index: int) -> list[Op]:
        """Write one ladder round's bundles; round -1 is the warm-up."""
        w = self.workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        ops = []
        for p in gen.ladder_problems(self.seed, w.rungs, w.levels, index):
            d = self.workdir / f"{p.task_id}-{p.pct}"
            d.mkdir(parents=True)
            for name, text in p.files.items():
                (d / name).write_text(text, encoding="utf-8")
            ops.append(Op(p, d))
        return ops

    def run(self, op: Op) -> tuple[float, checks.Outcome | None, list[str]]:
        """One timed operation: its wall seconds, its outcome (None if it failed to
        produce one) and the checks it failed."""
        if self.workload.kind == "suite":
            task, hyps, obs = op.inputs
            t0 = time.perf_counter()
            try:
                report = self.ocgr.recognize(task, hyps, obs)
            except self.ocgr.OcgrError as exc:
                return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - t0
            out = checks.from_report(report)
            return elapsed, out, checks.check_suite(op.problem, out)
        argv = ["recognize", "-b", str(op.inputs), "--json"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.ocgr.cli.main(argv)
        elapsed = time.perf_counter() - t0
        if code != 0:
            return elapsed, None, [f"exit code {code}"]
        try:
            out = checks.from_json(json.loads(buf.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            return elapsed, None, [f"unreadable CLI output: {exc}"]
        return elapsed, out, checks.check_grid(op.problem, out)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def measure_setup(args: argparse.Namespace) -> float:
    """Median set-up seconds over fresh processes, each doing the whole set-up once."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    cmd += ["--tiny"] if args.tiny else []
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def setup_probe(runner: Runner) -> None:
    """Time the set-up, scaled by the machine speed measured right after it."""
    rounds = runner.suite_problems() if runner.workload.kind == "suite" else []
    t0 = time.perf_counter()
    runner.setup(rounds)
    elapsed = time.perf_counter() - t0
    ref = statistics.median(refclock.reference_seconds() for _ in range(3))
    print(repr(elapsed * refclock.REF_SECONDS / ref))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ocgr" / "__init__.py").is_file():
        print(f"error: no ocgr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.getLogger("ocgr").setLevel(logging.ERROR)  # grounding warnings stay out of the output
    workload = (TINY if args.tiny else WORKLOADS)[args.workload]
    workdir = OUT / f"bundles-{os.getpid()}"
    runner = Runner(workload, args.seed, workload.rounds(args.seconds), workdir)
    if args.setup_probe:
        setup_probe(runner)
        return 0
    OUT.mkdir(exist_ok=True)
    try:
        return measure(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, runner: Runner) -> int:
    workload = runner.workload
    setup_s = None if args.trace else measure_setup(args)
    tracer = spans.Tracer() if args.trace else None
    suite = runner.suite_problems() if workload.kind == "suite" else []
    if tracer:
        runner.imports()  # the wrappers need the modules; set-up proper is traced
        tracer.install()
    suite_ops = runner.setup(suite)
    if not Path(runner.ocgr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"ocgr imported from {runner.ocgr.__file__}, not {SRC}")

    def round_ops(index: int) -> list[Op]:
        return suite_ops[index + 1] if suite_ops else runner.ladder_ops(index)

    if tracer:
        tracer.op = spans.WARMUP
    runner.run(round_ops(-1)[0])

    latencies: list[float] = []
    records: list[dict] = []
    failed = 0
    wrong = 0
    hits = 0
    selected = 0
    digest = hashlib.sha256()
    gc.collect()
    gc.disable()
    scaler = refclock.Scaler()
    try:
        for index in range(runner.rounds):
            for op in round_ops(index):
                if tracer:
                    tracer.op = len(latencies)
                elapsed, out, fails = runner.run(op)
                latencies.append(elapsed)
                p = op.problem
                if fails:
                    failed += 1
                    wrong += out is not None
                else:
                    hits += p.hidden in out.selected
                    selected += len(out.selected)
                digest.update(json.dumps(out.canonical() if out else None).encode())
                records.append({"task": p.task_id, "pct": p.pct, "seconds": elapsed,
                                "selected": list(out.selected) if out else None,
                                "failures": fails})
                gc.collect(0)
                scaler.after(len(latencies), elapsed)
            gc.collect()
    finally:
        gc.enable()

    attempted = len(latencies)
    ok = attempted - failed
    scaled = scaler.scale(latencies)
    for rec, t in zip(records, scaled):
        rec["scaled_seconds"] = t
    if tracer:
        tracer.uninstall()
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in spans.layer_metrics(tracer.spans, attempted).items()}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            **time_metrics(scaled),
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "accuracy": {"value": hits / ok if ok else 0.0, "unit": "ratio"},
            "spread": {"value": selected / ok if ok else 0.0, "unit": "goals"},
        }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": runner.rounds,
              "raw": {k: v["value"] for k, v in time_metrics(latencies).items()},
              "reference_samples": [s for _, s in scaler.samples],
              "outputs_digest": digest.hexdigest(),
              "ops": records}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for r in records:
        if r["failures"]:
            print(f"FAILED {r['task']} {r['pct']}%: {'; '.join(r['failures'])}", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def time_metrics(seconds: list[float]) -> dict[str, dict]:
    """Latency percentiles and throughput of the given operation times."""
    ordered = sorted(seconds)
    return {
        "latency_p50_ms": {"value": 1000 * statistics.median(ordered), "unit": "ms"},
        "latency_p95_ms": {"value": 1000 * percentile(ordered, 95), "unit": "ms"},
        "problems_per_s": {"value": len(ordered) / sum(ordered), "unit": "1/s"},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
