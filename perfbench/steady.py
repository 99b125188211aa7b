"""Steadiness check: two sets of repeated fresh-process runs, alternating.

    python3 perfbench/steady.py --runs 10

Every workload of BENCHMARK.json runs for its ``run_seconds``. Run i of
each set uses seed i + 1, so the two sets see the same inputs; which set
goes first alternates from one i to the next. For every end-to-end metric
it prints each set's median and quartiles, the spread (quartile distance
over the median) and whether the sets agree: both spreads within the
metric's bound, the medians apart by no more than the bound in either
direction, and the same share of failed operations in both sets. A second
table sets the spreads of the raw (unscaled) times beside the scaled ones
of the same runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """The run's result line, with the raw time metrics from its record under "raw"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    result["raw"] = json.loads(record.read_text(encoding="utf-8"))["raw"]
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                res = one_run(w, i + 1, spec["run_seconds"])
                results[w][side].append(res)
                print(f"# {w} set {side} seed {i + 1}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    all_ok = True
    print(f"{'workload':<12} {'metric':<15} {'bound':>5}  {'set A q1/med/q3':>28}  "
          f"{'set B q1/med/q3':>28}  {'sprA':>6} {'sprB':>6} {'shift':>7}  verdict")
    for w in workloads:
        shares = {side: [r["failed"] / r["attempted"] for r in results[w][side]]
                  for side in ("A", "B")}
        if shares["A"] != shares["B"] or not all(r["correct"] for s in "AB" for r in results[w][s]):
            all_ok = False
            print(f"{w:<12} failed shares differ or an output was wrong: {shares}")
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            stats = {}
            for side in ("A", "B"):
                stats[side] = summary([r["metrics"][name]["value"] for r in results[w][side]])
            spreads = {side: (q3 - q1) / med for side, (q1, med, q3) in stats.items()}
            med_a, med_b = stats["A"][1], stats["B"][1]
            shift = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
            ok = abs(shift) <= bound and max(spreads.values()) <= bound
            all_ok &= ok
            fmt = lambda s: "/".join(f"{v:.4g}" for v in s)  # noqa: E731
            print(f"{w:<12} {name:<15} {bound:>5}  {fmt(stats['A']):>28}  {fmt(stats['B']):>28}  "
                  f"{spreads['A']:>6.3f} {spreads['B']:>6.3f} {shift:>+7.3f}  "
                  f"{'ok' if ok else 'DISAGREE'}{'' if max(spreads.values()) <= bound / 3 else ' (spread > bound/3)'}")
    print(f"\n{'workload':<12} {'metric':<15} {'raw sprA':>8} {'raw sprB':>8} "
          f"{'scaled sprA':>11} {'scaled sprB':>11}")
    for w in workloads:
        for name in results[w]["A"][0]["raw"]:
            raw = [spread([r["raw"][name] for r in results[w][s]]) for s in "AB"]
            scaled = [spread([r["metrics"][name]["value"] for r in results[w][s]]) for s in "AB"]
            print(f"{w:<12} {name:<15} {raw[0]:>8.3f} {raw[1]:>8.3f} "
                  f"{scaled[0]:>11.3f} {scaled[1]:>11.3f}")
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "steady.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
