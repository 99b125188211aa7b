"""Command-line surface: recognize, bench, gen, plan, heuristic.

Exit codes: 0 success, 2 input problems and every other toolkit error
(such as a search cap in ``gen``/``bench``/``plan``), 3 LP solver failure,
4 every hypothesis infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .constraints import ALL_FAMILIES, dump_constraints
from .errors import GoalUnreachable, OcgrError, SolverFailure, check_name
from .inputs import BUNDLE_FILES, Bundle, bundle_from_texts, load_bundle
from .lp import OPTIMAL, LinearProgram
from .oracle import optimal_cost
from .recognition import (METHOD_DELTA_U, SELECTION_RULES, RecognizerConfig, base_lp,
                          format_report, recognize, report_to_dict,
                          score_hypothesis)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_ALL_INFEASIBLE = 4


def _add_bundle_args(p: argparse.ArgumentParser, need_obs: bool = True) -> None:
    p.add_argument("-b", "--bundle", help="bundle directory (domain.pddl, template.pddl, ...)")
    p.add_argument("-d", "--domain", help="domain PDDL file")
    p.add_argument("-p", "--problem", help="problem/template PDDL file")
    p.add_argument("-y", "--hyps", help="hypotheses file (one per line)")
    p.add_argument("-o", "--obs", help="observations file" + ("" if need_obs else " (optional)"))
    p.add_argument("--real-hyp", help="actual hidden hypothesis file")


def _load_inputs(args: argparse.Namespace, *, need_obs: bool = True) -> Bundle:
    paths = {"domain": args.domain, "problem": args.problem, "hyps": args.hyps,
             "obs": args.obs, "real-hyp": args.real_hyp}
    if args.bundle:
        given = [flag for flag, path in paths.items() if path]
        if given:
            raise ValueError(f"--bundle reads its own files; drop --{', --'.join(given)}")
        return load_bundle(args.bundle, require_obs=need_obs)
    optional = {"real-hyp"} if need_obs else {"obs", "real-hyp"}
    missing = [flag for flag, path in paths.items() if not path and flag not in optional]
    if missing:
        raise ValueError(f"missing input files: --{', --'.join(missing)} (or use --bundle)")
    texts = {name: Path(f).read_text(encoding="utf-8") if f else None
             for name, f in zip(BUNDLE_FILES, paths.values())}
    return bundle_from_texts(texts, path="<cli>", require_obs=need_obs)


def _dump_lp_text(lp: LinearProgram, floors: dict[int, int], names: list[str]) -> str:
    """LP-format style text dump for cross-checking with external tools."""
    lines = ["Minimize", " obj: " + " + ".join(
        f"{c:g} y{i}" for i, c in enumerate(lp.objective) if c) ]
    lines.append("Subject To")
    for i, row in enumerate(lp.constraints):
        body = " + ".join(f"{float(c):g} y{a}" for a, c in row.terms)
        lines.append(f" c{i}: {body} >= {float(row.rhs):g}  \\ {row.source}")
    lines.append("Bounds")
    for i, name in enumerate(names):
        lines.append(f" {floors.get(i, 0)} <= y{i}  \\ ({name})")
    lines.append("End")
    return "\n".join(lines)


def _print_dumps(args: argparse.Namespace, bundle: Bundle, idx: int,
                 config: RecognizerConfig) -> None:
    """The LP scoring solves for hypothesis ``idx``: its base LP, the floors as bounds."""
    task = bundle.task
    try:
        base, _ = base_lp(task, bundle.hyps.goals[idx], config)
    except GoalUnreachable as exc:
        print(f"# G{idx}: {exc}")
        return
    floors = dict(sorted(bundle.obs.counts.items()))
    names = [a.name for a in task.actions]
    print(f"# constraints for G{idx}")
    if args.dump_constraints:
        print(dump_constraints(base.constraints, task))
        for a, k in floors.items():
            print(f"({names[a]}) >= {k} [bound]")
    if args.dump_lp:
        print(_dump_lp_text(base, floors, names))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocgr", description="Goal recognition via operator-counting LP heuristics")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="recognize goals for one problem bundle")
    _add_bundle_args(rec)
    rec.add_argument("--method", default=METHOD_DELTA_U, help="one of " + ", ".join(SELECTION_RULES))
    rec.add_argument("--constraints", default=",".join(ALL_FAMILIES),
                     help="comma list of constraint families (lm,nc,ph)")
    rec.add_argument("--backend", default="simplex")
    rec.add_argument("--json", action="store_true", help="machine-readable report")
    rec.add_argument("--dump-constraints", action="store_true")
    rec.add_argument("--dump-lp", action="store_true")

    ben = sub.add_parser("bench", help="run a recognition suite from a manifest")
    ben.add_argument("--manifest", required=True)
    ben.add_argument("--out", required=True, help="output directory for rows/aggregate files")

    gen = sub.add_parser("gen", help="materialize problem bundles")
    gen.add_argument("--out", required=True)
    gen.add_argument("--demo-grid", action="store_true",
                     help="write the fixed two-goal grid demo bundle")
    gen.add_argument("--family", help="generator family; an unknown name lists them")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--pct", type=int, default=100, help="observability of obs.dat")
    gen.add_argument("--noise", type=int, default=0, help="spurious observations in obs.dat")

    pln = sub.add_parser("plan", help="print an optimal witness plan for one hypothesis")
    _add_bundle_args(pln, need_obs=False)
    pln.add_argument("--goal-index", type=int, default=None,
                     help="hypothesis index (default: the real hypothesis, else 0)")

    heu = sub.add_parser("heuristic", help="print h / h_hc and per-family LP values")
    _add_bundle_args(heu)
    heu.add_argument("--goal-index", type=int, default=None)
    heu.add_argument("--backend", default="simplex")
    heu.add_argument("--dump-constraints", action="store_true")
    heu.add_argument("--dump-lp", action="store_true")
    return parser


def _cmd_recognize(args: argparse.Namespace) -> int:
    families = tuple(f.strip() for f in args.constraints.split(",") if f.strip())
    config = RecognizerConfig(families=families, backend=args.backend)
    check_name("method", args.method, SELECTION_RULES)
    dumps = [f"--dump-{f}" for f in ("constraints", "lp") if getattr(args, f"dump_{f}")]
    if args.json and dumps:
        raise ValueError(f"--json prints the report alone; drop {', '.join(dumps)}")
    t0 = time.perf_counter()
    bundle = _load_inputs(args)
    parse_time = time.perf_counter() - t0
    report = recognize(bundle.task, bundle.hyps, bundle.obs, args.method, config)
    report = replace(report, timings={**report.timings, "parse_ground": parse_time})
    if dumps:
        for idx in range(len(bundle.hyps)):
            _print_dumps(args, bundle, idx, config)
    if args.json:
        doc = report_to_dict(report)
        doc["goals"] = list(bundle.hyps.lines)
        print(json.dumps(doc, allow_nan=False))
    else:
        print(format_report(report, bundle.hyps))
    return EXIT_ALL_INFEASIBLE if report.all_infeasible else EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench as bench_mod

    spec = bench_mod.load_manifest(args.manifest)
    result = bench_mod.run_suite(spec)
    rows_path, agg_path = bench_mod.write_suite_outputs(result, args.out, spec)
    print(bench_mod.format_aggregate_table(result.aggregates))
    print(f"\nrows: {rows_path}\naggregate: {agg_path}")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import bench as bench_mod
    from .generators import demo_grid_bundle, write_bundle

    out = Path(args.out)
    if args.demo_grid == bool(args.family):
        raise ValueError("gen takes exactly one of --demo-grid and --family")
    if args.demo_grid:
        write_bundle(out / "grid-demo", demo_grid_bundle().files)
        print(out / "grid-demo")
        return EXIT_OK
    spec = bench_mod.SuiteSpec(families=(args.family,), per_family=args.count,
                               seed=args.seed, observability=(args.pct,),
                               noise_count=args.noise)
    for path in bench_mod.materialize_suite(spec, out):
        print(path)
    return EXIT_OK


def _pick_goal(bundle: Bundle, goal_index: int | None) -> int:
    if goal_index is not None:
        if not 0 <= goal_index < len(bundle.hyps):
            raise ValueError(f"--goal-index {goal_index} out of range")
        return goal_index
    return bundle.hyps.hidden if bundle.hyps.hidden is not None else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    bundle = _load_inputs(args, need_obs=False)
    idx = _pick_goal(bundle, args.goal_index)
    plan = optimal_cost(bundle.task, bundle.hyps.goals[idx])
    if plan is None:
        print(f"G{idx}: unreachable")
        return EXIT_OK
    print(f"G{idx}: cost {plan.cost}")
    for step in plan.steps:
        print(bundle.task.actions[step].text())
    return EXIT_OK


def _cmd_heuristic(args: argparse.Namespace) -> int:
    config = RecognizerConfig(backend=args.backend)
    bundle = _load_inputs(args)
    idx = _pick_goal(bundle, args.goal_index)
    task, goal = bundle.task, bundle.hyps.goals[idx]
    score = score_hypothesis(task, goal, bundle.obs, config, goal_index=idx)
    print(f"G{idx}: {bundle.hyps.lines[idx]}")
    print(f"h    = {score.h}")
    print(f"h_hc = {score.h_hc}  (|O| = {len(bundle.obs)})")
    print(f"delta = {score.delta}")
    for family in ALL_FAMILIES:
        try:
            _, out = base_lp(task, goal, RecognizerConfig((family,), args.backend))
            value = out.value if out.status == OPTIMAL else out.status
        except GoalUnreachable:
            value = "unreachable"
        print(f"lp[{family}] = {value}")
    if args.dump_constraints or args.dump_lp:
        _print_dumps(args, bundle, idx, config)
    return EXIT_OK


_COMMANDS = {
    "recognize": _cmd_recognize,
    "bench": _cmd_bench,
    "gen": _cmd_gen,
    "plan": _cmd_plan,
    "heuristic": _cmd_heuristic,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OcgrError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
