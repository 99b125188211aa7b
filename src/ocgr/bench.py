"""Suite generation and evaluation: observability sampling, noise
injection, and the accuracy / spread / time metrics.

``generated_problems`` is the one place a ``SuiteSpec`` becomes problems.
Each is composed by ``generate_problem`` from a source plan: a witness plan
for the hidden goal of a generated bundle, or the obs.dat sequence of a
shipped one. ``materialize_suite`` (``ocgr gen``) writes exactly those
problems to disk.

Rows are fully determined by the manifest and seed; wall-clock timings go
to the aggregate outputs and are written into rows.csv only when the
manifest enables ``timings`` (so default row files are byte-reproducible).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .constraints import ALL_FAMILIES
from .errors import CapExceeded, OcgrError
from .generators import GENERATORS, write_bundle
from .grounding import PlanningTask, relaxed_reachable
from .inputs import GoalHypotheses, ObservationSequence, bundle_from_texts, load_bundle
from .oracle import CAP_EXCEEDED, OPTIMAL, Plan, optimal_cost, validate_plan
from .recognition import (METHOD_DELTA_U, METHODS, RecognizerConfig,
                          score_all, select)

CLEAN_LEVELS = (10, 30, 50, 70, 100)
NOISY_LEVELS = (25, 50, 75, 100)


def stable_seed(*parts) -> int:
    """Order-stable child seed; independent of PYTHONHASHSEED."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SuiteSpec:
    bundles: tuple[str, ...] = ()
    families: tuple[str, ...] = ()
    per_family: int = 5
    observability: tuple[int, ...] | None = None
    noise_count: int = 0
    suboptimal_fraction: float = 0.5
    methods: tuple[str, ...] = (METHOD_DELTA_U,)
    seed: int = 0
    timings: bool = False
    constraint_families: tuple[str, ...] = ALL_FAMILIES
    backend: str = "simplex"

    def levels(self) -> tuple[int, ...]:
        if self.observability is not None:
            return self.observability
        return NOISY_LEVELS if self.noise_count > 0 else CLEAN_LEVELS

    def validate(self) -> None:
        if not self.levels():
            raise ValueError("observability must list at least one level")
        if not self.methods:
            raise ValueError("methods must list at least one method")
        for pct in self.levels():
            if not 0 < pct <= 100:
                raise ValueError(f"observability level {pct} outside (0, 100]")
        # a repeat would run and count the same problems once per repeat;
        # two spellings of one bundle directory are a repeat too
        for key in ("bundles", "families", "observability", "methods"):
            values = getattr(self, key) or ()
            same = [Path(v).resolve() for v in values] if key == "bundles" else list(values)
            for i, value in enumerate(same):
                if value in same[:i]:
                    first = values[same.index(value)]
                    also = "" if first == values[i] else f", first as {json.dumps(first)}"
                    raise ValueError(f"{key} lists {json.dumps(values[i])} more than once{also}")
        if self.noise_count < 0:
            raise ValueError("noise_count must be >= 0")
        if self.per_family < 0:
            raise ValueError("per_family must be >= 0")
        if not 0 <= self.suboptimal_fraction <= 1:
            raise ValueError(f"suboptimal_fraction {self.suboptimal_fraction} outside [0, 1]")
        RecognizerConfig(self.constraint_families, self.backend)  # checks backend and families
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method '{m}'")
        for f in self.families:
            if f not in GENERATORS:
                raise ValueError(f"unknown generator family '{f}' "
                                 f"(choose from {', '.join(sorted(GENERATORS))})")
        if not self.bundles and not self.families:
            raise ValueError("suite lists neither bundles nor generator families")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_STRINGS = (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
            "a list of strings")
_INT = (_is_int, "an integer")
# Each manifest key: a test of its JSON value and what the test asks for.
_MANIFEST_TYPES = {
    "bundles": _STRINGS, "families": _STRINGS, "methods": _STRINGS,
    "constraint_families": _STRINGS, "per_family": _INT, "noise_count": _INT, "seed": _INT,
    "observability": (lambda v: v is None or (isinstance(v, list) and len(v) > 0
                                              and all(map(_is_int, v))),
                      "null or a non-empty list of integers"),
    "suboptimal_fraction": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
                            "a number"),
    "timings": (lambda v: isinstance(v, bool), "true or false"),
    "backend": (lambda v: isinstance(v, str), "a string"),
}


def load_manifest(path: str | Path) -> SuiteSpec:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("a manifest must be a JSON object")
    unknown = set(data) - set(_MANIFEST_TYPES)
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
    for key, value in data.items():
        check, kind = _MANIFEST_TYPES[key]
        if not check(value):
            raise ValueError(f"manifest key '{key}' must be {kind}, not {json.dumps(value)}")
        if isinstance(value, list):
            data[key] = tuple(value)
    return SuiteSpec(**data)


@dataclass(frozen=True)
class RecognitionProblem:
    domain_name: str
    problem_id: str
    task: PlanningTask
    hyps: GoalHypotheses
    plan: Plan
    obs: ObservationSequence
    pct: int
    noise: int
    files: dict[str, str] | None = None  # generated bundle files, without obs.dat


def sample_observations(plan: Plan, pct: int, rng: random.Random) -> ObservationSequence:
    """Order-preserving uniform sub-sequence of round(pct% of the plan), min 1."""
    if not plan.steps:
        return ObservationSequence(())
    size = max(1, int(pct * len(plan.steps) / 100 + 0.5))
    size = min(size, len(plan.steps))
    picked = sorted(rng.sample(range(len(plan.steps)), size))
    return ObservationSequence(tuple(plan.steps[i] for i in picked))


def inject_noise(obs: ObservationSequence, task: PlanningTask, hyps: GoalHypotheses,
                 n: int, rng: random.Random, *,
                 exclude: tuple[int, ...] = ()) -> ObservationSequence:
    """Insert n distinct spurious actions at random positions.

    Candidates are applicable somewhere in the delete relaxation of the
    initial state, not in the excluded (executed) plan, and do not directly
    achieve any hypothesis fact.
    """
    if n <= 0:
        return obs
    goal_facts = frozenset().union(*hyps.goals)
    _, applicable = relaxed_reachable(task)
    banned = set(exclude) | set(obs.obs)
    candidates = sorted(
        a for a in applicable
        if a not in banned and goal_facts.isdisjoint(task.actions[a].adds))
    if len(candidates) < n:
        raise OcgrError(
            f"task too small to supply {n} distinct spurious actions "
            f"({len(candidates)} candidates)")
    spurious = rng.sample(candidates, n)
    out = list(obs.obs)
    for a in spurious:
        out.insert(rng.randint(0, len(out)), a)
    return ObservationSequence(tuple(out))


def _splice_detour(task: PlanningTask, goal: frozenset[int], plan: Plan,
                   rng: random.Random) -> Plan:
    """Degrade an optimal plan by one random applicable action plus replanning."""
    for _ in range(8):
        cut = rng.randint(0, len(plan.steps))
        state = validate_plan(task, plan.steps[:cut], ()).final_state
        applicable = [i for i, a in enumerate(task.actions) if state.issuperset(a.pre)]
        if not applicable:
            continue
        detour = rng.choice(applicable)
        a = task.actions[detour]
        sub = PlanningTask(facts=task.facts, actions=task.actions,
                           init=state.difference(a.dels).union(a.adds), goal=goal)
        rest = optimal_cost(sub, goal)
        if rest.status != OPTIMAL:
            continue
        steps = plan.steps[:cut] + (detour,) + rest.plan.steps
        candidate = Plan(steps=steps, cost=sum(task.actions[s].cost for s in steps))
        if validate_plan(task, candidate.steps, goal).ok:
            return candidate
    return plan


def _witness_plan(task: PlanningTask, goal: frozenset[int], suboptimal: bool,
                  rng: random.Random) -> Plan:
    """An optimal plan for ``goal``, degraded by one detour when ``suboptimal``."""
    result = optimal_cost(task, goal)
    if result.status == CAP_EXCEEDED:
        raise CapExceeded("no witness plan for the hidden goal: search cap exceeded; "
                          "raise OCGR_OPTIMAL_CAP")
    if result.status != OPTIMAL:
        raise CapExceeded(f"no witness plan for the hidden goal ({result.status})")
    if suboptimal:
        return _splice_detour(task, goal, result.plan, rng)
    return result.plan


def generate_problem(task: PlanningTask, hyps: GoalHypotheses, pct: int, noise: int,
                     seed: int, *, plan: Plan, domain_name: str = "task",
                     problem_id: str = "p0", files: dict[str, str] | None = None
                     ) -> RecognitionProblem:
    """Compose a recognition problem from a source plan: ``pct``% of its
    steps, in order, plus ``noise`` spurious actions drawn from outside it.

    The hidden goal is ``hyps.hidden`` (None when it is unknown).
    """
    rng = random.Random(seed)
    obs = sample_observations(plan, pct, rng)
    if noise > 0:
        obs = inject_noise(obs, task, hyps, noise, rng, exclude=plan.steps)
    return RecognitionProblem(domain_name=domain_name, problem_id=problem_id,
                              task=task, hyps=hyps, plan=plan, obs=obs, pct=pct,
                              noise=noise, files=files)


@dataclass(frozen=True)
class Row:
    domain: str
    problem_id: str
    pct: int
    noise: int
    method: str
    time_s: float | None
    correct: bool | None
    spread: int
    u: float | None
    selected: tuple[int, ...]
    status: str = "ok"


@dataclass(frozen=True)
class AggregateRow:
    domain: str
    pct: int
    noise: int
    method: str
    n: int
    time_mean_s: float
    accuracy: float | None
    spread_mean: float


@dataclass(frozen=True)
class SuiteResult:
    rows: tuple[Row, ...]
    aggregates: tuple[AggregateRow, ...]


def _sources(spec: SuiteSpec):
    """Each source in manifest order, loaded once the one before has had its
    levels composed: its bundle, source plan, domain name, problem id,
    generated files (None if shipped) and the parts its levels' seeds extend."""
    for path in spec.bundles:
        b = load_bundle(path)
        name = Path(path).name
        plan = Plan(steps=b.obs.obs, cost=sum(b.task.actions[a].cost for a in b.obs.obs))
        yield b, plan, b.domain_name, name, None, (spec.seed, name)
    for family in spec.families:
        for j in range(spec.per_family):
            base_seed = stable_seed(spec.seed, family, j)
            generated = GENERATORS[family](random.Random(base_seed))
            b = bundle_from_texts(generated.files, require_obs=False, path=f"<{family}-{j}>")
            suboptimal = int((j + 1) * spec.suboptimal_fraction) > int(j * spec.suboptimal_fraction)
            try:
                plan = _witness_plan(b.task, b.hyps.goals[b.hyps.hidden], suboptimal,
                                     random.Random(stable_seed(base_seed, "detour")))
            except CapExceeded as exc:
                raise CapExceeded(f"{family}-{j}: {exc}") from exc
            yield b, plan, generated.name, f"{family}-{j:03d}", generated.files, (base_seed,)


def generated_problems(spec: SuiteSpec) -> list[RecognitionProblem]:
    """Compose every (bundle|generated problem) x observability level.

    For shipped bundles the obs.dat sequence plays the role of the source
    plan: levels subsample it and noise is drawn from outside it. The j-th
    generated bundle of a family is seeded from (seed, family, j); its source
    plan is a witness plan for its hidden goal, detoured on a
    ``suboptimal_fraction`` share of the indices.
    """
    spec.validate()
    return [generate_problem(b.task, b.hyps, pct, spec.noise_count,
                             seed=stable_seed(*seed_parts, pct), plan=plan,
                             domain_name=domain, problem_id=problem_id, files=files)
            for b, plan, domain, problem_id, files, seed_parts in _sources(spec)
            for pct in spec.levels()]


def _evaluate(problem: RecognitionProblem, spec: SuiteSpec, config: RecognizerConfig) -> list[Row]:
    common = dict(domain=problem.domain_name, problem_id=problem.problem_id,
                  pct=problem.pct, noise=problem.noise)
    try:
        t0 = time.perf_counter()
        scores, _ = score_all(problem.task, problem.hyps, problem.obs, config)
        elapsed = time.perf_counter() - t0
    except OcgrError as exc:
        return [Row(**common, method=m, time_s=None, correct=None, spread=0,
                    u=None, selected=(), status=f"error:{type(exc).__name__}")
                for m in spec.methods]
    hidden = problem.hyps.hidden
    rows = []
    for method in spec.methods:
        t1 = time.perf_counter()
        selected, u, _ = select(scores, method, len(problem.obs))
        row_time = elapsed + (time.perf_counter() - t1)
        correct = (hidden in selected) if hidden is not None else None
        rows.append(Row(**common, method=method, time_s=row_time, correct=correct,
                        spread=len(selected), u=u, selected=selected))
    return rows


def run_suite(spec: SuiteSpec) -> SuiteResult:
    problems = generated_problems(spec)  # validates spec first
    config = RecognizerConfig(spec.constraint_families, spec.backend)
    rows = [row for p in problems for row in _evaluate(p, spec, config)]
    rows.sort(key=lambda r: (r.domain, r.problem_id, r.pct, r.noise, r.method))

    groups: dict[tuple, list[Row]] = {}
    for r in rows:
        groups.setdefault((r.domain, r.pct, r.noise, r.method), []).append(r)
    aggregates = []
    for (domain, pct, noise, method), members in sorted(groups.items()):
        judged = [r for r in members if r.correct is not None]
        acc = sum(r.correct for r in judged) / len(judged) if judged else None
        times = [r.time_s for r in members if r.time_s is not None]
        aggregates.append(AggregateRow(
            domain=domain, pct=pct, noise=noise, method=method, n=len(members),
            time_mean_s=sum(times) / len(times) if times else 0.0,
            accuracy=acc,
            spread_mean=sum(r.spread for r in members) / len(members)))
    return SuiteResult(rows=tuple(rows), aggregates=tuple(aggregates))


ROWS_HEADER = "domain,problem_id,pct,noise,method,time_s,correct,spread,U,selected_goals,status"


def _csv(header: str, records) -> str:
    """``header`` and one CSV line per record, fields quoted only where needed."""
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(records)
    return buf.getvalue()


def format_rows(rows: tuple[Row, ...], include_timings: bool) -> str:
    return _csv(ROWS_HEADER, ([
        r.domain, r.problem_id, r.pct, r.noise, r.method,
        f"{r.time_s:.4f}" if include_timings and r.time_s is not None else "",
        "" if r.correct is None else int(r.correct), r.spread,
        "" if r.u is None else f"{r.u:.6f}", ";".join(map(str, r.selected)), r.status,
    ] for r in rows))


def format_aggregates(aggs: tuple[AggregateRow, ...]) -> str:
    return _csv("domain,pct,noise,method,n,time_mean_s,acc_pct,spread_mean", ([
        a.domain, a.pct, a.noise, a.method, a.n, f"{a.time_mean_s:.4f}",
        "" if a.accuracy is None else f"{100 * a.accuracy:.2f}", f"{a.spread_mean:.2f}",
    ] for a in aggs))


def format_aggregate_table(aggs: tuple[AggregateRow, ...]) -> str:
    header = f"{'domain':<12} {'% obs':>5} {'noise':>5} {'method':<8} {'n':>4} " \
             f"{'Time':>8} {'Acc %':>7} {'S in G':>7}"
    lines = [header, "-" * len(header)]
    for a in aggs:
        acc = "" if a.accuracy is None else f"{100 * a.accuracy:.1f}"
        lines.append(f"{a.domain:<12} {a.pct:>5} {a.noise:>5} {a.method:<8} {a.n:>4} "
                     f"{a.time_mean_s:>8.3f} {acc:>7} {a.spread_mean:>7.2f}")
    return "\n".join(lines)


def write_suite_outputs(result: SuiteResult, out_dir: str | Path, spec: SuiteSpec) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows_path = out / "rows.csv"
    agg_path = out / "aggregate.csv"
    rows_path.write_text(format_rows(result.rows, spec.timings), encoding="utf-8")
    agg_path.write_text(format_aggregates(result.aggregates), encoding="utf-8")
    return rows_path, agg_path


def materialize_suite(spec: SuiteSpec, out_dir: str | Path) -> list[Path]:
    """Write each problem ``generated_problems(spec)`` composes as a bundle
    directory named by its problem id: the generated files plus an obs.dat
    of its observations. The spec needs exactly one observability level and
    no shipped bundles (those are already on disk)."""
    if spec.bundles:
        raise ValueError("materializing writes generated problems only, not shipped bundles")
    if len(spec.levels()) != 1:
        raise ValueError(f"materializing needs one observability level, not {len(spec.levels())}")
    problems = generated_problems(spec)
    for p in problems:
        obs_text = "".join(p.task.actions[a].text() + "\n" for a in p.obs.obs)
        write_bundle(Path(out_dir) / p.problem_id, {**p.files, "obs.dat": obs_text})
    return [Path(out_dir) / p.problem_id for p in problems]
