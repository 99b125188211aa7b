"""Goal recognition over operator-counting LPs.

For each hypothesis G we solve the base LP (value h), and then the same LP
again under per-action observation floors Y_a >= k_a (value h_hc). The
base solve starts from the crash basis of its landmark rows, LM-cut's cost
partitioning, so the dual simplex starts at h_LM-cut. The h_hc solve passes
the floors as bounds and starts from the base optimal basis, which stays
dual feasible when only the bounds change.
``select`` is the one selection rule: each method names its score key
(h_hc or the enforcement delta h_hc - h) and whether the threshold is
widened by the uncertainty ratio

    U = 1 + (min_G h_hc - |O|) / min_G h_hc

which estimates how many observations are missing. Infeasible LPs map to
an infinite value and such hypotheses are never selected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .constraints import ALL_FAMILIES, base_constraints, check_families
from .errors import GoalUnreachable, SolverFailure
from .grounding import PlanningTask, task_memo
from .inputs import GoalHypotheses, ObservationSequence
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, LpOutcome, check_backend, solve_with

INF = float("inf")

METHOD_HC = "hc"
METHOD_HC_U = "hc-u"
METHOD_DELTA = "delta"
METHOD_DELTA_U = "delta-u"
# method -> (the score it ranks by, whether U widens the threshold)
SELECTION_RULES = {
    METHOD_HC: ("h_hc", False),
    METHOD_HC_U: ("h_hc", True),
    METHOD_DELTA: ("delta", False),
    METHOD_DELTA_U: ("delta", True),
}
METHODS = tuple(SELECTION_RULES)
SELECTION_SLACK = 1e-9  # absorbs LP float noise in thresholds


@dataclass(frozen=True)
class RecognizerConfig:
    """The base LP's constraint families and LP backend, checked when built (backend
    first). ``families`` is kept as a tuple: a whole config keys a task's base results."""
    families: tuple[str, ...] = ALL_FAMILIES
    backend: str = "simplex"

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        check_backend(self.backend)
        check_families(self.families)


@dataclass(frozen=True)
class HypothesisScore:
    goal_index: int
    h: float
    h_hc: float
    delta: float
    counts_base: tuple[float, ...] | None = None
    counts_hc: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RecognitionReport:
    scores: tuple[HypothesisScore, ...]
    uncertainty: float | None
    selected: tuple[int, ...]
    method: str
    obs_len: int
    timings: dict[str, float] = field(default_factory=dict)
    fallback_ranking: tuple[int, ...] | None = None  # only when all infeasible

    @property
    def all_infeasible(self) -> bool:
        return all(s.h_hc == INF for s in self.scores)


def _base(task: PlanningTask, goal_index: int, goal: frozenset[int], config: RecognizerConfig
          ) -> tuple[tuple[LinearProgram, LpOutcome] | str, float, float]:
    """The base result of ``goal``, built and stored on a miss, with the
    seconds spent on constraints and on the LP.

    The base results of a task are kept under ``_base`` in its
    ``task_memo``, keyed by (goal, config): the base LP as built, with its
    compiled rows, and its LpOutcome (with the optimal basis the h_hc solves
    start from, which keeps its first pricing), or the reason the goal is
    relaxed-unreachable. h depends only on the task and the goal, so
    re-scoring the task used last with other observations solves only the
    h_hc LPs.
    """
    bases = task_memo(task).setdefault(_base, {})
    key = (goal, config)
    if key in bases:
        return bases[key], 0.0, 0.0
    # Threads scoring equal goals may both get here; they store equal entries.
    t0 = time.perf_counter()
    try:
        base = base_constraints(task, goal, config.families)
    except GoalUnreachable as exc:
        reason = bases[key] = str(exc)
        return reason, time.perf_counter() - t0, 0.0
    t1 = time.perf_counter()
    # The landmark rows come first; each is basic in its zeroed action.
    crash = tuple(row.zeroed for row in base if row.zeroed is not None)
    lp = LinearProgram.from_constraints(base, task.costs)
    out = solve_with(lp, config.backend, start=crash)
    if out.status not in (OPTIMAL, INFEASIBLE):
        raise SolverFailure(f"base LP for hypothesis {goal_index} came back {out.status}")
    entry = bases[key] = (lp, out)
    return entry, t1 - t0, time.perf_counter() - t1


def base_lp(task: PlanningTask, goal: Iterable[int],
            config: RecognizerConfig = RecognizerConfig(),
            goal_index: int = 0) -> tuple[LinearProgram, LpOutcome]:
    """The base LP scoring solves for ``goal`` and its outcome, built and
    solved only when ``task`` is not the task used last. Raises
    GoalUnreachable when the goal is relaxed-unreachable."""
    entry, _, _ = _base(task, goal_index, frozenset(goal), config)
    if isinstance(entry, str):
        raise GoalUnreachable(entry)
    return entry


def _score_one(task: PlanningTask, goal_index: int, goal: frozenset[int],
               obs: ObservationSequence, config: RecognizerConfig
               ) -> tuple[HypothesisScore, float, float]:
    entry, t_cons, t_lp = _base(task, goal_index, goal, config)
    if isinstance(entry, str) or entry[1].status == INFEASIBLE:
        return HypothesisScore(goal_index, INF, INF, INF), t_cons, t_lp

    base, out = entry
    h = out.value
    t2 = time.perf_counter()
    out_hc = solve_with(base, config.backend, lower=obs.counts.items(), start=out.basis)
    t_lp += time.perf_counter() - t2
    if out_hc.status == INFEASIBLE:
        return HypothesisScore(goal_index, h, INF, INF, out.counts, None), t_cons, t_lp
    if out_hc.status != OPTIMAL:
        raise SolverFailure(f"observation LP for hypothesis {goal_index} came back {out_hc.status}")
    score = HypothesisScore(goal_index, h, out_hc.value, out_hc.value - h, out.counts,
                            out_hc.counts)
    return score, t_cons, t_lp


def score_hypothesis(task: PlanningTask, goal: Iterable[int], obs: ObservationSequence,
                     config: RecognizerConfig = RecognizerConfig(),
                     goal_index: int = 0) -> HypothesisScore:
    return _score_one(task, goal_index, frozenset(goal), obs, config)[0]


def score_all(task: PlanningTask, hyps: GoalHypotheses, obs: ObservationSequence,
              config: RecognizerConfig = RecognizerConfig()
              ) -> tuple[tuple[HypothesisScore, ...], dict[str, float]]:
    """Score every hypothesis, in index order.

    Base results (h) are reused from an earlier call on the same task object.
    """
    results = [_score_one(task, i, g, obs, config) for i, g in enumerate(hyps.goals)]
    scores = tuple(r[0] for r in results)
    timings = {"constraints": sum(r[1] for r in results),
               "lp": sum(r[2] for r in results)}
    return scores, timings


def uncertainty(scores: Iterable[HypothesisScore], obs_len: int) -> float | None:
    """Ratio widening the acceptance threshold when observations are scarce.

    None when every hypothesis is infeasible; 1.0 when the minimum h_hc is
    zero (nothing can be missing).
    """
    finite = [s.h_hc for s in scores if s.h_hc != INF]
    if not finite:
        return None
    m = min(finite)
    if m <= 0:
        return 1.0
    return 1.0 + (m - obs_len) / m


def select(scores: tuple[HypothesisScore, ...], method: str, obs_len: int
           ) -> tuple[tuple[int, ...], float | None, tuple[int, ...] | None]:
    """Selected goals, the threshold ratio and, only when every hypothesis is
    infeasible, the fallback ranking by h.

    Keeps every finite score within ``min * U`` of the minimum of the
    method's score key, where U is the uncertainty ratio for the ``-u``
    methods and 1 otherwise.
    """
    if method not in SELECTION_RULES:
        raise ValueError(f"unknown method '{method}' (expected one of {METHODS})")
    key, widen = SELECTION_RULES[method]
    values = {s.goal_index: getattr(s, key) for s in scores}
    finite = {i: v for i, v in values.items() if v != INF}
    if not finite:
        # non-normative fallback: rank by the unconstrained heuristic
        h = {s.goal_index: s.h for s in scores}
        ranking = tuple(sorted(values, key=lambda i: (h[i], i)))
        return (), None, ranking
    u = uncertainty(scores, obs_len) if widen else 1.0
    threshold = min(finite.values()) * u + SELECTION_SLACK
    selected = tuple(i for i in sorted(finite) if finite[i] <= threshold)
    return selected, u, None


def recognize(task: PlanningTask, hyps: GoalHypotheses, obs: ObservationSequence,
              method: str = METHOD_DELTA_U,
              config: RecognizerConfig = RecognizerConfig()) -> RecognitionReport:
    if len(hyps) == 0:
        raise ValueError("at least one goal hypothesis is required")
    scores, timings = score_all(task, hyps, obs, config)
    t0 = time.perf_counter()
    selected, u, fallback = select(scores, method, len(obs))
    timings["selection"] = time.perf_counter() - t0
    return RecognitionReport(scores=scores, uncertainty=u, selected=selected,
                             method=method, obs_len=len(obs), timings=timings,
                             fallback_ranking=fallback)


def _json_value(v: float) -> float | str:
    """Infinite scores as the string "inf", which strict JSON allows and
    ``float`` reads back."""
    return "inf" if v == INF else v


def report_to_dict(report: RecognitionReport) -> dict:
    return {
        "method": report.method,
        "obs_len": report.obs_len,
        "uncertainty": report.uncertainty,
        "selected": list(report.selected),
        "fallback_ranking": (list(report.fallback_ranking)
                             if report.fallback_ranking is not None else None),
        "timings": dict(report.timings),
        "scores": [
            {
                "goal_index": s.goal_index,
                "h": _json_value(s.h),
                "h_hc": _json_value(s.h_hc),
                "delta": _json_value(s.delta),
                "counts_base": list(s.counts_base) if s.counts_base is not None else None,
                "counts_hc": list(s.counts_hc) if s.counts_hc is not None else None,
            }
            for s in report.scores
        ],
    }


def report_from_dict(data: Mapping) -> RecognitionReport:
    scores = tuple(
        HypothesisScore(
            goal_index=int(s["goal_index"]), h=float(s["h"]), h_hc=float(s["h_hc"]),
            delta=float(s["delta"]),
            counts_base=tuple(s["counts_base"]) if s.get("counts_base") is not None else None,
            counts_hc=tuple(s["counts_hc"]) if s.get("counts_hc") is not None else None)
        for s in data["scores"])
    fallback = data.get("fallback_ranking")
    return RecognitionReport(
        scores=scores,
        uncertainty=data.get("uncertainty"),
        selected=tuple(int(i) for i in data["selected"]),
        method=str(data["method"]),
        obs_len=int(data["obs_len"]),
        timings={str(k): float(v) for k, v in dict(data.get("timings", {})).items()},
        fallback_ranking=tuple(int(i) for i in fallback) if fallback is not None else None)


def _fmt(v: float) -> str:
    if v == INF:
        return "inf"
    if abs(v - round(v)) < 1e-9:
        return str(int(round(v)))
    return f"{v:.4f}"


def format_report(report: RecognitionReport, hyps: GoalHypotheses) -> str:
    """Human-readable report: header plus one record per hypothesis."""
    lines = [
        f"method: {report.method}",
        f"observations: {report.obs_len}",
        f"uncertainty: {report.uncertainty:.6f}" if report.uncertainty is not None
        else "uncertainty: undefined (all hypotheses infeasible)",
    ]
    if report.timings:
        lines.append("timings: " + "  ".join(f"{k}={v:.4f}s"
                                             for k, v in sorted(report.timings.items())))
    lines.append("")
    for s in report.scores:
        mark = "*" if s.goal_index in report.selected else " "
        lines.append(f" {mark} G{s.goal_index}: h={_fmt(s.h)} h_hc={_fmt(s.h_hc)} "
                     f"delta={_fmt(s.delta)}  {hyps.lines[s.goal_index]}")
    lines.append("")
    if report.selected:
        lines.append("selected: " + ", ".join(f"G{i}" for i in report.selected))
    else:
        lines.append("selected: none (all hypotheses infeasible)")
        if report.fallback_ranking is not None:
            lines.append("fallback ranking by h (non-normative): "
                         + ", ".join(f"G{i}" for i in report.fallback_ranking))
    return "\n".join(lines)
