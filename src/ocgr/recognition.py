"""Goal recognition over operator-counting LPs.

For each hypothesis G we solve the base LP (value h), and then the same LP
again under per-action observation floors Y_a >= k_a (value h_hc). The
base solve starts from the crash basis of its landmark rows, LM-cut's cost
partitioning, so the dual simplex starts at h_LM-cut. The h_hc solve passes
the floors as bounds and starts from the base optimal basis, which stays
dual feasible when only the bounds change.
A ``RecognitionReport`` is its scores, method and |O|, and derives its
selection from them when it is built: each method names its score key
(h_hc or the enforcement delta h_hc - h) and whether the threshold is
widened by the uncertainty ratio

    U = 1 + max(min_G h_hc - |O|, 0) / min_G h_hc

which estimates how many observations are missing. ``replace(report,
method=m)`` evaluates method m on the same scores. Infeasible LPs map to
infinity, never selected; a failed solve's SolverFailure names its hypothesis.
"""

from __future__ import annotations

import time
from dataclasses import KW_ONLY, dataclass, field
from typing import Iterable, Mapping

from .constraints import ALL_FAMILIES, base_constraints, check_families
from .errors import GoalUnreachable, SolverFailure, check_name
from .grounding import INF, PlanningTask, task_memo
from .inputs import GoalHypotheses, ObservationSequence
from .lp import BACKENDS, LinearProgram, LpOutcome, solve_with

METHOD_DELTA_U = "delta-u"  # the default method
# method -> (the score it ranks by, whether U widens the threshold)
SELECTION_RULES = {
    "hc": ("h_hc", False),
    "hc-u": ("h_hc", True),
    "delta": ("delta", False),
    METHOD_DELTA_U: ("delta", True),
}
SELECTION_SLACK = 1e-9  # absorbs LP float noise in thresholds


@dataclass(frozen=True)
class RecognizerConfig:
    """The base LP's constraint family set, kept in ``ALL_FAMILIES`` order, and LP backend,
    checked when built (backend first); a whole config keys a task's base results."""
    families: tuple[str, ...] = ALL_FAMILIES
    backend: str = "simplex"

    def __post_init__(self) -> None:
        chosen = set(self.families)
        check_name("backend", self.backend, BACKENDS)
        check_families(chosen)
        object.__setattr__(self, "families", tuple(f for f in ALL_FAMILIES if f in chosen))


@dataclass(frozen=True)
class HypothesisScore:
    """The base and observation LP values of a goal (INF if infeasible) and their counts."""
    goal_index: int
    h: float
    h_hc: float
    _: KW_ONLY
    counts_base: tuple[float, ...] | None = None
    counts_hc: tuple[float, ...] | None = None

    @property
    def delta(self) -> float:
        """The enforcement cost h_hc - h, INF when h_hc is."""
        return INF if self.h_hc == INF else self.h_hc - self.h


@dataclass(frozen=True)
class RecognitionReport:
    """Scores under a method for |O| observations, and what they give, derived when
    built: U for the ``-u`` methods (else 1), the goals whose finite score key is within
    ``min * U`` of its minimum and, only when no score is finite, the fallback ranking
    by h."""
    scores: tuple[HypothesisScore, ...]
    method: str
    obs_len: int
    timings: dict[str, float] = field(default_factory=dict)
    uncertainty: float | None = field(init=False)
    selected: tuple[int, ...] = field(init=False)
    fallback_ranking: tuple[int, ...] | None = field(init=False)

    def __post_init__(self) -> None:
        check_name("method", self.method, SELECTION_RULES)
        key, widen = SELECTION_RULES[self.method]
        values = {s.goal_index: getattr(s, key) for s in self.scores}
        finite = {i: v for i, v in values.items() if v != INF}
        if not finite:
            # non-normative fallback: rank by the unconstrained heuristic
            h = {s.goal_index: s.h for s in self.scores}
            derived = (), None, tuple(sorted(values, key=lambda i: (h[i], i)))
        else:
            u = uncertainty(self.scores, self.obs_len) if widen else 1.0
            threshold = min(finite.values()) * u + SELECTION_SLACK
            derived = tuple(i for i in sorted(finite) if finite[i] <= threshold), u, None
        for name, value in zip(("selected", "uncertainty", "fallback_ranking"), derived):
            object.__setattr__(self, name, value)

    @property
    def all_infeasible(self) -> bool:
        return all(s.h_hc == INF for s in self.scores)


def _base(task: PlanningTask, goal: frozenset[int], config: RecognizerConfig
          ) -> tuple[tuple[LinearProgram, LpOutcome] | str, float, float]:
    """The base result of ``goal``, built and stored on a miss, with the
    seconds spent on constraints and on the LP.

    The base results of a task are kept under ``_base`` in its
    ``task_memo``, keyed by (goal, config): the base LP as built, with its
    compiled rows, and its LpOutcome (with the optimal basis the h_hc solves
    start from, and its reduced costs once read), or the reason the goal is
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
    entry = bases[key] = (lp, solve_with(lp, config.backend, start=crash))
    return entry, t1 - t0, time.perf_counter() - t1


def base_lp(task: PlanningTask, goal: Iterable[int],
            config: RecognizerConfig = RecognizerConfig()) -> tuple[LinearProgram, LpOutcome]:
    """The base LP scoring solves for ``goal`` and its outcome, built and
    solved only when ``task`` is not the task used last. Raises
    GoalUnreachable when the goal is relaxed-unreachable."""
    entry, _, _ = _base(task, frozenset(goal), config)
    if isinstance(entry, str):
        raise GoalUnreachable(entry)
    return entry


def _score_one(task: PlanningTask, goal_index: int, goal: frozenset[int],
               obs: ObservationSequence, config: RecognizerConfig
               ) -> tuple[HypothesisScore, float, float]:
    try:
        entry, t_cons, t_lp = _base(task, goal, config)
        if isinstance(entry, str) or entry[1].value is None:
            return HypothesisScore(goal_index, INF, INF), t_cons, t_lp
        base, out = entry
        t2 = time.perf_counter()
        out_hc = solve_with(base, config.backend, lower=obs.counts.items(), start=out.basis)
    except SolverFailure as exc:
        raise SolverFailure(f"hypothesis {goal_index}: {exc}") from exc
    t_lp += time.perf_counter() - t2
    h_hc = INF if out_hc.value is None else out_hc.value
    score = HypothesisScore(goal_index, out.value, h_hc, counts_base=out.counts,
                            counts_hc=out_hc.counts)
    return score, t_cons, t_lp


def score_hypothesis(task: PlanningTask, goal: Iterable[int], obs: ObservationSequence,
                     config: RecognizerConfig = RecognizerConfig(),
                     goal_index: int = 0) -> HypothesisScore:
    return _score_one(task, goal_index, frozenset(goal), obs, config)[0]


def uncertainty(scores: Iterable[HypothesisScore], obs_len: int) -> float | None:
    """Ratio widening the acceptance threshold when observations are scarce,
    1 + max(m - |O|, 0) / m for the least finite h_hc m: never below 1, as
    cost-0 actions can make m < |O|. None when every hypothesis is
    infeasible; 1.0 when m is zero (nothing can be missing)."""
    finite = [s.h_hc for s in scores if s.h_hc != INF]
    if not finite:
        return None
    m = min(finite)
    return 1.0 + max(m - obs_len, 0) / m if m > 0 else 1.0


def recognize(task: PlanningTask, hyps: GoalHypotheses, obs: ObservationSequence,
              method: str = METHOD_DELTA_U,
              config: RecognizerConfig = RecognizerConfig()) -> RecognitionReport:
    """Score every hypothesis, in index order, and select under ``method``.

    Base results (h) are reused from an earlier call on the same task object.
    """
    check_name("method", method, SELECTION_RULES)
    results = [_score_one(task, i, g, obs, config) for i, g in enumerate(hyps.goals)]
    timings = {"constraints": sum(r[1] for r in results), "lp": sum(r[2] for r in results)}
    return RecognitionReport(tuple(r[0] for r in results), method, len(obs), timings)


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
    """The report of ``report_to_dict``'s scores (h, h_hc, counts), method, obs_len and
    timings: delta, U and the selection are derived again, whatever the dict says."""
    scores = tuple(
        HypothesisScore(
            int(s["goal_index"]), float(s["h"]), float(s["h_hc"]),
            counts_base=tuple(s["counts_base"]) if s.get("counts_base") is not None else None,
            counts_hc=tuple(s["counts_hc"]) if s.get("counts_hc") is not None else None)
        for s in data["scores"])
    return RecognitionReport(
        scores, str(data["method"]), int(data["obs_len"]),
        {str(k): float(v) for k, v in dict(data.get("timings", {})).items()})


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
