"""Output checks against the benchmark's own computations.

A recognition result is first normalised into an ``Outcome`` (from a
library report or from the CLI's JSON), then checked against facts the
generator knows independently: BFS optimal costs, the witness length and
the observation count. Each check returns a list of failure messages;
an empty list means the operation passed.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Problem

TOL = 1e-6
SELECTION_SLACK = 1e-9  # the library's default selection slack
INF = float("inf")


@dataclass(frozen=True)
class Outcome:
    h: tuple[float, ...]
    h_hc: tuple[float, ...]
    delta: tuple[float, ...]
    selected: tuple[int, ...]
    uncertainty: float | None
    obs_len: int

    def canonical(self) -> list:
        """A JSON-ready form used to compare runs bit for bit."""
        return [[repr(v) for v in self.h], [repr(v) for v in self.h_hc],
                [repr(v) for v in self.delta], list(self.selected),
                repr(self.uncertainty), self.obs_len]


def from_report(report) -> Outcome:
    scores = sorted(report.scores, key=lambda s: s.goal_index)
    return Outcome(h=tuple(s.h for s in scores), h_hc=tuple(s.h_hc for s in scores),
                   delta=tuple(s.delta for s in scores), selected=tuple(report.selected),
                   uncertainty=report.uncertainty, obs_len=report.obs_len)


def from_json(doc: dict) -> Outcome:
    scores = sorted(doc["scores"], key=lambda s: s["goal_index"])
    return Outcome(h=tuple(float(s["h"]) for s in scores),
                   h_hc=tuple(float(s["h_hc"]) for s in scores),
                   delta=tuple(float(s["delta"]) for s in scores),
                   selected=tuple(int(i) for i in doc["selected"]),
                   uncertainty=doc["uncertainty"], obs_len=int(doc["obs_len"]))


def expected_uncertainty(h_hc: tuple[float, ...], obs_len: int) -> float | None:
    """U = 1 + (min h_hc - |O|) / min h_hc over the finite values."""
    finite = [v for v in h_hc if v != INF]
    if not finite:
        return None
    m = min(finite)
    return 1.0 if m <= 0 else 1.0 + (m - obs_len) / m


def expected_selection(delta: tuple[float, ...], u: float | None) -> tuple[int, ...]:
    """The delta-u threshold rule: keep every finite delta within min * U."""
    finite = {i: v for i, v in enumerate(delta) if v != INF}
    if not finite or u is None:
        return ()
    threshold = min(finite.values()) * u + SELECTION_SLACK
    return tuple(i for i in sorted(finite) if finite[i] <= threshold)


def check_common(problem: Problem, out: Outcome) -> list[str]:
    """Shape, dominance, delta = h_hc - h, and the uncertainty and selection
    recomputation."""
    k = len(problem.optimal)
    if not len(out.h) == len(out.h_hc) == len(out.delta) == k:
        return [f"expected {k} scores, got {len(out.h)}"]
    fails = []
    if out.obs_len != problem.obs_len:
        fails.append(f"obs_len {out.obs_len} != {problem.obs_len}")
    for i in range(k):
        if out.h_hc[i] < out.h[i] - TOL:
            fails.append(f"G{i}: h_hc {out.h_hc[i]} < h {out.h[i]} (dominance)")
        want_delta = INF if out.h_hc[i] == INF else out.h_hc[i] - out.h[i]
        if not (out.delta[i] == want_delta == INF or abs(out.delta[i] - want_delta) <= TOL):
            fails.append(f"G{i}: delta {out.delta[i]} != h_hc - h {want_delta}")
    u = expected_uncertainty(out.h_hc, problem.obs_len)
    if (u is None) != (out.uncertainty is None) or (
            u is not None and abs(u - out.uncertainty) > 1e-9):
        fails.append(f"uncertainty {out.uncertainty} != {u}")
    want = expected_selection(out.delta, u)
    if out.selected != want:
        fails.append(f"selected {list(out.selected)} != {list(want)}")
    return fails


def check_suite(problem: Problem, out: Outcome) -> list[str]:
    """Library defaults on the desk-scale suite."""
    fails = check_common(problem, out)
    if len(out.h) != len(problem.optimal):
        return fails
    for i, hstar in enumerate(problem.optimal):
        if out.h[i] > hstar + TOL:
            fails.append(f"G{i}: h {out.h[i]} > optimal cost {hstar} (admissibility)")
    if problem.pct == 100:
        finite = [v for v in out.h_hc if v != INF]
        if not finite or out.h_hc[problem.hidden] > min(finite) + TOL:
            fails.append("hc rule drops the hidden goal at full observability")
    return fails


def check_grid(problem: Problem, out: Outcome) -> list[str]:
    """CLI on open grids (after a zero exit code): h is the exact shortest-path distance."""
    fails = check_common(problem, out)
    if len(out.h) != len(problem.optimal):
        return fails
    for i, dist in enumerate(problem.optimal):
        if abs(out.h[i] - dist) > TOL:
            fails.append(f"G{i}: h {out.h[i]} != BFS distance {dist}")
    if out.h_hc[problem.hidden] > problem.witness_len + TOL:
        fails.append(f"hidden h_hc {out.h_hc[problem.hidden]} > witness length "
                     f"{problem.witness_len}")
    return fails
