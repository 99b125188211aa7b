"""Spans around ocgr's public functions, kept in memory, and the per-layer figures.

``install`` replaces each public function at a layer boundary with a
wrapper in every ``ocgr`` module that holds it, so calls between modules
go through the wrapper too. A span records name, start, end, its parent
span and the benchmark operation it belongs to. Spans opened on a worker
thread (the CLI scores hypotheses on a thread pool) take as parent the
span open on the main thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SETUP = -1  # operation index of spans recorded during set-up
WARMUP = -2  # operation index of spans of the untimed warm-up operation


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = SETUP  # set by the benchmark before each operation
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count()
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            extra: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if not extra and attrs is not None:
                    extra = attrs(args, result)
                self.spans.append(Span(sid, name, parent, self.op, start, end, extra))
            return result
        return traced

    def patch(self, module, attr: str, name: str, attrs: Callable | None = None) -> None:
        """Wrap ``module.attr`` and rebind it wherever an ocgr module imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, attrs)
        for mod in [m for n, m in sys.modules.items() if n == "ocgr" or n.startswith("ocgr.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append(functools.partial(setattr, mod, key, original))

    def install(self) -> None:
        from ocgr import cli, constraints, grounding, inputs, lp, pddl, recognition

        def task_key(task) -> int:
            return hash((task.facts, task.init))

        def family(args, result) -> dict:
            return {"rows": len(result),
                    "key": hash((task_key(args[0]), frozenset(args[1])))}

        def solved(args, result) -> dict:
            prog = args[0]
            return {"backend": args[1], "status": result.status,
                    "rows": len(prog.constraints),
                    "nonzeros": sum(len(row.terms) for row in prog.constraints),
                    "key": hash((prog.objective, prog.constraints))}

        def grounded(args, result) -> dict:
            return {"actions": len(result.actions), "facts": len(result.facts)}

        self.patch(pddl, "parse_domain", "pddl.parse_domain")
        self.patch(pddl, "parse_problem", "pddl.parse_problem")
        self.patch(grounding, "ground", "grounding.ground", grounded)
        self.patch(grounding, "relaxed_reachable", "grounding.relaxed_reachable")
        self.patch(constraints, "landmark_constraints", "constraints.lm", family)
        self.patch(constraints, "net_change_constraints", "constraints.nc", family)
        self.patch(constraints, "posthoc_constraints", "constraints.ph", family)
        self.patch(lp, "solve_with", "lp.solve", solved)
        self.patch(recognition, "recognize", "recognition.recognize")
        self.patch(inputs, "load_bundle", "inputs.load_bundle")
        self.patch(cli, "main", "cli.main")
        build = lp.LinearProgram.__dict__["from_constraints"]
        lp.LinearProgram.from_constraints = staticmethod(self.wrap("lp.build", build.__func__))
        self._undo.append(lambda: setattr(lp.LinearProgram, "from_constraints", build))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                attrs = {k: v for k, v in s.attrs.items() if k != "key"}
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "op": s.op,
                                     "start": s.start, "end": s.end, "attrs": attrs}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


PER_LAYER = (
    "pddl.parse_s", "grounding.ground_s", "grounding.reachable_s", "grounding.actions",
    "grounding.facts", "constraints.lm_s", "constraints.nc_s", "constraints.ph_s",
    "constraints.lm_rows", "constraints.nc_rows", "constraints.ph_rows", "constraints.calls",
    "constraints.distinct", "lp.build_s", "lp.solve_s", "lp.solves", "lp.distinct_solves",
    "lp.rows", "lp.nonzeros", "lp.infeasible", "recognition.self_s", "cli.self_s",
)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation figures for every layer: totals over the set-up and the
    timed operations, divided by the number of timed operations.

    On the suite the set-up parses and grounds every task of the run once,
    so its share is spread over the problems that use the task. Spans of
    the warm-up operation are left out.
    """
    kept = [s for s in spans if s.op != WARMUP]
    children: dict[int, list[Span]] = {}
    for s in kept:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str, value: Callable[[Span], float]) -> float:
        return sum(value(s) for s in kept if s.name == name) / ops

    def duration(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        return duration(s) - _covered([k for k in kids if k[1] > k[0]])

    def distinct(names: tuple[str, ...]) -> float:
        keys = {(s.name, s.attrs["key"]) for s in kept if s.name in names and "key" in s.attrs}
        return len(keys) / ops

    families = ("constraints.lm", "constraints.nc", "constraints.ph")
    out = {
        "pddl.parse_s": total("pddl.parse_domain", duration) + total("pddl.parse_problem", duration),
        "grounding.ground_s": total("grounding.ground", self_time),
        "grounding.reachable_s": total("grounding.relaxed_reachable", duration),
        "grounding.actions": total("grounding.ground", lambda s: s.attrs.get("actions", 0)),
        "grounding.facts": total("grounding.ground", lambda s: s.attrs.get("facts", 0)),
        "constraints.calls": sum(total(f, lambda s: 1) for f in families),
        "constraints.distinct": distinct(families),
        "lp.build_s": total("lp.build", duration),
        "lp.solve_s": total("lp.solve", duration),
        "lp.solves": total("lp.solve", lambda s: 1),
        "lp.distinct_solves": distinct(("lp.solve",)),
        "lp.rows": total("lp.solve", lambda s: s.attrs.get("rows", 0)),
        "lp.nonzeros": total("lp.solve", lambda s: s.attrs.get("nonzeros", 0)),
        "lp.infeasible": total("lp.solve", lambda s: s.attrs.get("status") == "infeasible"),
        "recognition.self_s": total("recognition.recognize", self_time),
        "cli.self_s": total("cli.main", self_time),
    }
    for short in ("lm", "nc", "ph"):
        out[f"constraints.{short}_s"] = total(f"constraints.{short}", duration)
        out[f"constraints.{short}_rows"] = total(f"constraints.{short}", lambda s: s.attrs.get("rows", 0))
    return {name: out[name] for name in PER_LAYER}
