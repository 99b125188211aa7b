"""Seeded problem generator for the benchmark, independent of ``ocgr``.

Every family is written twice: as PDDL text (what the program under test
sees) and as an explicit state model (what the benchmark searches to get
witness plans and optimal costs). A state is a frozenset of dynamic atom
strings; static atoms live in the model. Generation is a pure function of
the seed, so equal seeds give byte-identical bundle texts.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

State = frozenset
Successors = Callable[[State], list[tuple[str, State]]]

SUITE_FAMILIES = ("grid", "blocks", "logistics", "corridor")
SUITE_LEVELS = (10, 30, 50, 70, 100)
SUITE_PER_FAMILY = 10


def child_seed(*parts: object) -> int:
    """Order-stable seed for one part of a workload; independent of PYTHONHASHSEED."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


GRID_DOMAIN = """\
(define (domain grid-nav)
  (:requirements :strips :typing)
  (:types cell)
  (:predicates (at ?c - cell)
               (adj-up ?a ?b - cell) (adj-down ?a ?b - cell)
               (adj-left ?a ?b - cell) (adj-right ?a ?b - cell))
  (:action move-up
    :parameters (?from ?to - cell)
    :precondition (and (at ?from) (adj-up ?from ?to))
    :effect (and (at ?to) (not (at ?from))))
  (:action move-down
    :parameters (?from ?to - cell)
    :precondition (and (at ?from) (adj-down ?from ?to))
    :effect (and (at ?to) (not (at ?from))))
  (:action move-left
    :parameters (?from ?to - cell)
    :precondition (and (at ?from) (adj-left ?from ?to))
    :effect (and (at ?to) (not (at ?from))))
  (:action move-right
    :parameters (?from ?to - cell)
    :precondition (and (at ?from) (adj-right ?from ?to))
    :effect (and (at ?to) (not (at ?from))))
)
"""

BLOCKS_DOMAIN = """\
(define (domain blocks)
  (:requirements :strips)
  (:predicates (on ?x ?y) (ontable ?x) (clear ?x) (handempty) (holding ?x))
  (:action pick-up
    :parameters (?x)
    :precondition (and (clear ?x) (ontable ?x) (handempty))
    :effect (and (not (ontable ?x)) (not (clear ?x)) (not (handempty)) (holding ?x)))
  (:action put-down
    :parameters (?x)
    :precondition (holding ?x)
    :effect (and (not (holding ?x)) (clear ?x) (handempty) (ontable ?x)))
  (:action stack
    :parameters (?x ?y)
    :precondition (and (holding ?x) (clear ?y))
    :effect (and (not (holding ?x)) (not (clear ?y)) (clear ?x) (handempty) (on ?x ?y)))
  (:action unstack
    :parameters (?x ?y)
    :precondition (and (on ?x ?y) (clear ?x) (handempty))
    :effect (and (holding ?x) (clear ?y) (not (clear ?x)) (not (handempty)) (not (on ?x ?y))))
)
"""

LOGISTICS_DOMAIN = """\
(define (domain logi)
  (:requirements :strips :typing)
  (:types package truck airplane location city)
  (:predicates (pkg-at ?p - package ?l - location)
               (truck-at ?t - truck ?l - location)
               (plane-at ?a - airplane ?l - location)
               (in-truck ?p - package ?t - truck)
               (in-plane ?p - package ?a - airplane)
               (in-city ?l - location ?c - city)
               (airport ?l - location))
  (:action drive
    :parameters (?t - truck ?from ?to - location ?c - city)
    :precondition (and (truck-at ?t ?from) (in-city ?from ?c) (in-city ?to ?c))
    :effect (and (truck-at ?t ?to) (not (truck-at ?t ?from))))
  (:action fly
    :parameters (?a - airplane ?from ?to - location)
    :precondition (and (plane-at ?a ?from) (airport ?from) (airport ?to))
    :effect (and (plane-at ?a ?to) (not (plane-at ?a ?from))))
  (:action load-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (pkg-at ?p ?l) (truck-at ?t ?l))
    :effect (and (in-truck ?p ?t) (not (pkg-at ?p ?l))))
  (:action unload-truck
    :parameters (?p - package ?t - truck ?l - location)
    :precondition (and (in-truck ?p ?t) (truck-at ?t ?l))
    :effect (and (pkg-at ?p ?l) (not (in-truck ?p ?t))))
  (:action load-plane
    :parameters (?p - package ?a - airplane ?l - location)
    :precondition (and (pkg-at ?p ?l) (plane-at ?a ?l))
    :effect (and (in-plane ?p ?a) (not (pkg-at ?p ?l))))
  (:action unload-plane
    :parameters (?p - package ?a - airplane ?l - location)
    :precondition (and (in-plane ?p ?a) (plane-at ?a ?l))
    :effect (and (pkg-at ?p ?l) (not (in-plane ?p ?a))))
)
"""

CORRIDOR_DOMAIN = """\
(define (domain corridor)
  (:requirements :strips :typing)
  (:types node)
  (:predicates (at ?n - node) (linked ?a ?b - node))
  (:action walk
    :parameters (?from ?to - node)
    :precondition (and (at ?from) (linked ?from ?to))
    :effect (and (at ?to) (not (at ?from))))
)
"""


@dataclass(frozen=True)
class Model:
    """One planning task: its PDDL texts plus an explicit successor function."""

    domain: str
    template: str
    hyps: tuple[frozenset[str], ...]  # goal atoms per hypothesis, in hyps.dat order
    hyp_lines: tuple[str, ...]
    init: State
    successors: Successors


@dataclass(frozen=True)
class Problem:
    """One recognition problem as the program sees it, plus the expected facts."""

    task_id: str  # problems of one task share it, whatever their observability
    pct: int
    files: dict[str, str]  # domain.pddl, template.pddl, hyps.dat, obs.dat, real_hyp.dat
    hidden: int
    obs_len: int
    witness_len: int
    optimal: tuple[int, ...]  # BFS optimal cost per hypothesis


def shortest_plan(model: Model, goal: frozenset[str], start: State | None = None,
                  rng: random.Random | None = None) -> list[tuple[str, State]]:
    """Breadth-first search; returns the (action, next state) steps of one shortest plan.

    With ``rng`` the successor order is shuffled, so the plan is a seeded
    choice among the shortest ones.
    """
    start = model.init if start is None else start
    if goal <= start:
        return []
    parent: dict[State, tuple[State, str] | None] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        succ = model.successors(state)
        if rng is not None:
            rng.shuffle(succ)
        for action, nxt in succ:
            if nxt in parent:
                continue
            parent[nxt] = (state, action)
            if goal <= nxt:
                steps: list[tuple[str, State]] = []
                node = nxt
                while parent[node] is not None:
                    prev, act = parent[node]
                    steps.append((act, node))
                    node = prev
                steps.reverse()
                return steps
            queue.append(nxt)
    raise ValueError("goal unreachable in the explicit model")


def goal_distances(model: Model) -> tuple[int, ...]:
    """Breadth-first optimal plan length of every hypothesis, in one search."""
    todo = {i: g for i, g in enumerate(model.hyps)}
    dist = [0] * len(model.hyps)
    seen = {model.init}
    frontier = [model.init]
    depth = 0
    while todo:
        if not frontier:
            raise ValueError("goal unreachable in the explicit model")
        for i, g in list(todo.items()):
            if any(g <= state for state in frontier):
                dist[i] = depth
                del todo[i]
        nxt = []
        for state in frontier:
            for _, succ in model.successors(state):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
        depth += 1
    return tuple(dist)


def _grid_template(width: int, height: int, open_edges: Iterable[tuple[tuple[int, int], tuple[int, int]]],
                   start: tuple[int, int], name: str) -> tuple[str, dict[tuple[int, int], list]]:
    """Template text and the directed (direction, target) moves per cell."""
    moves: dict[tuple[int, int], list[tuple[str, tuple[int, int]]]] = {
        (x, y): [] for x in range(width) for y in range(height)}
    atoms = []
    for a, b in sorted(open_edges):
        if a[0] == b[0]:
            pairs = ((a, b, "up"), (b, a, "down"))
        else:
            pairs = ((a, b, "right"), (b, a, "left"))
        for src, dst, d in pairs:
            moves[src].append((d, dst))
            atoms.append(f"(adj-{d} {cell(src)} {cell(dst)})")
    atoms.sort()
    cells = " ".join(cell(c) for c in sorted(moves))
    text = (f"(define (problem {name})\n  (:domain grid-nav)\n"
            f"  (:objects {cells} - cell)\n"
            f"  (:init (at {cell(start)})\n    " + "\n    ".join(atoms) + ")\n)\n")
    return text, moves


def cell(c: tuple[int, int]) -> str:
    return f"c_{c[0]}_{c[1]}"


def _grid_model(width: int, height: int, open_edges: set, start: tuple[int, int],
                goals: list[tuple[int, int]], name: str) -> Model:
    template, moves = _grid_template(width, height, open_edges, start, name)
    at = {c: f"(at {cell(c)})" for c in moves}
    by_atom = {at[c]: c for c in moves}

    def successors(state: State) -> list[tuple[str, State]]:
        (atom,) = state
        here = by_atom[atom]
        return [(f"move-{d} {cell(here)} {cell(dst)}", frozenset((at[dst],)))
                for d, dst in moves[here]]

    return Model(domain=GRID_DOMAIN, template=template,
                 hyps=tuple(frozenset((at[g],)) for g in goals),
                 hyp_lines=tuple(at[g] for g in goals),
                 init=frozenset((at[start],)), successors=successors)


def _all_edges(width: int, height: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    edges = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < height:
                edges.append(((x, y), (x, y + 1)))
    return edges


def _connected(cells: list[tuple[int, int]], edges: set) -> bool:
    nbrs: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in cells}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = {cells[0]}
    stack = [cells[0]]
    while stack:
        for n in nbrs[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return len(seen) == len(cells)


def grid_suite_model(rng: random.Random, size: int, k: int) -> Model:
    """A 4x4 or 5x5 grid with a fifth of its passages walled off, k goal cells."""
    width = height = 4 + size
    cells = [(x, y) for x in range(width) for y in range(height)]
    edges = _all_edges(width, height)
    open_edges = set(edges)
    order = sorted(edges)
    rng.shuffle(order)
    removed = 0
    for edge in order:
        if removed >= len(edges) // 5:
            break
        open_edges.discard(edge)
        if _connected(cells, open_edges):
            removed += 1
        else:
            open_edges.add(edge)
    start = rng.choice(cells)
    goals = rng.sample([c for c in cells if c != start], k)
    return _grid_model(width, height, open_edges, start, goals, "grid-suite")


def blocks_model(rng: random.Random, size: int, k: int) -> Model:
    """4 or 5 blocks in random towers; k goals of one or two stacked pairs."""
    n = 4 + size
    blocks = [chr(ord("a") + i) for i in range(n)]
    order = blocks[:]
    rng.shuffle(order)
    towers: list[list[str]] = [[order[0]]]
    for b in order[1:]:
        if rng.random() < 0.45:
            towers.append([b])
        else:
            towers[-1].append(b)  # bottom to top
    init = {"(handempty)"}
    for tower in towers:
        init.add(f"(ontable {tower[0]})")
        for lower, upper in zip(tower, tower[1:]):
            init.add(f"(on {upper} {lower})")
        init.add(f"(clear {tower[-1]})")

    hyps: list[frozenset[str]] = []
    lines: list[str] = []
    for _ in range(100):
        if len(lines) == k:
            break
        chosen = rng.sample(blocks, rng.randint(2, 3))  # top to bottom
        atoms = [f"(on {chosen[i]} {chosen[i + 1]})" for i in range(len(chosen) - 1)]
        line = ",".join(atoms)
        if set(atoms) <= init or line in lines:
            continue
        hyps.append(frozenset(atoms))
        lines.append(line)

    def successors(state: State) -> list[tuple[str, State]]:
        out = []
        held = [b for b in blocks if f"(holding {b})" in state]
        if held:
            x = held[0]
            base = state - {f"(holding {x})"}
            out.append((f"put-down {x}", base | {f"(clear {x})", "(handempty)", f"(ontable {x})"}))
            for y in blocks:
                if y != x and f"(clear {y})" in state:
                    out.append((f"stack {x} {y}", (base - {f"(clear {y})"})
                                | {f"(clear {x})", "(handempty)", f"(on {x} {y})"}))
            return out
        for x in blocks:
            if f"(clear {x})" not in state:
                continue
            if f"(ontable {x})" in state:
                out.append((f"pick-up {x}", (state - {f"(ontable {x})", f"(clear {x})", "(handempty)"})
                            | {f"(holding {x})"}))
            for y in blocks:
                if f"(on {x} {y})" in state:
                    out.append((f"unstack {x} {y}", (state - {f"(on {x} {y})", f"(clear {x})", "(handempty)"})
                                | {f"(holding {x})", f"(clear {y})"}))
        return out

    template = (f"(define (problem blocks-suite)\n  (:domain blocks)\n"
                f"  (:objects {' '.join(blocks)})\n  (:init {' '.join(sorted(init))})\n)\n")
    return Model(domain=BLOCKS_DOMAIN, template=template, hyps=tuple(hyps),
                 hyp_lines=tuple(lines), init=frozenset(init), successors=successors)


def logistics_model(rng: random.Random, size: int, k: int) -> Model:
    """Two cities with a truck each and one plane; 1 or 2 packages, k destinations."""
    city_of = {"apt1": "city1", "loc1": "city1", "apt2": "city2", "loc2": "city2"}
    locations = list(city_of)
    airports = ("apt1", "apt2")
    trucks = {"trk1": "city1", "trk2": "city2"}
    pkgs = [f"pkg{i + 1}" for i in range(1 + size)]
    init = {f"(truck-at trk1 {rng.choice(['apt1', 'loc1'])})",
            f"(truck-at trk2 {rng.choice(['apt2', 'loc2'])})",
            f"(plane-at pln1 {rng.choice(airports)})"}
    start = {p: rng.choice(locations) for p in pkgs}
    init |= {f"(pkg-at {p} {start[p]})" for p in pkgs}

    hyps: list[frozenset[str]] = []
    lines: list[str] = []
    for _ in range(100):
        if len(lines) == k:
            break
        target = {p: rng.choice(locations) for p in pkgs}
        line = ",".join(f"(pkg-at {p} {target[p]})" for p in pkgs)
        if target == start or line in lines:
            continue
        hyps.append(frozenset(line.split(",")))
        lines.append(line)

    def successors(state: State) -> list[tuple[str, State]]:
        out = []
        truck_at = {t: l for t in trucks for l in locations if f"(truck-at {t} {l})" in state}
        plane_at = next(l for l in airports if f"(plane-at pln1 {l})" in state)
        for t, here in truck_at.items():
            for there in locations:
                if there != here and city_of[there] == trucks[t]:
                    out.append((f"drive {t} {here} {there} {trucks[t]}",
                                (state - {f"(truck-at {t} {here})"}) | {f"(truck-at {t} {there})"}))
        for there in airports:
            if there != plane_at:
                out.append((f"fly pln1 {plane_at} {there}",
                            (state - {f"(plane-at pln1 {plane_at})"}) | {f"(plane-at pln1 {there})"}))
        for p in pkgs:
            for l in locations:
                if f"(pkg-at {p} {l})" not in state:
                    continue
                for t, here in truck_at.items():
                    if here == l:
                        out.append((f"load-truck {p} {t} {l}",
                                    (state - {f"(pkg-at {p} {l})"}) | {f"(in-truck {p} {t})"}))
                if plane_at == l:
                    out.append((f"load-plane {p} pln1 {l}",
                                (state - {f"(pkg-at {p} {l})"}) | {f"(in-plane {p} pln1)"}))
            for t, here in truck_at.items():
                if f"(in-truck {p} {t})" in state:
                    out.append((f"unload-truck {p} {t} {here}",
                                (state - {f"(in-truck {p} {t})"}) | {f"(pkg-at {p} {here})"}))
            if f"(in-plane {p} pln1)" in state:
                out.append((f"unload-plane {p} pln1 {plane_at}",
                            (state - {f"(in-plane {p} pln1)"}) | {f"(pkg-at {p} {plane_at})"}))
        return out

    static = [f"(in-city {l} {c})" for l, c in city_of.items()] + [f"(airport {a})" for a in airports]
    objects = (f"{' '.join(pkgs)} - package trk1 trk2 - truck pln1 - airplane "
               f"{' '.join(locations)} - location city1 city2 - city")
    template = (f"(define (problem logi-suite)\n  (:domain logi)\n  (:objects {objects})\n"
                f"  (:init {' '.join(sorted(init) + static)})\n)\n")
    return Model(domain=LOGISTICS_DOMAIN, template=template, hyps=tuple(hyps),
                 hyp_lines=tuple(lines), init=frozenset(init), successors=successors)


def corridor_model(rng: random.Random, size: int, k: int) -> Model:
    """A spine of 3 or 4 links with k side branches; the goals are the branch tips."""
    spine = [f"s{i}" for i in range(4 + size)]
    nodes = spine[:]
    links = list(zip(spine, spine[1:]))
    tips = []
    for j in range(k):
        prev = rng.choice(spine[1:])
        for i in range(rng.randint(1, 3)):
            node = f"b{j}_{i}"
            nodes.append(node)
            links.append((prev, node))
            prev = node
        tips.append(prev)
    nbrs: dict[str, list[str]] = {v: [] for v in nodes}
    for a, b in links:
        nbrs[a].append(b)
        nbrs[b].append(a)

    def successors(state: State) -> list[tuple[str, State]]:
        (atom,) = state
        here = atom[4:-1]
        return [(f"walk {here} {there}", frozenset((f"(at {there})",))) for there in nbrs[here]]

    link_atoms = " ".join(f"(linked {a} {b}) (linked {b} {a})" for a, b in links)
    template = (f"(define (problem corridor-suite)\n  (:domain corridor)\n"
                f"  (:objects {' '.join(nodes)} - node)\n  (:init (at s0) {link_atoms})\n)\n")
    lines = tuple(f"(at {t})" for t in tips)
    return Model(domain=CORRIDOR_DOMAIN, template=template,
                 hyps=tuple(frozenset((line,)) for line in lines), hyp_lines=lines,
                 init=frozenset(("(at s0)",)), successors=successors)


SUITE_MODELS = {
    "grid": grid_suite_model,
    "blocks": blocks_model,
    "logistics": logistics_model,
    "corridor": corridor_model,
}


def witness_plan(model: Model, hidden: int, rng: random.Random, suboptimal: bool) -> list[str]:
    """A seeded shortest plan for the hidden goal, optionally with one detour.

    The detour takes a random applicable action at a random point of the
    plan and then re-plans optimally, so the result is a valid plan that is
    usually longer than the optimum.
    """
    goal = model.hyps[hidden]
    steps = shortest_plan(model, goal, rng=rng)
    if not suboptimal:
        return [a for a, _ in steps]
    cut = rng.randint(0, len(steps))
    state = steps[cut - 1][1] if cut else model.init
    detour, after = rng.choice(model.successors(state))
    rest = shortest_plan(model, goal, start=after, rng=rng)
    return [a for a, _ in steps[:cut]] + [detour] + [a for a, _ in rest]


def sample_observations(plan: list[str], pct: int, rng: random.Random) -> list[str]:
    """Order-preserving uniform subsequence of round(pct% of the plan) steps, at least one."""
    size = min(len(plan), max(1, int(pct * len(plan) / 100 + 0.5)))
    return [plan[i] for i in sorted(rng.sample(range(len(plan)), size))]


def _problems(task_id: str, model: Model, levels: tuple[int, ...],
              seed: int, suboptimal: bool) -> list[Problem]:
    rng = random.Random(child_seed(seed, task_id, "witness"))
    hidden = rng.randrange(len(model.hyps))
    plan = witness_plan(model, hidden, rng, suboptimal)
    optimal = goal_distances(model)
    base = {
        "domain.pddl": model.domain,
        "template.pddl": model.template,
        "hyps.dat": "".join(line + "\n" for line in model.hyp_lines),
        "real_hyp.dat": model.hyp_lines[hidden] + "\n",
    }
    out = []
    for pct in levels:
        obs = sample_observations(plan, pct, random.Random(child_seed(seed, task_id, pct)))
        files = dict(base, **{"obs.dat": "".join(f"({a})\n" for a in obs)})
        out.append(Problem(task_id=task_id, pct=pct, files=files,
                           hidden=hidden, obs_len=len(obs), witness_len=len(plan),
                           optimal=optimal))
    return out


def suite_problems(seed: int, round_index: int, per_family: int = SUITE_PER_FAMILY,
                   levels: tuple[int, ...] = SUITE_LEVELS) -> list[Problem]:
    """One round of the desk-scale suite: per family, ``per_family`` fresh tasks
    times every level.

    Task j of a family has a fixed size class and hypothesis count, and
    every other task gets a suboptimal witness plan, so each round has the
    same make-up whatever the seed.
    """
    problems = []
    for family in SUITE_FAMILIES:
        for j in range(per_family):
            task_id = f"{family}-r{round_index}-{j:03d}"
            size, k = j % 2, 3 + (j // 2) % 2
            model = SUITE_MODELS[family](random.Random(child_seed(seed, task_id)), size, k)
            problems += _problems(task_id, model, levels, seed,
                                  suboptimal=(j + j // 2) % 2 == 1)
    return problems


def _symmetry(seed: int) -> Callable[[int, tuple[int, int]], tuple[int, int]]:
    """One of the eight symmetries of a square grid, chosen by the seed."""
    rng = random.Random(child_seed(seed, "symmetry"))
    transpose, flip_x, flip_y = rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5

    def apply(n: int, c: tuple[int, int]) -> tuple[int, int]:
        x, y = (c[1], c[0]) if transpose else c
        return (n - 1 - x if flip_x else x, n - 1 - y if flip_y else y)

    return apply


def _move(a: tuple[int, int], b: tuple[int, int]) -> str:
    d = {(1, 0): "right", (-1, 0): "left", (0, 1): "up", (0, -1): "down"}[(b[0] - a[0], b[1] - a[1])]
    return f"move-{d} {cell(a)} {cell(b)}"


def ladder_problems(seed: int, rungs: tuple[int, ...], levels: tuple[int, ...],
                    round_index: int) -> list[Problem]:
    """One round of an open-grid ladder: one fresh task per rung.

    The layout of a rung in a round (four goal cells in the half of the grid
    away from the start corner, the hidden goal, a shortest witness path and
    the observed steps) is fixed relative to the start corner; the seed picks
    which of the grid's eight symmetries places it. So every seed gives the
    same amount of work and the same recognition difficulty, under other
    cell, fact and action orders. The observability level of a rung rotates
    through ``levels`` from one round to the next.
    """
    place = _symmetry(seed)
    problems = []
    for j, n in enumerate(rungs):
        rng = random.Random(child_seed("ladder", n, round_index))
        far = [(x, y) for x in range(n) for y in range(n) if x + y >= n - 1]
        goals = rng.sample(far, 4)
        hidden = rng.randrange(4)
        steps = [(1, 0)] * goals[hidden][0] + [(0, 1)] * goals[hidden][1]
        rng.shuffle(steps)
        path = [(0, 0)]
        for dx, dy in steps:
            path.append((path[-1][0] + dx, path[-1][1] + dy))
        pct = levels[(j + round_index) % len(levels)]
        observed = sample_observations(list(range(len(steps))), pct, rng)

        path = [place(n, c) for c in path]
        model = _grid_model(n, n, set(_all_edges(n, n)), path[0],
                            [place(n, g) for g in goals], f"grid-open-{n}")
        obs = "".join(f"({_move(path[i], path[i + 1])})\n" for i in observed)
        files = {
            "domain.pddl": model.domain,
            "template.pddl": model.template,
            "hyps.dat": "".join(line + "\n" for line in model.hyp_lines),
            "obs.dat": obs,
            "real_hyp.dat": model.hyp_lines[hidden] + "\n",
        }
        problems.append(Problem(
            task_id=f"grid{n}-r{round_index}", pct=pct, files=files,
            hidden=hidden, obs_len=len(observed), witness_len=len(steps),
            optimal=goal_distances(model)))
    return problems


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description="Write one open-grid ladder bundle.")
    parser.add_argument("--grid", type=int, required=True, help="grid side N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pct", type=int, default=70, help="observability level")
    parser.add_argument("--out", required=True, help="bundle directory to write")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in ladder_problems(args.seed, (args.grid,), (args.pct,), 0)[0].files.items():
        (out / name).write_text(text, encoding="utf-8")
    print(out)
