"""Bundle generators for desk-scale recognition suites.

Four families: grid navigation, blocks stacking, a two-city logistics
variant, and branching corridors. Each generator emits the textual bundle
files (domain.pddl, template.pddl, hyps.dat, real_hyp.dat); observations
are added later from a sampled plan. Generation is a pure function of the
passed RNG, so equal seeds give byte-identical bundles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

GRID_DOMAIN = """\
(define (domain grid-nav)
  (:requirements :strips :typing)
  (:types cell)
  (:predicates (at ?c - cell)
               (adj-up ?a ?b - cell)
               (adj-down ?a ?b - cell)
               (adj-left ?a ?b - cell)
               (adj-right ?a ?b - cell))
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
class GeneratedBundle:
    """Textual bundle files; obs.dat is filled in by the bench layer."""

    name: str
    files: dict[str, str]


def write_bundle(directory: str | Path, files: dict[str, str]) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")


def _problem(name: str, domain: str, objects: str, init: str) -> str:
    """The template text: a problem with its objects and initial atoms."""
    return (f"(define (problem {name})\n"
            f"  (:domain {domain})\n"
            f"  (:objects {objects})\n"
            f"  (:init {init})\n"
            f")\n")


def _bundle(name: str, domain: str, problem: str, hyp_lines: list[str],
            hidden: int) -> GeneratedBundle:
    """The four bundle files, one hypothesis a line and line ``hidden`` the real one."""
    return GeneratedBundle(name=name, files={
        "domain.pddl": domain,
        "template.pddl": problem,
        "hyps.dat": "\n".join(hyp_lines) + "\n",
        "real_hyp.dat": hyp_lines[hidden] + "\n",
    })


def _hypotheses(rng: random.Random, draw: Callable[[], str | None]) -> list[str]:
    """randint(3, 4) distinct lines from at most 100 calls of ``draw``, which
    returns None for a goal already true in the initial state."""
    lines: list[str] = []
    k = rng.randint(3, 4)
    for _ in range(100):
        if len(lines) == k:
            break
        line = draw()
        if line is not None and line not in lines:
            lines.append(line)
    return lines


def _grid(width: int, height: int, is_open: Callable[[tuple[int, int], tuple[int, int]], bool]
          ) -> tuple[list[str], list[tuple[str, str, str]]]:
    """The cells c_x_y of a grid, x-major, and its moves (from, to, direction) up,
    down, left and right from each cell to each neighbour for which ``is_open`` holds."""
    cells = [f"c_{x}_{y}" for x in range(width) for y in range(height)]
    edges: list[tuple[str, str, str]] = []
    for x in range(width):
        for y in range(height):
            for dx, dy, d in ((0, 1, "up"), (0, -1, "down"), (-1, 0, "left"), (1, 0, "right")):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height and is_open((x, y), (nx, ny)):
                    edges.append((f"c_{x}_{y}", f"c_{nx}_{ny}", d))
    return cells, edges


def _grid_problem(cells: list[str], edges: list[tuple[str, str, str]], start: str,
                  name: str) -> str:
    adj = "\n    ".join(f"(adj-{d} {a} {b})" for a, b, d in edges)
    return _problem(name, "grid-nav", f"{' '.join(cells)} - cell", f"(at {start})\n    {adj}")


def demo_grid_bundle() -> GeneratedBundle:
    """Fixed 4x4 navigation demo with two goal cells.

    One wall (between c_2_0 and c_2_1) and one one-way passage (c_2_0 to
    c_3_0) make the observation-constrained LP values work out to integral
    path costs for the shipped seven-step observation sequence.
    """
    blocked = {((2, 0), (2, 1)), ((2, 1), (2, 0)), ((3, 0), (2, 0))}
    cells, edges = _grid(4, 4, lambda here, there: (here, there) not in blocked)
    obs = ("(move-right c_0_0 c_1_0)\n"
           "(move-right c_1_0 c_2_0)\n"
           "(move-right c_2_0 c_3_0)\n"
           "(move-up c_3_0 c_3_1)\n"
           "(move-left c_3_1 c_2_1)\n"
           "(move-up c_2_1 c_2_2)\n"
           "(move-left c_2_2 c_1_2)\n")
    bundle = _bundle("grid-demo", GRID_DOMAIN, _grid_problem(cells, edges, "c_0_0", "grid-demo"),
                     ["(at c_1_2)", "(at c_0_3)"], 0)
    return replace(bundle, files={**bundle.files, "obs.dat": obs})


def gen_grid(rng: random.Random) -> GeneratedBundle:
    width = rng.randint(4, 5)
    height = rng.randint(4, 5)
    coords = [(x, y) for x in range(width) for y in range(height)]
    undirected = []
    for x, y in coords:
        if x + 1 < width:
            undirected.append(((x, y), (x + 1, y)))
        if y + 1 < height:
            undirected.append(((x, y), (x, y + 1)))

    # carve a few walls while keeping the grid connected
    open_edges = set(undirected)

    def connected() -> bool:
        nbrs: dict[tuple[int, int], list[tuple[int, int]]] = {c: [] for c in coords}
        for a, b in open_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        seen = {coords[0]}
        stack = [coords[0]]
        while stack:
            for n in nbrs[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == len(coords)

    candidates = sorted(undirected)
    rng.shuffle(candidates)
    removed = 0
    for edge in candidates:
        if removed >= len(undirected) // 5:
            break
        open_edges.discard(edge)
        if connected():
            removed += 1
        else:
            open_edges.add(edge)

    cells, edges = _grid(width, height, lambda a, b: (min(a, b), max(a, b)) in open_edges)
    cname = dict(zip(coords, cells))
    start = rng.choice(sorted(coords))
    k = rng.randint(3, 4)
    goal_cells = rng.sample(sorted(c for c in coords if c != start), k)
    problem = _grid_problem(cells, sorted(edges), cname[start], "grid-gen")
    return _bundle("grid", GRID_DOMAIN, problem, [f"(at {cname[c]})" for c in goal_cells],
                   rng.randrange(k))


def gen_blocks(rng: random.Random) -> GeneratedBundle:
    n = rng.randint(4, 5)
    blocks = [chr(ord("a") + i) for i in range(n)]
    order = blocks[:]
    rng.shuffle(order)
    towers: list[list[str]] = [[order[0]]]
    for b in order[1:]:
        if rng.random() < 0.45:
            towers.append([b])
        else:
            towers[-1].append(b)  # towers listed bottom to top

    init_atoms = ["(handempty)"]
    for tower in towers:
        init_atoms.append(f"(ontable {tower[0]})")
        for lower, upper in zip(tower, tower[1:]):
            init_atoms.append(f"(on {upper} {lower})")
        init_atoms.append(f"(clear {tower[-1]})")

    def draw() -> str | None:
        size = rng.randint(2, min(3, n))
        chosen = rng.sample(blocks, size)  # top to bottom
        atoms = [f"(on {chosen[i]} {chosen[i + 1]})" for i in range(size - 1)]
        return None if all(a in init_atoms for a in atoms) else ",".join(atoms)

    hyp_lines = _hypotheses(rng, draw)
    problem = _problem("blocks-gen", "blocks", " ".join(blocks), " ".join(init_atoms))
    return _bundle("blocks", BLOCKS_DOMAIN, problem, hyp_lines, rng.randrange(len(hyp_lines)))


def gen_logistics(rng: random.Random) -> GeneratedBundle:
    locations = ["apt1", "loc1", "apt2", "loc2"]
    city_of = {"apt1": "city1", "loc1": "city1", "apt2": "city2", "loc2": "city2"}
    num_pkgs = rng.randint(1, 2)
    pkgs = [f"pkg{i + 1}" for i in range(num_pkgs)]
    init_atoms = [f"(in-city {l} {city_of[l]})" for l in locations]
    init_atoms += ["(airport apt1)", "(airport apt2)"]
    init_atoms.append(f"(truck-at trk1 {rng.choice(['apt1', 'loc1'])})")
    init_atoms.append(f"(truck-at trk2 {rng.choice(['apt2', 'loc2'])})")
    init_atoms.append(f"(plane-at pln1 {rng.choice(['apt1', 'apt2'])})")
    pkg_at = {p: rng.choice(locations) for p in pkgs}
    for p in pkgs:
        init_atoms.append(f"(pkg-at {p} {pkg_at[p]})")

    def draw() -> str | None:
        targets = {p: rng.choice(locations) for p in pkgs}
        return None if targets == pkg_at else ",".join(f"(pkg-at {p} {targets[p]})" for p in pkgs)

    hyp_lines = _hypotheses(rng, draw)
    objects = (f"{' '.join(pkgs)} - package trk1 trk2 - truck pln1 - airplane "
               f"{' '.join(locations)} - location city1 city2 - city")
    problem = _problem("logi-gen", "logi", objects, " ".join(init_atoms))
    return _bundle("logistics", LOGISTICS_DOMAIN, problem, hyp_lines,
                   rng.randrange(len(hyp_lines)))


def gen_corridor(rng: random.Random) -> GeneratedBundle:
    spine_len = rng.randint(3, 4)
    spine = [f"s{i}" for i in range(spine_len + 1)]
    num_branches = rng.randint(3, 4)
    nodes = spine[:]
    links: list[tuple[str, str]] = list(zip(spine, spine[1:]))
    tips: list[str] = []
    for j in range(num_branches):
        length = rng.randint(1, 3)
        attach = rng.choice(spine[1:])
        prev = attach
        for i in range(length):
            node = f"b{j}_{i}"
            nodes.append(node)
            links.append((prev, node))
            prev = node
        tips.append(prev)

    link_atoms = []
    for a, b in links:
        link_atoms.append(f"(linked {a} {b})")
        link_atoms.append(f"(linked {b} {a})")
    problem = _problem("corridor-gen", "corridor", f"{' '.join(nodes)} - node",
                       f"(at s0) {' '.join(link_atoms)}")
    return _bundle("corridor", CORRIDOR_DOMAIN, problem, [f"(at {t})" for t in tips],
                   rng.randrange(len(tips)))


GENERATORS = {
    "grid": gen_grid,
    "blocks": gen_blocks,
    "logistics": gen_logistics,
    "corridor": gen_corridor,
}
