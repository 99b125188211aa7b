import os
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

import ocgr.grounding as grounding
from conftest import MOVE_DOMAIN, chain_task
from ocgr.errors import GroundingError
from ocgr.generators import (BLOCKS_DOMAIN, CORRIDOR_DOMAIN, GENERATORS, GRID_DOMAIN,
                             demo_grid_bundle)
from ocgr.grounding import GroundAction, PlanningTask, _ground_all, ground, relaxed_reachable
from ocgr.pddl import ProblemDef, atom_text, parse_domain, parse_problem


def _move_task():
    dom = parse_domain(MOVE_DOMAIN)
    prob = parse_problem(
        "(define (problem m) (:domain mover) (:objects x y) (:init (at x)))", dom)
    return ground(dom, prob)


def test_untyped_two_objects_gives_four_actions():
    task = _move_task()
    assert task.num_actions == 4
    assert sorted(a.name for a in task.actions) == [
        "move x x", "move x y", "move y x", "move y y"]


def test_chain_grounds_to_single_action():
    task = chain_task()
    assert task.num_actions == 1
    assert task.actions[0].name == "a"
    assert task.facts == ("(p)", "(q)")
    assert task.init == {0} and task.goal == {1}


def test_add_wins_over_delete():
    # (move x x) deletes and adds (at x); the delete must be dropped
    task = _move_task()
    loop = task.actions[task.action_index["move x x"]]
    assert task.fact_index["(at x)"] in loop.adds
    assert task.fact_index["(at x)"] not in loop.dels


def test_blocks4_matches_brute_force_schema_enumeration():
    dom = parse_domain(BLOCKS_DOMAIN)
    blocks = ["a", "b", "c", "d"]
    prob = parse_problem(
        "(define (problem b4) (:domain blocks) (:objects a b c d)"
        " (:init (handempty) (ontable a) (clear a) (ontable b) (clear b)"
        " (ontable c) (clear c) (ontable d) (clear d)))", dom)
    task = _ground_all(dom, prob)
    # independent enumeration: every type-consistent instantiation
    expected = sum(len(list(product(blocks, repeat=len(s.params)))) for s in dom.operators)
    assert task.num_actions == expected == 4 + 4 + 16 + 16


def test_duplicate_object_of_a_built_problem_rejected():
    """The parser rejects a repeated object or constant; ``ground`` still
    checks a ``ProblemDef`` or ``DomainDef`` built by hand."""
    dom = parse_domain(MOVE_DOMAIN)
    a = (("a", "object"),)
    for constants, objects, message in ((a + a, (), "duplicate constant 'a'"),
                                        ((), a + a, "duplicate object 'a'"),
                                        (a, a, "object 'a' is already a domain constant")):
        prob = ProblemDef(name="t", domain_name=dom.name, objects=objects)
        with pytest.raises(GroundingError, match=f"^{message}$"):
            ground(replace(dom, constants=constants), prob)


def test_static_preconditions_filter_instantiations():
    dom = parse_domain(CORRIDOR_DOMAIN)
    prob = parse_problem(
        "(define (problem c) (:domain corridor) (:objects n0 n1 n2 - node)"
        " (:init (at n0) (linked n0 n1) (linked n1 n2)))", dom)
    task = _ground_all(dom, prob)
    assert sorted(a.name for a in task.actions) == ["walk n0 n1", "walk n1 n2"]


def test_reachability_pruning_drops_unreachable_actions():
    dom = parse_domain(CORRIDOR_DOMAIN)
    # n2 -> n3 can never fire: n2 is unreachable from n0
    text = ("(define (problem c) (:domain corridor) (:objects n0 n1 n2 n3 - node)"
            " (:init (at n0) (linked n0 n1) (linked n2 n3)))")
    prob = parse_problem(text, dom)
    pruned = ground(dom, prob)
    full = _ground_all(dom, prob)
    assert sorted(a.name for a in pruned.actions) == ["walk n0 n1"]
    assert sorted(a.name for a in full.actions) == ["walk n0 n1", "walk n2 n3"]
    # the fact table still covers atoms of pruned actions
    assert "(at n3)" in pruned.fact_index


def test_grounding_deterministic():
    t1, t2 = _move_task(), _move_task()
    assert t1.facts == t2.facts
    assert [(a.name, a.pre, a.adds, a.dels) for a in t1.actions] == \
           [(a.name, a.pre, a.adds, a.dels) for a in t2.actions]


def test_action_name_round_trip():
    task = _move_task()
    for a in task.actions:
        assert task.action_index[a.name] == a.id
        assert a.text() == f"({a.name})"


def test_relaxed_reachable_on_chain():
    task = chain_task()
    facts, actions = relaxed_reachable(task)
    assert facts == {0, 1}
    assert actions == {0}


def test_ground_cap_env_override(monkeypatch):
    monkeypatch.setenv("OCGR_GROUND_CAP", "3")
    with pytest.raises(GroundingError, match="cap"):
        _move_task()
    monkeypatch.setenv("OCGR_GROUND_CAP", "100")
    assert _move_task().num_actions == 4
    for raw in ("abc", "-5", "0", "2.5", " 7"):
        monkeypatch.setenv("OCGR_GROUND_CAP", raw)
        with pytest.raises(ValueError, match="OCGR_GROUND_CAP must be a positive integer"):
            _move_task()


def test_grounding_warnings_stay_off_stderr_by_default():
    # pytest attaches handlers to the root logger, so check a bare interpreter
    code = ("import random\n"
            "from ocgr import bundle_from_texts\n"
            "from ocgr.generators import gen_blocks\n"
            "files = gen_blocks(random.Random(1)).files\n"
            "assert bundle_from_texts(dict(files), require_obs=False).task.num_actions\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


# --- reference implementations: the product-and-filter grounder and the
# repeat-until-stable reachability loop, kept to pin the fast ones down ---

def _fixpoint_reachable(task):
    reached = set(task.init)
    applicable = set()
    changed = True
    while changed:
        changed = False
        for a in task.actions:
            if a.id not in applicable and a.pre <= reached:
                applicable.add(a.id)
                if a.adds - reached:
                    reached |= a.adds
                    changed = True
    return frozenset(reached), frozenset(applicable)


def _brute_ground(dom, prob, prune_unreachable=True):
    """Every binding of the full type product, filtered on static preconditions."""
    objects = list(dom.constants) + list(prob.objects)
    dynamic = {lit[0] for sch in dom.operators for lit in sch.add + sch.delete}
    init_atoms = [atom_text(lit) for lit in prob.init]
    init_set = set(init_atoms)
    facts = {}
    for atom in init_atoms + [atom_text(lit) for lit in prob.goal]:
        facts.setdefault(atom, len(facts))
    actions = []
    for schema in dom.operators:
        pools = [sorted(o for o, t in objects if dom.is_subtype(t, want))
                 for _, want in schema.params]
        var_pos = {v: i for i, (v, _) in enumerate(schema.params)}
        for binding in product(*pools):
            def atom(lit):
                return atom_text((lit[0], *(binding[var_pos[a]] if a.startswith("?") else a
                                            for a in lit[1:])))
            if any(atom(lit) not in init_set for lit in schema.pre if lit[0] not in dynamic):
                continue
            pre, adds, dels = (frozenset(facts.setdefault(atom(lit), len(facts)) for lit in lits)
                               for lits in (schema.pre, schema.add, schema.delete))
            actions.append(GroundAction(id=len(actions), name=" ".join((schema.name,) + binding),
                                        pre=pre, adds=adds, dels=dels - adds))
    task = PlanningTask(facts=tuple(facts), actions=tuple(actions),
                        init=frozenset(facts[a] for a in init_atoms),
                        goal=frozenset(facts[atom_text(lit)] for lit in prob.goal))
    if prune_unreachable:
        _, applicable = _fixpoint_reachable(task)
        kept = [a for a in actions if a.id in applicable]
        task = PlanningTask(facts=task.facts, init=task.init, goal=task.goal, actions=tuple(
            GroundAction(id=i, name=a.name, pre=a.pre, adds=a.adds, dels=a.dels)
            for i, a in enumerate(kept)))
    return task


def _open_grid(n):
    cells = [f"c_{x}_{y}" for x in range(n) for y in range(n)]
    adj = [f"(adj-{d} c_{x}_{y} c_{x + dx}_{y + dy})"
           for x in range(n) for y in range(n)
           for dx, dy, d in ((0, 1, "up"), (0, -1, "down"), (-1, 0, "left"), (1, 0, "right"))
           if 0 <= x + dx < n and 0 <= y + dy < n]
    problem = (f"(define (problem open-{n}) (:domain grid-nav) (:objects {' '.join(cells)} - cell)"
               f" (:init (at c_0_0) {' '.join(adj)}) (:goal (at c_{n - 1}_{n - 1})))")
    return GRID_DOMAIN, problem, adj


# Each schema exercises one join case: a static literal with a constant
# (go-home), a repeated variable (stay), a 0-ary static predicate (switch), a
# static predicate with no init atoms (ghost), a subtype parameter whose init
# atoms also name objects of a sibling type (walk-room), no static
# precondition (wander), two static literals sharing a variable (hop), and a
# parameter no static literal binds, ordered between bound ones (beam).
EDGE_DOMAIN = """\
(define (domain edges)
  (:requirements :strips :typing)
  (:types room hall - place)
  (:constants home - room)
  (:predicates (at ?p - place) (lit ?p - place) (link ?a ?b - place)
               (same ?x ?y - place) (open) (unused ?p - place))
  (:action go-home :parameters (?from - place)
    :precondition (and (at ?from) (link ?from home))
    :effect (and (at home) (not (at ?from))))
  (:action stay :parameters (?x - place)
    :precondition (and (at ?x) (same ?x ?x)) :effect (lit ?x))
  (:action switch :parameters (?x - place)
    :precondition (and (at ?x) (open)) :effect (lit ?x))
  (:action ghost :parameters (?x - place)
    :precondition (unused ?x) :effect (lit ?x))
  (:action walk-room :parameters (?a ?b - room)
    :precondition (and (at ?a) (link ?a ?b))
    :effect (and (at ?b) (not (at ?a))))
  (:action wander :parameters (?a ?b - place)
    :precondition (at ?a) :effect (and (at ?b) (not (at ?a))))
  (:action hop :parameters (?a ?b ?c - place)
    :precondition (and (at ?a) (link ?a ?b) (link ?b ?c))
    :effect (and (at ?c) (not (at ?a))))
  (:action beam :parameters (?b - place ?x - hall ?a - place)
    :precondition (and (at ?a) (link ?a ?b))
    :effect (and (at ?b) (lit ?x) (not (at ?a))))
)
"""

EDGE_PROBLEM = """\
(define (problem e) (:domain edges)
  (:objects r2 r1 - room h2 h1 - hall)
  (:init (at r1) (link r1 h1) (link h1 r2) (link r2 home) (link h1 home)
         (link r1 r2) (link r1 h1) (link r2 r1) (same r1 r1) (same r2 h1) (same h2 h2)
         (same home r1) {extra})
  (:goal (at home)))
"""


def _equivalence_cases():
    bundles = [("demo", demo_grid_bundle().files)]
    for family, gen in sorted(GENERATORS.items()):
        for seed in range(3):
            bundles.append((f"{family}-{seed}", gen(random.Random(seed)).files))
    for name, files in bundles:
        yield name, files["domain.pddl"], files["template.pddl"]
    for n in (8, 10, 12):
        domain, problem, _ = _open_grid(n)
        yield f"open-{n}", domain, problem
    yield "edges", EDGE_DOMAIN, EDGE_PROBLEM.format(extra="")
    yield "edges-open", EDGE_DOMAIN, EDGE_PROBLEM.format(extra="(open)")


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("name,domain,problem", list(_equivalence_cases()),
                         ids=[c[0] for c in _equivalence_cases()])
def test_join_grounder_matches_product_and_filter(name, domain, problem, prune):
    dom = parse_domain(domain)
    prob = parse_problem(problem, dom)
    got, want = (ground if prune else _ground_all)(dom, prob), _brute_ground(dom, prob, prune)
    assert got.facts == want.facts
    assert [(a.id, a.name, a.pre, a.adds, a.dels) for a in got.actions] == \
           [(a.id, a.name, a.pre, a.adds, a.dels) for a in want.actions]
    assert got.init == want.init and got.goal == want.goal
    assert got == want


def test_edge_domain_join_cases():
    dom = parse_domain(EDGE_DOMAIN)
    task = _ground_all(dom, parse_problem(EDGE_PROBLEM.format(extra=""), dom))
    names = [a.name for a in task.actions]
    by_schema = {}
    for name in names:
        by_schema.setdefault(name.split()[0], []).append(name)
    assert by_schema["go-home"] == ["go-home h1", "go-home r2"]
    assert by_schema["stay"] == ["stay h2", "stay r1"]
    assert "switch" not in by_schema and "ghost" not in by_schema
    assert by_schema["walk-room"] == ["walk-room r1 r2", "walk-room r2 home", "walk-room r2 r1"]
    assert len(by_schema["wander"]) == 5 * 5
    assert by_schema["hop"][:3] == ["hop h1 r2 home", "hop h1 r2 r1", "hop r1 h1 home"]
    assert len(by_schema["hop"]) == 8
    assert by_schema["beam"][:3] == ["beam h1 h1 r1", "beam h1 h2 r1", "beam home h1 h1"]
    assert len(by_schema["beam"]) == 6 * 2
    opened = _ground_all(dom, parse_problem(EDGE_PROBLEM.format(extra="(open)"), dom))
    assert len([a for a in opened.actions if a.name.startswith("switch ")]) == 5


def test_open_30_grid_grounds_only_adjacent_moves():
    # the full type product here has 4 * 900**2 = 3.24M bindings; the join
    # visits only the 3,480 adjacent (direction, from, to) triples
    n = 30
    domain, problem, adj = _open_grid(n)
    dom = parse_domain(domain)
    task = _ground_all(dom, parse_problem(problem, dom))
    assert task.num_actions == 4 * n * (n - 1) == len(adj) == 3480
    assert sorted(f for f in task.facts if f.startswith("(adj-")) == sorted(adj)
    assert task.num_facts == len(adj) + n * n
    for a in task.actions:
        direction, frm, to = a.name.split()
        assert f"(adj-{direction[5:]} {frm} {to})" in adj


def test_ground_cap_raises_on_the_same_kept_action(monkeypatch):
    domain, problem, _ = _open_grid(30)
    dom = parse_domain(domain)
    prob = parse_problem(problem, dom)
    full = ground(dom, prob)
    built = []
    real = grounding.GroundAction

    def recording(**kw):
        built.append(kw["name"])
        return real(**kw)

    monkeypatch.setattr(grounding, "GroundAction", recording)
    monkeypatch.setenv("OCGR_GROUND_CAP", "2500")
    with pytest.raises(GroundingError, match=r"cap exceeded \(2500\)"):
        ground(dom, prob)
    assert built == [a.name for a in full.actions[:2500]]
    # on a grid small enough for the product-and-filter reference
    domain, problem, _ = _open_grid(8)
    dom = parse_domain(domain)
    prob = parse_problem(problem, dom)
    want = _brute_ground(dom, prob, prune_unreachable=False)
    built.clear()
    monkeypatch.setenv("OCGR_GROUND_CAP", str(want.num_actions - 1))
    with pytest.raises(GroundingError, match="cap"):
        ground(dom, prob)
    assert built == [a.name for a in want.actions[:-1]]
    monkeypatch.setenv("OCGR_GROUND_CAP", str(want.num_actions))
    assert ground(dom, prob).num_actions == want.num_actions


def _random_task(rng):
    n_facts = rng.randint(1, 8)
    actions = []
    for i in range(rng.randint(0, 10)):
        pre, adds, dels = (frozenset(rng.sample(range(n_facts), rng.randint(0, min(3, n_facts))))
                           for _ in range(3))
        actions.append(GroundAction(id=i, name=f"a{i}", pre=pre, adds=adds, dels=dels - adds))
    init = frozenset(rng.sample(range(n_facts), rng.randint(0, n_facts)))
    return PlanningTask(facts=tuple(f"(f{j})" for j in range(n_facts)), actions=tuple(actions),
                        init=init, goal=frozenset())


def test_counter_reachability_matches_fixpoint_on_random_tasks():
    rng = random.Random(7)
    for _ in range(500):
        task = _random_task(rng)
        assert relaxed_reachable(task) == _fixpoint_reachable(task)
        start = frozenset(rng.sample(range(task.num_facts), rng.randint(0, task.num_facts)))
        task = replace(task, init=start)
        assert relaxed_reachable(task) == _fixpoint_reachable(task)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_counter_reachability_matches_fixpoint_on_generated_tasks(family):
    rng = random.Random(3)
    for seed in range(3):
        files = GENERATORS[family](random.Random(seed)).files
        dom = parse_domain(files["domain.pddl"])
        task = _ground_all(dom, parse_problem(files["template.pddl"], dom))
        assert relaxed_reachable(task) == _fixpoint_reachable(task)
        for _ in range(5):
            start = frozenset(rng.sample(range(task.num_facts), rng.randint(0, 6)))
            moved = replace(task, init=start)
            assert relaxed_reachable(moved) == _fixpoint_reachable(moved)
