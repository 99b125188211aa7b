import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from conftest import MOVE_DOMAIN, chain_task
from ocgr.errors import GroundingError
from ocgr.generators import BLOCKS_DOMAIN, CORRIDOR_DOMAIN
from ocgr.grounding import ground, relaxed_reachable
from ocgr.pddl import parse_domain, parse_problem


def _move_task(prune=True, **kwargs):
    dom = parse_domain(MOVE_DOMAIN)
    prob = parse_problem(
        "(define (problem m) (:domain mover) (:objects x y) (:init (at x)))", dom)
    return ground(dom, prob, prune_unreachable=prune, **kwargs)


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
    task = ground(dom, prob, prune_unreachable=False)
    # independent enumeration: every type-consistent instantiation
    expected = sum(len(list(product(blocks, repeat=len(s.params)))) for s in dom.operators)
    assert task.num_actions == expected == 4 + 4 + 16 + 16


def test_static_preconditions_filter_instantiations():
    dom = parse_domain(CORRIDOR_DOMAIN)
    prob = parse_problem(
        "(define (problem c) (:domain corridor) (:objects n0 n1 n2 - node)"
        " (:init (at n0) (linked n0 n1) (linked n1 n2)))", dom)
    task = ground(dom, prob, prune_unreachable=False)
    assert sorted(a.name for a in task.actions) == ["walk n0 n1", "walk n1 n2"]


def test_reachability_pruning_drops_unreachable_actions():
    dom = parse_domain(CORRIDOR_DOMAIN)
    # n2 -> n3 can never fire: n2 is unreachable from n0
    text = ("(define (problem c) (:domain corridor) (:objects n0 n1 n2 n3 - node)"
            " (:init (at n0) (linked n0 n1) (linked n2 n3)))")
    prob = parse_problem(text, dom)
    pruned = ground(dom, prob, prune_unreachable=True)
    full = ground(dom, prob, prune_unreachable=False)
    assert sorted(a.name for a in pruned.actions) == ["walk n0 n1"]
    assert sorted(a.name for a in full.actions) == ["walk n0 n1", "walk n2 n3"]
    # the fact table still covers atoms of pruned actions
    assert "(at n3)" in pruned.fact_index


def test_grounding_cap():
    with pytest.raises(GroundingError, match="cap"):
        _move_task(prune=False, max_actions=3)


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
        _move_task(prune=False)
    monkeypatch.setenv("OCGR_GROUND_CAP", "100")
    assert _move_task(prune=False).num_actions == 4
    for raw in ("abc", "-5", "0", "2.5", " 7"):
        monkeypatch.setenv("OCGR_GROUND_CAP", raw)
        with pytest.raises(ValueError, match="OCGR_GROUND_CAP must be a positive integer"):
            _move_task(prune=False)


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
