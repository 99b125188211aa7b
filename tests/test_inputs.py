import random
import re
from dataclasses import replace

import pytest

from conftest import with_template_goal
from ocgr import inputs
from ocgr.errors import PddlParseError
from ocgr.generators import CORRIDOR_DOMAIN, GENERATORS, demo_grid_bundle, write_bundle
from ocgr.grounding import ground
from ocgr.inputs import (GoalHypotheses, bundle_from_texts, load_bundle, parse_hypotheses,
                         parse_observations, parse_real_hyp)
from ocgr.pddl import parse_domain, parse_problem

# One corridor template; the two domains share the name ``corridor`` but
# only the first one's ``walk`` leaves its start node.
CORRIDOR_TEMPLATE = ("(define (problem c) (:domain corridor) (:objects s0 s1 s2 - node)"
                     " (:init (at s0) (linked s0 s1) (linked s1 s2)))")
STAY_DOMAIN = CORRIDOR_DOMAIN.replace("(and (at ?to) (not (at ?from)))", "(at ?to)")


def test_observation_counts(demo_bundle):
    task = demo_bundle.task
    a = task.actions[0].name
    b = task.actions[1].name
    obs = parse_observations(f"({a})\n({b})\n({a})\n", task)
    assert len(obs) == 3
    assert obs.counts == {0: 2, 1: 1}
    assert sum(obs.counts.values()) == len(obs)


def test_observation_empty_file(demo_bundle):
    obs = parse_observations("\n   \n; comment\n", demo_bundle.task)
    assert len(obs) == 0 and obs.counts == {}


def test_observation_unknown_action(demo_bundle):
    with pytest.raises(PddlParseError, match="line 2"):
        parse_observations("(move-up c_0_0 c_0_1)\n(teleport x)\n", demo_bundle.task)


def test_observation_multiset_invariant(demo_bundle):
    obs = demo_bundle.obs
    assert sum(obs.counts.values()) == len(obs) == 7


def test_hypotheses_two_lines(demo_bundle):
    hyps = parse_hypotheses("(at c_1_2)\n(at c_0_3)\n", demo_bundle.task)
    assert len(hyps) == 2
    assert hyps.hidden is None


def test_hypotheses_duplicates_collapse(demo_bundle):
    hyps = parse_hypotheses("(at c_1_2),(at c_1_2)\n", demo_bundle.task)
    assert len(hyps.goals[0]) == 1


def test_hypotheses_unknown_fluent(demo_bundle):
    with pytest.raises(PddlParseError, match="line 1"):
        parse_hypotheses("(at nowhere)\n", demo_bundle.task)


def test_real_hyp_matches_second_line(demo_bundle):
    hyps = parse_hypotheses("(at c_1_2)\n(at c_0_3)\n", demo_bundle.task)
    assert parse_real_hyp("(at c_0_3)\n", hyps) == 1


def test_real_hyp_must_match_verbatim(demo_bundle):
    hyps = parse_hypotheses("(at c_1_2)\n", demo_bundle.task)
    with pytest.raises(PddlParseError, match="does not match"):
        parse_real_hyp("(at c_9_9)\n", hyps)


@pytest.mark.parametrize("parse, text", [
    (parse_hypotheses, "(at c_1_2)\n(at c_1_2), (at c_0_3\n"),
    (parse_observations, "(move-right c_0_0 c_1_0)\n(move-right c_0_0 c_1_0) oops\n"),
    (parse_real_hyp, "; the actual goal\n(at c_1_2) x\n"),
])
def test_text_outside_groups_is_rejected(demo_bundle, parse, text):
    arg = demo_bundle.hyps if parse is parse_real_hyp else demo_bundle.task
    with pytest.raises(PddlParseError, match=r"text outside parentheses .*\(line 2\)"):
        parse(text, arg)


@pytest.mark.parametrize("parse, text, message", [
    (parse_hypotheses, "(at c_1_2)\nat c_0_3\n", "expected parenthesized fluents, got 'at c_0_3' "
                                                  "(line 2)"),
    (parse_observations, "(move-right c_0_0 c_1_0)\nmove-right c_1_0 c_2_0\n",
     "expected a parenthesized action, got 'move-right c_1_0 c_2_0' (line 2)"),
    (parse_real_hyp, "; the actual goal\n\n", "real_hyp.dat must contain exactly one line"),
    (parse_real_hyp, "(at c_1_2)\n; or\n(at c_0_3)\n", "real_hyp.dat must contain exactly one line"),
])
def test_dat_text_without_its_one_group_line_is_rejected(demo_bundle, parse, text, message):
    arg = demo_bundle.hyps if parse is parse_real_hyp else demo_bundle.task
    with pytest.raises(PddlParseError) as err:
        parse(text, arg)
    assert str(err.value) == message


def test_groups_may_be_separated_by_commas_and_whitespace(demo_bundle):
    hyps = parse_hypotheses(" (at c_1_2) ,\t(at c_0_3),\n", demo_bundle.task)
    assert hyps.lines == ("(at c_1_2) ,\t(at c_0_3),",) and len(hyps.goals[0]) == 2


def test_real_hyp_skips_comment_lines(demo_bundle):
    assert parse_real_hyp("; the actual goal\n(at c_0_3)\n", demo_bundle.hyps) == 1


def test_goal_hypotheses_check_themselves():
    goal = frozenset({0})
    for kwargs, message in [
            (dict(goals=(), lines=()), "at least one goal hypothesis is required"),
            (dict(goals=(goal,), lines=()), "1 goal hypotheses but 0 lines"),
            (dict(goals=(goal,), lines=("(p)",), hidden=1), "hidden index 1 out of range")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            GoalHypotheses(**kwargs)
    hyps = GoalHypotheses(goals=(goal,), lines=("(p)",))
    assert replace(hyps, hidden=0).hidden == 0
    with pytest.raises(ValueError, match="hidden index -1 out of range"):
        replace(hyps, hidden=-1)


def test_demo_bundle_contents(demo_bundle):
    assert demo_bundle.hyps.hidden == 0
    assert len(demo_bundle.hyps) == 2
    assert len(demo_bundle.obs) == 7
    assert demo_bundle.task.num_actions == 45


def test_load_bundle_from_directory(tmp_path):
    write_bundle(tmp_path / "demo", demo_grid_bundle())
    b = load_bundle(tmp_path / "demo")
    mem = bundle_from_texts(dict(demo_grid_bundle()))
    assert b.task.facts == mem.task.facts
    assert b.obs.obs == mem.obs.obs
    assert b.hyps.hidden == 0


def test_generators_return_their_bundle_files():
    """A generator returns a plain dict of the four bundle files; the demo adds obs.dat."""
    for family, gen in GENERATORS.items():
        files = gen(random.Random(1))
        assert type(files) is dict, family
        assert sorted(files) == ["domain.pddl", "hyps.dat", "real_hyp.dat", "template.pddl"], family
    demo = demo_grid_bundle()
    assert type(demo) is dict
    assert sorted(demo) == ["domain.pddl", "hyps.dat", "obs.dat", "real_hyp.dat", "template.pddl"]


def test_a_template_goal_is_checked_then_dropped():
    """A valid :goal leaves the task as it is without one; an invalid one
    fails the load like any other error in the file."""
    files = demo_grid_bundle()
    plain = bundle_from_texts(files).task
    goaled = bundle_from_texts(
        {**files, "template.pddl": with_template_goal(files["template.pddl"], "(at c_1_2)")}).task
    assert plain.goal == goaled.goal == frozenset()
    assert _task_view(goaled) == _task_view(plain)
    for goal, message in [("(not (at c_0_0))", "negative goal literal (:negative-preconditions) "
                                               "(line 50, col 11)"),
                          ("(at nowhere)", "unknown term 'nowhere' in :goal (line 50, col 11)")]:
        template = with_template_goal(files["template.pddl"], goal)
        with pytest.raises(PddlParseError, match=re.escape(message)):
            bundle_from_texts({**files, "template.pddl": template})


def test_load_bundle_missing_file(tmp_path):
    files = dict(demo_grid_bundle())
    del files["obs.dat"]
    write_bundle(tmp_path / "partial", files)
    with pytest.raises(PddlParseError, match="obs.dat"):
        load_bundle(tmp_path / "partial")
    # but fine when observations are not required
    b = load_bundle(tmp_path / "partial", require_obs=False)
    assert len(b.obs) == 0


def test_observations_multiple_groups_per_line(demo_bundle):
    task = demo_bundle.task
    a, b = task.actions[0].name, task.actions[1].name
    obs = parse_observations(f"({a})({b})({a})\n", task)
    assert len(obs) == 3 and obs.counts == {0: 2, 1: 1}


@pytest.fixture()
def parse_count(monkeypatch) -> list[str]:
    """The domain texts ``bundle_from_texts`` parses after loading a domain
    that no test here loads."""
    parsed: list[str] = []

    def counting(text):
        parsed.append(text)
        return parse_domain(text)

    bundle_from_texts({"domain.pddl": "(define (domain unused) (:predicates (p)))",
                       "template.pddl": "(define (problem u) (:domain unused) (:init (p)))",
                       "hyps.dat": "(p)\n"}, require_obs=False)
    monkeypatch.setattr(inputs, "parse_domain", counting)
    return parsed


def _ground_fresh(files: dict[str, str]):
    dom = parse_domain(files["domain.pddl"])
    return ground(dom, parse_problem(files["template.pddl"], dom))


def _task_view(task):
    return (task.facts, task.init,
            [(a.name, a.pre, a.adds, a.dels, a.cost) for a in task.actions])


def test_one_domain_text_is_parsed_once(parse_count):
    files = dict(demo_grid_bundle())
    first = bundle_from_texts(files)
    # an equal text, not the same string object
    second = bundle_from_texts({**files, "domain.pddl": files["domain.pddl"].encode().decode()})
    assert parse_count == [files["domain.pddl"]]
    assert _task_view(first.task) == _task_view(second.task)


@pytest.mark.parametrize("pair", ["families", "same-name"])
def test_alternating_domains_ground_as_a_fresh_parse(parse_count, pair):
    if pair == "families":
        rng = random.Random(3)
        a, b = (GENERATORS[family](rng) for family in ("grid", "blocks"))
    else:
        a, b = ({"domain.pddl": domain, "template.pddl": CORRIDOR_TEMPLATE,
                 "hyps.dat": "(at s2)\n"} for domain in (CORRIDOR_DOMAIN, STAY_DOMAIN))
    cases = [(files, _task_view(_ground_fresh(files))) for files in (a, b)]
    assert cases[0][1] != cases[1][1]
    for files, want in (*cases, cases[0]):
        assert _task_view(bundle_from_texts(files, require_obs=False).task) == want
    assert len(parse_count) == 3


def test_unparsable_domain_raises_alike_and_keeps_the_last_good_one(parse_count):
    good = dict(demo_grid_bundle())
    bad = {**good, "domain.pddl": "(define (domain b)\n  (:predicates (p))\n"
                                  "  (:action a :parameters () :precondition (p) :effect (q)))\n"}
    bundle_from_texts(good)
    raised = []
    for _ in range(2):
        with pytest.raises(PddlParseError) as info:
            bundle_from_texts(bad)
        raised.append((str(info.value), info.value.line, info.value.column))
    assert raised[0] == raised[1] == ("undeclared predicate 'q' in effect of 'a' (line 3, col 56)",
                                      3, 56)
    bundle_from_texts(good)
    assert parse_count == [good["domain.pddl"], bad["domain.pddl"], bad["domain.pddl"]]
