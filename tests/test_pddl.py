import hashlib
import random
import re
from typing import Iterator

import pytest

import conftest
from conftest import CHAIN_DOMAIN, CHAIN_PROBLEM, MOVE_DOMAIN
from ocgr.errors import PddlParseError, UnsupportedFeatureError
from ocgr.generators import BLOCKS_DOMAIN, GENERATORS, LOGISTICS_DOMAIN
from ocgr.pddl import parse_domain, parse_problem, parse_sexpr
from references import reference_parse_sexpr


def test_minimal_move_domain():
    dom = parse_domain(MOVE_DOMAIN)
    assert dom.name == "mover"
    assert len(dom.operators) == 1
    schema = dom.operators[0]
    assert schema.name == "move"
    assert [v for v, _ in schema.params] == ["?a", "?b"]
    assert dom.predicates["at"] == ("object",)


def test_blocks_domain_has_four_schemas():
    dom = parse_domain(BLOCKS_DOMAIN)
    assert [s.name for s in dom.operators] == ["pick-up", "put-down", "stack", "unstack"]
    assert set(dom.predicates) == {"on", "ontable", "clear", "handempty", "holding"}


def test_typed_logistics_domain():
    dom = parse_domain(LOGISTICS_DOMAIN)
    assert {t for t in dom.types} == {"package", "truck", "airplane", "location", "city"}
    drive = next(s for s in dom.operators if s.name == "drive")
    assert drive.params == (("?t", "truck"), ("?from", "location"),
                            ("?to", "location"), ("?c", "city"))


def test_conditional_effects_rejected():
    text = """(define (domain bad) (:predicates (p) (q))
      (:action a :parameters () :precondition (p)
        :effect (when (p) (q))))"""
    with pytest.raises(UnsupportedFeatureError, match="conditional"):
        parse_domain(text)


def test_negative_preconditions_rejected():
    text = """(define (domain bad) (:predicates (p) (q))
      (:action a :parameters () :precondition (not (q)) :effect (p)))"""
    with pytest.raises(UnsupportedFeatureError, match="negative-preconditions"):
        parse_domain(text)


def test_unsupported_requirement_named():
    text = "(define (domain bad) (:requirements :strips :adl))"
    with pytest.raises(UnsupportedFeatureError, match=":adl"):
        parse_domain(text)


def test_quantified_precondition_rejected():
    text = """(define (domain bad) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (forall (?y) (p ?y)) :effect (p ?x)))"""
    with pytest.raises(UnsupportedFeatureError):
        parse_domain(text)


def test_syntax_error_carries_position():
    with pytest.raises(PddlParseError) as err:
        parse_domain("(define (domain x) (:predicates (p)")
    assert "line" in str(err.value)


def test_undeclared_predicate_in_action():
    text = """(define (domain bad) (:predicates (p))
      (:action a :parameters () :precondition (p) :effect (q)))"""
    with pytest.raises(PddlParseError, match=r"undeclared predicate 'q' in effect of 'a' \(line 2, col 60\)"):
        parse_domain(text)


def test_arity_mismatch_in_action():
    text = """(define (domain bad) (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (p ?x ?x) :effect (p ?x)))"""
    with pytest.raises(PddlParseError, match=r"arity mismatch .*: expected 1, got 2 \(line 2, col 50\)"):
        parse_domain(text)


def test_duplicate_predicate_rejected():
    with pytest.raises(PddlParseError, match="duplicate predicate"):
        parse_domain("(define (domain bad) (:predicates (p) (p ?x)))")


def test_problem_with_goal():
    dom = parse_domain(CHAIN_DOMAIN)
    prob = parse_problem(CHAIN_PROBLEM, dom)
    assert prob.goal == (("q",),)
    assert prob.init == (("p",),)


def test_template_problem_without_goal():
    dom = parse_domain(CHAIN_DOMAIN)
    prob = parse_problem("(define (problem t) (:domain chain) (:init (p)))", dom)
    assert prob.goal == ()


def test_init_with_undeclared_predicate():
    dom = parse_domain(CHAIN_DOMAIN)
    with pytest.raises(PddlParseError, match=r"undeclared predicate 'zzz' in :init \(line 1, col 45\)"):
        parse_problem("(define (problem t) (:domain chain) (:init (zzz)))", dom)


def test_undeclared_object_type():
    dom = parse_domain(LOGISTICS_DOMAIN)
    with pytest.raises(PddlParseError, match="undeclared type"):
        parse_problem("(define (problem t) (:domain logi) (:objects x - widget))", dom)


def test_unknown_object_in_atom():
    dom = parse_domain(MOVE_DOMAIN)
    with pytest.raises(PddlParseError, match=r"unknown term 'y' in :init \(line 1, col 58\)"):
        parse_problem("(define (problem t) (:domain mover) (:objects x) (:init (at y)))", dom)


def test_negated_init_atom_rejected():
    dom = parse_domain(CHAIN_DOMAIN)
    with pytest.raises(PddlParseError, match="negated"):
        parse_problem("(define (problem t) (:domain chain) (:init (not (p))))", dom)


def test_template_must_name_its_domain():
    dom = parse_domain(CHAIN_DOMAIN)
    prob = parse_problem("(define (problem t) (:domain CHAIN) (:init (p)))", dom)
    assert prob.domain_name == "chain"
    with pytest.raises(PddlParseError,
                       match=r"problem is for domain 'mover', not 'chain' \(line 2, col 11\)"):
        parse_problem("(define (problem t)\n (:domain mover) (:init (p)))", dom)
    with pytest.raises(PddlParseError, match=r"domain '', not 'chain' \(line 1, col 22\)"):
        parse_problem("(define (problem t) (:domain) (:init (p)))", dom)


def test_repeated_domain_section_rejected():
    dom = parse_domain(CHAIN_DOMAIN)
    with pytest.raises(PddlParseError,
                       match=r"repeated \(:domain \.\.\.\) section \(line 3, col 3\)"):
        parse_problem("(define (problem t)\n (:domain chain) (:init (p))\n (:domain chain))", dom)
    with pytest.raises(PddlParseError, match="repeated"):
        parse_problem("(define (problem t) (:domain chain) (:domain mover))", dom)
    assert parse_problem("(define (problem t) (:init (p)))", dom).domain_name == ""


def test_case_insensitive_parsing():
    dom = parse_domain(CHAIN_DOMAIN.replace("(p)", "(P)").replace("chain", "Chain"))
    assert dom.name == "chain"
    assert "p" in dom.predicates


def test_cyclic_types_rejected():
    """The error points at the named type's token in :types."""
    for types, where in (("a - b b - a c", r"'b' \(line 1, col 36\)"),
                         ("a - a", r"'a' \(line 1, col 30\)"),
                         ("c - a a - b b - a", r"'a' \(line 1, col 36\)"),
                         ("c\n  a - a", r"'a' \(line 2, col 3\)")):
        with pytest.raises(PddlParseError, match=f"cyclic type hierarchy through {where}"):
            parse_domain(f"(define (domain cyc) (:types {types}) (:predicates (p ?x - c))"
                         " (:action go :parameters (?x - c) :precondition (p ?x) :effect ()))")


def test_duplicate_object_rejected_at_its_second_token():
    dom = parse_domain("(define (domain k) (:constants k1) (:predicates (p ?x)))")
    for objects, message in (("(:objects o\n  o)", r"duplicate object 'o' \(line 2, col 3\)"),
                             ("(:objects o) (:objects x o)",
                              r"duplicate object 'o' \(line 1, col 58\)"),
                             ("(:objects o k1)",
                              r"object 'k1' is already a domain constant \(line 1, col 45\)")):
        with pytest.raises(PddlParseError, match=message):
            parse_problem(f"(define (problem t) (:domain k) {objects})", dom)
    for constants, message in (("(:constants c\n  c)", r"duplicate constant 'c' \(line 2, col 3\)"),
                               ("(:constants c - object) (:constants x c)",
                                r"duplicate constant 'c' \(line 1, col 58\)")):
        with pytest.raises(PddlParseError, match=message):
            parse_domain(f"(define (domain k) {constants} (:predicates (p ?x)))")


def test_duplicate_action_rejected():
    with pytest.raises(PddlParseError, match=r"duplicate action 'a' \(line 3, col 5\)"):
        parse_domain("(define (domain dup) (:predicates (p) (q))\n"
                     "  (:action a :effect (p))\n   (:action A :effect (q)))")


def test_nested_precondition_head_rejected():
    with pytest.raises(PddlParseError, match=r"malformed atom in precondition of 'a'"):
        parse_domain("(define (domain n) (:predicates (p)) (:action a :precondition ((p) (p))))")


@pytest.mark.parametrize("text, message", [
    ("(define (domain (x)) (:predicates (p)))", r"nested form as domain name \(line 1, col 18\)"),
    ("(define (domain d) (:requirements :strips (:typing)) (:predicates (p)))",
     r"nested form as requirement \(line 1, col 44\)"),
    ("(define (domain d) (:requirements :strips ()) (:predicates (p)))",
     r"nested form as requirement \(line 1, col 43\)"),
], ids=["domain-name", "requirement", "empty-requirement"])
def test_nested_form_as_domain_name_or_requirement_rejected(text, message):
    with pytest.raises(PddlParseError, match=message) as err:
        parse_domain(text)
    assert type(err.value) is PddlParseError


@pytest.mark.parametrize("text, message", [
    ("(define (domain d) (:predicates (p ())))",
     r"nested form in predicate 'p' list \(line 1, col 36\)"),
    ("(define (domain d)\n  (:types a ()))", r"nested form in types list \(line 2, col 13\)"),
    ("(define (domain d) ())", r"malformed domain section \(line 1, col 20\)"),
], ids=["predicate", "types", "section"])
def test_empty_form_error_carries_its_position(text, message):
    with pytest.raises(PddlParseError, match=message):
        parse_domain(text)


@pytest.mark.parametrize("text, message", [
    ("(define (problem (t)) (:domain d) (:init (p)))", r"nested form as problem name \(line 1, col 19\)"),
    ("(define (problem t) (:domain (d)) (:init (p)))", r"nested form as domain name \(line 1, col 31\)"),
], ids=["problem-name", "domain-name"])
def test_nested_form_as_problem_or_domain_name_rejected(text, message):
    with pytest.raises(PddlParseError, match=message):
        parse_problem(text, parse_domain("(define (domain d) (:predicates (p)))"))


@pytest.mark.parametrize("text, message", [
    ("(foo)", r"domain file must start with \(define \.\.\.\) \(line 1, col 2\)"),
    ("(define x)", r"missing \(domain <name>\) declaration \(line 1, col 9\)"),
    ("(define\n  (domain))", r"missing \(domain <name>\) declaration \(line 2, col 4\)"),
], ids=["no-define", "atom-declaration", "nameless-declaration"])
def test_header_errors_carry_the_position_of_what_they_reject(text, message):
    with pytest.raises(PddlParseError, match=message):
        parse_domain(text)


_TYPED_DOMAIN = "(define (domain d) (:types t)\n{}\n (:predicates (p)))"


@pytest.mark.parametrize("body, message", [
    ("(:action a :parameters (?x x))", r"parameter 'x' of 'a' must start with '\?' \(line 2, col 28\)"),
    ("(:action a :parameters (?x ?y ?x))",
     r"duplicate parameter name in action 'a' \(line 2, col 31\)"),
    ("(:action a :parameters (?x - t ?y - foo))",
     r"parameter of action 'a' has undeclared type 'foo' \(line 2, col 37\)"),
    (" (:constants c - foo)", r"constant 'c' has undeclared type 'foo' \(line 2, col 18\)"),
], ids=["no-question-mark", "duplicate-parameter", "parameter-type", "constant-type"])
def test_parameter_and_type_errors_carry_the_position_of_their_token(body, message):
    with pytest.raises(PddlParseError, match=message):
        parse_domain(_TYPED_DOMAIN.format(body))


def test_undeclared_object_type_points_at_the_type():
    dom = parse_domain(LOGISTICS_DOMAIN)
    message = r"object 'x' has undeclared type 'widget' \(line 2, col 7\)"
    with pytest.raises(PddlParseError, match=message):
        parse_problem("(define (problem t) (:domain logi) (:objects x\n  y - widget))", dom)


def _family_files() -> list[str]:
    """Domain, template and hypothesis files of seeds 0-2 of each generator family."""
    return [text for gen in GENERATORS.values() for seed in range(3)
            for text in gen(random.Random(seed)).values()]


def _shape(node: object) -> object:
    if isinstance(node, list):
        return [_shape(x) for x in node]
    return (str(node), node.line, node.col)


def _sexpr_outcome(read, text: str) -> object:
    try:
        return _shape(read(text))
    except PddlParseError as err:
        return type(err).__name__, str(err)


def test_parse_sexpr_matches_two_pass_reader():
    texts = _family_files() + [getattr(conftest, n) for n in dir(conftest)
                               if n.endswith(("_DOMAIN", "_PROBLEM"))]
    texts += ["", " ; only a comment", "x", "x y", ")", "(", "(()", "(a))", "(a) b",
              "((a)\n", "(a\n;x (\n  B) ;t", "\r\n(a\x0b\xa0b)\u2028(", "(İx)"]
    pieces = ["(", ")", ";", "\n", "\t", "\r", " ", "\x0c", "\xa0", "x", "?Ab", "-", ";c\n"]
    rng = random.Random(13)
    for _ in range(3000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(pieces) + text[at:]
            else:
                text = text[:at] + text[at + rng.randint(1, 3):]
        texts.append(text)
    for text in texts:
        assert _sexpr_outcome(parse_sexpr, text) == \
            _sexpr_outcome(reference_parse_sexpr, text), repr(text)


# One input per construct the parser rejects, each wrapped by _REJECTED_DOMAIN
# or, for problem sections, added to the corridor template. Together with the
# mutations (which reach the two problem-header errors) they raise every error
# message of parse_domain and parse_problem.
_REJECTED_DOMAIN = "(define (domain r) (:requirements :strips :typing) (:types t) {})"
_REJECTED_DOMAIN_SECTIONS = [
    "(:predicates (p (x)))", "(:predicates (p ?x -))", "(:predicates (p) (p))", "(:predicates p)",
    "(:requirements :adl)", "(:functions (f))", "(:constants c - u)",
    "(:predicates (p)) (:action)", "(:predicates (p)) (:action a (p))",
    "(:predicates (p)) (:action a :effect)", "(:predicates (p)) (:action a :effect (p) :effect (p))",
    "(:predicates (p)) (:action a :parameters ?x)", "(:predicates (p)) (:action a :parameters (?x ?x))",
    "(:predicates (p)) (:action a :parameters (x))", "(:predicates (p)) (:action a :cost 1)",
    "(:predicates (p)) (:action a :parameters (?x - u))",
    "(:predicates (p)) (:action a :precondition (not (p)))",
    "(:predicates (p)) (:action a :precondition (= ?x ?x))",
    "(:predicates (p)) (:action a :precondition (or (p) (p)))",
    "(:predicates (p)) (:action a :precondition (imply (p) (p)))",
    "(:predicates (p)) (:action a :precondition (exists (?y) (p)))",
    "(:predicates (p)) (:action a :precondition (p ?y))",
    "(:predicates (p)) (:action a :precondition (q))",
    "(:predicates (p)) (:action a :effect (not (p) (p)))",
    "(:predicates (p)) (:action a :effect (forall (?y) (p)))",
    "(:predicates (p)) (:action a :effect (increase (p) 1))",
    "(:predicates (p)) (:action a :effect (p p))",
    "x",
]
_REJECTED_TEXTS = [
    "", "(", ")", "x", "(define (domain r)) x", "(domain r)", "(define (problem r))",
    "(define (domain r) x)", "(define (domain r) ())",
] + [_REJECTED_DOMAIN.format(s) for s in _REJECTED_DOMAIN_SECTIONS]
_REJECTED_PROBLEM_SECTIONS = [
    "(:objects n - room)", "(:objects (n))", "(:init (not (at n)))", "(:init (= (f) 1))",
    "(:init (at m))", "(:init (at))", "(:init at)", "(:goal (at n) (at n))",
    "(:goal (not (at n)))", "(:goal (or (at n)))", "(:metric minimize (total-cost))", "x",
]


def _outcome(parse, text: str) -> str:
    try:
        return repr(parse(text))
    except PddlParseError as err:
        return repr((type(err).__name__, str(err)))


def _token_mutations(texts: list[str], count: int, seed: int) -> list[str]:
    """Delete, duplicate, replace (by another token of the file) or swap with
    its successor one token, not the last, of a randomly chosen text, ``count``
    times."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        spans = [m.span() for m in re.finditer(r"[()]|[^\s();]+", text)]
        k = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[k], rng.choice(spans)
        op = rng.randrange(4)
        if op == 0:
            out.append(text[:a] + text[b:])
        elif op == 1:
            out.append(text[:b] + " " + text[a:])
        elif op == 2:
            out.append(text[:a] + text[c:d] + text[b:])
        else:
            c, d = spans[k + 1]
            out.append(text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:])
    return out


def _parser_outcomes() -> Iterator[str]:
    """``repr`` of the DomainDef/ProblemDef or of (exception type, message) for
    1,200 token-level mutations of the four families' domain files (seed 0),
    300 of each family's template file, and one input per rejected construct."""
    files = [GENERATORS[f](random.Random(0)) for f in sorted(GENERATORS)]
    for text in _token_mutations([f["domain.pddl"] for f in files], 1200, 1) + _REJECTED_TEXTS:
        yield _outcome(parse_domain, text)
    for seed, f in enumerate(files, start=2):
        dom = parse_domain(f["domain.pddl"])
        texts = _token_mutations([f["template.pddl"]], 300, seed)
        if "(domain corridor)" in f["domain.pddl"]:
            texts += [f["template.pddl"].replace("(:init", section + " (:init", 1)
                      for section in _REJECTED_PROBLEM_SECTIONS]
        for text in texts:
            yield _outcome(lambda t: parse_problem(t, dom), text)


def test_parser_outcomes_are_pinned():
    """Pins which error each malformed input gets, and so the order in which the
    checks run, which the reference reader cannot check. The value was computed
    with the two-pass reader and the per-file (define ...) checks, with a nested
    precondition head already rejected as a malformed atom, then recomputed when
    a nested form as a requirement was rejected instead of named by its repr
    (5 domain mutations with an empty form in :requirements), and again when an
    empty form ``()`` got the position of its ``(``: 30 errors that had none
    gained a ``(line N, col M)``, their messages otherwise unchanged (20 domain
    mutations: 9 nested forms in a predicate's list, 6 malformed predicate
    declarations, 2 malformed effect atoms, 2 non-keywords in an action, 1
    malformed section; 10 template mutations: 7 nested forms in :objects, 3
    malformed :init atoms), and again when a template's ``(:domain <name>)``
    had to name the domain it is parsed with: 12 template mutations moved (11
    that parsed now fail at the name -- 4 naming ``:domain``, 5 naming an
    object, 2 with no name -- and 1 malformed problem section that follows an
    empty ``(:domain)`` now fails at that earlier section), and again when the
    header checks and an empty form as a name got the position of the node they
    reject: 71 errors moved, their messages otherwise unchanged (66 gained a
    ``(line N, col M)``: 31 "missing (problem <name>) declaration", 19 "missing
    (domain <name>) declaration", 13 "problem file must start with (define
    ...)", 3 "domain file must start with (define ...)"; 5 "nested form as
    requirement" moved from the ``(:requirements`` to the empty ``()``), and
    again when literals were validated with their tokens at hand: 627 errors
    gained the ``(line N, col M)`` of the literal's predicate, their messages
    otherwise unchanged (263 domain mutations and rejected inputs, in action
    bodies: 162 arity mismatches, 76 undeclared predicates, 25 unknown terms;
    364 template mutations and rejected inputs, in :init: 194 arity
    mismatches, 110 undeclared predicates, 60 unknown terms), and again when
    parameter and type errors were raised with their tokens at hand: 79
    errors moved, their messages otherwise unchanged (58 domain mutations and
    rejected inputs gained the ``(line N, col M)`` of the token they reject:
    37 parameters not starting with ``?``, 13 duplicate parameter names, 7
    parameters and 1 constant of an undeclared type; 21 template mutations'
    "object ... has undeclared type" moved from the ``(:objects`` to the type
    token), and again when ``parse_problem`` rejected a repeated object at its
    second token: 34 template mutations moved (28 that parsed, with one object
    listed twice, now fail with "duplicate object '...' (line N, col M)"; 6
    that failed with "unknown term '...' in :init", where a mutation had
    replaced one object by another, now fail earlier at the repeated
    object)."""
    h = hashlib.sha256()
    for outcome in _parser_outcomes():
        h.update(outcome.encode() + b"\n")
    assert h.hexdigest() == \
        "d7a270b9415f3fdf8362e7541c972b548d53e498169c7171d8db07af520491e6"
