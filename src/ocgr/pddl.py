"""Parser for the STRIPS subset of PDDL.

Supported: ``:strips`` and ``:typing``. Anything else (negative
preconditions, conditional effects, quantifiers, numeric fluents,
equality) is rejected with an error naming the construct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import PddlParseError, UnsupportedFeatureError

SUPPORTED_REQUIREMENTS = frozenset({":strips", ":typing"})

ROOT_TYPE = "object"


# a parenthesis, an atom or a comment; whitespace is skipped
_TOKEN = re.compile(r"[()]|[^\s();]+|;[^\n]*")
_COMMENT = re.compile(r";[^\n]*")


class _Source:
    """A parsed text. Where its tokens start is found only when a position is
    asked for, which is when an error is raised: ``parse_sexpr`` splits the
    text without offsets, and ``_TOKEN`` finds the same tokens, comments
    aside, in the same order."""

    __slots__ = ("text", "_offsets")

    def __init__(self, text: str) -> None:
        self.text = text
        self._offsets: list[int] | None = None

    def line_col(self, k: int) -> tuple[int, int]:
        """The line and column, both from 1, of token ``k``."""
        if self._offsets is None:
            self._offsets = [m.start() for m in _TOKEN.finditer(self.text) if m.group()[0] != ";"]
        at = self._offsets[k]
        return self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at)


class _Located:
    """A node that knows where it starts: ``_src`` is its source and ``_at``
    the index there of its token (its ``(`` for a form)."""

    __slots__ = ()
    _src: _Source
    _at: int

    @property
    def line(self) -> int:
        return self._src.line_col(self._at)[0]

    @property
    def col(self) -> int:
        return self._src.line_col(self._at)[1]


class Sym(_Located, str):
    """Atom token that remembers its source position; ``parse_sexpr`` sets
    ``_src`` and ``_at`` on each one it makes."""


class _EmptyForm(_Located, list):
    """An empty form ``()``, which has no atom to carry its position, so it
    remembers the position of its ``(``."""

    def __init__(self, src: _Source, at: int) -> None:
        super().__init__()
        self._src = src
        self._at = at


def parse_sexpr(text: str) -> list[object]:
    """Parse one top-level s-expression ``(define ...)``."""
    src = _Source(text)
    if ";" in text:
        text = _COMMENT.sub("", text)
    # with a space around each parenthesis, the tokens are the words
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise PddlParseError("empty input")
    stack: list[list[object]] = []  # the forms enclosing ``form``
    opens: list[int] = []  # the token index of each open form's '('
    form: list[object] = []  # the top level, then the innermost open form
    for k, tok in enumerate(tokens):
        if tok == "(":
            stack.append(form)
            opens.append(k)
            form = []
        elif tok == ")":
            if not stack:
                raise PddlParseError("unexpected ')'", *src.line_col(k))
            at = opens.pop()
            node = form or _EmptyForm(src, at)
            form = stack.pop()
            form.append(node)
            if not stack:
                break
        else:
            # names are case-insensitive; each token is lowercased on its own
            atom = Sym(tok.lower())
            atom._src = src
            atom._at = k
            form.append(atom)
            if not stack:
                break
    else:
        raise PddlParseError("unbalanced parenthesis", *src.line_col(opens[-1]))
    if k + 1 < len(tokens):
        raise PddlParseError("trailing content after top-level form", *src.line_col(k + 1))
    tree = form[0]
    if isinstance(tree, Sym):
        raise PddlParseError("expected a parenthesized form", tree.line, tree.col)
    return tree


def _pos(node: object) -> tuple[int, int]:
    """Where ``node`` starts: its first atom, or the ``(`` of an empty form."""
    while not isinstance(node, (Sym, _EmptyForm)):
        node = node[0]
    return node.line, node.col


def _name(node: object, what: str) -> str:
    """The atom ``node`` as a plain string; a nested form is rejected where it starts."""
    if not isinstance(node, Sym):
        raise PddlParseError(f"nested form as {what}", *_pos(node))
    return str(node)


def _parse_typed_list(items: list[object], what: str) -> list[tuple[Sym, Sym | str]]:
    """Parse ``a b - t c d`` into [(a, t), (b, t), (c, object), (d, object)]:
    each name takes the type after the next ``-``, or ``object`` if none
    follows. Names and written types stay tokens, so a check of either can
    point at it."""
    out: list[tuple[Sym, Sym | str]] = []
    pending: list[Sym] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, Sym):
            raise PddlParseError(f"nested form in {what} list", *_pos(tok))
        if tok == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], Sym):
                raise PddlParseError(f"missing type after '-' in {what} list", tok.line, tok.col)
            typ = items[i + 1]
            for name in pending:
                out.append((name, typ))
            pending = []
            i += 2
            continue
        pending.append(tok)
        i += 1
    for name in pending:
        out.append((name, ROOT_TYPE))
    return out


@dataclass(frozen=True)
class OperatorSchema:
    """Lifted STRIPS operator: typed parameters, positive preconditions,
    add and delete lists."""

    name: str
    params: tuple[tuple[str, str], ...]
    pre: tuple[tuple[str, ...], ...]
    add: tuple[tuple[str, ...], ...]
    delete: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class DomainDef:
    name: str
    types: dict[str, str] = field(default_factory=dict)  # child -> parent
    predicates: dict[str, tuple[str, ...]] = field(default_factory=dict)
    operators: tuple[OperatorSchema, ...] = ()
    constants: tuple[tuple[str, str], ...] = ()
    requirements: tuple[str, ...] = ()

    def is_subtype(self, typ: str, ancestor: str) -> bool:
        if ancestor == ROOT_TYPE:
            return True
        cur: str | None = typ
        while cur is not None:
            if cur == ancestor:
                return True
            cur = self.types.get(cur)
        return False


@dataclass(frozen=True)
class ProblemDef:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...] = ()
    init: tuple[tuple[str, ...], ...] = ()
    goal: tuple[tuple[str, ...], ...] = ()


def atom_text(literal: tuple[str, ...]) -> str:
    return "(" + " ".join(literal) + ")"


def _check_atom(node: object, what: str) -> tuple[Sym, ...]:
    """The atom ``node`` as its tokens, which keep their positions until
    ``_validate_literals`` has checked them."""
    if not isinstance(node, list) or not node or not all(isinstance(x, Sym) for x in node):
        raise PddlParseError(f"malformed atom in {what}", *_pos(node))
    return tuple(node)


_COMPOUND_PRE = {
    "or": "disjunctive preconditions",
    "imply": "implication preconditions",
    "exists": "existential quantifiers",
    "forall": "universal quantifiers",
    "when": "conditional effects",
}


def _flatten_conjunction(node: object) -> list[object]:
    if isinstance(node, list) and node and node[0] == "and":
        return list(node[1:])
    if isinstance(node, list) and not node:
        return []
    return [node]


def _parse_precondition(node: object, name: str) -> list[tuple[Sym, ...]]:
    atoms: list[tuple[Sym, ...]] = []
    for part in _flatten_conjunction(node):
        if isinstance(part, list) and part:
            head = part[0]
            if head == "not":
                raise UnsupportedFeatureError(
                    f"negative precondition in action '{name}' (:negative-preconditions)", *_pos(part))
            if head == "=":
                raise UnsupportedFeatureError(
                    f"equality in action '{name}' (:equality)", *_pos(part))
            if isinstance(head, Sym) and head in _COMPOUND_PRE:
                raise UnsupportedFeatureError(
                    f"{_COMPOUND_PRE[str(head)]} in action '{name}'", *_pos(part))
        atoms.append(_check_atom(part, f"precondition of '{name}'"))
    return atoms


def _parse_effect(node: object, name: str) -> tuple[list[tuple[Sym, ...]], list[tuple[Sym, ...]]]:
    adds: list[tuple[Sym, ...]] = []
    dels: list[tuple[Sym, ...]] = []
    for part in _flatten_conjunction(node):
        if isinstance(part, list) and part:
            head = part[0]
            if head == "not":
                if len(part) != 2:
                    raise PddlParseError(f"malformed delete effect in '{name}'", *_pos(part))
                dels.append(_check_atom(part[1], f"effect of '{name}'"))
                continue
            if head == "when" or head == "forall":
                raise UnsupportedFeatureError(
                    f"conditional/quantified effect in action '{name}'", *_pos(part))
            if head in ("increase", "decrease", "assign", "scale-up", "scale-down"):
                raise UnsupportedFeatureError(
                    f"numeric fluent effect in action '{name}'", *_pos(part))
        adds.append(_check_atom(part, f"effect of '{name}'"))
    return adds, dels


def _validate_literals(literals: list[tuple[Sym, ...]], predicates: dict[str, tuple[str, ...]],
                       known_terms: set[str], where: str) -> tuple[tuple[str, ...], ...]:
    """The literals as plain strings, once each names a declared predicate
    with its arity and known terms; an error carries the literal's position."""
    for lit in literals:
        pred = lit[0]
        params = predicates.get(pred)
        if params is None:
            raise PddlParseError(f"undeclared predicate '{pred}' in {where}", pred.line, pred.col)
        if len(lit) != len(params) + 1:
            raise PddlParseError(
                f"arity mismatch for '{pred}' in {where}: "
                f"expected {len(params)}, got {len(lit) - 1}", pred.line, pred.col)
        if not known_terms.issuperset(lit[1:]):
            bad = next(a for a in lit[1:] if a not in known_terms)
            raise PddlParseError(f"unknown term '{bad}' in {where}", pred.line, pred.col)
    # a token holds no whitespace, so splitting the joined literal gives its
    # tokens back as plain strings, faster than converting each one
    return tuple(tuple(" ".join(lit).split(" ")) for lit in literals)


def _read_define(text: str, kind: str) -> tuple[str, Iterator[tuple[str, list[object]]]]:
    """Check the ``(define (<kind> <name>) ...)`` header; return the name and the
    sections with their head keyword. Each section is checked only when reached, so
    an error inside an earlier section is reported before a malformed later one."""
    tree = parse_sexpr(text)
    if not tree or tree[0] != "define":
        raise PddlParseError(f"{kind} file must start with (define ...)", *_pos(tree))
    if len(tree) < 2 or not isinstance(tree[1], list) or len(tree[1]) != 2 or tree[1][0] != kind:
        raise PddlParseError(f"missing ({kind} <name>) declaration",
                             *_pos(tree[1] if len(tree) > 1 else tree))

    def sections() -> Iterator[tuple[str, list[object]]]:
        for section in tree[2:]:
            if not isinstance(section, list) or not section or not isinstance(section[0], Sym):
                raise PddlParseError(f"malformed {kind} section", *_pos(section))
            yield str(section[0]), section

    return _name(tree[1][1], f"{kind} name"), sections()


def parse_domain(text: str) -> DomainDef:
    name, sections = _read_define(text, "domain")

    requirements: tuple[str, ...] = ()
    types: dict[str, str] = {}
    predicates: dict[str, tuple[str, ...]] = {}
    constants: list[tuple[Sym, Sym | str]] = []
    operators: list[OperatorSchema] = []
    typed: list[tuple[str, Sym | str]] = []  # (what, type token), checked after all sections
    declared: dict[str, Sym] = {}  # each type given a parent in :types, to its token there

    for head, section in sections:
        if head == ":requirements":
            requirements = tuple(_name(r, "requirement") for r in section[1:])
            for r in requirements:
                if r not in SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeatureError(
                        f"requirement '{r}' is not supported", *_pos(section))
        elif head == ":types":
            for child, parent in _parse_typed_list(section[1:], "types"):
                types[str(child)] = str(parent)
                types.setdefault(str(parent), ROOT_TYPE)
                declared[str(child)] = child
            types.pop(ROOT_TYPE, None)
        elif head == ":constants":
            for c, ctype in _parse_typed_list(section[1:], "constants"):
                if c in (d for d, _ in constants):
                    raise PddlParseError(f"duplicate constant '{c}'", c.line, c.col)
                constants.append((c, ctype))
        elif head == ":predicates":
            for p in section[1:]:
                if not isinstance(p, list) or not p or not isinstance(p[0], Sym):
                    raise PddlParseError("malformed predicate declaration", *_pos(p))
                pname = str(p[0])
                if pname in predicates:
                    raise PddlParseError(f"duplicate predicate '{pname}'", *_pos(p))
                params = _parse_typed_list(p[1:], f"predicate '{pname}'")
                predicates[pname] = tuple(str(t) for _, t in params)
        elif head == ":action":
            schema, params = _parse_action(section, predicates, constants)
            if any(s.name == schema.name for s in operators):
                raise PddlParseError(f"duplicate action '{schema.name}'", *_pos(section))
            operators.append(schema)
            typed += ((f"parameter of action '{schema.name}'", t) for _, t in params)
        else:
            raise UnsupportedFeatureError(
                f"domain section '{head}' is not supported", *_pos(section))

    for child in types:
        # every parent is a key of ``types`` or the root, so len(types) steps
        # up from any type reach the root unless the hierarchy has a cycle
        typ = child
        for _ in types:
            typ = types.get(typ, ROOT_TYPE)
        if typ != ROOT_TYPE:
            # only a type declared with a parent can lie on a cycle
            raise PddlParseError(f"cyclic type hierarchy through '{typ}'", *_pos(declared[typ]))
    # a type left out is the root, which is known, so an unknown one is a token
    known_types = set(types) | {ROOT_TYPE}
    for what, typ in typed + [(f"constant '{c}'", t) for c, t in constants]:
        if typ not in known_types:
            raise PddlParseError(f"{what} has undeclared type '{typ}'", *_pos(typ))

    return DomainDef(name=name, types=types, predicates=predicates,
                     operators=tuple(operators),
                     constants=tuple((str(c), str(t)) for c, t in constants),
                     requirements=requirements)


def _parse_action(section: list[object], predicates: dict[str, tuple[str, ...]],
                  constants: list[tuple[Sym, Sym | str]]
                  ) -> tuple[OperatorSchema, list[tuple[Sym, Sym | str]]]:
    """The schema, and its parameters as tokens, whose types the caller
    checks once every type is declared."""
    if len(section) < 2 or not isinstance(section[1], Sym):
        raise PddlParseError("action without a name", *_pos(section))
    name = str(section[1])
    params: list[tuple[Sym, Sym | str]] = []
    pre: list[tuple[Sym, ...]] = []
    adds: list[tuple[Sym, ...]] = []
    dels: list[tuple[Sym, ...]] = []
    i = 2
    seen: set[str] = set()
    while i < len(section):
        key = section[i]
        if not isinstance(key, Sym) or not str(key).startswith(":"):
            raise PddlParseError(f"expected keyword in action '{name}'", *_pos(key))
        if i + 1 >= len(section):
            raise PddlParseError(f"missing value for '{key}' in action '{name}'", key.line, key.col)
        value = section[i + 1]
        k = str(key)
        if k in seen:
            raise PddlParseError(f"duplicate '{k}' in action '{name}'", key.line, key.col)
        seen.add(k)
        if k == ":parameters":
            if not isinstance(value, list):
                raise PddlParseError(f"malformed parameters of '{name}'", key.line, key.col)
            params = _parse_typed_list(value, f"parameters of '{name}'")
            names = [v for v, _ in params]
            for j, v in enumerate(names):
                if v in names[:j]:
                    raise PddlParseError(f"duplicate parameter name in action '{name}'",
                                         v.line, v.col)
            for v in names:
                if not v.startswith("?"):
                    raise PddlParseError(f"parameter '{v}' of '{name}' must start with '?'",
                                         v.line, v.col)
        elif k == ":precondition":
            pre = _parse_precondition(value, name)
        elif k == ":effect":
            adds, dels = _parse_effect(value, name)
        else:
            raise UnsupportedFeatureError(f"action keyword '{k}' is not supported", key.line, key.col)
        i += 2

    known_terms = {v for v, _ in params} | {c for c, _ in constants}
    return OperatorSchema(
        name=name, params=tuple((str(v), str(t)) for v, t in params),
        pre=_validate_literals(pre, predicates, known_terms, f"precondition of '{name}'"),
        add=_validate_literals(adds, predicates, known_terms, f"effect of '{name}'"),
        delete=_validate_literals(dels, predicates, known_terms, f"effect of '{name}'")), params


def parse_problem(text: str, dom: DomainDef) -> ProblemDef:
    name, sections = _read_define(text, "problem")

    domain_name: str | None = None
    objects: list[tuple[str, str]] = []
    init: list[tuple[Sym, ...]] = []
    goal: list[tuple[Sym, ...]] = []

    known_types = set(dom.types) | {ROOT_TYPE}
    constants = {c for c, _ in dom.constants}
    names: set[str] = set()  # the objects so far

    for head, section in sections:
        if head == ":domain":
            if domain_name is not None:
                raise PddlParseError("repeated (:domain ...) section", *_pos(section))
            domain_name = _name(section[1], "domain name") if len(section) > 1 else ""
            if domain_name != dom.name:
                raise PddlParseError(f"problem is for domain '{domain_name}', not '{dom.name}'",
                                     *_pos(section[1] if len(section) > 1 else section))
        elif head == ":objects":
            for oname, otype in _parse_typed_list(section[1:], "objects"):
                if oname in constants:
                    raise PddlParseError(f"object '{oname}' is already a domain constant",
                                         oname.line, oname.col)
                if oname in names:
                    raise PddlParseError(f"duplicate object '{oname}'", oname.line, oname.col)
                names.add(oname)
                if otype not in known_types:
                    raise PddlParseError(
                        f"object '{oname}' has undeclared type '{otype}'", *_pos(otype))
                objects.append((str(oname), str(otype)))
        elif head == ":init":
            for part in section[1:]:
                if isinstance(part, list) and part and part[0] == "not":
                    raise PddlParseError("negated atom in :init is not allowed", *_pos(part))
                if isinstance(part, list) and part and part[0] == "=":
                    raise UnsupportedFeatureError("numeric fluent in :init", *_pos(part))
                init.append(_check_atom(part, ":init"))
        elif head == ":goal":
            if len(section) != 2:
                raise PddlParseError("malformed :goal section", *_pos(section))
            for part in _flatten_conjunction(section[1]):
                if isinstance(part, list) and part and part[0] == "not":
                    raise UnsupportedFeatureError(
                        "negative goal literal (:negative-preconditions)", *_pos(part))
                goal.append(_check_atom(part, ":goal"))
        else:
            raise UnsupportedFeatureError(
                f"problem section '{head}' is not supported", *_pos(section))

    known_objects = names | constants
    return ProblemDef(name=name, domain_name=domain_name or "", objects=tuple(objects),
                      init=_validate_literals(init, dom.predicates, known_objects, ":init"),
                      goal=_validate_literals(goal, dom.predicates, known_objects, ":goal"))
