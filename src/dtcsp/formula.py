"""Quantifier-free formulas over integer difference literals.

A literal compares two variables up to an integer offset:
``x <= y + c``, ``x < y + c``, ``x = y + c`` or ``x != y + c``.
Formulas are trees of AND / OR / NOT nodes over such literals; relations and
whole constraint languages are built on top of them.  Literal truth only
depends on variable differences, so equivalence of two formulas is decided
on the assignments with x1 = 0 and the other variables in ``[-R, R]``,
``R = (q + 1) * (nvars - 1)`` for q the largest absolute offset, into which
any separating assignment translates and gap-compresses (``_window``).
Both ``equivalent`` and ``reduce`` read packed truth tables over that
window (``grids.pinned_tables``): the first one table per formula, the
second one per distinct literal, for three passes over clauses of
literal ids.
``Formula.evaluate`` checks single points.  Over Z every literal but ``!=``
is a bound ``x_u - x_v <= w`` and ``!=`` splits exactly into ``<`` or
``>``, so a conjunction is a union of difference systems (``zones``); a
feasible one projects onto any ``x_i - x_j`` as an integer interval.
``classify.difference_profile`` reads those intervals off the closed
systems of a reduced DNF, and ``finite.decide_max_closed`` reads greatest
tuples off those of a DNF; ``Formula.reduced`` keeps both next to it.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import (
    ArityError,
    BudgetExceeded,
    DuplicateNameError,
    MissingVariableError,
    ParseError,
    SizeLimitExceeded,
)

DEFAULT_CLAUSE_BUDGET = 10**6
DEFAULT_ENUM_BUDGET = 10**8
# Clause-point evaluations one reduce may spend (see reduce).
DEFAULT_REDUCE_WORK = 10**9
# Nesting levels (``!``, ``(``, ``->``) one .dtl formula may open at once.
MAX_NESTING = 50


class Cmp(Enum):
    LEQ = "<="
    LT = "<"
    EQ = "="
    NEQ = "!="


_PY_OP = {Cmp.LEQ: "<=", Cmp.LT: "<", Cmp.EQ: "==", Cmp.NEQ: "!="}


@dataclass(frozen=True)
class Literal:
    """``value(lhs) cmp value(rhs) + offset``; lhs == rhs is legal (constant)."""

    lhs: int
    rhs: int
    cmp: Cmp
    offset: int = 0

    def holds(self, get) -> bool:
        a = get(self.lhs)
        b = get(self.rhs) + self.offset
        if self.cmp is Cmp.LEQ:
            return a <= b
        if self.cmp is Cmp.LT:
            return a < b
        if self.cmp is Cmp.EQ:
            return a == b
        return a != b

    def negated(self) -> "Literal":
        if self.cmp is Cmp.EQ:
            return Literal(self.lhs, self.rhs, Cmp.NEQ, self.offset)
        if self.cmp is Cmp.NEQ:
            return Literal(self.lhs, self.rhs, Cmp.EQ, self.offset)
        if self.cmp is Cmp.LEQ:
            # not(a <= b + c)  <=>  b < a - c
            return Literal(self.rhs, self.lhs, Cmp.LT, -self.offset)
        # not(a < b + c)  <=>  b <= a - c
        return Literal(self.rhs, self.lhs, Cmp.LEQ, -self.offset)

    def text(self) -> str:
        off = ""
        if self.offset > 0:
            off = f" + {self.offset}"
        elif self.offset < 0:
            off = f" - {-self.offset}"
        return f"x{self.lhs + 1} {self.cmp.value} x{self.rhs + 1}{off}"


@dataclass(frozen=True)
class And:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class Not:
    part: object


def _walk_literals(node):
    if isinstance(node, Literal):
        yield node
    elif isinstance(node, Not):
        yield from _walk_literals(node.part)
    else:
        for p in node.parts:
            yield from _walk_literals(p)


def _eval_node(node, get) -> bool:
    if isinstance(node, Literal):
        return node.holds(get)
    if isinstance(node, And):
        return all(_eval_node(p, get) for p in node.parts)
    if isinstance(node, Or):
        return any(_eval_node(p, get) for p in node.parts)
    return not _eval_node(node.part, get)


def _codegen(node, index) -> str:
    """Python text of ``node``, reading variable i as ``v[index[i]]``."""
    if isinstance(node, Literal):
        return (f"(v[{index[node.lhs]}] {_PY_OP[node.cmp]} "
                f"v[{index[node.rhs]}] + {node.offset})")
    if isinstance(node, And):
        if not node.parts:
            return "True"
        return "(" + " and ".join(_codegen(p, index) for p in node.parts) + ")"
    if isinstance(node, Or):
        if not node.parts:
            return "False"
        return "(" + " or ".join(_codegen(p, index) for p in node.parts) + ")"
    return f"(not {_codegen(node.part, index)})"


def compile_applied(pairs):
    """One fast predicate for several (formula, argument indices) checks.

    The returned callable takes the full value vector of an instance and
    evaluates the conjunction of all applied formulas with their argument
    positions substituted in.
    """
    if not pairs:
        return None
    exprs = [_codegen(f.root, idx) for f, idx in pairs]
    return eval("lambda v: " + " and ".join(exprs), {"__builtins__": {}})


_OR, _IMPL, _AND, _UNIT = range(4)  # contexts of a node, loosest first


def _format_node(root) -> str:
    """The text of ``root`` that opens the fewest nesting levels.

    The contexts (see ``_ExprParser``) are the whole formula or an operand
    of ``|``, the right of ``->``, its left, and an operand of ``&`` or
    ``!``.  Per context a node takes its shallowest spelling, the first on
    a tie: ``!``, ``&`` (fits the left of ``->``), ``|`` (the loosest
    only), ``a -> b`` for Or(!a, b) (fits the right of ``->``; b nests one
    level deeper), or the loosest one in parentheses.  The parts' choices
    are independent, so no text that parses to ``root`` nests less.
    """
    memo = {}

    def spell(node):  # per context, (depth, text)
        if id(node) in memo:
            return memo[id(node)]
        forms = []  # (tightest context it fits, depth, text)
        if isinstance(node, Not):
            depth, text = spell(node.part)[_UNIT]
            forms.append((_UNIT, depth + 1, "!" + text))
        elif isinstance(node, Literal) or not node.parts:
            text = (node.text() if isinstance(node, Literal)
                    else "x1 <= x1" if isinstance(node, And) else "x1 < x1")
            forms.append((_UNIT, 0, text))
        else:
            ctx, sep = (_AND, " & ") if isinstance(node, And) else (_OR, " | ")
            parts = [spell(p)[ctx + 1] for p in node.parts]
            forms.append((ctx, max(d for d, _ in parts),
                          sep.join(t for _, t in parts)))
            first = node.parts[0]
            if ctx == _OR and len(parts) == 2 and isinstance(first, Not):
                (dl, tl), (dr, tr) = spell(first.part)[_AND], parts[1]
                forms.append((_IMPL, max(dl, dr + 1), f"{tl} -> {tr}"))
        best = []
        for ctx in range(4):
            fits = [(d, t) for level, d, t in forms if level >= ctx]
            if ctx != _OR:
                fits.append((best[_OR][0] + 1, f"({best[_OR][1]})"))
            best.append(min(fits, key=lambda f: f[0]))
        memo[id(node)] = best
        return best

    return spell(root)[_OR][1]


class Formula:
    """Immutable formula tree.

    ``view`` is None, "cnf" or "dnf"; when set, ``clauses`` holds the matching
    clause lists (clause = tuple of literals).  Besides memos of its variables,
    qe-degree and hash, a formula keeps what ``reduced`` stores: its
    reduced forms and their closed difference systems.  Each is a
    deterministic value written once, so shared formulas are safe to use
    from multiple threads.
    """

    __slots__ = ("root", "view", "clauses", "_vars", "_q", "_reduced",
                 "_hash")

    def __init__(self, root, view=None, clauses=None):
        self.root = root
        self.view = view
        self.clauses = None if clauses is None else tuple(tuple(c) for c in clauses)
        self._vars = None
        self._q = None
        self._reduced = {}
        self._hash = None

    def variables(self) -> tuple:
        if self._vars is None:
            self._vars = tuple(sorted({i for lit in _walk_literals(self.root)
                                       for i in (lit.lhs, lit.rhs)}))
        return self._vars

    @property
    def nvars(self) -> int:
        vs = self.variables()
        return (max(vs) + 1) if vs else 0

    @property
    def qe_degree(self) -> int:
        if self._q is None:
            self._q = max((abs(l.offset) for l in _walk_literals(self.root)), default=0)
        return self._q

    def evaluate(self, assignment) -> bool:
        get = _accessor(assignment, self.variables())
        return _eval_node(self.root, get)

    def compiled(self):
        """Fast evaluator ``f(values) -> bool``; values indexed by variable.
        Built anew on each call."""
        return compile_applied([(self, range(self.nvars))])

    def reduced(self, view, build):
        """Clauses of the reduced ``view`` ("cnf" or "dnf") as returned by
        ``build()``, kept with the formula.  Closed difference systems
        (``zones.closed``) are kept here too: ``classify``'s of the reduced
        DNF under ``("zones", arity)``, and ``finite.decide_max_closed``'s
        of the DNF, its arguments merged by a repeated-argument pattern,
        under ``("dnf zones", pattern)``.  Racing threads may both run
        ``build``; the first result stored wins, and both are equal."""
        out = self._reduced.get(view)
        if out is None:
            out = self._reduced.setdefault(view, build())
        return out

    def __eq__(self, other):
        return isinstance(other, Formula) and self.root == other.root

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.root)
        return self._hash

    def __repr__(self):
        return f"Formula({_format_node(self.root)})"


def _accessor(assignment, needed):
    if isinstance(assignment, Mapping):
        for i in needed:
            if i not in assignment:
                raise MissingVariableError(f"no value for variable index {i}")
        return assignment.__getitem__
    if isinstance(assignment, Sequence):
        if needed and max(needed) >= len(assignment):
            raise MissingVariableError(
                f"assignment of length {len(assignment)} misses index {max(needed)}")
        return assignment.__getitem__
    raise TypeError("assignment must be a sequence or mapping")


def evaluate(f: Formula, assignment) -> bool:
    """Truth of ``f`` under a total assignment (sequence or map by index)."""
    return f.evaluate(assignment)


# ---------------------------------------------------------------------------
# Normal forms


def _nnf(node, neg=False):
    if isinstance(node, Literal):
        return node.negated() if neg else node
    if isinstance(node, Not):
        return _nnf(node.part, not neg)
    if isinstance(node, And):
        parts = tuple(_nnf(p, neg) for p in node.parts)
        return Or(parts) if neg else And(parts)
    parts = tuple(_nnf(p, neg) for p in node.parts)
    return And(parts) if neg else Or(parts)


def _normal_form(root, view):
    """Clause lists for the CNF or DNF of ``root``; purely mechanical."""
    outer = And if view == "cnf" else Or

    def rec(node):
        if isinstance(node, Literal):
            return [[node]]
        if isinstance(node, outer):
            out = []
            for p in node.parts:
                out.extend(rec(p))
            return out
        # the dual connective distributes: cross-merge child clause lists
        acc = [[]]
        for p in node.parts:
            sub = rec(p)
            merged = []
            total = 0
            for a in acc:
                for b in sub:
                    c = a + [l for l in b if l not in a]
                    total += len(c)
                    if total > DEFAULT_CLAUSE_BUDGET:
                        raise SizeLimitExceeded(
                            f"{view} expansion exceeds the literal budget "
                            f"of {DEFAULT_CLAUSE_BUDGET}")
                    merged.append(c)
            acc = merged
        return acc

    clauses = rec(_nnf(root))
    seen = set()
    out = []
    for c in clauses:
        key = tuple(c)
        if key not in seen:
            seen.add(key)
            out.append(tuple(c))
    if sum(len(c) for c in out) > DEFAULT_CLAUSE_BUDGET:
        raise SizeLimitExceeded(f"{view} expansion exceeds the literal budget "
                                f"of {DEFAULT_CLAUSE_BUDGET}")
    return tuple(out)


def formula_from_clauses(view, clauses) -> Formula:
    clauses = tuple(tuple(c) for c in clauses)
    if view == "cnf":
        root = And(tuple(Or(c) for c in clauses))
    elif view == "dnf":
        root = Or(tuple(And(c) for c in clauses))
    else:
        raise ValueError("view must be 'cnf' or 'dnf'")
    return Formula(root, view=view, clauses=clauses)


def to_cnf(f: Formula) -> Formula:
    """Equivalent formula in conjunctive normal form (NOT pushed to literals)."""
    return formula_from_clauses("cnf", _normal_form(f.root, "cnf"))


def to_dnf(f: Formula) -> Formula:
    """Equivalent formula in disjunctive normal form."""
    return formula_from_clauses("dnf", _normal_form(f.root, "dnf"))


# ---------------------------------------------------------------------------
# Equivalence and reduction


def _window(nvars, q, phase):
    """Half-width R = (q + 1)(nvars - 1) of the window that pins x1 at 0;
    more than ``DEFAULT_ENUM_BUDGET`` points raise, naming ``phase``.

    It decides every formula over nvars variables with offsets of at most
    q.  A translation changes no difference, so take x1 = 0, then shrink
    each gap between consecutive distinct values above q + 1 to q + 1.  A
    difference of at most q is a sum of gaps of at most q, which stay put;
    a larger one keeps its sign and stays above q.  So every literal keeps
    its truth value, and the values span at most (q + 1)(nvars - 1).
    """
    free = max(nvars - 1, 0)
    R = (q + 1) * free
    if (2 * R + 1) ** free > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(f"{phase} window: {2 * R + 1}^{free} assignments "
                             f"exceed budget {DEFAULT_ENUM_BUDGET}")
    return R


def equivalent(f: Formula, g: Formula, nvars: int) -> bool:
    """True iff f and g agree on every integer assignment.

    Decided on the window of ``_window`` for the larger qe-degree of the
    two, into which any separating assignment translates and compresses.
    """
    from . import grids
    for h in (f, g):
        vs = h.variables()
        if vs and max(vs) >= nvars:
            raise MissingVariableError(
                f"formula uses x{max(vs) + 1} but nvars={nvars}")
    R = _window(nvars, max(f.qe_degree, g.qe_degree), "equivalent")
    a, b = grids.pinned_tables([f.root, g.root], nvars, 0, R)
    return a == b


def reduce(f: Formula) -> Formula:
    """Delete clauses, then literals, while equivalence holds.

    Requires a populated CNF or DNF view.  The result is what a scan in
    order gives that takes the first single deletion keeping the truth
    table, clauses before literals, restarts after each and stops when none
    is left: it admits no further single deletion.  Three forward passes
    find it: clauses, then literals clause by clause, then clauses again if
    a literal went.  Deleting clauses only weakens a CNF, so a clause that
    could not go never can later.  A literal l of a clause C can go iff the
    target entails C - l, a test that no deletion elsewhere changes, and
    that deleting another literal of C only makes harder to pass.  A DNF is
    the complement of the CNF of its negated literals, and is reduced as
    that CNF.

    A clause set tested whole costs its clause count times the window's
    point count, a literal test one clause's; past ``DEFAULT_REDUCE_WORK``
    in total, ``BudgetExceeded`` is raised.  The passes run over clauses of
    literal ids, numbered in order of first occurrence, and each distinct
    literal's truth table on the window is one packed int
    (``grids.pinned_tables``, bit i for the i-th point in C order).
    """
    from . import grids
    if f.view not in ("cnf", "dnf"):
        raise ValueError("reduce needs a formula with a CNF or DNF view")
    nv = max(1, f.nvars)
    R = _window(nv, f.qe_degree, "reduce")
    points = (2 * R + 1) ** (nv - 1)
    full = (1 << points) - 1
    ids = {}
    clauses = tuple(tuple(ids.setdefault(lit, len(ids)) for lit in c)
                    for c in f.clauses)
    literals = list(ids)
    work = 0

    def charge(n):
        nonlocal work
        work += n * points
        if work > DEFAULT_REDUCE_WORK:
            raise BudgetExceeded(
                f"reduce exceeds its work budget of {DEFAULT_REDUCE_WORK} "
                f"clause-point evaluations")

    def table(c):
        return functools.reduce(operator.or_, map(tables.__getitem__, c), 0)

    def meet(tabs):
        return functools.reduce(operator.and_, tabs, full)

    def drop(items, keeps):
        """``items`` less each item, in order, whose deletion ``keeps``
        allows at its turn."""
        i = 0
        while i < len(items):
            rest = items[:i] + items[i + 1:]
            if keeps(rest):
                items = rest
            else:
                i += 1
        return items

    def same(pairs):
        charge(len(pairs))
        return meet(t for _, t in pairs) == target

    def entailed(c):
        charge(1)
        return target & table(c) == target

    def drop_clauses(cls):
        return [c for c, _ in drop([(c, table(c)) for c in cls], same)]

    charge(len(clauses))
    tables = grids.pinned_tables(
        literals if f.view == "cnf" else [lit.negated() for lit in literals],
        nv, 0, R)
    target = meet(map(table, clauses))
    clauses = drop_clauses(clauses)
    shorter = [drop(c, entailed) for c in clauses]
    if shorter != clauses:
        clauses = drop_clauses(shorter)
    return formula_from_clauses(
        f.view, tuple(tuple(literals[i] for i in c) for c in clauses))


# ---------------------------------------------------------------------------
# Relations and languages


class Dialect(Enum):
    SUCCESSOR_ONLY = "successor"
    ORDER = "order"


@dataclass(frozen=True)
class RelationDef:
    """A named relation of fixed arity defined by a formula over x1..xk."""

    name: str
    arity: int
    formula: Formula

    def __post_init__(self):
        if self.arity < 1:
            raise ArityError(f"relation {self.name}: arity must be positive")
        vs = self.formula.variables()
        if vs and max(vs) >= self.arity:
            raise ArityError(
                f"relation {self.name}: literal references x{max(vs) + 1} "
                f"but arity is {self.arity}")

    @property
    def dialect(self) -> Dialect:
        # Self-comparisons like x1 <= x1 are constants, not order atoms.
        for lit in _walk_literals(self.formula.root):
            if lit.cmp in (Cmp.LEQ, Cmp.LT) and lit.lhs != lit.rhs:
                return Dialect.ORDER
        return Dialect.SUCCESSOR_ONLY


@dataclass(frozen=True)
class ConstraintLanguage:
    """Ordered collection of relations; q is the largest absolute offset."""

    relations: tuple

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        by_name = {}
        for r in self.relations:
            if r.name in by_name:
                raise DuplicateNameError(f"relation {r.name!r} declared twice")
            by_name[r.name] = r
        object.__setattr__(self, "_by_name", by_name)

    @property
    def q(self) -> int:
        return max((r.formula.qe_degree for r in self.relations), default=0)

    def relation(self, name: str) -> RelationDef:
        return self._by_name[name]

    def names(self):
        return [r.name for r in self.relations]

    def extended(self, extra) -> "ConstraintLanguage":
        return ConstraintLanguage(self.relations + tuple(extra))


# ---------------------------------------------------------------------------
# .dtl parser

_TOKEN_RE = re.compile(
    r"(?P<op>:=|<=|->|!=|<|=|\||&|!|\(|\)|/|\+|-)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ws>\s+)"
    r"|(?P<comment>#.*)"
    r"|(?P<bad>.)"
)

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


class _Tok(NamedTuple):
    kind: str
    text: str
    col: int


def _scan(line_text, lineno):
    toks = []
    for m in _TOKEN_RE.finditer(line_text):
        kind = m.lastgroup
        if kind in ("ws",):
            continue
        if kind == "comment":
            break
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             lineno, m.start() + 1)
        toks.append(_Tok(kind, m.group(), m.start() + 1))
    return toks


class _ExprParser:
    """Precedence: ! binds tightest, then &, then -> (right-assoc), then |.

    Each ``!``, ``(`` and ``->`` opens one nesting level; more than
    ``MAX_NESTING`` open at once is a ``ParseError``.  The tree then stays
    shallow enough for every recursive walk of it and for ``compile_applied``.
    """

    def __init__(self, toks, lineno, arity):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno
        self.arity = arity
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line", self.lineno,
                             self.toks[-1].col if self.toks else 1)
        self.pos += 1
        return t

    def expect_op(self, text):
        t = self.take()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}",
                             self.lineno, t.col)
        return t

    def nested(self, t, parse):
        """``parse()`` one nesting level below the token ``t`` just taken."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels",
                             self.lineno, t.col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.parse_or()
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected {t.text!r}", self.lineno, t.col)
        return node

    def parse_or(self):
        parts = [self.parse_impl()]
        while (t := self.peek()) is not None and t.kind == "op" and t.text == "|":
            self.take()
            parts.append(self.parse_impl())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_impl(self):
        left = self.parse_and()
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "->":
            self.take()
            return Or((Not(left), self.nested(t, self.parse_impl)))
        return left

    def parse_and(self):
        parts = [self.parse_unit()]
        while (t := self.peek()) is not None and t.kind == "op" and t.text == "&":
            self.take()
            parts.append(self.parse_unit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unit(self):
        t = self.peek()
        if t is None:
            raise ParseError("expected a literal", self.lineno, 1)
        if t.kind == "op" and t.text == "!":
            self.take()
            return Not(self.nested(t, self.parse_unit))
        if t.kind == "op" and t.text == "(":
            self.take()
            node = self.nested(t, self.parse_or)
            self.expect_op(")")
            return node
        return self.parse_literal()

    def parse_var(self):
        t = self.take()
        m = _VAR_RE.match(t.text) if t.kind == "name" else None
        if m is None:
            raise ParseError(f"expected a variable like x1, found {t.text!r}",
                             self.lineno, t.col)
        idx = int(m.group(1)) - 1
        if idx >= self.arity:
            raise ArityError(f"variable x{idx + 1} exceeds arity {self.arity}",
                             self.lineno, t.col)
        return idx

    def parse_literal(self):
        lhs = self.parse_var()
        t = self.take()
        try:
            cmp = Cmp(t.text)
        except ValueError:
            raise ParseError(f"expected a comparator, found {t.text!r}",
                             self.lineno, t.col) from None
        rhs = self.parse_var()
        offset = 0
        nxt = self.peek()
        if nxt is not None and nxt.kind == "op" and nxt.text in ("+", "-"):
            sign = 1 if self.take().text == "+" else -1
            it = self.take()
            if it.kind != "int":
                raise ParseError(f"expected an integer offset, found {it.text!r}",
                                 self.lineno, it.col)
            offset = sign * int(it.text)
        return Literal(lhs, rhs, cmp, offset)


def parse_expression(text, arity, lineno=1) -> Formula:
    """Parse a bare .dtl expression for a relation of the given arity."""
    toks = _scan(text, lineno)
    return Formula(_ExprParser(toks, lineno, arity).parse())


def parse_language(text: str) -> ConstraintLanguage:
    """Parse a .dtl document: one ``rel NAME/ARITY := expr`` per line."""
    relations = []
    names = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _scan(raw, lineno)
        if not toks:
            continue
        if not (toks[0].kind == "name" and toks[0].text == "rel"):
            raise ParseError(f"expected 'rel', found {toks[0].text!r}",
                             lineno, toks[0].col)
        if len(toks) < 5:
            raise ParseError("incomplete relation declaration", lineno, toks[-1].col)
        name_tok = toks[1]
        if name_tok.kind != "name":
            raise ParseError(f"expected a relation name, found {name_tok.text!r}",
                             lineno, name_tok.col)
        if toks[2].text != "/":
            raise ParseError("expected '/' after the relation name",
                             lineno, toks[2].col)
        if toks[3].kind != "int" or int(toks[3].text) < 1:
            raise ParseError("expected a positive arity", lineno, toks[3].col)
        arity = int(toks[3].text)
        if toks[4].text != ":=":
            raise ParseError("expected ':='", lineno, toks[4].col)
        if name_tok.text in names:
            raise DuplicateNameError(f"relation {name_tok.text!r} declared twice",
                                     lineno, name_tok.col)
        names.add(name_tok.text)
        parser = _ExprParser(toks[5:], lineno, arity)
        relations.append(RelationDef(name_tok.text, arity, Formula(parser.parse())))
    return ConstraintLanguage(tuple(relations))


def write_language(lang: ConstraintLanguage) -> str:
    """The .dtl text of ``lang``, each formula with the fewest nesting
    levels that parse back to its tree (``_format_node``), so every
    language that ``parse_language`` accepts reads back to an equal one."""
    lines = [f"rel {r.name}/{r.arity} := {_format_node(r.formula.root)}"
             for r in lang.relations]
    return "\n".join(lines) + "\n"
