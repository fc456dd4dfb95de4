"""Finite-window decision procedures.

An instance over a language with qe-degree q and n variables is satisfiable
over the integers iff it is satisfiable over ``{0, ..., (q + 1) * n - 1}``, so
every solver here works on such a window.  Constraints are grouped by
relation and repeated-argument pattern (``_grouped``), with constraints and
variables addressed by the instance's ids.  For max- or min-closed
languages one bound per variable is propagated to a fixpoint (Jeavons &
Cooper, "Tractable constraints on ordered domains", 1995) on each group's
closed difference systems (``zones.closed``), which do not grow with the
window.  The one complete search, the universal fallback, runs on window
grids instead: each relation's ``grids.grid_eval`` grid over the window,
folded onto each constraint's distinct arguments (``_window_grids``), with
generalized arc-consistency at every node on one domain matrix, a boolean
array with one row per variable id and one column per window value.
Languages preserved by a modular maximum or minimum run that same search
over residues mod d, on the folds reduced to residue grids, and hand each
residue vector's quotient instance to the bound fixpoint.  Only a window
that is not a range is listed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import grids, zones
from .errors import ArityError, BudgetExceeded, InternalError, ParseError
from .formula import (And, Cmp, ConstraintLanguage, Formula, Literal, Not, Or,
                      RelationDef, to_dnf)

DEFAULT_BRANCH_BUDGET = 10**6
# Window cells one relation's grid may span (see _window_grids), and window
# values a domain matrix may span: a budget of the searches and residue
# grids, as bound propagation builds no grid.
DEFAULT_TABLE_CELLS = 10**8


class Instance:
    """Variables plus relation applications; the CSP input.

    An instance is stored as its id view, which one grouping step builds
    (``from_applications``, also called by ``Instance(variables,
    constraints)``):

    * ``names``: the variable of each id, the distinct declared variables
      in declaration order, then any undeclared argument in order of first
      use (``validate_instance`` rejects those);
    * ``groups``: one ``(relation name, args, order)`` triple per relation
      and arity, relations in order of first application, then arities in
      order of first use.  ``args`` is an int32 matrix with one row of
      argument ids per application, and ``order`` holds the ascending
      int64 positions of those applications in ``constraints``.

    ``constraints``, the ``(relation name, tuple of variable names)`` pairs
    in order, is derived from the groups on first use and kept, unless the
    instance was built from it.  Equality and hashing go by ``variables``
    and ``constraints``.
    """

    __slots__ = ("variables", "names", "groups", "_constraints")

    def __init__(self, variables, constraints):
        constraints = tuple((name, tuple(args)) for name, args in constraints)
        variables = tuple(variables)
        ids = {v: i for i, v in enumerate(dict.fromkeys(variables))}
        args = np.array([ids.setdefault(a, len(ids))
                         for _, row in constraints for a in row],
                        dtype=np.int32)
        arity = np.fromiter(map(len, (row for _, row in constraints)),
                            dtype=np.int64, count=len(constraints))
        self._group(variables, ids,
                    *relation_codes([name for name, _ in constraints]), args,
                    np.cumsum(arity) - arity, arity)
        self._constraints = constraints

    @classmethod
    def from_applications(cls, variables, ids, relations, code, args, starts,
                          arity):
        """The instance over ``variables`` whose variable ids are the
        positions of the keys of ``ids``, applying relation
        ``relations[code[i]]`` to the ``arity[i]`` ids of the flat array
        ``args`` from ``starts[i]`` on.  Distinct codes of ``code`` must
        index distinct names (see ``relation_codes``)."""
        inst = cls.__new__(cls)
        inst._group(variables, ids, relations, code, args, starts, arity)
        return inst

    def _group(self, variables, ids, relations, code, args, starts, arity):
        """Set the id view (see the class docstring)."""
        groups = []
        for c in dict.fromkeys(code.tolist()):
            order = np.flatnonzero(code == c)
            for k in dict.fromkeys(arity[order].tolist()):
                rows = order[arity[order] == k]
                groups.append((relations[c],
                               args[starts[rows, None] + np.arange(k)], rows))
        self.variables = tuple(variables)
        self.names = tuple(ids)
        self.groups = tuple(groups)
        self._constraints = None

    @property
    def constraints(self):
        if self._constraints is None:
            names = self.names
            out = [None] * sum(len(order) for _, _, order in self.groups)
            for name, args, order in self.groups:
                for i, row in zip(order.tolist(), args.tolist()):
                    out[i] = (name, tuple([names[a] for a in row]))
            self._constraints = tuple(out)
        return self._constraints

    def constraint(self, i):
        """``constraints[i]``, without building ``constraints``."""
        for name, args, order in self.groups:
            pos = int(np.searchsorted(order, i))
            if pos < len(order) and order[pos] == i:
                return name, tuple(self.names[a] for a in args[pos].tolist())
        raise IndexError(i)

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.variables == other.variables
                and self.constraints == other.constraints)

    def __hash__(self):
        return hash((self.variables, self.constraints))

    def __repr__(self):
        return (f"Instance(variables={self.variables!r}, "
                f"constraints={self.constraints!r})")


def relation_codes(names):
    """``(relations, code)`` of ``Instance.from_applications`` for a list of
    relation names: the distinct names in order of first use, and the
    position of each name among them."""
    relations = {name: i for i, name in enumerate(dict.fromkeys(names))}
    return tuple(relations), np.fromiter(map(relations.__getitem__, names),
                                         dtype=np.int64, count=len(names))


def validate_instance(lang: ConstraintLanguage, inst: Instance):
    """Raise the error of the first invalid constraint, in declaration order.

    Duplicate declarations are reported first.  The groups locate the first
    constraint with an unknown relation, a wrong argument count or an
    undeclared argument (an id past the declared ones); only that
    constraint is looked at by name.
    """
    declared = set(inst.variables)
    if len(declared) != len(inst.variables):
        raise ParseError("duplicate variable declaration")
    first = None
    for name, args, order in inst.groups:
        try:
            fits = lang.relation(name).arity == args.shape[1]
        except KeyError:
            fits = False
        if fits:
            rows = np.flatnonzero((args >= len(declared)).any(axis=1))
            if not len(rows):
                continue
            at = int(order[rows[0]])
        else:
            at = int(order[0])
        first = at if first is None else min(first, at)
    if first is None:
        return
    name, args = inst.constraint(first)
    try:
        rel = lang.relation(name)
    except KeyError:
        raise ParseError(f"unknown relation {name!r}") from None
    if len(args) != rel.arity:
        raise ArityError(f"{name} expects {rel.arity} arguments, got {len(args)}")
    for a in args:
        if a not in declared:
            raise ParseError(f"undeclared variable {a!r}")


@dataclass
class SolveResult:
    status: str  # "SAT" | "UNSAT"
    assignment: dict | None = None
    reason: str | None = None
    fallback: bool = False
    stats: dict = field(default_factory=dict)

    @property
    def sat(self):
        return self.status == "SAT"


_INT64_MAX = 2**63 - 1


def satisfies(lang: ConstraintLanguage, inst: Instance, assignment) -> bool:
    """Check a full assignment against every constraint of the instance.

    The assignment becomes one value vector over the instance's variable
    ids, and each group's argument matrix indexes it, so each relation's
    formula is evaluated once over columns holding its applications'
    argument values (``grids.eval_node``).  The columns are int64 when every
    value plus the relation's largest offset fits, else object arrays of
    Python ints, so the check is exact for any integers.
    """
    values = [assignment[v] for v in inst.names]
    try:
        vector = np.array(values, dtype=np.int64)
    except OverflowError:
        vector = None
    for name, args, _ in inst.groups:
        formula = lang.relation(name).formula
        limit = _INT64_MAX - formula.qe_degree
        table = vector[args] if vector is not None else None
        if table is None or (table.size and (table.max() > limit
                                             or table.min() < -limit)):
            table = np.array(values, dtype=object)[args]
        columns = [table[:, i] for i in range(table.shape[1])]
        if not np.all(grids.eval_node(formula.root, columns)):
            return False
    return True


def bounded_window(lang: ConstraintLanguage, inst: Instance) -> range:
    """The complete decision window {0, ..., (q + 1) * n - 1}."""
    return range(0, (lang.q + 1) * len(inst.variables))


# ---------------------------------------------------------------------------
# Constraint groups and window grids

def _grouped(inst):
    """Each constraint's distinct arguments and (relation, repeated-argument
    pattern).

    Returns ``(constraints, keys, watchers)``.  Per constraint, in
    declaration order, ``constraints`` holds its distinct argument ids in
    order of first position and the index of its ``(relation name,
    pattern)`` pair in ``keys``, where pattern maps each argument position
    to its distinct argument, so R(x, x, y) has pattern (0, 0, 1).
    ``watchers[v]`` lists the constraints on variable id v, ascending.
    """
    key_index = {}
    keys = []
    constraints = [None] * sum(len(order) for _, _, order in inst.groups)
    for name, args, order in inst.groups:
        for ci, row in zip(order.tolist(), args.tolist()):
            distinct = tuple(dict.fromkeys(row))
            key = (name, tuple(distinct.index(a) for a in row))
            if key not in key_index:
                key_index[key] = len(keys)
                keys.append(key)
            constraints[ci] = (distinct, key_index[key])
    watchers = [[] for _ in inst.names]
    for ci, (distinct, _) in enumerate(constraints):
        for v in distinct:
            watchers[v].append(ci)
    return constraints, keys, watchers


def _window_grids(lang, inst, width, phase):
    """Each constraint's relation grid over ``[0, width)``, folded onto its
    distinct arguments.  Relations are translation invariant, so the grid
    serves any window ``[lo, lo + width)``, cell c standing for lo + c,
    wherever lo lies in Z.

    Returns ``(constraints, folds, watchers)``: ``folds`` holds one grid
    per (relation, repeated-argument pattern) of ``_grouped``, whose
    ``constraints`` and ``watchers`` it shares.  Repeated arguments fold
    onto the diagonal, so R(x, x, y) has two axes.  A relation of arity k
    spans W^k window cells; past ``DEFAULT_TABLE_CELLS`` of them,
    ``BudgetExceeded`` naming ``phase`` is raised before anything is
    allocated.
    """
    _check_cells(lang, inst, width, phase)
    constraints, keys, watchers = _grouped(inst)
    relation_grids = {}
    folds = []
    for name, pattern in keys:
        if name not in relation_grids:
            rel = lang.relation(name)
            relation_grids[name] = grids.grid_eval(rel.formula, rel.arity, 0,
                                                   width)
        folds.append(np.einsum(relation_grids[name], list(pattern),
                               list(range(max(pattern) + 1))))
    return constraints, folds, watchers


def _check_domains(width, phase):
    """Raise ``BudgetExceeded`` naming ``phase`` when the domain matrix
    would span over ``DEFAULT_TABLE_CELLS`` window values (columns)."""
    if width > DEFAULT_TABLE_CELLS:
        raise BudgetExceeded(
            f"{phase}: domains of {width} values, over the budget of "
            f"{DEFAULT_TABLE_CELLS}")


def _check_cells(lang, inst, width, phase):
    """Raise ``BudgetExceeded`` naming ``phase`` when a relation applied in
    ``inst`` spans more than ``DEFAULT_TABLE_CELLS`` cells of a window
    ``width`` values wide."""
    for name in dict.fromkeys(name for name, _, _ in inst.groups):
        arity = lang.relation(name).arity
        cells = width**arity
        if cells > DEFAULT_TABLE_CELLS:
            raise BudgetExceeded(
                f"{phase}: relation {name} needs {width}^{arity} = {cells} "
                f"window cells, over the budget of {DEFAULT_TABLE_CELLS}")


# ---------------------------------------------------------------------------
# Arc-consistency

def arc_consistency(tables, domains, stats=None, changed=None):
    """Generalized arc-consistency fixpoint, or None when a domain empties.

    ``tables`` is the ``(constraints, folds, watchers)`` triple of
    ``_window_grids`` and ``domains`` the domain matrix: a boolean array
    with one row per variable id and one column per window value, revised
    in place and returned.  A constraint is revised in one step: its folded
    grid is cut down to the cells whose coordinates all lie in their
    variables' domains (``np.ix_`` of the rows' set columns), and each
    variable's support is an ``any`` over the other axes.  The queue starts
    with all constraints in declaration order or, when ``domains`` is a
    fixpoint but for the row of the variable id ``changed``, with just that
    variable's constraints; a constraint re-enters when one of its
    variables loses a value.  Within a constraint, variables are revised in
    argument order.
    """
    constraints, folds, watchers = tables
    queue = deque(range(len(constraints)) if changed is None
                  else watchers[changed])
    queued = [False] * len(constraints)
    for ci in queue:
        queued[ci] = True
    while queue:
        ci = queue.popleft()
        queued[ci] = False
        distinct, fi = constraints[ci]
        k = len(distinct)
        index = [np.flatnonzero(domains[v]) for v in distinct]
        live = folds[fi][np.ix_(*index)]
        for axis, v in enumerate(distinct):
            others = tuple(a for a in range(k) if a != axis)
            dropped = index[axis][~live.any(axis=others)]
            if len(dropped):
                row = domains[v]
                row[dropped] = False
                if stats is not None:
                    stats["revisions"] = (stats.get("revisions", 0)
                                          + len(dropped))
                if not row.any():
                    return None
                for cj in watchers[v]:
                    if not queued[cj]:
                        queue.append(cj)
                        queued[cj] = True
    return domains


# ---------------------------------------------------------------------------
# Max-closed decision

def _top(systems, bound):
    """The componentwise max of the tuples of the closed systems that lie in
    ``[0, bound]``, or None when there is none.

    Under upper bounds u, the greatest solution of the closed system D is
    ``t_j = min_i(u_i + D[j][i])``: every solution has x_j <= x_i + D[j][i]
    <= u_i + D[j][i], and t itself is one, as D is closed.  A system has a
    tuple in the box iff t >= 0, and then t is its greatest one.  Each
    system comes as its finite entries ``(j, i, D[j][i])`` off the
    diagonal, whose own entries are 0."""
    top = None
    for entries in systems:
        t = bound[:]
        for j, i, w in entries:
            if bound[i] + w < t[j]:
                t[j] = bound[i] + w
        if min(t) >= 0:
            top = t if top is None else list(map(max, top, t))
    return top


def decide_max_closed(lang, inst, mode="max", window=None,
                      stats=None) -> SolveResult:
    """Decide by upper-bound propagation; the greatest solution on success.

    Each variable's bound u starts at the top of the window (a contiguous
    ``range``, by default the bounded window; an empty one is UNSAT) and a
    constraint queue lowers it to the largest value the variable takes in a
    relation tuple lying in the window at or below u.  Soundness, for any
    language: every solution stays componentwise at or below u, so a
    constraint with no tuple left means UNSAT.  Greatest solution, for a
    max-closed language: at the fixpoint each argument of a constraint
    reaches its bound in some tuple below u, and the componentwise max of
    those tuples is the constraint's restriction of u, so u is a solution
    and every other one lies below it.  ``mode="min"`` mirrors all of this
    with lower bounds.

    The tuples are those of the closed difference systems of each
    (relation, repeated-argument pattern) of ``_grouped``: the relation's
    DNF split and closed by ``zones.closed``, arguments merged by the
    pattern, kept with the formula.  ``_top`` gives all of a constraint's
    largest values at once; lowering one bound to its value keeps every
    tuple in the box, so the others stay valid.  Bounds run over offsets
    from the window's start, and ``mode="min"`` reflects them (x to
    W - 1 - x), which transposes each system.  No grid is built; the split
    counts against the DNF literal budget, ``formula.DEFAULT_CLAUSE_BUDGET``.

    The fixpoint is always re-verified; if it is not a solution,
    ``_first_solution`` searches the window grids (``_window_grids``, phase
    "max-closed fallback"), its matrix rows the boxes between window edge
    and bound, and the result is flagged as a fallback.
    ``stats["revisions"]`` counts bound steps.
    """
    stats = stats if stats is not None else {}
    if not inst.variables:
        return SolveResult("SAT", {}, stats=stats)
    window = bounded_window(lang, inst) if window is None else window
    if not isinstance(window, range) or window.step != 1:
        raise ValueError("window must be a contiguous range")
    if not window:
        return SolveResult("UNSAT", reason="empty window", stats=stats)
    lo, hi = window.start, window.stop

    constraints, keys, watchers = _grouped(inst)
    systems = []
    for name, pattern in keys:
        f = lang.relation(name).formula
        closed = f.reduced(("dnf zones", pattern), lambda: zones.closed(
            to_dnf(f).clauses, pattern))
        systems.append([[(j, i, w) if mode == "max" else (i, j, w)
                         for j, row in enumerate(D)
                         for i, w in enumerate(row) if i != j and w < math.inf]
                        for D in closed])
    bound = [hi - lo - 1] * len(inst.names)
    queue = deque(range(len(constraints)))
    queued = [True] * len(constraints)
    while queue:
        ci = queue.popleft()
        queued[ci] = False
        distinct, si = constraints[ci]
        top = _top(systems[si], [bound[w] for w in distinct])
        if top is None:
            return SolveResult("UNSAT", reason="bound wipeout", stats=stats)
        for v, t in zip(distinct, top):
            if t < bound[v]:
                bound[v] = t
                stats["revisions"] = stats.get("revisions", 0) + 1
                for cj in watchers[v]:
                    if not queued[cj]:
                        queue.append(cj)
                        queued[cj] = True

    if mode == "min":
        bound = [hi - lo - 1 - b for b in bound]
    assignment = {v: lo + b for v, b in zip(inst.names, bound)}
    if satisfies(lang, inst, assignment):
        return SolveResult("SAT", assignment, stats=stats)
    tables = _window_grids(lang, inst, hi - lo, "max-closed fallback")
    columns, bound = np.arange(hi - lo), np.array(bound)[:, None]
    domains = columns <= bound if mode == "max" else columns >= bound
    result = _first_solution(lang, inst, tables, domains, lo, stats)
    result.fallback = True
    return result


# ---------------------------------------------------------------------------
# Complete backtracking search

def _solutions(domains, tables, stats, phase):
    """Every solution within the domain matrix ``domains``, as the array of
    each variable id's column, in lexicographic order.

    Variables follow their ids and values ascend.  GAC over ``tables`` (as
    ``arc_consistency`` takes them) runs at the root, in place, and at every
    child: a copy of its parent's matrix with one more row fixed, whose
    queue starts from that variable's constraints, as its parent is a
    fixpoint.  Each node that survives AC counts in ``stats["branches"]``;
    past ``DEFAULT_BRANCH_BUDGET`` nodes, ``BudgetExceeded`` naming
    ``phase`` is raised.
    """
    budget = DEFAULT_BRANCH_BUDGET
    nodes = 0

    def children(node, var):
        for col in np.flatnonzero(node[var]):
            child = node.copy()
            child[var] = False
            child[var, col] = True
            fixed = arc_consistency(tables, child, stats=stats, changed=var)
            if fixed is not None:
                yield fixed

    root = arc_consistency(tables, domains, stats=stats)
    if root is None:
        return
    stack = [iter((root,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        nodes += 1
        stats["branches"] = stats.get("branches", 0) + 1
        if nodes > budget:
            raise BudgetExceeded(
                f"{phase} exceeded the budget of {budget} search nodes")
        depth = len(stack) - 1
        if depth == len(node):
            yield node.argmax(axis=1)
        else:
            stack.append(children(node, depth))


def backtracking_solve(lang, inst, window=None, stats=None) -> SolveResult:
    """Complete search over the window with AC propagation at every node.

    Every variable takes the values of ``window``: any iterable of ints, by
    default the bounded window; a ``range`` is read from its ends and never
    listed, and the values a non-contiguous window skips stay cleared.  The
    window becomes one domain matrix over its span, built once, as are the
    window grids; a span past ``DEFAULT_TABLE_CELLS`` values raises
    ``BudgetExceeded`` before either is allocated.  Both run over offsets
    from the window's least value lo (``_window_grids``), which
    ``_first_solution`` adds back, so the window may lie anywhere in Z,
    past int64 too.  The result is the first solution of ``_solutions``,
    the lexicographically smallest one.
    """
    stats = stats if stats is not None else {}
    if not inst.variables:
        return SolveResult("SAT", {}, stats=stats)
    window = bounded_window(lang, inst) if window is None else window
    if not isinstance(window, range):
        window = sorted(window)
    elif window.step < 0:
        window = window[::-1]
    lo, hi = (window[0], window[-1] + 1) if window else (0, 1)
    tables = _window_grids(lang, inst, hi - lo, "arc-consistency grids")
    _check_domains(hi - lo, "arc-consistency grids")
    domains = np.zeros((len(inst.names), hi - lo), dtype=bool)
    if isinstance(window, range):
        domains[:, window.start - lo:window.stop - lo:window.step] = True
    else:
        domains[:, [v - lo for v in window]] = True
    return _first_solution(lang, inst, tables, domains, lo, stats)


def _first_solution(lang, inst, tables, domains, lo, stats):
    """The first solution within ``domains`` (column 0 is ``lo``), checked."""
    found = next(_solutions(domains, tables, stats, "backtracking"), None)
    if found is None:
        return SolveResult("UNSAT", stats=stats)
    found = {v: lo + col for v, col in zip(inst.names, found.tolist())}
    if not satisfies(lang, inst, found):
        raise InternalError("backtracking produced a non-solution")
    return SolveResult("SAT", found, stats=stats)


# ---------------------------------------------------------------------------
# Modular max/min pipeline

def _residue_tables(lang, inst, d):
    """The window grids reduced mod d, as ``arc_consistency`` takes them.

    Cell r of a constraint's residue grid is set iff some tuple of its
    folded grid is componentwise congruent to r.  The window is complete:
    a folded tuple with m distinct coordinates keeps its literal truth
    values and residues when a gap of more than q + d between consecutive
    sorted coordinates shrinks by a multiple of d to at most q + d (gap
    compression keeps equal coordinates equal), and then a shift by a
    multiple of d puts it in ``[0, (m - 1) * (q + d) + d)``.  The span
    takes q = ``lang.q`` and m the largest applied arity, rounded up to a
    multiple of d; a larger window only adds genuine tuples.
    """
    arity = max((lang.relation(name).arity for name, _, _ in inst.groups),
                default=1)
    span = -(-((arity - 1) * (lang.q + d) + d) // d) * d
    constraints, folds, watchers = _window_grids(lang, inst, span,
                                                 "residue grids")
    residues = [fold.reshape((span // d, d) * fold.ndim)
                .any(axis=tuple(range(0, 2 * fold.ndim, 2)))
                for fold in folds]
    return constraints, residues, watchers


def _quotient_literal(lit: Literal, r_lhs, r_rhs, d):
    """Rewrite a literal under x = d*x' + r(x); None means constant."""
    if lit.cmp in (Cmp.LEQ, Cmp.LT):
        c = lit.offset if lit.cmp is Cmp.LEQ else lit.offset - 1
        shifted = c + r_rhs - r_lhs
        return Literal(lit.lhs, lit.rhs, Cmp.LEQ, shifted // d)
    shifted = lit.offset + r_rhs - r_lhs
    if shifted % d != 0:
        # the congruence is impossible: EQ is constant false, NEQ constant true
        if lit.cmp is Cmp.EQ:
            return Literal(lit.lhs, lit.lhs, Cmp.LT, 0)
        return Literal(lit.lhs, lit.lhs, Cmp.LEQ, 0)
    return Literal(lit.lhs, lit.rhs, lit.cmp, shifted // d)


def _quotient_node(node, residues, d):
    if isinstance(node, Literal):
        return _quotient_literal(node, residues[node.lhs], residues[node.rhs], d)
    if isinstance(node, Not):
        return Not(_quotient_node(node.part, residues, d))
    if isinstance(node, And):
        return And(tuple(_quotient_node(p, residues, d) for p in node.parts))
    return Or(tuple(_quotient_node(p, residues, d) for p in node.parts))


def solve_mod_max(lang, inst, d, mode="max", stats=None) -> SolveResult:
    """Two-phase decision for languages preserved by a d-modular max or min.

    Phase one is the search of ``backtracking_solve`` over residue
    assignments mod d (a domain matrix of all residues, residue grids from
    ``_residue_tables``), so a residue vector some constraint cannot take
    is pruned by arc-consistency; its quotient would be unsatisfiable.
    Domains of more than ``DEFAULT_TABLE_CELLS`` residues raise
    ``BudgetExceeded`` before the matrix is allocated.
    Phase two substitutes ``v = d * v' + residue(v)`` into each constraint
    formula (offsets floor-divide; equalities require divisibility),
    producing a quotient instance handled by the max-closed decision
    procedure.  The first residue vector, in lexicographic order, whose
    quotient is satisfiable gives the witness, which is re-verified; if
    there is none the instance is unsatisfiable.
    """
    stats = stats if stats is not None else {}
    if d < 1:
        raise ValueError("modulus must be positive")
    if not inst.variables:
        return SolveResult("SAT", {}, stats=stats)
    tables = _residue_tables(lang, inst, d)
    _check_domains(d, "residue search")
    domains = np.ones((len(inst.names), d), dtype=bool)

    quotient_rel_cache = {}
    for cols in _solutions(domains, tables, stats, "residue search"):
        rho = dict(zip(inst.names, cols.tolist()))
        qrels = {}  # by name, in order of first use
        qconstraints = []
        for name, args in inst.constraints:
            rel = lang.relation(name)
            residues = tuple(rho[a] for a in args)
            key = (name, residues)
            if key not in quotient_rel_cache:
                qroot = _quotient_node(rel.formula.root, residues, d)
                qname = f"{name}~{'_'.join(map(str, residues))}"
                quotient_rel_cache[key] = RelationDef(qname, rel.arity,
                                                      Formula(qroot))
            qrel = quotient_rel_cache[key]
            qrels.setdefault(qrel.name, qrel)
            qconstraints.append((qrel.name, args))
        qlang = ConstraintLanguage(tuple(qrels.values()))
        qinst = Instance(inst.variables, tuple(qconstraints))
        sub = decide_max_closed(qlang, qinst, mode=mode, stats=stats)
        if sub.sat:
            assignment = {v: d * sub.assignment[v] + rho[v]
                          for v in inst.names}
            if not satisfies(lang, inst, assignment):
                raise InternalError("modular pipeline witness failed")
            return SolveResult("SAT", assignment, fallback=sub.fallback,
                               stats=stats)
    return SolveResult("UNSAT", stats=stats)
