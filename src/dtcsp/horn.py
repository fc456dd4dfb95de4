"""Positive unit resolution for Horn instances over successor constraints.

Facts of the form ``value(x) = value(y) + p`` live in a union-find whose
members carry integer offsets to their component's representative; asserting
a fact either merges two components, confirms a known offset, or reports a
contradiction.  Unit resolution is driven by a worklist in the manner of
linear-time Horn-SAT (Dowling & Gallier, "Linear-time algorithms for testing
the satisfiability of propositional Horn formulae", J. Logic Programming
1(3), 1984): each undecided negated equality waits on the components of its
two endpoints and is looked at again only when one of them is merged away.
At a conflict-free fixpoint a concrete solution is read off by spacing the
components far enough apart that the atom under every surviving negated
equality comes out false.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .classify import is_horn, reduced_cnf
from .errors import InternalError, NotHornError
from .finite import Instance, SolveResult, satisfies
from .formula import Cmp, ConstraintLanguage

OK = "ok"
CONFLICT = "conflict"


class OffsetUnionFind:
    """Disjoint sets with integer offsets to the representative.

    ``find(v)`` returns ``(root, offset)`` with the contract that in every
    model of the asserted facts ``value(v) = value(root) + offset``.  Every
    component keeps an explicit member list, and a merge relabels each member
    of the smaller component (on a tie, the component of the fact's second
    variable) into the larger one.  A variable is therefore relabelled at
    most log2(n) times, and ``find`` is two dict lookups.  After the first
    contradiction the structure stays in the conflicted state.
    """

    def __init__(self, variables=()):
        self._root = {}
        self._offset = {}
        self._members = {}
        self.conflict = None
        for v in variables:
            self.add(v)

    def add(self, v):
        if v not in self._root:
            self._root[v] = v
            self._offset[v] = 0
            self._members[v] = [v]

    def find(self, v):
        if v not in self._root:
            self.add(v)
        return self._root[v], self._offset[v]

    def assert_fact(self, x, y, p) -> str:
        """Record ``value(x) = value(y) + p``; idempotent on repeats."""
        self.union(x, y, p)
        return OK if self.conflict is None else CONFLICT

    def union(self, x, y, p):
        """``assert_fact`` that reports the merge it made: ``(absorbed,
        survivor)`` roots when two components became one, else None (the
        fact was known, or it contradicts the facts and ``conflict`` is
        set)."""
        if self.conflict is not None:
            return None
        rx, ox = self.find(x)
        ry, oy = self.find(y)
        if rx == ry:
            if ox - oy != p:
                self.conflict = (x, y, p, ox - oy)
            return None
        # value(rx) = value(ry) + shift
        shift = oy + p - ox
        if len(self._members[rx]) < len(self._members[ry]):
            rx, ry, shift = ry, rx, -shift
        root, offset = self._root, self._offset
        moved = self._members.pop(ry)
        for m in moved:
            root[m] = rx
            offset[m] -= shift
        self._members[rx].extend(moved)
        return ry, rx

    def implied_offset(self, x, y):
        """value(x) - value(y) if x and y share a component, else None."""
        rx, ox = self.find(x)
        ry, oy = self.find(y)
        if rx != ry:
            return None
        return ox - oy

    def components(self, variables):
        """Component partition ordered by first-seen variable.

        Each component lists ``(v, offset)`` pairs in first-seen order, with
        offsets taken from the component's first variable, so the result
        does not depend on the order in which facts were merged.
        """
        groups = {}
        order = []
        for v in variables:
            root, off = self.find(v)
            group = groups.get(root)
            if group is None:
                group = groups[root] = (off, [])
                order.append(root)
            group[1].append((v, off - group[0]))
        return [groups[root][1] for root in order]


class HornClause(NamedTuple):
    """Disjunction of negated equalities plus at most one positive equality."""

    negatives: tuple  # of (x, y, p) standing for not(value(x) = value(y) + p)
    positive: tuple | None = None  # (x, y, p)
    origin: str = ""


def _templates(rel) -> list:
    """The relation's reduced Horn CNF as ``(i, j, is_eq, offset)`` tuples,
    one tuple of argument positions per clause."""
    return [tuple((lit.lhs, lit.rhs, lit.cmp is Cmp.EQ, lit.offset)
                  for lit in clause)
            for clause in reduced_cnf(rel)]


def compile_horn_instance(lang: ConstraintLanguage,
                          inst: Instance) -> list:
    """Instantiate each constraint's reduced Horn CNF with its arguments.

    Each relation is looked up, tested for Horn definability and turned into
    clause templates once, at its first application.  Literals whose two
    variables coincide are constants: a true literal discharges its clause,
    a false one is dropped.  Raises NotHornError when some applied relation
    has no Horn definition.
    """
    templates = {}
    clauses = []
    for name, args in inst.constraints:
        cnf = templates.get(name)
        if cnf is None:
            rel = lang.relation(name)
            if not is_horn(rel):
                raise NotHornError(name)
            cnf = templates[name] = _templates(rel)
        origin = None
        for clause in cnf:
            negatives = []
            positive = None
            for i, j, is_eq, offset in clause:
                x, y = args[i], args[j]
                if x == y:
                    if (offset == 0) == is_eq:
                        break  # constant-true literal: clause discharged
                    continue
                if is_eq:
                    positive = (x, y, offset)
                else:
                    negatives.append((x, y, offset))
            else:
                if origin is None:
                    origin = f"{name}({', '.join(args)})"
                clauses.append(HornClause(tuple(negatives), positive, origin))
    return clauses


def solve_horn(clauses, variables, stats=None) -> SolveResult:
    """Run positive unit resolution to a fixpoint.

    A queue holds the clauses whose negated equalities are all gone; each is
    asserted as a fact in turn, and a contradiction, or such a clause without
    a positive part, refutes the instance.  A negated equality is decided
    once its endpoints share a component: the facts force its atom true (the
    literal is deleted) or false (the negation holds and the clause is
    satisfied).  Until then it is watched on both endpoints' components;
    when a merge relabels the smaller component into the larger, only the
    literals watched on the smaller one are looked at again, and those still
    undecided move to the larger one's watch list.  Every watch entry thus
    moves at most log2(n) times, so the whole run costs O((n + L) log n) for
    n variables and L literals.  The input's unit clauses are asserted
    before any literal is watched.  At the fixpoint the instance is
    satisfiable and a witness is extracted.  ``stats["facts"]`` counts the
    facts asserted, one per unit clause, repeats included.
    """
    stats = stats if stats is not None else {}
    for cl in clauses:
        if not cl.negatives and cl.positive is None:
            return SolveResult("UNSAT",
                               reason=f"empty clause from {cl.origin or 'input'}",
                               stats=stats)

    uf = OffsetUnionFind(variables)
    find = uf.find
    # undecided negated literals per clause; -1 once the clause is satisfied
    undecided = [len(cl.negatives) for cl in clauses]
    literals = []  # (clause index, x, y, p) of every watched literal
    live = bytearray()  # per watched literal: still undecided
    watch = {}
    units = deque(ci for ci, cl in enumerate(clauses) if not cl.negatives)
    facts = 0

    def settle(ci, forced_true):
        """Record a decided literal of clause ci; a message when that
        leaves an empty clause."""
        if not forced_true:
            undecided[ci] = -1
            return None
        undecided[ci] -= 1
        if undecided[ci] == 0:
            if clauses[ci].positive is None:
                return f"empty clause from {clauses[ci].origin}"
            units.append(ci)
        return None

    def propagate():
        """Assert queued units until none is left; a message on refutation."""
        nonlocal facts
        while units:
            cl = clauses[units.popleft()]
            x, y, p = cl.positive
            facts += 1
            merged = uf.union(x, y, p)
            if uf.conflict is not None:
                return (f"{cl.origin or 'fact'} needs {x} = {y} + {p} but "
                        f"the facts imply offset {uf.conflict[3]}")
            if merged is None:
                continue
            absorbed, survivor = merged
            kept = watch.setdefault(survivor, [])
            for li in watch.pop(absorbed, ()):
                ci, a, b, q = literals[li]
                if not live[li] or undecided[ci] < 0:
                    continue
                ra, oa = find(a)
                rb, ob = find(b)
                if ra != rb:
                    kept.append(li)
                    continue
                live[li] = 0
                failed = settle(ci, oa - ob == q)
                if failed is not None:
                    return failed
        return None

    def finish(status, reason=None, assignment=None):
        if facts:
            stats["facts"] = stats.get("facts", 0) + facts
        return SolveResult(status, assignment, reason=reason, stats=stats)

    failed = propagate()
    if failed is not None:
        return finish("UNSAT", failed)
    for ci, cl in enumerate(clauses):
        for x, y, p in cl.negatives:
            if undecided[ci] < 0:
                break
            rx, ox = find(x)
            ry, oy = find(y)
            if rx != ry:
                watch.setdefault(rx, []).append(len(literals))
                watch.setdefault(ry, []).append(len(literals))
                literals.append((ci, x, y, p))
                live.append(1)
                continue
            failed = settle(ci, ox - oy == p)
            if failed is not None:
                return finish("UNSAT", failed)
    failed = propagate()
    if failed is not None:
        return finish("UNSAT", failed)

    residual = [cl for ci, cl in enumerate(clauses) if undecided[ci] > 0]
    q_inst = max(
        [abs(p) for cl in clauses for (_, _, p) in cl.negatives]
        + [abs(cl.positive[2]) for cl in clauses if cl.positive] + [1])
    return finish("SAT", assignment=extract_assignment(uf, residual, variables,
                                                       q_inst))


def extract_assignment(uf: OffsetUnionFind, residual, variables,
                       q_inst=1) -> dict:
    """Concrete solution from the fact store.

    Components are laid out in first-seen order at bases 0, D, 2D, ... with
    ``D = 2 * q_inst * nvars + 1``; each is anchored at its first-seen
    variable, which sits at the base, and every other member sits at base
    plus its offset from that variable.  Those offsets never exceed
    ``q_inst * (nvars - 1)`` in magnitude, so values in different components
    stay more than ``q_inst`` apart and every surviving negated equality
    (whose endpoints always straddle components at the fixpoint) comes out
    true.  Residual clauses may keep their decided literals, whose atoms
    hold; the check needs one true literal per clause.
    """
    spacing = 2 * max(1, q_inst) * len(set(variables)) + 1
    assignment = {}
    for k, members in enumerate(uf.components(variables)):
        base = k * spacing
        for v, off in members:
            assignment[v] = base + off
    for cl in residual:
        ok = any(assignment[x] != assignment[y] + p
                 for x, y, p in cl.negatives)
        if not ok and cl.positive is not None:
            x, y, p = cl.positive
            ok = assignment[x] == assignment[y] + p
        if not ok:
            raise InternalError(f"extracted assignment misses clause "
                                f"from {cl.origin or 'input'}")
    return assignment


def solve_horn_csp(lang: ConstraintLanguage, inst: Instance,
                   stats=None) -> SolveResult:
    """Compile, solve, and re-verify a Horn-classified instance."""
    stats = stats if stats is not None else {}
    clauses = compile_horn_instance(lang, inst)
    result = solve_horn(clauses, inst.variables, stats=stats)
    if result.sat and not satisfies(lang, inst, result.assignment):
        raise InternalError("unit resolution witness failed re-verification")
    return result
