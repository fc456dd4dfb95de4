"""Positive unit resolution for Horn instances over successor constraints.

Facts of the form ``value(x) = value(y) + p`` group the variables into
components whose members carry integer offsets to their component's
representative; asserting a fact either merges two components, confirms a
known offset, or reports a contradiction.  The input's unit clauses are
asserted all at once, by hooking and pointer jumping over arrays
(``assert_facts``).  Unit resolution then runs a worklist in the manner of
linear-time Horn-SAT (Dowling & Gallier, "Linear-time algorithms for testing
the satisfiability of propositional Horn formulae", J. Logic Programming
1(3), 1984), over an offset union-find: each undecided negated equality
waits on the watch lists of its two endpoints' roots and is looked at again
only when one of them is merged away.  At a conflict-free fixpoint a
concrete solution is read off by spacing the components far enough apart
that the atom under every surviving negated equality comes out false.

Everything runs on integer variable ids (``Instance.names``): the compiled
clauses are arrays (``HornClauses``), the components are arrays (lists in
the union-find) indexed by id, and the witness is one value vector.  Names
appear only at the edges: ``HornClauses.pack`` numbers the names of
``HornClause`` tuples, indexing a store gives those tuples back, and the
witness and the UNSAT reasons name the variables.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .classify import is_horn, reduced_cnf
from .errors import InternalError, NotHornError
from .finite import Instance, SolveResult, satisfies
from .formula import Cmp, ConstraintLanguage

def _ints(values):
    """An int64 array of Python ints, or an object array when one does not
    fit, so that arithmetic on it stays exact."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _span(values):
    """The largest magnitude in an integer array, as a Python int."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


class OffsetUnionFind:
    """Disjoint sets of variable ids with integer offsets to the
    representative, for merging facts one at a time.

    It starts from the components that the arrays ``root`` and ``offset``
    describe (those of ``assert_facts``), kept as lists: in every model of
    the facts, ``value(v) = value(root[v]) + offset[v]``.  Each root keeps
    its component's ids in ``members`` (None for the other ids).  A merge
    relabels each member of the smaller component (on a tie, the component
    of the fact's second id) into the larger one, so an id is relabelled at
    most log2(n) times and a find is two list reads.  After the first
    contradiction the structure stays in the conflicted state, and
    ``conflict`` is the offset that the facts before it imply between the
    contradicting fact's two ids.
    """

    def __init__(self, root, offset):
        self.root = root.tolist()
        self.offset = offset.tolist()
        self.members = [[] if r == v else None
                        for v, r in enumerate(self.root)]
        for v, r in enumerate(self.root):
            self.members[r].append(v)
        self.conflict = None

    def merge(self, x, y, p):
        """Record ``value(x) = value(y) + p`` for ids x and y, and report the
        merge it made: ``(absorbed, survivor)`` roots when two components
        became one, else None (the fact was known, or it contradicts the
        facts and ``conflict`` is set)."""
        if self.conflict is not None:
            return None
        root, offset = self.root, self.offset
        rx, ry = root[x], root[y]
        if rx == ry:
            if offset[x] - offset[y] != p:
                self.conflict = offset[x] - offset[y]
            return None
        # value(rx) = value(ry) + shift
        shift = offset[y] + p - offset[x]
        members = self.members
        if len(members[rx]) < len(members[ry]):
            rx, ry, shift = ry, rx, -shift
        moved = members[ry]
        members[ry] = None
        for m in moved:
            root[m] = rx
            offset[m] -= shift
        members[rx].extend(moved)
        return ry, rx


def _components(n, x, y, p):
    """``root`` and ``offset`` arrays over ids 0..n-1 for the facts
    ``value(x[i]) = value(y[i]) + p[i]``, by hooking and pointer jumping
    (Shiloach & Vishkin, "An O(log n) parallel connectivity algorithm",
    J. Algorithms 3(1), 1982).

    ``value(v) = value(root[v]) + offset[v]`` holds for every v when the
    facts are consistent; when they are not, it holds along one spanning
    forest of them.  Each round, every root with an open fact (one whose
    endpoints have different roots) hooks onto the least root among its
    open facts, if that root is smaller than itself; the hooked roots are
    then flattened by pointer jumping, and every id follows its root.  A
    root that neither hooks nor is hooked onto in a round has all its open
    facts on roots that hooked onto smaller ones, so it hooks in the next
    round: the roots with open facts at least halve every two rounds, and
    there are at most 2 log2(n) + 1 rounds.  Pointer jumping takes at most
    log2(n) steps per round over the hooked roots alone, whose number
    halves with the rounds, so the work is O((n + m) log n) for m facts, in
    O(log^2 n) array passes.  Offsets are int64 when no sum along a path of
    facts can overflow (then neither can a difference of two offsets minus
    a fact's offset), else Python ints in object arrays.
    """
    dtype = np.int64 if 3 * len(p) * _span(p) < 2**63 else object
    root = np.arange(n)
    offset = np.zeros(n, dtype=dtype)
    while True:
        rx, ry = root[x], root[y]
        open_ = rx != ry
        x, y, p, rx, ry = x[open_], y[open_], p[open_], rx[open_], ry[open_]
        if not len(x):
            return root, offset
        # value(rx) = value(ry) + shift, and the other way round
        shift = offset[y] + p - offset[x]
        src, dst = np.concatenate((rx, ry)), np.concatenate((ry, rx))
        shift = np.concatenate((shift, -shift))
        least = np.arange(n)
        np.minimum.at(least, src, dst)
        hook = dst == least[src]
        hooked, first = np.unique(src[hook], return_index=True)
        parent, lift = np.arange(n), np.zeros(n, dtype=dtype)
        parent[hooked] = dst[hook][first]
        lift[hooked] = shift[hook][first]
        while len(hooked):  # those whose parent is not a root yet
            up = parent[hooked]
            top = parent[up]
            deep = top != up
            hooked, up = hooked[deep], up[deep]
            lift[hooked] += lift[up]
            parent[hooked] = top[deep]
        offset = offset + lift[root]
        root = parent[root]


def assert_facts(n, x, y, p):
    """Assert the facts ``value(x[i]) = value(y[i]) + p[i]`` over ids
    0..n-1, in order, up to the first contradiction.

    Returns ``(root, offset, conflict)``: ``conflict`` is None when the
    facts are consistent, else ``(i, implied)`` for the first fact i that
    contradicts the facts before it, whose offset those facts imply as
    ``implied``.  ``root`` and ``offset`` (see ``_components``) describe
    the facts asserted without a contradiction: all of them, or those
    before fact i.  One ``_components`` call decides consistency with one
    array comparison; on a contradiction, an ``OffsetUnionFind`` replays
    the facts in order up to the first that conflicts, fact i.
    """
    root, offset = _components(n, x, y, p)
    if (offset[x] - offset[y] == p).all():
        return root, offset, None
    uf = OffsetUnionFind(np.arange(n), np.zeros(n, dtype=offset.dtype))
    for i, fact in enumerate(zip(x.tolist(), y.tolist(), p.tolist())):
        uf.merge(*fact)
        if uf.conflict is not None:
            break
    return (np.array(uf.root), np.array(uf.offset, dtype=offset.dtype),
            (i, uf.conflict))


class HornClause(NamedTuple):
    """Disjunction of negated equalities plus at most one positive equality."""

    negatives: tuple  # of (x, y, p) standing for not(value(x) = value(y) + p)
    positive: tuple | None = None  # (x, y, p)
    origin: str = ""


class HornClauses(Sequence):
    """Horn clauses as arrays over variable ids.

    Clause c has the negated equalities ``not(value(neg_x[k]) =
    value(neg_y[k]) + neg_p[k])`` for k in ``range(starts[c], starts[c +
    1])``, in literal order, and the positive equality ``value(pos_x[c]) =
    value(pos_y[c]) + pos_p[c]``, or none when ``pos_x[c]`` is -1.  Id v
    stands for ``names[v]``.  Indexing by position and iteration build the
    clauses' ``HornClause`` tuples of names on demand; ``origin(c)`` is the
    text of the constraint that clause c comes from.
    """

    def __init__(self, names, starts, negatives, positives, origin):
        self.names = tuple(names)
        self.starts = starts
        self.neg_x, self.neg_y, self.neg_p = negatives
        self.pos_x, self.pos_y, self.pos_p = positives
        self.origin = origin

    @classmethod
    def pack(cls, clauses, variables):
        """Store a sequence of ``HornClause``; ids follow ``variables``,
        then the other names in order of first use."""
        ids = {}
        for v in variables:
            ids.setdefault(v, len(ids))
        starts = [0]
        neg = ([], [], [])
        pos = ([], [], [])
        origins = []
        for cl in clauses:
            for x, y, p in cl.negatives:
                neg[0].append(ids.setdefault(x, len(ids)))
                neg[1].append(ids.setdefault(y, len(ids)))
                neg[2].append(p)
            starts.append(len(neg[0]))
            x, y, p = -1, -1, 0
            if cl.positive is not None:
                x, y, p = cl.positive
                x, y = ids.setdefault(x, len(ids)), ids.setdefault(y, len(ids))
            for column, value in zip(pos, (x, y, p)):
                column.append(value)
            origins.append(cl.origin)
        return cls(ids, np.array(starts, dtype=np.int64),
                   (np.array(neg[0], dtype=np.int64),
                    np.array(neg[1], dtype=np.int64), _ints(neg[2])),
                   (np.array(pos[0], dtype=np.int64),
                    np.array(pos[1], dtype=np.int64), _ints(pos[2])),
                   origins.__getitem__)

    def __len__(self):
        return len(self.pos_x)

    def __getitem__(self, c):
        c = range(len(self))[c]
        names = self.names
        lo, hi = int(self.starts[c]), int(self.starts[c + 1])
        negatives = tuple(
            (names[x], names[y], p) for x, y, p in zip(
                self.neg_x[lo:hi].tolist(), self.neg_y[lo:hi].tolist(),
                self.neg_p[lo:hi].tolist()))
        x, y, p = (a[c:c + 1].tolist()[0]
                   for a in (self.pos_x, self.pos_y, self.pos_p))
        positive = None if x < 0 else (names[x], names[y], p)
        return HornClause(negatives, positive, self.origin(c))


def _columns(parts, width):
    """Concatenate parallel tuples of arrays column by column."""
    if not parts:
        return [np.zeros(0, dtype=np.int64)] * width
    return [np.concatenate(column) for column in zip(*parts)]


def compile_horn_instance(lang: ConstraintLanguage,
                          inst: Instance) -> HornClauses:
    """Instantiate each constraint's reduced Horn CNF with its arguments.

    Each relation is looked up and tested for Horn definability once per
    group (once per relation, when validated).  Every clause of its reduced
    Horn CNF, a template, is then instantiated for all of the relation's
    applications at once, by indexing the columns of its argument matrix.
    Literals whose two variables coincide are constants, found by masks: a
    true literal discharges its clause, a false one is dropped.  The clauses
    are sorted back into (constraint, template) order.  Raises NotHornError
    when some applied relation has no Horn definition.
    """
    clauses = []  # (constraint, template, pos_x, pos_y, pos_p, negatives)
    literals = []  # (constraint, template, position, x, y, p)
    for name, args, order in inst.groups:
        rel = lang.relation(name)
        if not is_horn(rel):
            raise NotHornError(name)
        for t, clause in enumerate(reduced_cnf(rel)):
            clause = [(lit.lhs, lit.rhs, lit.cmp is Cmp.EQ, lit.offset)
                      for lit in clause]
            kept = np.ones(len(order), dtype=bool)
            for i, j, is_eq, offset in clause:
                if (offset == 0) == is_eq:  # true when its variables coincide
                    kept &= args[:, i] != args[:, j]
            rows, con = args[kept], order[kept]
            n = len(con)
            pos = (np.full(n, -1), np.full(n, -1), np.zeros(n, dtype=np.int64))
            negatives = np.zeros(n, dtype=np.int64)
            for k, (i, j, is_eq, offset) in enumerate(clause):
                x, y = rows[:, i], rows[:, j]
                distinct = x != y
                if is_eq:
                    pos = (np.where(distinct, x, -1), np.where(distinct, y, -1),
                           np.full(n, offset))
                else:
                    negatives += distinct
                    m = int(distinct.sum())
                    literals.append((con[distinct], np.full(m, t),
                                     np.full(m, k), x[distinct], y[distinct],
                                     np.full(m, offset)))
            clauses.append((con, np.full(n, t), *pos, negatives))

    con, tmpl, pos_x, pos_y, pos_p, counts = _columns(clauses, 6)
    order = np.lexsort((tmpl, con))
    lit_con, lit_tmpl, lit_pos, neg_x, neg_y, neg_p = _columns(literals, 6)
    lit_order = np.lexsort((lit_pos, lit_tmpl, lit_con))
    constraint = con[order]
    return HornClauses(
        inst.names, np.concatenate(([0], np.cumsum(counts[order]))),
        (neg_x[lit_order], neg_y[lit_order], neg_p[lit_order]),
        (pos_x[order], pos_y[order], pos_p[order]),
        lambda c: _origin(inst, int(constraint[c])))


def _origin(inst, ci):
    name, args = inst.constraint(ci)
    return f"{name}({', '.join(args)})"


def solve_horn(clauses, variables, stats=None) -> SolveResult:
    """Run positive unit resolution to a fixpoint.

    ``clauses`` is a ``HornClauses`` store whose first ids are the distinct
    names ``variables``, in order (as ``compile_horn_instance`` and
    ``HornClauses.pack`` number them); the witness covers those.  A clause
    with neither literals nor a positive part refutes the instance.  The
    input's unit clauses are asserted all at once, in clause order, by
    ``assert_facts``; a contradiction refutes the instance.  Then every
    negated equality is decided or watched in one array pass: one whose
    endpoints share a component is forced true (the literal is deleted) or
    false (the negation holds and the clause is satisfied), and the others are
    watched on both endpoints' roots, in literal order.  Only when that pass
    leaves a clause whose negated equalities are all gone does the worklist
    run.  It asserts each such clause's positive part in turn into an
    ``OffsetUnionFind`` started from the unit clauses' components, and a
    contradiction, or such a clause without a positive part, refutes the
    instance.  When a merge relabels the smaller component into the larger,
    only the literals on the smaller one's watch list are looked at again,
    and those still undecided extend the larger one's list.  Every watch
    entry thus moves at most log2(n) times, so the worklist costs O((n + L)
    log n) for n variables and L literals, as the batch assertion of the unit
    clauses does.  At the fixpoint the instance is satisfiable and a witness
    is extracted and checked against every clause.  ``stats["facts"]`` counts
    the facts asserted, one per unit clause (given or derived), repeats
    included, up to the first contradiction.
    """
    stats = stats if stats is not None else {}
    counts = np.diff(clauses.starts)
    empty = np.flatnonzero((counts == 0) & (clauses.pos_x < 0))
    if len(empty):
        origin = clauses.origin(empty[0]) or "input"
        return SolveResult("UNSAT", reason=f"empty clause from {origin}",
                           stats=stats)

    def finish(status, reason=None, assignment=None):
        if facts:
            stats["facts"] = stats.get("facts", 0) + facts
        return SolveResult(status, assignment, reason=reason, stats=stats)

    units = np.flatnonzero(counts == 0)
    root, offset, conflict = assert_facts(
        len(clauses.names), clauses.pos_x[units], clauses.pos_y[units],
        clauses.pos_p[units])
    if conflict is not None:
        i, implied = conflict
        facts = i + 1
        return finish("UNSAT", _contradiction(clauses, units[i], implied))
    facts = len(units)
    # Decide or watch every literal.  A literal whose endpoints share a
    # component is forced true (deleted) or false (its clause is satisfied,
    # and the clause's other literals are never looked at again).
    lit_clause = np.repeat(np.arange(len(counts)), counts)
    nx, ny = clauses.neg_x, clauses.neg_y
    same = root[nx] == root[ny]
    forced = same & np.asarray(offset[nx] - offset[ny] == clauses.neg_p,
                               dtype=bool)
    satisfied = np.zeros(len(counts), dtype=bool)
    satisfied[lit_clause[same & ~forced]] = True
    done = counts - np.bincount(lit_clause[forced], minlength=len(counts))
    full = (counts > 0) & (done == 0) & ~satisfied
    empty = np.flatnonzero(full & (clauses.pos_x < 0))
    if len(empty):
        return finish("UNSAT", f"empty clause from {clauses.origin(empty[0])}")
    if full.any():
        # Derived units: run the worklist over lists indexed by id.
        uf = OffsetUnionFind(root, offset)
        root_of, offset_of, merge = uf.root, uf.offset, uf.merge
        pos_x, pos_y, pos_p = (a.tolist() for a in
                               (clauses.pos_x, clauses.pos_y, clauses.pos_p))
        lit_of = lit_clause.tolist()
        lit_x, lit_y, lit_p = (a.tolist() for a in
                               (nx, ny, clauses.neg_p))
        # undecided negated literals per clause; -1 once it is satisfied
        undecided = np.where(satisfied, -1, done).tolist()
        watch = ~same & ~satisfied[lit_clause]
        live = bytearray(watch.tobytes())  # per literal: watched, undecided
        watch = np.flatnonzero(watch)
        # the literals watched on each root, ascending, then those moved in
        watched = [[] for _ in clauses.names]
        for li, a, b in zip(watch.tolist(), root[nx[watch]].tolist(),
                            root[ny[watch]].tolist()):
            watched[a].append(li)
            watched[b].append(li)
        queue = deque(np.flatnonzero(full).tolist())
        while queue:
            ci = queue.popleft()
            facts += 1
            merged = merge(pos_x[ci], pos_y[ci], pos_p[ci])
            if uf.conflict is not None:
                return finish("UNSAT", _contradiction(clauses, ci,
                                                      uf.conflict))
            if merged is None:
                continue
            absorbed, survivor = merged
            kept = watched[survivor]
            for li in watched[absorbed]:
                cj = lit_of[li]
                if not live[li] or undecided[cj] < 0:
                    continue
                a, b = lit_x[li], lit_y[li]
                if root_of[a] != root_of[b]:
                    kept.append(li)
                    continue
                live[li] = 0
                if offset_of[a] - offset_of[b] != lit_p[li]:
                    undecided[cj] = -1  # the negation holds
                    continue
                undecided[cj] -= 1
                if undecided[cj] == 0:
                    if pos_x[cj] < 0:
                        return finish("UNSAT", f"empty clause from "
                                               f"{clauses.origin(cj)}")
                    queue.append(cj)
            watched[absorbed] = None
        root, offset = np.array(root_of), _ints(offset_of)

    q_inst = max(_span(clauses.neg_p),
                 _span(clauses.pos_p[clauses.pos_x >= 0]), 1)
    return finish("SAT", assignment=extract_assignment(
        root, offset, clauses, variables, q_inst))


def _contradiction(clauses, ci, implied):
    """The reason when unit clause ci contradicts the facts before it, which
    imply the offset ``implied`` between its endpoints."""
    x, y, p = (int(a[ci]) for a in
               (clauses.pos_x, clauses.pos_y, clauses.pos_p))
    return (f"{clauses.origin(ci) or 'fact'} needs {clauses.names[x]} = "
            f"{clauses.names[y]} + {p} but the facts imply offset {implied}")


def extract_assignment(root, offset, clauses, variables, q_inst=1) -> dict:
    """Concrete solution from components over variable ids.

    ``root`` and ``offset`` are integer arrays over the ids saying that
    ``value(v) = value(root[v]) + offset[v]``.  ``clauses`` is a
    ``HornClauses`` store over the same ids, whose first ids are the distinct
    names ``variables``.  Components are laid out in order of their least id
    (so the variables' components come first, in first-seen order) at bases 0,
    D, 2D, ... with ``D = 2 * q_inst * nvars + 1``; each is anchored at its
    least id, which sits at the base, and every other member sits at base plus
    its offset from that id.  Those offsets never exceed ``q_inst * (nvars -
    1)`` in magnitude, so values in different components stay more than
    ``q_inst`` apart and every surviving negated equality (whose endpoints
    always straddle components at the fixpoint) comes out true.  The values
    form one vector over the ids, int64 when they fit and Python ints
    otherwise; the witness lists the variables component by component.  Each
    clause must have a true literal under that vector; the literals unit
    resolution decided hold, so the check is exact.
    """
    n = len(variables)
    spacing = 2 * max(1, q_inst) * n + 1
    _, first, comp = np.unique(root, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    if len(first) * spacing + 2 * _span(offset) >= 2**63:
        rank, offset = rank.astype(object), offset.astype(object)
    value = rank[comp] * spacing + offset - offset[first][comp]
    layout = np.argsort(rank[comp[:n]], kind="stable")
    assignment = dict(zip([variables[i] for i in layout.tolist()],
                          value[layout].tolist()))

    counts = np.diff(clauses.starts)
    ok = np.zeros(len(counts), dtype=bool)
    holds = value[clauses.neg_x] != value[clauses.neg_y] + clauses.neg_p
    ok[np.repeat(np.arange(len(counts)), counts)[np.asarray(holds, bool)]] = True
    has = clauses.pos_x >= 0
    px, py = np.where(has, clauses.pos_x, 0), np.where(has, clauses.pos_y, 0)
    ok |= has & np.asarray(value[px] == value[py] + clauses.pos_p, bool)
    missed = np.flatnonzero(~ok)
    if len(missed):
        raise InternalError(f"extracted assignment misses clause from "
                            f"{clauses.origin(missed[0]) or 'input'}")
    return assignment


def solve_horn_csp(lang: ConstraintLanguage, inst: Instance,
                   stats=None) -> SolveResult:
    """Compile, solve, and re-verify a Horn-classified instance."""
    stats = stats if stats is not None else {}
    clauses = compile_horn_instance(lang, inst)
    variables = tuple(dict.fromkeys(inst.variables))
    result = solve_horn(clauses, variables, stats=stats)
    if result.sat and not satisfies(lang, inst, result.assignment):
        raise InternalError("unit resolution witness failed re-verification")
    return result
