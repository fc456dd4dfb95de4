"""Shared corpus builders and naive reference implementations for tests."""

import itertools
import math
import random
import re

import numpy as np

from dtcsp import (
    And,
    ArityError,
    BudgetExceeded,
    Cmp,
    ConstraintLanguage,
    DifferenceProfile,
    Formula,
    Instance,
    Literal,
    Not,
    Or,
    ParseError,
    ProfileTag,
    RelationDef,
    random_horn_relation,
    random_instance,
    random_relation,
)
from dtcsp import finite, formula, grids

# Largest n per qe-degree keeping the brute windows enumerable in tests.
BRUTE_LEAF_CAP = 4 * 10**6


def max_vars_for(q, nmax, doubled=False):
    factor = 2 * (q + 1) if doubled else (q + 1)
    n = 1
    for cand in range(2, nmax + 1):
        if (factor * cand) ** cand <= BRUTE_LEAF_CAP:
            n = cand
    return max(n, 1)


def random_mixed_language(seed, nrels=3, arity_max=3, q_max=3):
    rng = random.Random(seed)
    rels = []
    for i in range(nrels):
        arity = rng.randint(2, arity_max)
        q = rng.randint(0, q_max)
        rels.append(random_relation(arity, q, seed * 1000 + i,
                                    dialect="mixed", name=f"R{i}"))
    return ConstraintLanguage(tuple(rels))


def random_horn_language(seed, nrels=3, arity_max=3, q_max=3):
    rng = random.Random(seed)
    rels = []
    for i in range(nrels):
        arity = rng.randint(2, arity_max)
        q = rng.randint(0, q_max)
        rels.append(random_horn_relation(arity, q, seed * 1000 + i,
                                         name=f"H{i}"))
    return ConstraintLanguage(tuple(rels))


def leq(i, j, c=0):
    return Literal(i, j, Cmp.LEQ, c)


def eq(i, j, c=0):
    return Literal(i, j, Cmp.EQ, c)


def max_closed_language(seed, nrels=3, off_max=3):
    """Difference bounds and z <= max(x,y)+p relations; all max-closed."""
    rng = random.Random(seed)
    rels = []
    for i in range(nrels):
        kind = rng.randrange(3)
        c = rng.randint(-off_max, off_max)
        if kind == 0:
            root = leq(0, 1, c)
            rels.append(RelationDef(f"M{i}", 2, Formula(root)))
        elif kind == 1:
            root = And((leq(0, 1, abs(c)), leq(1, 0, rng.randint(0, off_max))))
            rels.append(RelationDef(f"M{i}", 2, Formula(root)))
        else:
            p = rng.randint(0, off_max)
            root = Or((leq(2, 0, p), leq(2, 1, p)))
            rels.append(RelationDef(f"M{i}", 3, Formula(root)))
    return ConstraintLanguage(tuple(rels))


def legacy_halfwidth(rel, op):
    """The proof window's former half-width, ``(q + d + 1) * 2k``.  It is at
    least ``classify.default_halfwidth``, and every window that wide is
    complete, so preservation must come out the same on both."""
    return (rel.formula.qe_degree + op.d + 1) * 2 * rel.arity


def legacy_difference_profile(rel, i, j):
    """The former profile reading: the relation's grid over
    ``[0, (tau + 3) * arity)^arity``, ``tau = q * (arity - 1)``, projected
    onto (i, j), each difference read off a diagonal."""
    k = rel.arity
    tau = rel.formula.qe_degree * (k - 1)
    B = tau + 2
    grid = grids.grid_eval(rel.formula, k, 0, (tau + 3) * k)
    other_axes = tuple(a for a in range(k) if a not in (i, j))
    proj = grid.any(axis=other_axes) if other_axes else grid
    if i > j:
        proj = proj.T
    members = {delta: bool(np.diagonal(proj, offset=-delta).any())
               for delta in range(-B, B + 1)}
    pos_fringe = {members[delta] for delta in range(tau + 1, B + 1)}
    neg_fringe = {members[-delta] for delta in range(tau + 1, B + 1)}
    if len(pos_fringe) > 1 or len(neg_fringe) > 1:
        tag = ProfileTag.MIXED
    else:
        pos, neg = pos_fringe.pop(), neg_fringe.pop()
        tag = (ProfileTag.COFINITE if pos and neg
               else ProfileTag.ONE_SIDED_INFINITE if pos or neg
               else ProfileTag.FINITE)
    values = [delta for delta in range(-B, B + 1) if members[delta]]
    return DifferenceProfile(i, j, B, profile_spans(values), tag)


def unpack(bits, shape):
    """The boolean grid of ``shape`` packed in ``bits`` (``grids.pack``)."""
    n = math.prod(shape)
    raw = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool).reshape(
        shape)


def grid_difference_profile(rel, i, j):
    """The profile read off the grid pinned at x_j (``grids.pinned_tables``)
    with half-width ``R = B + (arity - 2)(q + 1)``, ``B = q(arity - 1) + 2``.

    A tuple with ``|x_i - x_j| <= B``, translated to x_j = 0, keeps every
    literal's truth value when each gap above q + 1 outside the stretch from
    x_j to x_i shrinks to q + 1; it then lies in the grid."""
    k = rel.arity
    q = rel.formula.qe_degree
    tau = q * (k - 1)
    B = tau + 2
    R = B + (k - 2) * (q + 1)
    (bits,) = grids.pinned_tables([rel.formula.root], k, j, R)
    grid = unpack(bits, tuple(1 if a == j else 2 * R + 1
                              for a in range(k)))
    row = grid.any(axis=tuple(a for a in range(k) if a != i))
    members = row[R - B:R + B + 1]  # differences -B..B
    pos_fringe = members[B + tau + 1:]
    neg_fringe = members[:B - tau]
    if pos_fringe.all() != pos_fringe.any() or \
            neg_fringe.all() != neg_fringe.any():
        tag = ProfileTag.MIXED
    else:
        pos, neg = pos_fringe[0], neg_fringe[0]
        tag = (ProfileTag.COFINITE if pos and neg
               else ProfileTag.ONE_SIDED_INFINITE if pos or neg
               else ProfileTag.FINITE)
    values = (np.flatnonzero(members) - B).tolist()
    return DifferenceProfile(i, j, B, profile_spans(values), tag)


def profile_spans(values):
    """The ``DifferenceProfile.spans`` of ascending distinct differences:
    maximal runs of consecutive values, as inclusive ``(lo, hi)`` pairs."""
    spans = []
    for v in values:
        if spans and v == spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], v)
        else:
            spans.append((v, v))
    return tuple(spans)


def _clause_deletions(clauses):
    """``clauses`` less one clause, for each clause in order."""
    for i in range(len(clauses)):
        yield clauses[:i] + clauses[i + 1:]


def _literal_deletions(clauses):
    """``clauses`` less one literal, clause by clause, literals in order."""
    for i, c in enumerate(clauses):
        for j in range(len(c)):
            yield clauses[:i] + (c[:j] + c[j + 1:],) + clauses[i + 1:]


def literal_keyed_reduce(f):
    """The former ``formula.reduce``, with its truth tables keyed by
    ``Literal``: each literal's packed grid on the window pinned at x1 is
    built on first use.  Over the ``Literal`` clauses themselves it takes
    the first single deletion that keeps the truth table, clauses before
    literals, restarts after each, and stops when none is left; its work
    budget charges every clause set it evaluates in full."""
    if f.view not in ("cnf", "dnf"):
        raise ValueError("reduce needs a formula with a CNF or DNF view")
    nv = max(1, f.nvars)
    R = formula._window(nv, f.qe_degree, "reduce")
    points = (2 * R + 1) ** (nv - 1)
    full = (1 << points) - 1
    lit_bits = {}
    work = 0

    def bits_of(lit):
        if lit not in lit_bits:
            (lit_bits[lit],) = grids.pinned_tables([lit], nv, 0, R)
        return lit_bits[lit]

    def truth(cls):
        nonlocal work
        work += len(cls) * points
        if work > formula.DEFAULT_REDUCE_WORK:
            raise BudgetExceeded(
                f"reduce exceeds its work budget of "
                f"{formula.DEFAULT_REDUCE_WORK} clause-point evaluations")
        if f.view == "cnf":
            acc = full
            for c in cls:
                cb = 0
                for lit in c:
                    cb |= bits_of(lit)
                acc &= cb
            return acc
        acc = 0
        for c in cls:
            cb = full
            for lit in c:
                cb &= bits_of(lit)
            acc |= cb
        return acc

    clauses = f.clauses
    target = truth(clauses)
    while True:
        start = clauses
        for deletions in (_clause_deletions, _literal_deletions):
            while (cand := next((c for c in deletions(clauses)
                                 if truth(c) == target), None)) is not None:
                clauses = cand
        if clauses is start:
            return formula.formula_from_clauses(f.view, clauses)


def masked_first_member(R, u_idx, codes, d):
    """``classify._first_member`` by masking the whole grid once per axis
    and taking the first of all its hits."""
    masked = R
    for axis, code in enumerate(codes):
        index = np.arange(R.shape[axis])
        u = u_idx[axis]
        if code == "eq":
            mask = index == u
        elif code == "le":
            mask = (index <= u) & (index % d == u % d)
        else:
            mask = (index <= u) | (index % d != u % d)
        shape = [1] * R.ndim
        shape[axis] = R.shape[axis]
        masked = masked & mask.reshape(shape)
    return tuple(int(x) for x in np.argwhere(masked)[0])


def legacy_candidate_moduli(profiles):
    """The former candidate moduli: 1 up to the largest finite profile
    spread (capped at 16), plus the divisors of each finite profile's gap
    gcd.  They include every divisor of ``classify._candidate_moduli``'s G,
    so classifying under either list must give the same verdict."""
    out = {1}
    spread_max = 0
    for prof in profiles:
        if prof.tag is not ProfileTag.FINITE or len(prof.values) == 0:
            continue
        vals = sorted(prof.values)
        spread = vals[-1] - vals[0]
        spread_max = max(spread_max, min(spread, 16))
        if len(vals) >= 2:
            g = 0
            for a, b in zip(vals, vals[1:]):
                g = math.gcd(g, b - a)
            for cand in range(1, g + 1):
                if g % cand == 0:
                    out.add(cand)
    out.update(range(1, spread_max + 1))
    return sorted(out)


def random_positive_language(seed, nrels=2, arity_max=3, q_max=3):
    """Seed-deterministic successor-dialect language whose relations are
    disjunctions of conjunctions of equalities ``x_i = x_j + c``, |c| <= q:
    positive by construction."""
    rng = random.Random(seed)
    rels = []
    for r in range(nrels):
        k = rng.randint(2, arity_max)
        q = rng.randint(0, q_max)
        terms = []
        for _ in range(rng.randint(1, 3)):
            lits = tuple(eq(*rng.sample(range(k), 2), rng.randint(-q, q))
                         for _ in range(rng.randint(1, k - 1)))
            terms.append(And(lits) if len(lits) > 1 else lits[0])
        root = Or(tuple(terms)) if len(terms) > 1 else terms[0]
        rels.append(RelationDef(f"P{r}", k, Formula(root)))
    return ConstraintLanguage(tuple(rels))


def _mirror_node(node):
    if isinstance(node, Literal):
        return Literal(node.rhs, node.lhs, node.cmp, node.offset)
    if isinstance(node, Not):
        return Not(_mirror_node(node.part))
    kind = And if isinstance(node, And) else Or
    return kind(tuple(_mirror_node(p) for p in node.parts))


def mirror_language(lang):
    """The language under x -> -x: swaps max-closed and min-closed."""
    return ConstraintLanguage(tuple(
        RelationDef(r.name, r.arity, Formula(_mirror_node(r.formula.root)))
        for r in lang.relations))


def naive_bounds(lang, inst, window, mode="max"):
    """Reference bound fixpoint by tuple enumeration.

    Every bound starts at the top of the window (bottom for mode "min") and
    moves to the largest (smallest) value an argument takes in the window
    tuples of its constraint that lie within all bounds, until nothing
    changes.  None when some constraint has no such tuple left."""
    better = (lambda a, b: a > b) if mode == "max" else (lambda a, b: a < b)
    pick = max if mode == "max" else min
    bound = {v: pick(window) for v in inst.variables}
    tables = {}
    for rel in lang.relations:
        fn = rel.formula.compiled()
        tables[rel.name] = [t for t in itertools.product(window, repeat=rel.arity)
                            if fn(t)]
    changed = True
    while changed:
        changed = False
        for name, args in inst.constraints:
            live = [t for t in tables[name]
                    if all(t[i] == t[args.index(a)] and not better(t[i], bound[a])
                           for i, a in enumerate(args))]
            if not live:
                return None
            for i, a in enumerate(args):
                top = pick(t[i] for t in live)
                if better(bound[a], top):
                    bound[a] = top
                    changed = True
    return bound


def dict_arc_consistency(lang, inst, domains, stats=None, changed=None):
    """``finite.arc_consistency`` on domains given as a dict of sorted value
    lists, with the variable ``changed`` named.  The domain matrix and the
    window grids span the domains' values; the fixpoint comes back as such
    a dict, or None."""
    values = [x for d in domains.values() for x in d]
    lo, hi = min(values, default=0), max(values, default=0) + 1
    tables = finite._window_grids(lang, inst, hi - lo, "arc-consistency grids")
    matrix = np.zeros((len(inst.names), hi - lo), dtype=bool)
    for row, v in zip(matrix, inst.names):
        row[np.asarray(domains[v], dtype=np.int64) - lo] = True
    if changed is not None:
        changed = inst.names.index(changed)
    fixed = finite.arc_consistency(tables, matrix, stats=stats,
                                   changed=changed)
    if fixed is None:
        return None
    return {v: (np.flatnonzero(row) + lo).tolist()
            for v, row in zip(inst.names, fixed)}


def tuple_arc_consistency(lang, inst, domains, stats):
    """Reference GAC over explicit tuple lists, in the queue order of
    ``finite.arc_consistency``.

    Each constraint keeps the relation's tuples over the span of the
    domains whose repeated arguments agree.  The queue starts with all
    constraints in declaration order; a revision filters the tuples to the
    current domains, then narrows each distinct argument in order of first
    position to the values its live tuples take, re-queueing the
    constraints on a narrowed variable.  Returns the narrowed domains as
    sorted lists, or None at the first emptied domain; ``stats["revisions"]``
    counts removed values."""
    values = [x for d in domains.values() for x in d]
    span = range(min(values, default=0), max(values, default=0) + 1)
    entries = []
    for name, args in inst.constraints:
        rel = lang.relation(name)
        fn = rel.formula.compiled()
        tuples = [t for t in itertools.product(span, repeat=rel.arity)
                  if fn(t) and all(t[i] == t[args.index(a)]
                                   for i, a in enumerate(args))]
        entries.append((tuple(dict.fromkeys(args)), args, tuples))
    doms = {v: set(d) for v, d in domains.items()}
    queue = list(range(len(entries)))
    while queue:
        ci = queue.pop(0)
        distinct, args, tuples = entries[ci]
        live = [t for t in tuples if all(x in doms[a] for x, a in zip(t, args))]
        for v in distinct:
            supported = {t[args.index(v)] for t in live}
            if doms[v] <= supported:
                continue
            stats["revisions"] = (stats.get("revisions", 0)
                                  + len(doms[v] - supported))
            doms[v] &= supported
            if not doms[v]:
                return None
            queue += [cj for cj, (other, _, _) in enumerate(entries)
                      if v in other and cj not in queue]
    return {v: sorted(d) for v, d in doms.items()}


def strided_accumulate_leq_mod(arr, axis, d):
    """Reference for ``grids.accumulate_leq_mod`` on a boolean ndarray: one
    OR-accumulate along the axis per residue phase, over the strided view of
    that phase."""
    out = arr.copy()
    moved = np.moveaxis(out, axis, -1)
    width = moved.shape[-1]
    for phase in range(min(d, width)):
        sub = moved[..., phase::d]
        np.logical_or.accumulate(sub, axis=-1, out=sub)
    return out


def naive_other_residue_any(arr, axis, d):
    """Reference for ``grids.other_residue_any`` on a boolean ndarray, cell
    by cell: does any position along the axis whose index residue mod d
    differs from the cell's own hold a True?"""
    out = np.zeros_like(arr)
    for cell in np.ndindex(arr.shape):
        for j in range(arr.shape[axis]):
            if j % d != cell[axis] % d:
                other = cell[:axis] + (j,) + cell[axis + 1:]
                out[cell] |= arr[other]
    return out


def numpy_other_residue_any(arr, axis, d):
    """``grids.other_residue_any`` on a boolean ndarray: count the residue
    phases of each line that hold a cell; another phase than a cell's own
    holds one iff more phases do than its own alone."""
    if d == 1:
        return np.zeros_like(arr)
    moved = np.moveaxis(arr, axis, -1)
    nphases = min(d, moved.shape[-1])
    anys = [moved[..., p::d].any(axis=-1) for p in range(nphases)]
    count = np.zeros(anys[0].shape, dtype=np.min_scalar_type(nphases))
    for a in anys:
        count += a
    out = np.empty_like(arr)
    out_moved = np.moveaxis(out, axis, -1)
    for p in range(nphases):
        out_moved[..., p::d] = (count > anys[p])[..., None]
    return out


def numpy_first_violation(R, d):
    """Reference for ``classify._first_violation``: the same depth-first
    case tree walked on boolean ndarrays, the first violating cell of a leaf
    found by ``np.argmax`` in C order."""
    codes = {"s": ("eq", "le_or_other"), "t": ("le", "eq")}

    def walk(outside, S, T, choices):
        axis = len(choices)
        if axis == R.ndim:
            bad = S & T & outside
            if not bad.any():
                return None
            u_idx = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return (tuple(int(x) for x in u_idx),
                    tuple(codes[c][0] for c in choices),
                    tuple(codes[c][1] for c in choices))
        T_s = strided_accumulate_leq_mod(T, axis, d)
        if d > 1:
            T_s |= numpy_other_residue_any(T, axis, d)
        hit = walk(outside, S, T_s, choices + ("s",))
        if hit is not None or (d == 1 and axis == 0):
            return hit
        return walk(outside, strided_accumulate_leq_mod(S, axis, d), T,
                    choices + ("t",))

    if not R.any():
        return None
    return walk(~R, R, R, ())


def pattern_reachable(R, d):
    """Reference for the case tree of ``classify``: the images under the
    d-modular max of all pairs of cells of ``R``, as the union over all 3^k
    per-axis case patterns of the intersection of the two argument grids.
    The cases of an axis: s supplies u_i and t_i is at most u_i in the same
    class ("mf"), t supplies u_i and s_i is at most u_i in the same class
    ("ms"), or s supplies u_i and t_i lies in another class ("x").  Index
    space is value space shifted, which leaves the operation's residue
    classes and order intact."""
    def transform(codes):
        arr = R
        for axis, code in enumerate(codes):
            if code == "le":
                arr = strided_accumulate_leq_mod(arr, axis, d)
            elif code == "ne":
                arr = naive_other_residue_any(arr, axis, d)
        return arr

    side_codes = {"mf": ("eq", "le"), "ms": ("le", "eq"), "x": ("eq", "ne")}
    reachable = np.zeros_like(R)
    for pattern in itertools.product(side_codes, repeat=R.ndim):
        reachable |= (transform([side_codes[c][0] for c in pattern])
                      & transform([side_codes[c][1] for c in pattern]))
    return reachable


def progression_formula(a, b, d):
    lits = tuple(Literal(1, 0, Cmp.EQ, c) for c in range(a, b + 1, d))
    return Formula(Or(lits))


def t_relation_formula(d):
    return Formula(Or((
        And((eq(0, 2, d), eq(1, 2, 0))),
        And((eq(0, 2, d), eq(1, 2, d))),
        And((eq(0, 2, 0), eq(1, 2, d))),
    )))


def modular_language(seed, d, nrels=3):
    """Positive successor relations preserved by the d-modular max but not by
    any smaller modulus: step-d progressions plus the witness triple."""
    rng = random.Random(seed)
    rels = [RelationDef("P0", 2, progression_formula(-d, d, d))]
    for i in range(1, nrels):
        if rng.random() < 0.4:
            rels.append(RelationDef(f"P{i}", 3, t_relation_formula(d)))
        else:
            steps = rng.randint(1, 2)
            start = -d * rng.randint(0, 2)
            rels.append(RelationDef(
                f"P{i}", 2, progression_formula(start, start + steps * d, d)))
    return ConstraintLanguage(tuple(rels))


def capped_instance(lang, seed, nmax, doubled=False, cmax=8):
    rng = random.Random(seed)
    n = rng.randint(2, max(2, max_vars_for(lang.q, nmax, doubled=doubled)))
    m = rng.randint(1, cmax)
    return random_instance(lang, n, m, seed * 7 + 3)


class NaiveOffsetGraph:
    """Reference for the offset union-find: BFS over the raw fact graph."""

    def __init__(self):
        self.edges = {}
        self.conflict = False

    def assert_fact(self, x, y, p):
        if self.conflict:
            return "conflict"
        io = self.implied_offset(x, y)
        if io is not None and io != p:
            self.conflict = True
            return "conflict"
        self.edges.setdefault(x, []).append((y, p))
        self.edges.setdefault(y, []).append((x, -p))
        return "ok"

    def implied_offset(self, x, y):
        if x == y:
            return 0
        return self.offsets_from(x).get(y)

    def offsets_from(self, x):
        """value(x) - value(y) for every y reachable from x, x included."""
        seen = {x: 0}
        frontier = [x]
        while frontier:
            node = frontier.pop()
            for nxt, w in self.edges.get(node, ()):
                if nxt not in seen:
                    seen[nxt] = seen[node] + w
                    frontier.append(nxt)
        return seen


def equivalent_rewrites(formula):
    """Five semantics-preserving rewrites of a formula tree."""
    r = formula.root
    return [
        Formula(Not(Not(r))),
        Formula(And((r, r))),
        Formula(Or((r, r))),
        Formula(And((r, Or((r, r))))),
        Formula(Not(Not(Not(Not(r))))),
    ]


def naive_unit_resolution(clauses):
    """Reference Horn solver: round-based positive unit resolution.

    Asserts every unit clause, then rescans all live clauses once per round
    until a round changes nothing: a negated equality whose atom the facts
    force true is deleted, one whose atom they force false satisfies its
    clause, and a clause left without negatives is asserted as a fact (or,
    lacking a positive part, refutes the instance).  Facts live in a
    NaiveOffsetGraph.  Returns ``(status, facts asserted, fact store)``."""
    store = NaiveOffsetGraph()
    facts = 0
    units = []
    active = []
    for cl in clauses:
        if not cl.negatives and cl.positive is None:
            return "UNSAT", facts, store
        if cl.negatives:
            active.append((list(cl.negatives), cl.positive))
        else:
            units.append(cl.positive)
    for fact in units:
        facts += 1
        if store.assert_fact(*fact) == "conflict":
            return "UNSAT", facts, store
    changed = True
    while changed:
        changed = False
        remaining = []
        for negatives, positive in active:
            kept = []
            satisfied = False
            for x, y, p in negatives:
                io = store.implied_offset(x, y)
                if io is None:
                    kept.append((x, y, p))
                    continue
                changed = True
                if io != p:
                    satisfied = True
                    break
            if satisfied:
                continue
            if kept:
                remaining.append((kept, positive))
                continue
            changed = True
            if positive is None:
                return "UNSAT", facts, store
            facts += 1
            if store.assert_fact(*positive) == "conflict":
                return "UNSAT", facts, store
        active = remaining
    return "SAT", facts, store


# ---------------------------------------------------------------------------
# .dti reference parser: the line-by-line parser and the constraint-by-
# constraint validation that dtcsp.cli.parse_instance replaced.

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_APPLY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*$")
_SUGAR_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(<=|<|!=|=)\s*([A-Za-z_][A-Za-z0-9_]*)"
    r"\s*(?:([+-])\s*(\d+))?\s*$")
_CMP_FROM_TEXT = {"<=": Cmp.LEQ, "<": Cmp.LT, "=": Cmp.EQ, "!=": Cmp.NEQ}
_CMP_SLUG = {Cmp.LEQ: "leq", Cmp.LT: "lt", Cmp.EQ: "eq", Cmp.NEQ: "neq"}


def naive_validate_instance(lang, inst):
    declared = set(inst.variables)
    if len(declared) != len(inst.variables):
        raise ParseError("duplicate variable declaration")
    for name, args in inst.constraints:
        try:
            rel = lang.relation(name)
        except KeyError:
            raise ParseError(f"unknown relation {name!r}") from None
        if len(args) != rel.arity:
            raise ArityError(
                f"{name} expects {rel.arity} arguments, got {len(args)}")
        for a in args:
            if a not in declared:
                raise ParseError(f"undeclared variable {a!r}")


def naive_parse_instance(text, lang):
    """Parse a .dti document line by line; returns (instance, language with
    implicit relations for any sugar literals appended)."""
    variables = None
    constraints = []
    implicit = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            parts = line.split()
            if parts[0] != "var" or len(parts) < 2:
                raise ParseError("expected a 'var a b c' declaration", lineno)
            for v in parts[1:]:
                if not _IDENT_RE.match(v):
                    raise ParseError(f"bad variable name {v!r}", lineno)
            variables = tuple(parts[1:])
            continue
        m = _APPLY_RE.match(line)
        if m:
            name = m.group(1)
            args = tuple(a.strip() for a in m.group(2).split(",")) \
                if m.group(2).strip() else ()
            constraints.append((name, args))
            continue
        m = _SUGAR_RE.match(line)
        if m:
            lhs, cmp_text, rhs, sign, digits = m.groups()
            offset = int(digits) * (-1 if sign == "-" else 1) if digits else 0
            cmp = _CMP_FROM_TEXT[cmp_text]
            key = (cmp, offset)
            if key not in implicit:
                rel_name = f"_{_CMP_SLUG[cmp]}{offset:+d}"
                implicit[key] = RelationDef(
                    rel_name, 2, Formula(Literal(0, 1, cmp, offset)))
            constraints.append((implicit[key].name, (lhs, rhs)))
            continue
        raise ParseError(f"cannot parse constraint {line!r}", lineno)
    if variables is None:
        raise ParseError("instance file declares no variables")
    extended = lang.extended(implicit.values()) if implicit else lang
    inst = Instance(variables, tuple(constraints))
    naive_validate_instance(extended, inst)
    return inst, extended
