"""Ground truth: exhaustive solving, materialization, random generators.

Everything here stays deliberately naive.  The brute-force solver enumerates
assignments in lexicographic order (as a depth-first walk that rejects a
prefix only once a constraint is fully bound, which visits candidates in the
same order and returns the same first solution as a flat product scan), and
materialization filters the full window product through plain tree
evaluation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import BudgetExceeded
from .formula import And, Cmp, Formula, Literal, Not, Or, RelationDef, compile_applied
from .finite import ConstraintLanguage, Instance, SolveResult

DEFAULT_ENUM_BUDGET = 10**8


@dataclass(frozen=True)
class TupleSet:
    """Deduplicated, lexicographically sorted tuples within a window."""

    arity: int
    window: tuple
    tuples: tuple


def _window_size(window):
    """Number of values of ``window``, a ``range`` or a sized collection of
    ints.  A ``range`` is counted from its ends: ``len`` overflows on a
    huge one, and no list of its values is built before a budget check."""
    if isinstance(window, range):
        return (window[-1] - window[0]) // window.step + 1 if window else 0
    return len(window)


def brute_solve(lang: ConstraintLanguage, inst: Instance, window,
                budget=DEFAULT_ENUM_BUDGET, stats=None) -> SolveResult:
    """First satisfying assignment over window^n in lexicographic order."""
    stats = stats if stats is not None else {}
    n = len(inst.variables)
    if n == 0:
        return SolveResult("SAT", {}, stats=stats)
    size = _window_size(window)
    if size**n > budget:
        raise BudgetExceeded(f"{size}^{n} assignments exceed budget {budget}")
    values = sorted(window)
    order = list(inst.variables)
    index = {v: i for i, v in enumerate(order)}
    grouped = [[] for _ in range(n)]
    for name, args in inst.constraints:
        rel = lang.relation(name)
        arg_idx = tuple(index[a] for a in args)
        grouped[max(arg_idx)].append((rel.formula, arg_idx))
    checks = [compile_applied(pairs) for pairs in grouped]
    if not values:
        return SolveResult("UNSAT", stats=stats)

    current = [0] * n
    visited = [0]

    def rec(depth):
        if depth == n:
            return dict(zip(order, current))
        fn = checks[depth]
        nxt = depth + 1
        for val in values:
            current[depth] = val
            visited[0] += 1
            if fn is None or fn(current):
                found = rec(nxt)
                if found is not None:
                    return found
        return None

    found = rec(0)
    stats["branches"] = stats.get("branches", 0) + visited[0]
    if found is None:
        return SolveResult("UNSAT", stats=stats)
    return SolveResult("SAT", found, stats=stats)


def materialize(rel: RelationDef, window, budget=DEFAULT_ENUM_BUDGET) -> TupleSet:
    """All tuples of the relation inside window^arity."""
    size = _window_size(window)
    if size**rel.arity > budget:
        raise BudgetExceeded(
            f"{size}^{rel.arity} tuples exceed budget {budget}")
    values = sorted(window)
    rows = tuple(t for t in itertools.product(values, repeat=rel.arity)
                 if rel.formula.evaluate(t))
    return TupleSet(rel.arity, tuple(values), rows)


# ---------------------------------------------------------------------------
# Random generators.  Seed-deterministic; the node distribution is a harness
# constant: 40% literal, 25% AND, 25% OR, 10% NOT, depth at most 4.

_CMP_POOLS = {
    "mixed": (Cmp.LEQ, Cmp.LT, Cmp.EQ, Cmp.NEQ),
    "successor": (Cmp.EQ, Cmp.NEQ),
    "order": (Cmp.LEQ, Cmp.LT),
}


def _random_literal(rng, arity, q, pool):
    lhs = rng.randrange(arity)
    rhs = rng.randrange(arity)
    if arity > 1 and rhs == lhs:
        rhs = rng.randrange(arity)
    cmp = rng.choice(pool)
    return Literal(lhs, rhs, cmp, rng.randint(-q, q) if q else 0)


def _random_node(rng, arity, q, pool, depth):
    roll = rng.random()
    if depth >= 4 or roll < 0.40:
        return _random_literal(rng, arity, q, pool)
    if roll < 0.65:
        return And((_random_node(rng, arity, q, pool, depth + 1),
                    _random_node(rng, arity, q, pool, depth + 1)))
    if roll < 0.90:
        return Or((_random_node(rng, arity, q, pool, depth + 1),
                   _random_node(rng, arity, q, pool, depth + 1)))
    return Not(_random_node(rng, arity, q, pool, depth + 1))


def random_relation(arity, q, seed, dialect="mixed", name=None) -> RelationDef:
    """Seed-deterministic random relation with offsets in [-q, q]."""
    rng = random.Random(seed)
    root = _random_node(rng, arity, q, _CMP_POOLS[dialect], 0)
    return RelationDef(name or f"R{seed}", arity, Formula(root))


def random_horn_relation(arity, q, seed, name=None,
                         max_clauses=3, max_negatives=2) -> RelationDef:
    """Random successor-dialect relation built directly in Horn clause shape."""
    rng = random.Random(seed)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        lits = []
        for _ in range(rng.randint(0, max_negatives)):
            lits.append(_random_literal(rng, arity, q, (Cmp.NEQ,)))
        if rng.random() < 0.85:
            lits.append(_random_literal(rng, arity, q, (Cmp.EQ,)))
        if not lits:
            lits.append(_random_literal(rng, arity, q, (Cmp.NEQ,)))
        clauses.append(Or(tuple(lits)))
    return RelationDef(name or f"H{seed}", arity, Formula(And(tuple(clauses))))


def random_instance(lang: ConstraintLanguage, nvars, nconstraints,
                    seed) -> Instance:
    """Seed-deterministic instance: uniform relation applications."""
    rng = random.Random(seed)
    variables = tuple(f"v{i}" for i in range(nvars))
    constraints = []
    for _ in range(nconstraints):
        rel = rng.choice(lang.relations)
        args = tuple(rng.choice(variables) for _ in range(rel.arity))
        constraints.append((rel.name, args))
    return Instance(variables, tuple(constraints))
