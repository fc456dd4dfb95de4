"""Difference-bound zones: conjunctions of difference literals over Z.

Over the integers every literal but ``!=`` is one or two edges
``x_u - x_v <= w``: ``x_a <= x_b + c`` is ``(a, b, c)``, ``x_a < x_b + c``
is ``(a, b, c - 1)`` and ``x_a = x_b + c`` is ``(a, b, c)`` and
``(b, a, -c)``.  ``x_a != x_b + c`` splits exactly into ``x_a < x_b + c``
or ``x_b < x_a - c``, so a conjunction with m ``!=`` literals is the
union of 2^m edge systems.  A literal of a variable with itself is a
constant and adds no edge.

Edge ``(u, v, w)`` runs from u to v with weight w, so a path from i to j
of total weight W implies ``x_i - x_j <= W``.  A system has an integer
solution iff its graph has no negative cycle, and then the shortest-path
distance D(i -> j) is the least upper bound on ``x_i - x_j`` over its
solutions (infinite when no path exists).  Its solutions project onto
``x_i - x_j`` as the whole integer interval ``[-D(j -> i), D(i -> j)]``:
adding ``x_i - x_j = delta`` for delta in it adds the edges (i, j, delta)
and (j, i, -delta), and every new cycle through one of them weighs at
least ``D(j -> i) + delta >= 0`` or ``D(i -> j) - delta >= 0``
(difference-bound matrices; Mine, PADO 2001).  ``close`` computes all
of them at once, and finds a negative cycle as a negative diagonal.
``closed`` splits and closes a DNF in one step, for ``classify``'s
profiles and for ``finite``'s bound propagation alike.
"""

from __future__ import annotations

import math

from . import formula
from .errors import SizeLimitExceeded
from .formula import Cmp


def _edges(lit):
    a, b, c = lit.lhs, lit.rhs, lit.offset
    if lit.cmp is Cmp.LEQ:
        return [(a, b, c)]
    if lit.cmp is Cmp.LT:
        return [(a, b, c - 1)]
    return [(a, b, c), (b, a, -c)]


def split(terms):
    """Edge systems of a DNF (clauses of literals): each term gives one
    system per choice of side for each ``!=`` literal, and none when one of
    its constant literals is false.

    The split is a further DNF expansion, so it shares the literal budget
    ``formula.DEFAULT_CLAUSE_BUDGET`` of ``to_dnf``: a term of n literals
    split into s systems counts ``n * s``, and past the budget in total
    ``SizeLimitExceeded`` is raised before the split that would pass it.
    """
    budget = formula.DEFAULT_CLAUSE_BUDGET
    systems = []
    size = 0
    for term in terms:
        base = [[]]
        for lit in term:
            a, b, c = lit.lhs, lit.rhs, lit.offset
            if a == b:
                if not lit.holds(lambda _: 0):
                    break
            elif lit.cmp is Cmp.NEQ:
                if size + 2 * len(base) * len(term) > budget:
                    raise SizeLimitExceeded(
                        f"splitting the != literals of the DNF exceeds the "
                        f"literal budget of {budget}")
                base = [e + [side] for e in base
                        for side in ((a, b, c - 1), (b, a, -c - 1))]
            else:
                edges = _edges(lit)
                for e in base:
                    e += edges
        else:
            systems += base
            size += len(base) * len(term)
    return systems


def close(edges, n):
    """The shortest-path matrix D of the system over variables 0..n-1, by
    Floyd-Warshall: ``D[i][j]`` is the least upper bound on ``x_i - x_j``,
    ``math.inf`` where no path leads.  None if a cycle is negative, that is
    if the system has no integer solution."""
    D = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v, w in edges:
        D[u][v] = min(D[u][v], w)
    for m in range(n):
        Dm = D[m]
        for Du in D:
            via = Du[m]
            if via != math.inf:
                for v in range(n):
                    if via + Dm[v] < Du[v]:
                        Du[v] = via + Dm[v]
    if any(D[u][u] < 0 for u in range(n)):
        return None
    return D


def closed(terms, pattern):
    """The matrices D of ``close`` of the feasible systems into which the
    DNF ``terms`` split (``split``), variable i renamed ``pattern[i]``, over
    ``max(pattern) + 1`` variables.  Renaming the arguments of a relation
    applied to repeated variables merges them: an edge between two merged
    variables becomes a loop, which makes the system infeasible iff its
    weight is negative."""
    n = max(pattern, default=-1) + 1
    out = []
    for edges in split(terms):
        D = close([(pattern[u], pattern[v], w) for u, v, w in edges], n)
        if D is not None:
            out.append(D)
    return tuple(out)
