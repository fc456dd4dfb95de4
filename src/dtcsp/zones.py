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
(difference-bound matrices; Mine, PADO 2001).  Both tests here are
Bellman-Ford passes over the system's variables.
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


def _relax(edges, dist, rounds):
    """Bellman-Ford rounds on ``dist`` in place; True once a round changes
    nothing, False if each of ``rounds`` rounds did."""
    for _ in range(rounds):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            return True
    return False


def feasible(edges, n):
    """True iff the system over variables 0..n-1 has an integer solution:
    from all-zero potentials (a virtual source joined to every variable)
    shortest paths settle within n rounds unless a cycle is negative."""
    return _relax(edges, [0] * n, n)


def distances(edges, n, source):
    """D(source -> v) for every variable v of a feasible system, ``math.inf``
    where no path leads."""
    dist = [math.inf] * n
    dist[source] = 0
    _relax(edges, dist, n)
    return dist
