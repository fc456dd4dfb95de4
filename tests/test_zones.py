import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dtcsp import Cmp, Literal, SizeLimitExceeded
from dtcsp import formula, zones


def lit(a, cmp, b, c=0):
    return Literal(a, b, Cmp(cmp), c)


def test_literals_become_edges():
    term = (lit(0, "<=", 1, 2), lit(1, "<", 2, 3), lit(2, "=", 0, -1))
    assert zones.split([term]) == [[(0, 1, 2), (1, 2, 2), (2, 0, -1),
                                    (0, 2, 1)]]


def test_neq_splits_into_both_sides():
    assert zones.split([(lit(0, "!=", 1, 4),)]) == [[(0, 1, 3)],
                                                    [(1, 0, -5)]]


def test_constant_literals_add_no_edge():
    assert zones.split([(lit(1, "=", 1), lit(0, "!=", 0, 2))]) == [[]]
    assert zones.split([(lit(1, "<", 1), lit(0, "<=", 1)),
                        (lit(0, "!=", 0),)]) == []


def test_negative_cycle_is_infeasible():
    # x1 < x2 < x3 < x1 has no solution, x1 < x2 < x3 < x1 + 3 has one
    (edges,) = zones.split([(lit(0, "<", 1), lit(1, "<", 2), lit(2, "<", 0))])
    assert zones.close(edges, 3) is None
    (edges,) = zones.split([(lit(0, "<", 1), lit(1, "<", 2),
                             lit(2, "<", 0, 3))])
    assert zones.close(edges, 3) == [[0, -1, -2], [1, 0, -1], [2, 1, 0]]


def test_distances_bound_the_differences():
    # x1 = x2 + 3, x2 <= x3 - 1: x1 - x3 <= 2, x3 - x1 unbounded
    (edges,) = zones.split([(lit(0, "=", 1, 3), lit(1, "<=", 2, -1))])
    D = zones.close(edges, 3)
    assert D[0] == [0, 3, 2]
    assert D[2] == [math.inf, math.inf, 0]
    assert D[1] == [-3, 0, -1]


def test_close_keeps_the_tightest_parallel_edge():
    assert zones.close([(0, 1, 5), (0, 1, 2), (1, 0, 0)], 2) == [[0, 2],
                                                                 [0, 0]]
    assert zones.close([(0, 1, -1), (1, 0, 0)], 2) is None


def test_split_counts_against_the_literal_budget(monkeypatch):
    # three != literals in a term of four: 8 systems of 4 literals
    term = (lit(0, "!=", 1), lit(0, "!=", 1, 1), lit(1, "!=", 2),
            lit(0, "=", 2))
    assert len(zones.split([term])) == 8
    monkeypatch.setattr(formula, "DEFAULT_CLAUSE_BUDGET", 32)
    assert len(zones.split([term])) == 8
    monkeypatch.setattr(formula, "DEFAULT_CLAUSE_BUDGET", 31)
    with pytest.raises(SizeLimitExceeded, match="literal budget of 31"):
        zones.split([term])


@st.composite
def _terms(draw):
    n = draw(st.integers(1, 3))
    q = draw(st.integers(0, 3))
    term = draw(st.lists(st.builds(
        Literal, st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from(list(Cmp)), st.integers(-q, q)), max_size=5))
    return n, q, tuple(term)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_terms())
def test_feasible_iff_satisfiable_in_the_window(case):
    # formula._window: x1 pinned at 0 and the others in [-R, R] decide
    # satisfiability over Z; the zones decide it by shortest paths
    n, q, term = case
    R = (q + 1) * (n - 1)
    sat = any(all(l.holds(p.__getitem__) for l in term)
              for p in itertools.product([0], *[range(-R, R + 1)] * (n - 1)))
    assert any(zones.close(e, n) is not None
               for e in zones.split([term])) == sat


def _members(systems, points):
    """Which rows of the int array ``points`` solve one of the closed
    systems (x_u - x_v <= D[u][v] for every u, v)."""
    out = np.zeros(len(points), dtype=bool)
    for D in systems:
        inside = np.ones(len(points), dtype=bool)
        for u, row in enumerate(D):
            for v, w in enumerate(row):
                if w < math.inf:
                    inside &= points[:, u] - points[:, v] <= w
        out |= inside
    return out


def _pinned_box(n, R):
    """Every point with x1 = 0 and the other coordinates in [-R, R]."""
    return np.array(list(itertools.product([0], *[range(-R, R + 1)]
                                           * (n - 1))), dtype=np.int64)


def test_closed_drops_contained_systems():
    # x1 <= x2 contains x1 = x2 and x1 < x2: one system stays; of two equal
    # systems the first stays
    terms = [(lit(0, "=", 1),), (lit(0, "<=", 1),), (lit(0, "<", 1),)]
    assert zones.closed(terms, (0, 1)) == ([[0, 0], [math.inf, 0]],)
    first, second = (lit(0, "<=", 1, 2),), (lit(0, "<=", 1, 2),)
    (D,) = zones.closed([first, second], (0, 1))
    assert D == [[0, 2], [math.inf, 0]]


def test_closed_prunes_the_unreduced_horn_dnf():
    # the Horn relation of perfbench's solve_tractable deck splits its
    # unreduced DNF into 11 feasible systems, 6 of them inside others
    lang = formula.parse_language(
        "rel H/3 := (x1 != x2 + 1 | x3 = x1 + 2) & (x2 != x3 | x1 != x3 + 1)")
    f = lang.relation("H").formula
    terms = formula.to_dnf(f).clauses
    feasible = [D for D in (zones.close(e, 3) for e in zones.split(terms))
                if D is not None]
    assert len(feasible) == 11
    assert len(zones.closed(terms, (0, 1, 2))) == 5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), q=st.integers(0, 3), data=st.data())
def test_pruning_keeps_the_solution_set(n, q, data):
    # every kept system is a feasible one, none lies inside another, and
    # the union is that of all feasible systems on a window wide enough
    # for their closed bounds
    terms = data.draw(st.lists(st.lists(st.builds(
        Literal, st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from(list(Cmp)), st.integers(-q, q)), max_size=4),
        max_size=4))
    kept = zones.closed(terms, range(n))
    feasible = [D for D in (zones.close(e, n) for e in zones.split(terms))
                if D is not None]
    assert all(D in feasible for D in kept)
    assert not any(all(a <= b for Du, Eu in zip(D, E) for a, b in zip(Du, Eu))
                   for D, E in itertools.permutations(kept, 2))
    points = _pinned_box(n, 2 * (q + 1) * n)
    assert np.array_equal(_members(kept, points), _members(feasible, points))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), d=st.sampled_from([2, 3, 4]), data=st.data())
def test_quotient_is_exact(n, d, data):
    # y solves the quotient iff d * y + r solves D.  A feasible system has
    # a solution with y_1 = 0 whose other coordinates are sums of at most
    # n - 1 quotient weights, each at most sum |w| + 1 in size, so that
    # window decides whether one exists
    edges = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-6, 6)),
        max_size=4))
    D = zones.close(edges, n)
    assume(D is not None)
    r = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
    Q = zones.quotient(D, r, d)
    S = (n - 1) * (sum(abs(w) for _, _, w in edges) + 1)
    y = _pinned_box(n, S)
    lifted = _members([D], d * y + np.array(r))
    assert (Q is None) == (not lifted.any())
    if Q is not None:
        assert np.array_equal(_members([Q], y), lifted)
        assert zones.close([(u, v, w) for u, row in enumerate(Q)
                            for v, w in enumerate(row) if w < math.inf],
                           n) == Q


@pytest.mark.parametrize("cmp, offset, residues, degree", [
    ("<=", 3, (0, 1), 2), ("<", 3, (0, 1), 1), ("=", 3, (0, 1), 2),
    ("=", 3, (0, 0), 0), ("!=", 3, (1, 0), 1), ("!=", 2, (1, 0), 0),
    ("<=", -3, (1, 0), 2),
])
def test_quotient_degree_is_the_rewritten_offset(cmp, offset, residues,
                                                  degree):
    # x1 cmp x2 + c under x = 2 * y + r: s = c - r_1 + r_2, floored for
    # <= and <; an (in)equality that 2 does not divide is constant
    assert zones.quotient_degree(lit(0, cmp, 1, offset), residues, 2) == degree
