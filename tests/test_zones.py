import itertools
import math

import pytest
from hypothesis import given, settings
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
