import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcsp import finite
from dtcsp import (
    ArityError,
    BudgetExceeded,
    VerdictClass,
    Instance,
    ParseError,
    backtracking_solve,
    bounded_window,
    brute_solve,
    classify,
    decide_max_closed,
    parse_language,
    random_instance,
    SolveResult,
    satisfies,
    solve_mod_max,
    validate_instance,
)

from helpers import (
    capped_instance,
    dict_arc_consistency,
    max_closed_language,
    mirror_language,
    modular_language,
    naive_bounds,
    random_mixed_language,
    tuple_arc_consistency,
)

ORDER_LANG = parse_language(
    "rel Le/2 := x1 <= x2\n"
    "rel S1/2 := x2 = x1 + 1\n"
    "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1")


# ---------------------------------------------------------------------------
# instance plumbing


def test_validate_unknown_relation():
    inst = Instance(("a",), (("Nope", ("a",)),))
    with pytest.raises(ParseError):
        validate_instance(ORDER_LANG, inst)


def test_validate_arity_mismatch():
    inst = Instance(("a", "b"), (("Le", ("a", "b", "a")),))
    with pytest.raises(ArityError):
        validate_instance(ORDER_LANG, inst)


def test_bounded_window_examples():
    three = Instance(("a", "b", "c"), ())
    one = Instance(("a",), ())
    four = Instance(("a", "b", "c", "d"), ())
    q1 = parse_language("rel S/2 := x2 = x1 + 1")
    q0 = parse_language("rel E/2 := x1 = x2")
    q2 = parse_language("rel S/2 := x2 = x1 + 2")
    assert list(bounded_window(q1, three)) == list(range(6))
    assert list(bounded_window(q0, one)) == [0]
    assert list(bounded_window(q2, four)) == list(range(12))


# ---------------------------------------------------------------------------
# arc consistency


@st.composite
def _backtracking_cases(draw, windows=st.sampled_from(
        [None, range(2, 7), [0, 2, 5]]), least=0):
    """Random mixed language (with ``!=`` and negated literals), 1 + least
    to 4 variables, least to 5 constraints whose arguments are drawn with
    repetition, and a window of ``windows``: by default a default, offset
    or non-contiguous one."""
    lang = random_mixed_language(draw(st.integers(0, 10**6)), nrels=2,
                                 arity_max=3, q_max=2)
    vs = tuple(f"v{i}" for i in range(draw(st.integers(1 + least, 4))))
    cons = []
    for _ in range(draw(st.integers(least, 5))):
        rel = draw(st.sampled_from(lang.relations))
        args = draw(st.lists(st.sampled_from(vs), min_size=rel.arity,
                             max_size=rel.arity))
        cons.append((rel.name, tuple(args)))
    window = draw(windows)
    return lang, Instance(vs, tuple(cons)), window


def test_ac_wipeout():
    inst = Instance(("a", "b"),
                    (("Le", ("a", "b")), ("Le", ("b", "a")),
                     ("S1", ("a", "b"))))
    window = list(bounded_window(ORDER_LANG, inst))
    domains = {v: window for v in inst.variables}
    assert dict_arc_consistency(ORDER_LANG, inst, domains) is None
    oracle = brute_solve(ORDER_LANG, inst, bounded_window(ORDER_LANG, inst))
    assert oracle.status == "UNSAT"


def test_ac_successor_domains():
    inst = Instance(("a", "b"), (("S1", ("a", "b")),))
    domains = {v: [0, 1, 2, 3] for v in inst.variables}
    fixed = dict_arc_consistency(ORDER_LANG, inst, domains)
    assert fixed == {"a": [0, 1, 2], "b": [1, 2, 3]}


def test_ac_no_constraints_is_fixpoint():
    inst = Instance(("a", "b"), ())
    domains = {v: [0, 1, 2] for v in inst.variables}
    fixed = dict_arc_consistency(ORDER_LANG, inst, domains)
    assert fixed == domains


def test_ac_never_deletes_solution_values():
    for seed in range(30):
        lang = random_mixed_language(seed, nrels=2, arity_max=3, q_max=2)
        inst = capped_instance(lang, seed, nmax=4)
        window = bounded_window(lang, inst)
        domains = {v: list(window) for v in inst.variables}
        fixed = dict_arc_consistency(lang, inst, domains)
        solution_values = {v: set() for v in inst.variables}
        order = list(inst.variables)
        fns = [(lang.relation(nm).formula.compiled(),
                tuple(order.index(a) for a in args))
               for nm, args in inst.constraints]
        for point in itertools.product(window, repeat=len(order)):
            if all(fn([point[i] for i in idx]) for fn, idx in fns):
                for v, val in zip(order, point):
                    solution_values[v].add(val)
        if any(solution_values.values()):
            assert fixed is not None
            for v in order:
                assert solution_values[v] <= set(fixed[v])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_backtracking_cases(), data=st.data())
def test_ac_matches_tuple_reference(case, data):
    # random domains with holes; the fixpoint and the revision count must
    # equal those of arc-consistency over explicit tuple lists
    lang, inst, window = case
    window = sorted(bounded_window(lang, inst) if window is None else window)
    domains = {v: sorted(data.draw(st.sets(st.sampled_from(window),
                                           min_size=1)))
               for v in inst.variables}
    got_stats, want_stats = {}, {}
    got = dict_arc_consistency(lang, inst, domains, stats=got_stats)
    want = tuple_arc_consistency(lang, inst, domains, want_stats)
    assert got == want
    assert got_stats == want_stats


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_backtracking_cases(), data=st.data())
def test_ac_queue_from_changed_variable(case, data):
    # narrowing one variable of a fixpoint and queueing only its constraints
    # reaches the fixpoint that a queue of all constraints reaches
    lang, inst, window = case
    window = sorted(bounded_window(lang, inst) if window is None else window)
    root = dict_arc_consistency(lang, inst,
                                {v: window for v in inst.variables})
    if root is None:
        return
    var = data.draw(st.sampled_from(inst.variables))
    child = dict(root)
    child[var] = [data.draw(st.sampled_from(root[var]))]
    assert dict_arc_consistency(lang, inst, child, changed=var) == \
        dict_arc_consistency(lang, inst, child)


# ---------------------------------------------------------------------------
# max-closed decision


def test_decide_max_closed_meet():
    inst = Instance(("a", "b"), (("Le", ("a", "b")), ("Le", ("b", "a"))))
    res = decide_max_closed(ORDER_LANG, inst)
    assert res.sat and not res.fallback
    assert res.assignment["a"] == res.assignment["b"]
    window = bounded_window(ORDER_LANG, inst)
    assert res.assignment["a"] == max(window)


def test_decide_max_closed_unsat():
    inst = Instance(("a", "b"),
                    (("Le", ("a", "b")), ("S1", ("a", "b")),
                     ("Le", ("b", "a"))))
    assert decide_max_closed(ORDER_LANG, inst).status == "UNSAT"


def test_decide_max_closed_empty_instance():
    assert decide_max_closed(ORDER_LANG, Instance((), ())).sat


@pytest.mark.parametrize("mode", ["max", "min"])
def test_fallback_searches_the_bound_tables_grids(mode, monkeypatch):
    # a = b on the top (bottom) bounds violates N, so the search takes over
    # on window grids built for it: one grid per relation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return grid_eval(*args, **kwargs)

    grid_eval = finite.grids.grid_eval
    monkeypatch.setattr(finite.grids, "grid_eval", counting)
    lang = parse_language("rel N/2 := x1 != x2")
    inst = Instance(("a", "b"), (("N", ("a", "b")),))
    res = decide_max_closed(lang, inst, mode=mode)
    assert res == SolveResult("SAT", {"a": 0, "b": 1}, fallback=True,
                              stats={"branches": 3, "revisions": 1})
    assert calls == [(2, 0, 2)]


def test_decide_max_closed_empty_window_unsat():
    inst = Instance(("a",), ())
    assert decide_max_closed(ORDER_LANG, inst, window=range(0)).status == "UNSAT"
    assert backtracking_solve(ORDER_LANG, inst, window=range(0)).status == "UNSAT"


@pytest.mark.parametrize("constraints, message", [
    ((), "domains of 9999999999999999999999 values"),
    ((("Le", ("a", "a")),), "relation Le needs 9999999999999999999999^2"),
], ids=["unconstrained", "constrained"])
def test_search_budgets_huge_ranges_from_their_ends(constraints, message):
    # len() of such a range overflows, and its value list would not fit:
    # the search budgets the span it covers, brute force the values it holds
    inst = Instance(("a",), constraints)
    window = range(-10**22, 0, 2)
    with pytest.raises(BudgetExceeded, match=re.escape(message)):
        backtracking_solve(ORDER_LANG, inst, window=window)
    with pytest.raises(BudgetExceeded, match=re.escape("5" + "0" * 21 + "^1 ")):
        brute_solve(ORDER_LANG, inst, window)


@pytest.mark.parametrize("solve, window, expect", [
    (backtracking_solve, [10**20, 10**20 + 1], (10**20, 10**20)),
    (backtracking_solve, range(-10**20 - 2, -10**20), (-10**20 - 2,) * 2),
    (decide_max_closed, range(10**20, 10**20 + 3), (10**20 + 2,) * 2),
], ids=["backtracking list", "backtracking range", "max-closed range"])
def test_windows_past_int64_solve_on_offsets(solve, window, expect):
    # relations are translation invariant: the tables run over offsets from
    # the window's least value, and the witness is re-verified over Z
    inst = Instance(("a", "b"), (("Le", ("a", "b")),))
    res = solve(ORDER_LANG, inst, window=window)
    assert res.status == "SAT"
    assert (res.assignment["a"], res.assignment["b"]) == expect
    assert satisfies(ORDER_LANG, inst, res.assignment)


def test_residue_domains_budget(monkeypatch):
    # with no constraint, no residue grid bounds the modulus: the residue
    # domains are held to the budget of backtracking_solve's window
    inst = Instance(("a", "b", "c"), ())
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 5)
    assert solve_mod_max(ORDER_LANG, inst, 5).sat
    with pytest.raises(BudgetExceeded) as exc:
        solve_mod_max(ORDER_LANG, inst, 6)
    assert str(exc.value) == ("residue search: domains of 6 values, over the "
                              "budget of 5")


@pytest.mark.parametrize("solve", [
    lambda inst: solve_mod_max(ORDER_LANG, inst, 10**6),
    lambda inst: backtracking_solve(ORDER_LANG, inst, window=range(10**6)),
], ids=["residue search", "backtracking"])
def test_domains_cost_no_memory_per_listed_value(solve):
    # a million values for each of three free variables: one domain matrix
    # of 3 MB and its copies along the search path, never a list per value
    inst = Instance(("a", "b", "c"), ())
    tracemalloc.start()
    try:
        assert solve(inst).sat
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_decide_max_closed_needs_contiguous_range():
    inst = Instance(("a",), ())
    for window in ([0, 1, 2], range(0, 6, 2)):
        with pytest.raises(ValueError):
            decide_max_closed(ORDER_LANG, inst, window=window)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_backtracking_cases(windows=st.builds(
           lambda lo, width: range(lo, lo + width),
           st.integers(-5, 5), st.integers(2, 8)), least=1),
       mode=st.sampled_from(["max", "min"]))
def test_bound_fixpoint_matches_tuple_reference(case, mode):
    # on any language the bound fixpoint is that of tuple enumeration, and
    # the answer, by fixpoint or by fallback search, that of brute force;
    # of the 300 cases about 130 end SAT on the fixpoint, 160 UNSAT on a
    # wipeout and 10 in the fallback
    lang, inst, window = case
    got = decide_max_closed(lang, inst, mode=mode, window=window)
    assert got.status == brute_solve(lang, inst, window).status
    fixpoint = naive_bounds(lang, inst, window, mode=mode)
    if fixpoint is None:
        assert got.status == "UNSAT" and not got.fallback
    elif satisfies(lang, inst, fixpoint):
        assert got.assignment == fixpoint and not got.fallback
    else:
        assert got.fallback


def _solutions(lang, inst, window):
    order = list(inst.variables)
    fns = [(lang.relation(nm).formula.compiled(),
            tuple(order.index(a) for a in args))
           for nm, args in inst.constraints]
    for point in itertools.product(window, repeat=len(order)):
        if all(fn([point[i] for i in idx]) for fn, idx in fns):
            yield dict(zip(order, point))


def _tiny_instance(lang, rng):
    """2-4 variables; every ternary relation also applied as R(x, x, y) and
    R(x, y, x)."""
    n = rng.randint(2, 4)
    vs = tuple(f"v{i}" for i in range(n))
    cons = []
    for rel in lang.relations:
        if rel.arity == 3:
            x, y = rng.sample(vs, 2)
            cons += [(rel.name, (x, x, y)), (rel.name, (x, y, x))]
    for _ in range(rng.randint(1, 5)):
        rel = rng.choice(lang.relations)
        cons.append((rel.name, tuple(rng.choice(vs) for _ in range(rel.arity))))
    rng.shuffle(cons)
    return Instance(vs, tuple(cons))


@pytest.mark.parametrize("mode", ["max", "min"])
def test_decide_extremal_solution_differential(mode):
    # max-closed languages, mirrored into min-closed ones for mode "min"
    pick = max if mode == "max" else min
    seen = {"SAT": 0, "UNSAT": 0}
    for seed in range(40):
        rng = random.Random(seed)
        lang = max_closed_language(seed)
        if mode == "min":
            lang = mirror_language(lang)
        inst = _tiny_instance(lang, rng)
        full = len(bounded_window(lang, inst))
        lo = rng.choice((0, 3))
        for window in (None, range(lo, lo + rng.randint(1, full - 1))):
            got = decide_max_closed(lang, inst, mode=mode, window=window)
            window = bounded_window(lang, inst) if window is None else window
            want = brute_solve(lang, inst, window)
            assert got.status == want.status, (seed, window)
            assert not got.fallback, (seed, window)
            seen[got.status] += 1
            if got.sat:
                sols = list(_solutions(lang, inst, window))
                extremal = {v: pick(s[v] for s in sols) for v in inst.variables}
                assert got.assignment == extremal, (seed, window)
    assert min(seen.values()) >= 10, seen


def _hard_languages():
    yield parse_language("rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1\n"
                         "rel D5/2 := x1 = x2 + 5 | x1 = x2 - 5")
    yield parse_language("rel B/3 := (x1 < x2 & x2 < x3) | (x3 < x2 & x2 < x1)")


@pytest.mark.parametrize("mode", ["max", "min"])
def test_decide_on_hard_language_matches_oracle(mode):
    # outside max/min-closed languages the bound fixpoint is still sound;
    # when it is not a solution, backtracking decides and the flag is set
    fallbacks = 0
    for lang in _hard_languages():
        assert classify(lang).cls is VerdictClass.NP_HARD
        for seed in range(25):
            rng = random.Random(seed)
            inst = _tiny_instance(lang, rng)
            window = bounded_window(lang, inst)
            got = decide_max_closed(lang, inst, mode=mode)
            want = brute_solve(lang, inst, window)
            assert got.status == want.status, seed
            fixpoint = naive_bounds(lang, inst, window, mode=mode)
            if fixpoint is None:
                assert got.status == "UNSAT" and not got.fallback, seed
            elif satisfies(lang, inst, fixpoint):
                assert got.assignment == fixpoint and not got.fallback, seed
            else:
                assert got.fallback, seed
                fallbacks += 1
    assert fallbacks >= 5


def _ring(n, offset=1, closed=False):
    """Ternary ring x3 <= max(x1, x2) + offset over the strict chain
    v0 < ... < v(n-1); closing the chain into a cycle makes it UNSAT."""
    lang = parse_language(f"rel M/3 := x3 <= x1 + {offset} | x3 <= x2 + {offset}\n"
                          "rel C/2 := x1 <= x2 - 1")
    vs = tuple(f"v{i}" for i in range(n))
    cons = [("M", (vs[i], vs[(i + 1) % n], vs[(i + 2) % n])) for i in range(n)]
    cons += [("C", (vs[i], vs[i + 1])) for i in range(n - 1)]
    if closed:
        cons.append(("C", (vs[-1], vs[0])))
    return lang, Instance(vs, tuple(cons))


def test_decide_ring_over_chain_scales():
    # n = 200 gives a 600-value window, on which any table of M's 600^3
    # cells takes hundreds of MB: the tracemalloc bound catches one.  No
    # timing assertion: arc-consistency over tuple lists takes minutes here,
    # so a slow regression shows as a hung suite.
    lang, inst = _ring(200)
    tracemalloc.start()
    try:
        res = decide_max_closed(lang, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.sat and not res.fallback
    assert res.stats == {"revisions": 19900}
    assert satisfies(lang, inst, res.assignment)
    assert peak < 64 * 2**20
    lang, inst = _ring(200, closed=True)
    res = decide_max_closed(lang, inst)
    assert res.status == "UNSAT" and not res.fallback
    assert res.stats == {"revisions": 79401}


def test_decide_large_offset_builds_no_window_grid():
    # offset 1000 at n = 20: a 20020-value window, on which a grid of M
    # spans 20020^3 cells, past any cell budget.  Called directly, as
    # classify answers DEGENERATE_OR_UNKNOWN on this language (its
    # preservation window passes the work budget), so auto routes it to bt
    lang, inst = _ring(20, offset=1000)
    res = decide_max_closed(lang, inst)
    assert res.sat and not res.fallback
    assert satisfies(lang, inst, res.assignment)
    assert res.assignment == {f"v{i}": 20000 + i for i in range(20)}


RING4 = parse_language(
    "rel M/4 := x4 <= x1 + 2 | x4 <= x2 + 2 | x4 <= x3 + 2\n"
    "rel C/2 := x1 <= x2 - 1")


def _ring4(n):
    """Arity-4 ring x4 <= max(x1, x2, x3) + 2 over the strict chain."""
    vs = tuple(f"v{i}" for i in range(n))
    cons = [("M", tuple(vs[(i + k) % n] for k in range(4))) for i in range(n)]
    cons += [("C", (vs[i], vs[i + 1])) for i in range(n - 1)]
    return Instance(vs, tuple(cons))


def test_decide_table_cell_budget(monkeypatch):
    # n = 6 gives the window {0, ..., 17}, so M's grid spans 18^4 cells for
    # backtracking; bound propagation reads M's closed systems, not a grid
    inst = _ring4(6)
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 18**4 - 1)
    res = decide_max_closed(RING4, inst)
    assert res.sat and not res.fallback
    assert satisfies(RING4, inst, res.assignment)
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 18**4)
    assert backtracking_solve(RING4, inst).sat
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 18**4 - 1)
    with pytest.raises(BudgetExceeded) as exc:
        backtracking_solve(RING4, inst)
    message = str(exc.value)
    assert "arc-consistency grids" in message
    assert "relation M" in message
    assert str(18**4) in message


def test_decide_fallback_grid_budget(monkeypatch):
    # the top bounds a = b = 1 violate N, so the fallback builds N's grid
    # over the window {0, 1}: 2^2 cells, past a budget of 3
    lang = parse_language("rel N/2 := x1 != x2")
    inst = Instance(("a", "b"), (("N", ("a", "b")),))
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 3)
    with pytest.raises(BudgetExceeded) as exc:
        decide_max_closed(lang, inst)
    assert str(exc.value) == ("max-closed fallback: relation N needs 2^2 = 4 "
                              "window cells, over the budget of 3")


# ---------------------------------------------------------------------------
# backtracking


def test_backtracking_odd_triangle_unsat():
    inst = Instance(("a", "b", "c"),
                    (("D1", ("a", "b")), ("D1", ("b", "c")),
                     ("D1", ("a", "c"))))
    assert backtracking_solve(ORDER_LANG, inst).status == "UNSAT"


def test_backtracking_single_edge_sat():
    inst = Instance(("a", "b"), (("D1", ("a", "b")),))
    res = backtracking_solve(ORDER_LANG, inst)
    assert res.sat
    assert satisfies(ORDER_LANG, inst, res.assignment)


def test_backtracking_unconstrained_all_zero():
    inst = Instance(("a", "b"), ())
    res = backtracking_solve(ORDER_LANG, inst)
    assert res.assignment == {"a": 0, "b": 0}


def test_backtracking_deterministic():
    inst = Instance(("a", "b", "c"),
                    (("D1", ("a", "b")), ("Le", ("b", "c"))))
    first = backtracking_solve(ORDER_LANG, inst)
    second = backtracking_solve(ORDER_LANG, inst)
    assert first.assignment == second.assignment


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_backtracking_cases())
def test_backtracking_matches_brute_force(case):
    # both return the lexicographically smallest solution on the window
    lang, inst, window = case
    got = backtracking_solve(lang, inst, window=window)
    window = bounded_window(lang, inst) if window is None else window
    want = brute_solve(lang, inst, window)
    assert got.status == want.status
    assert got.assignment == want.assignment


def test_search_node_budget(monkeypatch):
    # each search counts its own nodes, whatever stats["branches"] holds;
    # both instances need three: root, first variable, second variable
    edge = Instance(("a", "b"), (("D1", ("a", "b")),))
    cong = Instance(("x", "y"), (("Le2", ("x", "y")), ("Lt", ("x", "y")),
                                 ("Even6", ("x", "y"))))
    for solve, phase in ((lambda stats: backtracking_solve(
                              ORDER_LANG, edge, stats=stats), "backtracking"),
                         (lambda stats: solve_mod_max(
                              CONG_LANG, cong, 2, stats=stats),
                          "residue search")):
        monkeypatch.setattr(finite, "DEFAULT_BRANCH_BUDGET", 3)
        assert solve({"branches": 10**9}).sat
        monkeypatch.setattr(finite, "DEFAULT_BRANCH_BUDGET", 2)
        with pytest.raises(BudgetExceeded) as exc:
            solve({})
        assert str(exc.value) == \
            f"{phase} exceeded the budget of 2 search nodes"


def test_solution_survives_translation():
    inst = Instance(("a", "b"), (("D1", ("a", "b")), ("Le", ("a", "b"))))
    res = backtracking_solve(ORDER_LANG, inst)
    shifted = {v: x + 1 for v, x in res.assignment.items()}
    assert satisfies(ORDER_LANG, inst, shifted)


# ---------------------------------------------------------------------------
# modular pipeline


CONG_LANG = parse_language(
    "rel Le2/2 := x2 <= x1 + 2\n"
    "rel Lt/2 := x1 < x2\n"
    "rel Even6/2 := x2 = x1 - 6 | x2 = x1 - 4 | x2 = x1 - 2 | x2 = x1"
    " | x2 = x1 + 2 | x2 = x1 + 4 | x2 = x1 + 6")


def test_congruence_example_sat_verified():
    inst = Instance(("x", "y"),
                    (("Le2", ("x", "y")), ("Lt", ("x", "y")),
                     ("Even6", ("x", "y"))))
    res = solve_mod_max(CONG_LANG, inst, 2)
    assert res.sat
    assert satisfies(CONG_LANG, inst, res.assignment)
    assert res.assignment["y"] - res.assignment["x"] == 2


def test_parity_conflict_unsat():
    lang = parse_language(
        "rel Even6/2 := x2 = x1 - 6 | x2 = x1 - 4 | x2 = x1 - 2 | x2 = x1"
        " | x2 = x1 + 2 | x2 = x1 + 6 | x2 = x1 + 4\n"
        "rel S1/2 := x2 = x1 + 1")
    inst = Instance(("x", "y"), (("Even6", ("x", "y")), ("S1", ("x", "y"))))
    assert solve_mod_max(lang, inst, 2).status == "UNSAT"


def test_residue_search_prunes_folded_diagonal():
    # D(v, v) has no tuple on the diagonal, so its residue grid is empty and
    # arc-consistency ends the search at the root: no node, no quotient,
    # however many free P pairs the instance has
    lang = parse_language("rel P/2 := x2 = x1 - 2 | x2 = x1 | x2 = x1 + 2\n"
                          "rel D/2 := x2 = x1 + 2")
    vs = tuple(f"v{i}" for i in range(26))
    cons = [("D", (vs[-1], vs[-1]))]
    cons += [("P", (vs[2 * i], vs[2 * i + 1])) for i in range(12)]
    stats = {}
    res = solve_mod_max(lang, Instance(vs, tuple(cons)), 2, stats=stats)
    assert res.status == "UNSAT"
    assert stats.get("branches", 0) == 0


@st.composite
def _modular_cases(draw):
    """A d-modular-max language, mirrored for mode "min", on up to 4
    variables with arguments drawn with repetition."""
    d = draw(st.sampled_from([2, 3]))
    mode = draw(st.sampled_from(["max", "min"]))
    lang = modular_language(draw(st.integers(0, 10**6)), d)
    if mode == "min":
        lang = mirror_language(lang)
    vs = tuple(f"v{i}" for i in range(draw(st.integers(1, 4))))
    cons = []
    for _ in range(draw(st.integers(0, 5))):
        rel = draw(st.sampled_from(lang.relations))
        args = draw(st.lists(st.sampled_from(vs), min_size=rel.arity,
                             max_size=rel.arity))
        cons.append((rel.name, tuple(args)))
    return lang, Instance(vs, tuple(cons)), d, mode


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_modular_cases())
def test_solve_mod_max_matches_brute_force(case):
    lang, inst, d, mode = case
    got = solve_mod_max(lang, inst, d, mode=mode)
    want = brute_solve(lang, inst, bounded_window(lang, inst))
    assert got.status == want.status
    if got.sat:
        assert satisfies(lang, inst, got.assignment)


def test_modulus_one_degenerates_to_max_decision():
    for seed in range(10):
        lang = max_closed_language(seed)
        inst = capped_instance(lang, seed, nmax=4)
        direct = decide_max_closed(lang, inst)
        piped = solve_mod_max(lang, inst, 1)
        assert direct.status == piped.status


def test_modular_language_agreement_sample():
    for seed in range(20):
        d = 2 if seed % 2 == 0 else 3
        lang = modular_language(seed, d)
        inst = capped_instance(lang, seed, nmax=4, cmax=5)
        got = solve_mod_max(lang, inst, d)
        want = brute_solve(lang, inst, bounded_window(lang, inst))
        assert got.status == want.status, f"seed {seed}"
        if got.sat:
            assert satisfies(lang, inst, got.assignment)


def test_auto_routing_agrees_with_oracle():
    # classify random languages, solve with the routed method, check the oracle
    from dtcsp import VerdictClass, classify, solve_horn_csp

    routes = {c: 0 for c in VerdictClass}
    for seed in range(150):
        lang = random_mixed_language(seed + 5000, nrels=2, arity_max=3, q_max=2)
        verdict = classify(lang)
        routes[verdict.cls] += 1
        if verdict.cls is VerdictClass.NP_HARD:
            assert verdict.witnesses
            for w in verdict.witnesses:
                assert w.revalidates(lang.relation(w.relation))
        inst = capped_instance(lang, seed, nmax=5)
        if verdict.cls is VerdictClass.HORN_TRACTABLE:
            got = solve_horn_csp(lang, inst)
        elif verdict.cls in (VerdictClass.MAX_CLOSED, VerdictClass.MIN_CLOSED):
            mode = "max" if verdict.cls is VerdictClass.MAX_CLOSED else "min"
            got = decide_max_closed(lang, inst, mode=mode)
        elif verdict.cls in (VerdictClass.MODMAX_CLOSED,
                             VerdictClass.MODMIN_CLOSED):
            mode = "max" if verdict.cls is VerdictClass.MODMAX_CLOSED else "min"
            got = solve_mod_max(lang, inst, verdict.d, mode=mode)
        else:
            got = backtracking_solve(lang, inst)
        want = brute_solve(lang, inst, bounded_window(lang, inst))
        assert got.status == want.status, (seed, verdict.cls)
        if got.sat:
            assert satisfies(lang, inst, got.assignment)
    # the random corpus must actually exercise several routes
    assert sum(1 for c, n in routes.items() if n) >= 3


# ---------------------------------------------------------------------------
# bulk witness check

# near and past the int64 range, so both column types and their boundary run
BIG_SHIFTS = (0, 2**63 - 1, -(2**63 - 1), 2**63 - 8, -(2**63 - 8), 2**63,
              -(2**63) - 1, 2**80, -(2**80) - 7)


def _evaluate_each(lang, inst, assignment):
    return all(lang.relation(name).formula.evaluate(
        tuple(assignment[a] for a in args)) for name, args in inst.constraints)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_satisfies_matches_evaluate(seed, data):
    lang = random_mixed_language(seed, nrels=3, arity_max=3, q_max=3)
    n = data.draw(st.integers(1, 5))
    inst = random_instance(lang, n, data.draw(st.integers(0, 4)), seed)
    shift = data.draw(st.sampled_from(BIG_SHIFTS))
    # shifting every value keeps each difference; shifting some makes them huge
    moved = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    small = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    assignment = {v: x + (shift if m else 0)
                  for v, x, m in zip(inst.variables, small, moved)}
    assert satisfies(lang, inst, assignment) == \
        _evaluate_each(lang, inst, assignment)


def test_satisfies_exact_on_shifted_solutions():
    # a solution moved by any constant stays a solution; moving one variable
    # by one more makes each constraint on it follow Formula.evaluate
    checked = 0
    for seed in range(60):
        lang = random_mixed_language(seed, nrels=3, arity_max=3, q_max=2)
        inst = capped_instance(lang, seed, nmax=4)
        res = brute_solve(lang, inst, bounded_window(lang, inst))
        if not res.sat:
            continue
        for shift in BIG_SHIFTS:
            moved = {v: x + shift for v, x in res.assignment.items()}
            assert satisfies(lang, inst, moved)
            moved[inst.variables[0]] += 1
            assert satisfies(lang, inst, moved) == \
                _evaluate_each(lang, inst, moved)
        checked += 1
    assert checked >= 10
