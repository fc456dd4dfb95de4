import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcsp import (
    HornClause,
    HornClauses,
    Instance,
    NotHornError,
    OffsetUnionFind,
    bounded_window,
    brute_solve,
    compile_horn_instance,
    extract_assignment,
    parse_language,
    satisfies,
    solve_horn,
    solve_horn_csp,
)
from dtcsp.horn import _ints, assert_facts

from helpers import (
    NaiveOffsetGraph,
    capped_instance,
    max_vars_for,
    naive_unit_resolution,
    random_horn_language,
)

F_LANG = parse_language(
    "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)\n"
    "rel S1/2 := x2 = x1 + 1\n"
    "rel S2/2 := x2 = x1 + 2\n"
    "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1")


# ---------------------------------------------------------------------------
# union-find with offsets


@st.composite
def fact_lists(draw):
    """Facts over at most 12 ids: offsets of planted potentials, scaled up
    to beyond int64, with some off by one, repeats and x == y facts."""
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from((1, -1, 2**40, 2**62, 2**70)))
    planted = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    ids = st.integers(0, n - 1)
    facts = []
    for _ in range(draw(st.integers(0, 30))):
        x = draw(ids)
        y = x if draw(st.integers(0, 5)) == 0 else draw(ids)
        noise = draw(st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1)))
        facts.append((x, y, scale * (planted[x] - planted[y]) + noise))
        if draw(st.integers(0, 4)) == 0:
            facts.append(draw(st.sampled_from(facts)))
    return n, facts


def _fact_arrays(facts):
    """The id, id and offset columns of ``facts``, as ``assert_facts``
    takes them."""
    x, y, p = zip(*facts) if facts else ((), (), ())
    return np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), _ints(p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fact_lists())
def test_assert_facts_matches_naive_graph(case):
    n, facts = case
    naive = NaiveOffsetGraph()
    first = None
    for i, (x, y, p) in enumerate(facts):
        if naive.assert_fact(x, y, p) == "conflict":
            first = (i, naive.implied_offset(x, y))
            break
    root, offset, conflict = assert_facts(n, *_fact_arrays(facts))
    assert conflict == first
    for a in range(n):
        for b in range(n):
            got = offset[a] - offset[b] if root[a] == root[b] else None
            assert got == naive.implied_offset(a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fact_lists(), st.integers(0, 30))
def test_merges_after_a_batch_match_naive_graph(case, split):
    # The first ``split`` facts go in as one assert_facts batch (up to its
    # first contradiction); every later fact is merged one at a time.
    n, facts = case
    root, offset, conflict = assert_facts(n, *_fact_arrays(facts[:split]))
    start = min(split, len(facts)) if conflict is None else conflict[0]
    naive = NaiveOffsetGraph()
    for fact in facts[:start]:
        assert naive.assert_fact(*fact) == "ok"
    uf = OffsetUnionFind(root, offset)
    for i, (x, y, p) in enumerate(facts[start:], start):
        known = naive.implied_offset(x, y)
        merged = uf.merge(x, y, p)
        if naive.assert_fact(x, y, p) == "conflict":
            assert merged is None
            assert uf.conflict == known
            break
        assert uf.conflict is None
        if known is None:
            absorbed, survivor = merged
            assert uf.root[absorbed] == survivor == uf.root[x] == uf.root[y]
        else:
            assert merged is None
        for a in range(n):
            offsets = naive.offsets_from(a)
            for b in range(n):
                got = (uf.offset[a] - uf.offset[b]
                       if uf.root[a] == uf.root[b] else None)
                assert got == offsets.get(b)
        if uf.members is not None:
            for r, members in enumerate(uf.members):
                want = [v for v in range(n) if uf.root[v] == r]
                assert sorted(members or ()) == want
    if uf.conflict is not None:  # the conflicted state is sticky
        implied = uf.conflict
        for x, y, p in facts[i + 1:] + [(0, 0, 0)]:
            assert uf.merge(x, y, p) is None
            assert uf.conflict == implied


# ---------------------------------------------------------------------------
# compilation


def test_compile_f_application():
    inst = Instance(("a", "b", "c"), (("F", ("a", "b", "a", "c")),))
    clauses = compile_horn_instance(F_LANG, inst)
    shapes = {(cl.negatives, cl.positive) for cl in clauses}
    assert shapes == {
        ((("b", "a", 1),), ("c", "a", 1)),
        ((("c", "a", 1),), ("b", "a", 1)),
    }


def test_compile_unit():
    inst = Instance(("a", "b"), (("S2", ("a", "b")),))
    clauses = compile_horn_instance(F_LANG, inst)
    assert len(clauses) == 1
    assert clauses[0].negatives == ()
    assert clauses[0].positive == ("b", "a", 2)


def test_compile_rejects_non_horn():
    inst = Instance(("a", "b"), (("D1", ("a", "b")),))
    with pytest.raises(NotHornError):
        compile_horn_instance(F_LANG, inst)


def test_compile_constant_literals():
    # S1(a, a) instantiates to the constant-false atom a = a + 1
    inst = Instance(("a",), (("S1", ("a", "a")),))
    clauses = compile_horn_instance(F_LANG, inst)
    assert list(clauses) == [HornClause((), None, origin="S1(a, a)")]
    assert solve_horn(clauses, ("a",)).status == "UNSAT"


# ---------------------------------------------------------------------------
# solving


def test_chain_example_sat():
    inst = Instance(("a", "b", "c"),
                    (("S1", ("a", "b")), ("F", ("a", "b", "a", "c"))))
    res = solve_horn_csp(F_LANG, inst)
    assert res.sat
    assert res.assignment == {"a": 0, "b": 1, "c": 1}
    oracle = brute_solve(F_LANG, inst, range(0, 12))
    assert oracle.sat


def test_conflicting_units_unsat():
    inst = Instance(("a", "b"),
                    (("S1", ("a", "b")), ("S2", ("a", "b"))))
    res = solve_horn_csp(F_LANG, inst)
    assert res.status == "UNSAT"
    assert res.reason
    # 1,000 units: the 501st contradicts the chain before it, and a later
    # unit contradicts the chain as a whole; the first one is reported
    vs = tuple(f"v{i}" for i in range(1000))
    cons = [("S1", (vs[i], vs[i + 1])) for i in range(998)]
    cons.insert(500, ("S2", (vs[100], vs[400])))
    cons.insert(700, ("S2", (vs[0], vs[2])))
    stats = {}
    res = solve_horn_csp(F_LANG, Instance(vs, tuple(cons)), stats=stats)
    assert res.status == "UNSAT"
    assert res.reason == ("S2(v100, v400) needs v400 = v100 + 2 but the "
                          "facts imply offset 300")
    assert stats["facts"] == 501


def test_units_past_int64_stay_exact():
    p = 2**62
    units = [HornClause((), ("b", "a", p)), HornClause((), ("c", "b", p)),
             HornClause((), ("d", "c", p))]
    variables = ("a", "b", "c", "d")
    stats = {}
    res = solve_horn(HornClauses.pack(
        units + [HornClause((("d", "a", 3 * p),))], variables),
        variables, stats=stats)
    assert (res.status, res.reason, stats) == (
        "UNSAT", "empty clause from ", {"facts": 3})
    res = solve_horn(HornClauses.pack(units, variables), variables)
    assert res.assignment == {"a": 0, "b": p, "c": 2 * p, "d": 3 * p}
    res = solve_horn(HornClauses.pack(
        units + [HornClause((), ("d", "a", 3 * p + 1))], variables),
        variables)
    assert res.reason == (f"fact needs d = a + {3 * p + 1} but the facts "
                          f"imply offset {3 * p}")


def test_empty_clause_set_sat_all_zero():
    res = solve_horn(HornClauses.pack([], ("a", "b")), ("a", "b"))
    assert res.sat
    assert res.assignment == {"a": 0, "b": 2 * 2 + 1}


def _extract(variables, facts, q_inst=1):
    """``extract_assignment`` on the components of ``facts`` over the ids of
    ``variables``, with no residual clauses."""
    root, offset, _ = assert_facts(len(variables), *_fact_arrays(facts))
    return extract_assignment(root, offset, HornClauses.pack([], variables),
                              variables, q_inst)


def test_extract_spacing_example():
    got = _extract(("a", "b", "z"), [(1, 0, 1)], q_inst=1)
    assert got == {"a": 0, "b": 1, "z": 7}


def test_extract_single_component():
    got = _extract(("a", "b"), [(1, 0, 3)], q_inst=3)
    assert got == {"a": 0, "b": 3}


def test_extract_no_variables():
    assert _extract((), []) == {}


def test_neq_instances_split_components():
    lang = parse_language("rel Neq/2 := x1 != x2")
    inst = Instance(("a", "b", "c"),
                    (("Neq", ("a", "b")), ("Neq", ("b", "c")),
                     ("Neq", ("a", "c"))))
    res = solve_horn_csp(lang, inst)
    assert res.sat
    vals = res.assignment
    assert len({vals["a"], vals["b"], vals["c"]}) == 3


def test_repeated_declarations_solve_as_one_variable():
    # the store numbers the distinct declared names only
    lang = parse_language("rel S1/2 := x2 = x1 + 1\nrel N/2 := x1 != x2")
    inst = Instance(("a", "b", "a", "c"),
                    (("S1", ("a", "b")), ("N", ("b", "c"))))
    res = solve_horn_csp(lang, inst)
    assert res.assignment == {"a": 0, "b": 1, "c": 7}


def test_horn_oracle_agreement_sample():
    checked = 0
    for seed in range(60):
        lang = random_horn_language(seed, nrels=3, arity_max=3, q_max=3)
        inst = capped_instance(lang, seed, nmax=6)
        horn = solve_horn_csp(lang, inst)
        oracle = brute_solve(lang, inst, bounded_window(lang, inst))
        assert horn.status == oracle.status, f"seed {seed}"
        if horn.sat:
            assert satisfies(lang, inst, horn.assignment)
        checked += 1
    assert checked == 60


def _reversed_f_chain(n):
    """v1 = v0 + 1 plus F(v_i, v_i+1, v_i+1, v_i+2) for i = n-1 down to 0:
    each F passes the successor fact one step up the chain, and listing them
    backwards gives a round-based loop one new fact per round."""
    vs = tuple(f"v{i}" for i in range(n + 2))
    cons = [("F", (vs[i], vs[i + 1], vs[i + 1], vs[i + 2]))
            for i in reversed(range(n))]
    cons.append(("S1", (vs[0], vs[1])))
    return Instance(vs, tuple(cons))


def test_reversed_f_chain_2000():
    # No timing assertion: the round-based loop needed about 10 s here, so a
    # quadratic regression shows as a slow suite.
    inst = _reversed_f_chain(2000)
    stats = {}
    res = solve_horn_csp(F_LANG, inst, stats=stats)
    assert res.sat
    assert res.assignment == {v: i for i, v in enumerate(inst.variables)}
    assert stats["facts"] == 2 * 2000 + 1


def test_derived_chains_keep_the_witness_and_its_key_order():
    # Two chains of derived facts, declared interleaved: the witness lists
    # the component of b0 (the first id) and then that of a0, each anchored
    # at its first-declared variable, the second at D = 2 * 1 * 604 + 1.
    n = 300
    a = [f"a{i}" for i in range(n + 2)]
    b = [f"b{i}" for i in range(n + 2)]
    cons = []
    for i in reversed(range(n)):
        cons.append(("F", (a[i], a[i + 1], a[i + 1], a[i + 2])))
        cons.append(("F", (b[i + 2], b[i + 1], b[i + 1], b[i])))
    cons += [("S1", (a[0], a[1])), ("S1", (b[n + 1], b[n]))]
    inst = Instance(tuple(v for pair in zip(b, a) for v in pair), tuple(cons))
    stats = {}
    res = solve_horn_csp(F_LANG, inst, stats=stats)
    assert res.sat
    assert stats["facts"] == 4 * n + 2
    assert list(res.assignment.items()) == (
        [(v, -i) for i, v in enumerate(b)]
        + [(v, 1209 + i) for i, v in enumerate(a)])


def test_star_with_the_centre_declared_last():
    # Every leaf's only neighbour is the centre, the largest id.  Least-root
    # hooking joins the star in two rounds; hooking each root onto the first
    # of its facts in array order would take one round per leaf.
    n = 20000
    leaves = [f"v{i}" for i in range(n - 1)]
    clauses = [HornClause((), (leaves[i], "c", i + 1))
               for i in reversed(range(n - 1))]
    stats = {}
    started = time.perf_counter()
    res = solve_horn(HornClauses.pack(clauses, (*leaves, "c")),
                     (*leaves, "c"), stats=stats)
    elapsed = time.perf_counter() - started
    assert res.sat
    assert stats["facts"] == n - 1
    assert res.assignment == {"c": -1, **{v: i for i, v in enumerate(leaves)}}
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("shuffled", [False, True])
def test_chain_of_20000_units(shuffled):
    # In declaration order, every root hooks onto its predecessor in one
    # round, and only pointer jumping makes the chain flat in log2(n) steps
    # instead of one round per link.
    n = 20000
    chain = [f"v{i}" for i in range(n)]
    clauses = [HornClause((), (chain[i + 1], chain[i], 1))
               for i in range(n - 1)]
    declared = list(chain)
    if shuffled:
        rng = random.Random(0)
        rng.shuffle(clauses)
        rng.shuffle(declared)
    stats = {}
    started = time.perf_counter()
    res = solve_horn(HornClauses.pack(clauses, declared), declared,
                     stats=stats)
    elapsed = time.perf_counter() - started
    assert res.sat
    assert stats["facts"] == n - 1
    base = int(declared[0][1:])
    assert res.assignment == {v: i - base for i, v in enumerate(chain)}
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


@pytest.mark.parametrize("at", [10000, 20000], ids=["halfway", "last"])
def test_first_contradicting_unit_of_20000(at):
    # The chain v(i+1) = v(i) + 1 with v(at) = v0 + 0 inserted at position
    # ``at``, against the offset ``at`` that the units before it imply (at
    # the end, it closes the chain).  The units are replayed one by one up
    # to that unit.
    n = 20000
    chain = [f"v{i}" for i in range(n + 1)]
    clauses = [HornClause((), (chain[i + 1], chain[i], 1)) for i in range(n)]
    clauses.insert(at, HornClause((), (chain[at], chain[0], 0)))
    store = HornClauses.pack(clauses, chain)
    started = time.perf_counter()
    root, offset, conflict = assert_facts(len(chain), store.pos_x,
                                          store.pos_y, store.pos_p)
    elapsed = time.perf_counter() - started
    assert conflict == (at, at)
    assert (root == root[0]).sum() == at + 1  # joined before the conflict
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    stats = {}
    started = time.perf_counter()
    res = solve_horn(store, chain, stats=stats)
    elapsed = time.perf_counter() - started
    assert res.status == "UNSAT"
    assert res.reason == (f"fact needs v{at} = v0 + 0 but the facts imply "
                          f"offset {at}")
    assert stats["facts"] == at + 1
    assert elapsed < 2.0, f"took {elapsed:.1f}s"


def test_shuffled_clauses_keep_the_witness():
    cases = [(F_LANG, _reversed_f_chain(40))]
    for seed in range(80):
        lang = random_horn_language(seed, nrels=3, arity_max=3, q_max=3)
        cases.append((lang, capped_instance(lang, seed, nmax=8, cmax=12)))
    merged = 0
    for lang, inst in cases:
        clauses = compile_horn_instance(lang, inst)
        base = solve_horn(clauses, inst.variables)
        if base.sat and len(set(base.assignment.values())) < len(inst.variables):
            merged += 1
        for k in range(3):
            shuffled = list(clauses)
            random.Random(k).shuffle(shuffled)
            again = solve_horn(HornClauses.pack(shuffled, inst.variables),
                               inst.variables)
            assert again.status == base.status
            assert again.assignment == base.assignment
    assert merged >= 10


@st.composite
def horn_cases(draw):
    """A random Horn language and an instance over up to 10 variables."""
    lang = random_horn_language(draw(st.integers(0, 10**6)), nrels=3,
                                arity_max=3, q_max=2)
    vs = tuple(f"v{i}" for i in range(draw(st.integers(1, 10))))
    cons = []
    for _ in range(draw(st.integers(0, 3 * len(vs)))):
        rel = draw(st.sampled_from(lang.relations))
        args = draw(st.lists(st.sampled_from(vs), min_size=rel.arity,
                             max_size=rel.arity))
        cons.append((rel.name, tuple(args)))
    return lang, Instance(vs, tuple(cons))


def _check_against_reference(solve, args, clauses, variables):
    """Run ``solve(*args)`` and compare it with the round-based reference on
    ``clauses``: same status and, on SAT, the same fact count and the same
    implied offset for every pair of variables.  Returns the result."""
    stats = {}
    with mock.patch("dtcsp.horn.extract_assignment",
                    wraps=extract_assignment) as extract:
        res = solve(*args, stats=stats)
    status, facts, store = naive_unit_resolution(clauses)
    assert res.status == status
    if res.sat:
        assert stats.get("facts", 0) == facts
        root, offset, residual = extract.call_args.args[:3]
        ids = {v: i for i, v in enumerate(residual.names)}
        for x in variables:
            offsets = store.offsets_from(x)
            for y in variables:
                i, j = ids[x], ids[y]
                implied = offset[i] - offset[j] if root[i] == root[j] else None
                assert implied == offsets.get(y)
    return res


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(horn_cases())
def test_worklist_matches_oracle_and_round_based_reference(case):
    lang, inst = case
    res = _check_against_reference(solve_horn_csp, (lang, inst),
                                   compile_horn_instance(lang, inst),
                                   inst.variables)
    if len(inst.variables) <= max_vars_for(lang.q, 4):
        oracle = brute_solve(lang, inst, bounded_window(lang, inst))
        assert res.status == oracle.status


def _planted_clauses(rng):
    """Horn clauses over 4 to 40 variables whose positive parts all hold
    under one planted assignment, so that long chains of derived facts, and
    merges of components that already carry watched literals, are common."""
    n = rng.randint(4, 40)
    vs = [f"v{i}" for i in range(n)]
    planted = [rng.randint(-3, 3) for _ in range(n)]
    clauses = []
    for _ in range(rng.randint(1, 3 * n)):
        negatives = []
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            i, j = rng.randrange(n), rng.randrange(n)
            p = planted[i] - planted[j] + rng.choice((0, 0, 1, -2))
            negatives.append((vs[i], vs[j], p))
        i, j = rng.randrange(n), rng.randrange(n)
        positive = (vs[i], vs[j], planted[i] - planted[j])
        clauses.append(HornClause(tuple(negatives), positive))
    return clauses, tuple(vs)


def test_solve_horn_matches_round_based_reference():
    for seed in range(1000):
        clauses, variables = _planted_clauses(random.Random(seed))
        _check_against_reference(
            solve_horn, (HornClauses.pack(clauses, variables), variables),
            clauses, variables)


def test_watched_literal_follows_two_merges():
    # a = b + 0 is watched on {a} and {b}.  Derived facts then merge {b} into
    # {c, d}, {a} into {e}, and {a, e} into {b, c, d}: the literal is decided
    # only if it moved along with both relabelled components.
    g = (("s1", "s0", 1),)
    clauses = [
        HornClause((), ("s1", "s0", 1)),
        HornClause(g, ("d", "c", 1)),
        HornClause(g, ("b", "d", 1)),
        HornClause(g, ("e", "a", 0)),
        HornClause(g, ("e", "c", 2)),
        HornClause((("a", "b", 0),), ("z", "w", 1)),
    ]
    variables = ("a", "b", "c", "d", "e", "s0", "s1", "w", "z")
    stats = {}
    res = solve_horn(HornClauses.pack(clauses, variables), variables,
                     stats=stats)
    assert res.sat
    assert res.assignment["z"] == res.assignment["w"] + 1
    assert stats["facts"] == 6
