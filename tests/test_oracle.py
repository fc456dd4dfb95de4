import pytest

from dtcsp import (
    BudgetExceeded,
    Instance,
    bounded_window,
    brute_solve,
    materialize,
    parse_language,
    random_horn_relation,
    random_instance,
    random_relation,
)

LANG = parse_language(
    "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1\n"
    "rel S1/2 := x2 = x1 + 1\n"
    "rel Le/2 := x1 <= x2\n"
    "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)")


def test_brute_self_distance_unsat():
    inst = Instance(("a",), (("D1", ("a", "a")),))
    assert brute_solve(LANG, inst, range(4)).status == "UNSAT"


def test_brute_successor_first_solution():
    inst = Instance(("a", "b"), (("S1", ("a", "b")),))
    res = brute_solve(LANG, inst, range(2))
    assert res.assignment == {"a": 0, "b": 1}


def test_brute_f_chain():
    inst = Instance(("a", "b", "c"),
                    (("S1", ("a", "b")), ("F", ("a", "b", "a", "c"))))
    res = brute_solve(LANG, inst, range(12))
    assert res.sat
    assert res.assignment["c"] == res.assignment["a"] + 1


def test_brute_budget():
    inst = Instance(tuple(f"v{i}" for i in range(8)), ())
    with pytest.raises(BudgetExceeded):
        brute_solve(LANG, inst, range(32), budget=10**6)


def test_brute_window_monotone():
    for seed in range(25):
        lang = parse_language("rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1\n"
                              "rel Le/2 := x1 <= x2")
        inst = random_instance(lang, 3, 4, seed)
        small = brute_solve(lang, inst, range(6))
        big = brute_solve(lang, inst, range(12))
        if small.sat:
            assert big.sat


def test_materialize_dist1():
    rows = materialize(LANG.relation("D1"), range(3)).tuples
    assert rows == ((0, 1), (1, 0), (1, 2), (2, 1))


def test_materialize_leq():
    rows = materialize(LANG.relation("Le"), range(2)).tuples
    assert rows == ((0, 0), (0, 1), (1, 1))


def test_materialize_restriction_consistent():
    big = set(materialize(LANG.relation("D1"), range(5)).tuples)
    small = set(materialize(LANG.relation("D1"), range(3)).tuples)
    assert {t for t in big if all(0 <= x < 3 for x in t)} == small


def test_materialize_budget():
    with pytest.raises(BudgetExceeded):
        materialize(LANG.relation("F"), range(40), budget=10**4)
    # counted from the ends: len() of this range overflows
    with pytest.raises(BudgetExceeded):
        materialize(LANG.relation("D1"), range(10**20))


def test_generators_deterministic():
    a = random_relation(3, 2, seed=11)
    b = random_relation(3, 2, seed=11)
    assert a.formula == b.formula
    lang = parse_language("rel Le/2 := x1 <= x2")
    i1 = random_instance(lang, 4, 5, seed=3)
    i2 = random_instance(lang, 4, 5, seed=3)
    assert i1 == i2


def test_generators_respect_bounds():
    for seed in range(200):
        arity = 2 + seed % 3
        q = seed % 4
        rel = random_relation(arity, q, seed)
        assert rel.arity == arity
        assert rel.formula.qe_degree <= q
        vs = rel.formula.variables()
        assert not vs or max(vs) < arity
        horn = random_horn_relation(arity, q, seed)
        assert horn.formula.qe_degree <= q
    lang = parse_language("rel Le/2 := x1 <= x2")
    for seed in range(50):
        inst = random_instance(lang, 5, seed % 7, seed)
        assert len(inst.variables) == 5
        assert len(inst.constraints) == seed % 7


def test_empty_instance_generation():
    lang = parse_language("rel Le/2 := x1 <= x2")
    inst = random_instance(lang, 3, 0, seed=1)
    assert inst.constraints == ()
    assert brute_solve(lang, inst, range(3)).sat
