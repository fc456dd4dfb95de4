import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcsp import (
    And,
    ArityError,
    BudgetExceeded,
    Cmp,
    ConstraintLanguage,
    DuplicateNameError,
    Formula,
    Instance,
    Literal,
    MissingVariableError,
    Not,
    Or,
    ParseError,
    RelationDef,
    SizeLimitExceeded,
    brute_solve,
    classify,
    equivalent,
    evaluate,
    parse_language,
    random_relation,
    reduce,
    to_cnf,
    to_dnf,
    write_language,
)
from dtcsp import formula
from dtcsp.formula import formula_from_clauses, parse_expression

from conftest import FIXTURES
from helpers import literal_keyed_reduce, random_mixed_language

F_TEXT = "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)"


def parse_f():
    return parse_language(F_TEXT)


def window_agree(f, g, n):
    """Reference for ``equivalent``: plain enumeration of the window through
    ``Formula.compiled``, the oracle's path, independent of ``grids``."""
    size = max(1, (max(f.qe_degree, g.qe_degree) + 1) * n)
    ff, gg = f.compiled(), g.compiled()
    return all(ff(p) == gg(p)
               for p in itertools.product(range(size), repeat=n))


# ---------------------------------------------------------------------------
# parsing


def test_parse_f_language():
    lang = parse_f()
    assert lang.names() == ["F"]
    assert lang.relation("F").arity == 4
    assert lang.q == 1


def test_parse_zero_offset():
    lang = parse_language("rel Leq/2 := x1 <= x2 + 0")
    assert lang.q == 0


def test_parse_arity_error():
    with pytest.raises(ArityError):
        parse_language("rel R/2 := x1 <= x3 + 1")


def test_parse_duplicate_name():
    with pytest.raises(DuplicateNameError):
        parse_language("rel R/2 := x1 <= x2\nrel R/2 := x1 < x2")


def test_parse_syntax_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_language("rel R/2 := x1 <= !")
    assert err.value.line == 1
    assert err.value.col is not None


def test_parse_comments_and_blank_lines():
    lang = parse_language("# header\n\nrel A/2 := x1 = x2  # trailing\n")
    assert lang.names() == ["A"]


def test_implication_is_sugar():
    by_arrow = parse_expression("x1 = x2 -> x1 = x2 + 1", 2)
    spelled = parse_expression("!(x1 = x2) | x1 = x2 + 1", 2)
    assert equivalent(by_arrow, spelled, 2)


def test_arrow_right_associative():
    chained = parse_expression("x1 = x2 -> x1 = x2 -> x1 < x2", 2)
    grouped = parse_expression("x1 = x2 -> (x1 = x2 -> x1 < x2)", 2)
    assert equivalent(chained, grouped, 2)


def _nested(shape, depth):
    """Formula text whose deepest point has ``depth`` nesting levels open."""
    if shape == "paren":
        return "(" * depth + "x1 <= x2" + ")" * depth
    if shape == "not":
        return "!" * depth + "x1 = x2 + 1"
    if shape == "arrow":
        return " -> ".join(["x1 = x2"] * (depth + 1))
    text = "x1 = x2 + 1"  # arrows nested to the left: two tree levels each
    for _ in range(depth - 1):
        text = f"({text} -> x2 = x1)"
    return text


_SHAPES = ("paren", "not", "arrow", "left_arrow")


@pytest.mark.parametrize("shape", _SHAPES)
def test_parse_rejects_nesting_past_the_limit(shape):
    limit = formula.MAX_NESTING
    text = f"rel R/2 := {_nested(shape, limit + 1)}"
    message = f"formula nests deeper than {limit} levels"
    with pytest.raises(ParseError, match=message) as err:
        parse_language(text)
    # the column of the opener one level too deep
    if shape == "arrow":
        col = 12 + limit * len("x1 = x2 -> ") + len("x1 = x2 ")
    elif shape == "left_arrow":
        col = text.index("->") + 1
    else:
        col = 12 + limit
    assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("shape", _SHAPES)
def test_formula_at_the_nesting_limit_classifies_and_solves(shape):
    lang = parse_language(f"rel R/2 := {_nested(shape, formula.MAX_NESTING)}")
    f = lang.relations[0].formula
    assert classify(lang).cls is not None
    fn = f.compiled()
    for point in itertools.product(range(-2, 3), repeat=2):
        assert fn(point) == f.evaluate(point)
    inst = Instance(("a", "b"), (("R", ("a", "b")),))
    assert brute_solve(lang, inst, range(-2, 3)).sat


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_f_examples():
    f = parse_f().relation("F").formula
    assert evaluate(f, (0, 1, 5, 6))
    assert not evaluate(f, (0, 1, 5, 7))


def test_self_literal_is_reflexively_true():
    f = Formula(Literal(0, 0, Cmp.LEQ, 0))
    for v in (-3, 0, 17):
        assert evaluate(f, (v,))


def test_evaluate_missing_variable():
    f = parse_f().relation("F").formula
    with pytest.raises(MissingVariableError):
        evaluate(f, (0, 1))
    with pytest.raises(MissingVariableError):
        evaluate(f, {0: 1, 1: 2})


def test_compiled_matches_tree_eval():
    for seed in range(40):
        lang = random_mixed_language(seed, nrels=1)
        f = lang.relations[0].formula
        size = (f.qe_degree + 1) * max(1, f.nvars)
        fn = f.compiled()
        for point in itertools.islice(
                itertools.product(range(size), repeat=max(1, f.nvars)), 200):
            assert fn(point) == f.evaluate(point)


# ---------------------------------------------------------------------------
# normal forms


def test_negated_leq_becomes_swapped_lt():
    f = Formula(Not(Literal(0, 1, Cmp.LEQ, 3)))
    cnf = to_cnf(f)
    assert cnf.clauses == ((Literal(1, 0, Cmp.LT, -3),),)


def test_f_cnf_shape():
    cnf = to_cnf(parse_f().relation("F").formula)
    assert len(cnf.clauses) == 2
    for clause in cnf.clauses:
        kinds = sorted(lit.cmp.name for lit in clause)
        assert kinds == ["EQ", "NEQ"]


def test_dist_dnf_two_disjuncts():
    for i in (1, 5):
        f = parse_expression(f"x1 = x2 + {i} | x1 = x2 - {i}", 2)
        dnf = to_dnf(f)
        assert set(dnf.clauses) == {
            (Literal(0, 1, Cmp.EQ, i),),
            (Literal(0, 1, Cmp.EQ, -i),),
        }


def test_size_limit_exceeded(monkeypatch):
    # (a|b) & (a|b) & ... blows up when distributed into DNF
    lit_a = Literal(0, 1, Cmp.EQ, 0)
    lit_b = Literal(0, 1, Cmp.EQ, 1)
    f = Formula(And(tuple(Or((lit_a, lit_b)) for _ in range(12))))
    monkeypatch.setattr(formula, "DEFAULT_CLAUSE_BUDGET", 50)
    with pytest.raises(SizeLimitExceeded):
        to_dnf(f)


# ---------------------------------------------------------------------------
# equivalence


def test_equivalent_reflexive_on_f():
    f = parse_f().relation("F").formula
    assert equivalent(f, f, 4)


def test_equivalent_rewritten_atom():
    a = parse_expression("x1 = x2 + 1", 2)
    b = parse_expression("x2 = x1 - 1", 2)
    assert equivalent(a, b, 2)


def test_equivalent_separates_dist_from_suc():
    dist = parse_expression("x1 = x2 + 1 | x1 = x2 - 1", 2)
    suc = parse_expression("x1 = x2 + 1", 2)
    assert not equivalent(dist, suc, 2)
    # (1, 0) satisfies both, (0, 1) separates them
    assert evaluate(dist, (1, 0)) and evaluate(suc, (1, 0))
    assert evaluate(dist, (0, 1)) and not evaluate(suc, (0, 1))


def test_equivalent_budget(monkeypatch):
    # x1 is pinned at 0 and x2 ranges over [-4, 4]: 9 points
    f = parse_expression("x1 = x2 + 3", 2)
    monkeypatch.setattr(formula, "DEFAULT_ENUM_BUDGET", 9)
    assert equivalent(f, f, 2)
    monkeypatch.setattr(formula, "DEFAULT_ENUM_BUDGET", 8)
    with pytest.raises(BudgetExceeded, match=r"equivalent window: 9\^1 "):
        equivalent(f, f, 2)


def test_equivalent_symmetric_and_reflexive_random():
    outcomes = set()
    for seed in range(25):
        lang = random_mixed_language(seed, nrels=2, arity_max=3, q_max=2)
        f = lang.relations[0].formula
        g = lang.relations[1].formula
        n = max(lang.relations[0].arity, lang.relations[1].arity)
        assert equivalent(f, f, n)
        assert equivalent(f, g, n) == equivalent(g, f, n)
        # random pairs mostly differ; the normal forms never do
        for h in (g, to_cnf(f), to_dnf(f)):
            same = equivalent(f, h, n)
            assert same == window_agree(f, h, n)
            outcomes.add(same)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# reduction


def test_reduce_absorbs_clause():
    f = parse_expression("x1 = x2 + 1 & (x1 = x2 + 1 | x1 = x2 + 2)", 2)
    red = reduce(to_cnf(f))
    assert red.clauses == ((Literal(0, 1, Cmp.EQ, 1),),)


def test_reduce_keeps_f_cnf():
    cnf = to_cnf(parse_f().relation("F").formula)
    assert reduce(cnf).clauses == cnf.clauses


def test_reduce_merges_duplicate_disjunct():
    f = Formula(Or((Literal(0, 1, Cmp.EQ, 1), Literal(0, 1, Cmp.EQ, 1))))
    red = reduce(to_dnf(f))
    assert red.clauses == ((Literal(0, 1, Cmp.EQ, 1),),)


def test_reduce_work_budget(monkeypatch):
    # F's CNF is already reduced: the target, one clause pass of failed
    # deletions (c - 1 clauses each) and one literal pass (one clause per
    # test), each clause read at all 13^3 points of the window (q = 1, four
    # variables, x1 pinned at 0 and the other three in [-6, 6])
    cnf = to_cnf(parse_f().relation("F").formula)
    c = len(cnf.clauses)
    lits = sum(len(cl) for cl in cnf.clauses)
    work = 13**3 * (c + c * (c - 1) + lits)
    monkeypatch.setattr(formula, "DEFAULT_REDUCE_WORK", work)
    assert reduce(cnf).clauses == cnf.clauses
    monkeypatch.setattr(formula, "DEFAULT_REDUCE_WORK", work - 1)
    with pytest.raises(BudgetExceeded, match=f"reduce .* budget of {work - 1} "):
        reduce(cnf)


@pytest.mark.parametrize("view,text", [
    ("cnf", "x1 <= x2 & x1 < x2 + 1"),  # two clauses: the clause pass
    ("cnf", "x1 <= x2 | x1 < x2 + 1"),  # one clause: the literal pass
    ("dnf", "x1 <= x2 | x1 < x2 + 1"),
    ("dnf", "x1 <= x2 & x1 < x2 + 1"),
])
def test_reduce_deletes_the_first_redundant_part(view, text):
    # both literals mean the same, so either one alone is irredundant; the
    # scan in order deletes the first
    f = parse_expression(text, 2)
    red = reduce(to_cnf(f) if view == "cnf" else to_dnf(f))
    assert red.clauses == ((Literal(0, 1, Cmp.LT, 1),),)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arity=st.integers(1, 3), q=st.integers(0, 3),
       seed=st.integers(0, 10**6),
       dialect=st.sampled_from(["successor", "order", "mixed"]),
       shape=st.sampled_from([to_cnf, to_dnf]))
def test_reduce_matches_literal_keyed_reference(arity, q, seed, dialect,
                                                shape):
    # the three forward passes over literal ids delete what the restarting
    # scan over Literal clauses did, in the same order
    f = shape(random_relation(arity, q, seed, dialect=dialect).formula)
    assert reduce(f).clauses == literal_keyed_reduce(f).clauses


def test_cnf_blowup_still_trips_reduce():
    # the fixture's ten terms give a CNF of 4^10 clauses, past the literal
    # budget; eight give 65,536 clauses, whose scans pass the work budget
    root = parse_language(
        (FIXTURES / "cnf_blowup.dtl").read_text()).relation("B").formula.root
    with pytest.raises(SizeLimitExceeded, match="cnf expansion exceeds"):
        to_cnf(Formula(root))
    cnf = to_cnf(Formula(Or(root.parts[:8])))
    with pytest.raises(BudgetExceeded) as info:
        reduce(cnf)
    assert str(info.value) == (
        "reduce exceeds its work budget of 1000000000 clause-point "
        "evaluations")


def test_reduce_requires_view():
    with pytest.raises(ValueError):
        reduce(Formula(Literal(0, 1, Cmp.EQ, 0)))


def _window_points(f, nvars):
    size = max(1, (f.qe_degree + 1) * nvars)
    return itertools.product(range(size), repeat=nvars)


def test_normal_forms_pointwise_equal_random():
    for seed in range(60):
        lang = random_mixed_language(seed, nrels=1, arity_max=4, q_max=3)
        rel = lang.relations[0]
        f = rel.formula
        cnf, dnf = to_cnf(f), to_dnf(f)
        for point in _window_points(f, rel.arity):
            want = f.evaluate(point)
            assert cnf.evaluate(point) == want
            assert dnf.evaluate(point) == want


def test_reduce_is_equivalent_and_minimal():
    for seed in range(25):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=2)
        rel = lang.relations[0]
        for shape in (to_cnf, to_dnf):
            norm = shape(rel.formula)
            red = reduce(norm)
            assert equivalent(red, rel.formula, rel.arity)
            assert window_agree(red, rel.formula, rel.arity)
            again = reduce(red)
            assert again.clauses == red.clauses
            # no single clause or literal deletion keeps the relation
            for i, clause in enumerate(red.clauses):
                rest = red.clauses[:i] + red.clauses[i + 1:]
                cands = [rest] + [
                    rest[:i] + (clause[:j] + clause[j + 1:],) + rest[i:]
                    for j in range(len(clause))]
                for cand in cands:
                    smaller = formula_from_clauses(red.view, cand)
                    assert not window_agree(smaller, rel.formula, rel.arity)


def test_window_soundness_of_satisfiability():
    # satisfiable within (q+1)n iff satisfiable within the doubled window
    for seed in range(40):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=3)
        rel = lang.relations[0]
        f = rel.formula
        n = rel.arity
        size = (f.qe_degree + 1) * n
        fn = f.compiled()
        sat_small = any(fn(p) for p in itertools.product(range(size), repeat=n))
        sat_big = any(fn(p) for p in itertools.product(range(2 * size), repeat=n))
        assert sat_small == sat_big


# ---------------------------------------------------------------------------
# serialization


def test_language_roundtrip():
    for seed in range(15):
        lang = random_mixed_language(seed, nrels=3, arity_max=3, q_max=3)
        back = parse_language(write_language(lang))
        assert back.names() == lang.names()
        for old, new in zip(lang.relations, back.relations):
            assert old.arity == new.arity
            assert equivalent(old.formula, new.formula, old.arity)


@pytest.mark.parametrize("n", range(1, 51))
def test_negations_round_trip_at_their_own_depth(n):
    # n ``!`` before a literal open n nesting levels, within MAX_NESTING
    root = Literal(0, 1, Cmp.LEQ, -3)
    for _ in range(n):
        root = Not(root)
    lang = ConstraintLanguage((RelationDef("N", 2, Formula(root)),))
    text = write_language(lang)
    assert parse_language(text).relation("N").formula.root == root


def _lit(k):
    return f"x1 = x2 + {k}"


def _nested_text(shape, n):
    """A formula of the given shape that opens exactly n nesting levels."""
    if shape == "parentheses":
        return "(" * n + _lit(0) + ")" * n
    if shape == "negations":
        return "!" * n + _lit(0)
    if shape == "right arrows":
        return " -> ".join(_lit(k) for k in range(n + 1))
    if shape == "left arrows":  # n - 1 parentheses around n arrows
        text = _lit(0)
        for k in range(1, n + 1):
            text = (f"({text})" if k > 1 else text) + f" -> {_lit(k)}"
        return text
    text = f"({_lit(0)})" if n % 2 else _lit(0)  # "!( ... | ... )"
    for k in range(1, n // 2 + 1):
        text = f"!({text} | {_lit(k)})"
    return text


@pytest.mark.parametrize("n", range(1, 51))
@pytest.mark.parametrize("shape", ["parentheses", "negations", "right arrows",
                                   "left arrows", "negated disjunctions"])
def test_written_language_nests_no_deeper_than_its_text(shape, n,
                                                         monkeypatch):
    # the text opens n levels, so the writer's text must parse back to the
    # same tree within n levels too
    text = f"rel R/2 := {_nested_text(shape, n)}\n"
    lang = parse_language(text)
    monkeypatch.setattr(formula, "MAX_NESTING", n - 1)
    with pytest.raises(ParseError, match="nests deeper"):
        parse_language(text)
    monkeypatch.setattr(formula, "MAX_NESTING", n)
    back = parse_language(write_language(lang))
    assert back.relation("R").formula.root == lang.relation("R").formula.root


def _random_text(rng, size):
    """A random formula text with ``size`` connectives, in any spelling."""
    if size == 0:
        return _lit(rng.randint(0, 3))
    kind = rng.choice("!(&|>")
    if kind == "!":
        return "!" + _random_text(rng, size - 1)
    if kind == "(":
        return f"({_random_text(rng, size - 1)})"
    k = rng.randint(0, size - 1)
    op = {"&": "&", "|": "|", ">": "->"}[kind]
    return f"{_random_text(rng, k)} {op} {_random_text(rng, size - 1 - k)}"


def test_written_random_formulas_nest_no_deeper_than_their_text(monkeypatch):
    rng = random.Random(0)
    limit = formula.MAX_NESTING
    for _ in range(400):
        text = f"rel R/2 := {_random_text(rng, rng.randint(1, 14))}\n"
        monkeypatch.setattr(formula, "MAX_NESTING", limit)
        root = parse_language(text).relation("R").formula.root
        depth = 0
        while True:  # the levels the text opens
            monkeypatch.setattr(formula, "MAX_NESTING", depth)
            try:
                parse_language(text)
                break
            except ParseError:
                depth += 1
        # the writer's text parses back within as many levels
        back = parse_language(write_language(parse_language(text)))
        assert back.relation("R").formula.root == root, text


def test_concurrent_view_computation():
    from concurrent.futures import ThreadPoolExecutor
    from dtcsp.classify import reduced_cnf
    rel = parse_f().relation("F")
    points = list(itertools.product(range(3), repeat=4))

    def views(_):
        fn = rel.formula.compiled()
        return (to_cnf(rel.formula), reduced_cnf(rel),
                [fn(p) for p in points])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside each build
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(views, range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
