import contextlib
import gc
import io
import json
import pathlib
import random
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtcsp import cli, finite, formula
from dtcsp.cli import main, parse_instance, write_instance
from dtcsp import ArityError, DtcspError, Instance, ParseError, parse_language
from dtcsp.formula import write_language

from conftest import FIXTURES
from helpers import naive_parse_instance


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# classify


def test_classify_f(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "f.dtl")
    assert code == 0
    assert "HORN_TRACTABLE" in out


def test_classify_dist15(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "dist15.dtl")
    assert code == 0
    assert "NP_HARD" in out


def test_classify_maxrel(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "maxrel.dtl")
    assert code == 0
    assert "MAX_CLOSED" in out


def test_classify_t2(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "t2.dtl")
    assert code == 0
    assert "MODMAX_CLOSED(2)" in out


def test_classify_parse_error(capsys):
    code, _, err = run(capsys, "classify", FIXTURES / "bad.dtl")
    assert code == 2
    assert "error" in err


# bigmod5.dtl: Gap is preserved only by modmax(8), and proving Pairs/5
# (three clusters: x1 and x2, x3 and x4, x5) preserved by it needs the
# 49^5 cluster window
@pytest.mark.parametrize("language", ["bigmod5.dtl", "cnf_blowup.dtl"])
def test_classify_budget_downgrade_exits_3(capsys, language):
    code, out, _ = run(capsys, "classify", FIXTURES / language)
    assert code == 3
    assert "DEGENERATE_OR_UNKNOWN" in out


def test_classify_budget_trips_in_the_preservation_proof(capsys):
    # the profiles and the small 19^5 window fit; only the proof does not
    code, out, _ = run(capsys, "classify", FIXTURES / "bigmod5.dtl")
    assert code == 3
    assert "candidate moduli: 1, 2, 4, 8" in out
    assert "preservation window 49^5" in out


def test_classify_bigmod_proved_on_its_cluster_window(capsys):
    # Pairs/4 has two clusters of spread 0, so modmax(16) is proved on the
    # 65^4 cluster window, where the arity bound needs 129^4
    code, out, _ = run(capsys, "classify", FIXTURES / "bigmod.dtl")
    assert code == 0
    assert "MODMAX_CLOSED(16)" in out
    assert "Pairs preserved by modmax(16) (window 32)" in out


def test_classify_bigmax_max_closed(capsys):
    # two gaps of offset 6 in arity 4: proved at half-width 25, 51^4 cells
    code, out, _ = run(capsys, "classify", FIXTURES / "bigmax.dtl")
    assert code == 0
    assert "MAX_CLOSED" in out
    assert "Big preserved by max (window 25)" in out


def test_classify_bigorder_max_closed(capsys):
    # an order language builds no profile grid, so only the 71^4-cell proof
    # window counts against the budget, not the 120^4 profile window
    code, out, _ = run(capsys, "classify", FIXTURES / "bigorder.dtl")
    assert code == 0
    assert "MAX_CLOSED" in out
    assert "Big preserved by max (window 35)" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", FIXTURES / "t2.dtl", "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["class"] == "MODMAX_CLOSED"
    assert verdict["d"] == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_horn_chain(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "f.dtl", FIXTURES / "chain.dti")
    assert code == 0
    assert "SAT" in out
    assert "method: horn" in out
    assert "a = 0" in out


def test_solve_triangle_unsat_bt(capsys):
    # the distance-pair language is hard, so auto routes to backtracking
    code, out, _ = run(capsys, "solve", FIXTURES / "dist15.dtl",
                       FIXTURES / "triangle.dti")
    assert code == 1
    assert "UNSAT" in out
    assert "method: bt" in out


def test_solve_dist1_alone_routes_modular(capsys):
    # |x - y| = 1 alone is preserved by the 2-modular max (bipartiteness)
    code, out, _ = run(capsys, "solve", FIXTURES / "dist1.dtl",
                       FIXTURES / "triangle.dti")
    assert code == 1
    assert "method: modmax" in out


def test_solve_brute_agrees(capsys):
    for lang, inst in (("f.dtl", "chain.dti"), ("dist1.dtl", "triangle.dti"),
                       ("dist1.dtl", "pair.dti"), ("maxrel.dtl", "maxinst.dti"),
                       ("t2.dtl", "t2.dti")):
        auto = run(capsys, "solve", FIXTURES / lang, FIXTURES / inst)[0]
        brute = run(capsys, "solve", FIXTURES / lang, FIXTURES / inst,
                    "--method", "brute")[0]
        assert auto == brute, (lang, inst)


def test_solve_max_fixture_uses_ac(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "maxrel.dtl",
                       FIXTURES / "maxinst.dti")
    assert code == 0
    assert "method: ac" in out


def test_solve_t2_uses_modmax(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "t2.dtl", FIXTURES / "t2.dti")
    assert code == 0
    assert "method: modmax" in out


def test_solve_forced_modmax_congruence(capsys):
    code, out, _ = run(capsys, "solve", FIXTURES / "cong.dtl",
                       FIXTURES / "cong.dti",
                       "--method", "modmax", "--modulus", "2")
    assert code == 0
    assert "SAT" in out


def test_solve_forced_horn_on_non_horn(capsys):
    code, _, err = run(capsys, "solve", FIXTURES / "dist1.dtl",
                       FIXTURES / "pair.dti", "--method", "horn")
    assert code == 2
    assert "Horn" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", FIXTURES / "nope.dtl",
                       FIXTURES / "pair.dti")
    assert code == 2


def test_solve_json_roundtrip(capsys):
    for lang, inst in (("f.dtl", "chain.dti"), ("dist1.dtl", "triangle.dti"),
                       ("maxrel.dtl", "maxinst.dti")):
        _, out, _ = run(capsys, "solve", FIXTURES / lang, FIXTURES / inst,
                        "--json")
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report
        assert set(report) == {"status", "method", "verdict", "assignment",
                               "stats"}
        assert {"facts", "revisions", "branches", "wall_ms"} <= set(report["stats"])


def test_solve_window_override(capsys):
    # on {0, 1} the brute witness of dist1/pair and the greatest solution of
    # maxrel/maxinst on {0, 1, 2} take the values below
    for lang, inst, method, window, values in (
            ("dist1.dtl", "pair.dti", "brute", "2", {0, 1}),
            ("maxrel.dtl", "maxinst.dti", "ac", "3", {2})):
        code, out, _ = run(capsys, "solve", FIXTURES / lang, FIXTURES / inst,
                           "--method", method, "--window", window, "--json")
        assert code == 0
        assert set(json.loads(out)["assignment"].values()) == values


@pytest.mark.parametrize("argv, method", [
    (("t2.dtl", "t2.dti", "--window", "1"), "modmax"),
    (("f.dtl", "chain.dti", "--method", "horn", "--window", "3"), "horn"),
], ids=["auto_modmax", "forced_horn"])
def test_solve_window_rejected_by_horn_and_modmax(capsys, argv, method):
    language, instance, *flags = argv
    code, out, err = run(capsys, "solve", FIXTURES / language,
                         FIXTURES / instance, *flags)
    assert code == 2
    assert out == ""
    assert f"--window does not apply to method {method}" in err


@pytest.mark.parametrize("flags", [("--window=-3",), ("--window", "0")],
                         ids=["minus_3", "zero"])
def test_solve_window_below_one_exits_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(FIXTURES / "maxrel.dtl"),
              str(FIXTURES / "maxinst.dti"), "--method", "ac", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "window must be an integer of at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [("--modulus=-2",), ("--modulus", "0")],
                         ids=["minus_2", "zero"])
def test_solve_modulus_below_one_exits_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(FIXTURES / "maxrel.dtl"),
              str(FIXTURES / "maxinst.dti"), "--method", "modmax", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "modulus must be an integer of at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("f.dtl", "chain.dti", "--modulus", "3"),
     "--modulus does not apply to method horn"),
    (("t2.dtl", "t2.dti", "--modulus", "3"),
     "--modulus does not apply to method modmax here: the verdict "
     "MODMAX_CLOSED(2) fixes the modulus"),
    (("maxrel.dtl", "maxinst.dti", "--method", "bt", "--modulus", "2"),
     "--modulus does not apply to method bt"),
], ids=["auto_horn", "auto_modmax", "forced_bt"])
def test_solve_modulus_unused_exits_2(capsys, argv, message):
    language, instance, *flags = argv
    code, out, err = run(capsys, "solve", FIXTURES / language,
                         FIXTURES / instance, *flags)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("big.dtl", "big.dti", "--method", "brute", "--window", "500"),
    ("cnf_blowup.dtl", "cnf_blowup.dti", "--method", "horn"),
], ids=["brute_window", "horn_cnf_blowup"])
def test_solve_budget_error_exits_3(capsys, argv):
    language, instance, *flags = argv
    code, _, err = run(capsys, "solve", FIXTURES / language,
                       FIXTURES / instance, *flags)
    assert code == 3
    assert "budget" in err.lower()


def test_solve_horn_large_offset(tmp_path, capsys):
    # the Horn test reduces R's CNF over x2 in [-20001, 20001], x1 pinned at 0
    language = tmp_path / "r.dtl"
    language.write_text("rel R/2 := x1 = x2 + 20000 | x1 != x2 + 5\n")
    instance = tmp_path / "r.dti"
    instance.write_text("var a b c\nb = a + 5\nR(b, c)\nR(c, a)\n")
    code, out, _ = run(capsys, "solve", language, instance, "--method", "horn",
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "SAT" and report["method"] == "horn"
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(report["assignment"]))
    code, out, _ = run(capsys, "check", language, instance, witness)
    assert code == 0
    assert "valid" in out


def test_solve_horn_reduce_window_budget_names_the_phase(capsys):
    # the Horn test reduces R's CNF over x2 in [-(q + 1), q + 1], q = 3 * 10^21
    code, out, err = run(capsys, "solve", FIXTURES / "hugeoffset.dtl",
                         FIXTURES / "hugeoffset.dti", "--method", "horn")
    assert code == 3
    assert out == ""
    assert err.startswith("error: reduce window: ") and "budget" in err


HUGE = str(10**20)


@pytest.mark.parametrize("argv", [
    ("maxrel.dtl", "maxinst.dti", "--method", "bt", "--window", HUGE),
    ("maxrel.dtl", "maxinst.dti", "--method", "brute", "--window", HUGE),
    ("hugeoffset.dtl", "hugeoffset.dti"),
], ids=["bt_window", "brute_window", "auto_offset"])
def test_solve_huge_window_exits_3_before_listing_it(capsys, argv):
    # the window is checked against the budget from its ends, so no list of
    # 10^20 values (or of the offset's window) is built
    language, instance, *flags = argv
    code, out, err = run(capsys, "solve", FIXTURES / language,
                         FIXTURES / instance, *flags)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


def test_solve_huge_modulus_exits_3_before_listing_residues(tmp_path,
                                                           capsys):
    # no applied relation bounds the residue window, so only the residue
    # domains' budget stops a list of 10^9 residues per variable
    instance = tmp_path / "free.dti"
    instance.write_text("var a b c\n")
    code, out, err = run(capsys, "solve", FIXTURES / "maxrel.dtl", instance,
                         "--method", "modmax", "--modulus", "1000000000")
    assert code == 3
    assert out == ""
    assert err == ("error: residue search: domains of 1000000000 values, "
                   "over the budget of 100000000\n")


def test_solve_table_budget_exits_3(capsys, monkeypatch):
    # the window {0, ..., 17} gives M/4 a grid of 18^4 cells for forced
    # backtracking; auto routing to bound propagation builds no grid
    monkeypatch.setattr(finite, "DEFAULT_TABLE_CELLS", 18**4 - 1)
    code, out, err = run(capsys, "solve", FIXTURES / "ring4.dtl",
                         FIXTURES / "ring4.dti", "--json")
    assert code == 0, err
    report = json.loads(out)
    assert report["status"] == "SAT" and report["method"] == "ac"
    assert report["stats"]["branches"] == 0  # no fallback search
    code, out, err = run(capsys, "solve", FIXTURES / "ring4.dtl",
                         FIXTURES / "ring4.dti", "--method", "bt")
    assert code == 3
    assert out == ""
    assert "relation M" in err and "budget" in err


def test_solve_search_budget_exits_3(capsys, monkeypatch):
    # one D1 edge takes three search nodes: root, a, b
    monkeypatch.setattr(finite, "DEFAULT_BRANCH_BUDGET", 2)
    code, out, err = run(capsys, "solve", FIXTURES / "dist15.dtl",
                         FIXTURES / "pair.dti", "--method", "bt")
    assert code == 3
    assert out == ""
    assert "backtracking exceeded the budget of 2 search nodes" in err


def test_solve_forced_modmax_without_modulus(capsys):
    code, _, err = run(capsys, "solve", FIXTURES / "maxrel.dtl",
                       FIXTURES / "maxinst.dti", "--method", "modmax")
    assert code == 2
    assert "--modulus" in err


# ---------------------------------------------------------------------------
# gen / check


def test_gen_deterministic(tmp_path, capsys):
    run(capsys, "gen", "--seed", "7", "--out", tmp_path / "a")
    run(capsys, "gen", "--seed", "7", "--out", tmp_path / "b")
    for name in ("lang.dtl", "inst.dti"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_output_parses(tmp_path, capsys):
    code, _, _ = run(capsys, "gen", "--seed", "3", "--out", tmp_path,
                     "--kind", "horn")
    assert code == 0
    lang = parse_language((tmp_path / "lang.dtl").read_text())
    inst, _ = parse_instance((tmp_path / "inst.dti").read_text(), lang)
    assert inst.variables


@pytest.mark.parametrize("flag, value, least", [
    ("relations", "0", 1), ("relations", "-2", 1), ("nvars", "0", 1),
    ("q", "-1", 0), ("nconstraints", "-1", 0), ("nvars", "x", 1),
])
def test_gen_bad_count_exits_2(tmp_path, capsys, flag, value, least):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "1", "--out", str(tmp_path),
              f"--{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{flag} must be an integer of at least {least}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["mixed", "successor", "order", "horn"])
def test_gen_least_counts_solve(tmp_path, capsys, kind):
    # the smallest accepted counts write a pair that solve accepts
    code, _, _ = run(capsys, "gen", "--seed", "1", "--out", tmp_path,
                     "--kind", kind, "--relations", "1", "--q", "0",
                     "--nvars", "1", "--nconstraints", "0")
    assert code == 0
    code, _, err = run(capsys, "solve", tmp_path / "lang.dtl",
                       tmp_path / "inst.dti")
    assert code == 0, err


def test_check_valid_witness(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", FIXTURES / "f.dtl", FIXTURES / "chain.dti",
                    "--json")
    witness = json.loads(out)["assignment"]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    code, out, _ = run(capsys, "check", FIXTURES / "f.dtl",
                       FIXTURES / "chain.dti", path)
    assert code == 0
    assert "valid" in out


def test_check_perturbed_witness(tmp_path, capsys):
    _, out, _ = run(capsys, "solve", FIXTURES / "f.dtl", FIXTURES / "chain.dti",
                    "--json")
    witness = json.loads(out)["assignment"]
    witness["b"] += 1  # breaks the unit constraint b = a + 1
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness))
    code, out, _ = run(capsys, "check", FIXTURES / "f.dtl",
                       FIXTURES / "chain.dti", path)
    assert code == 1
    assert "invalid" in out


@pytest.mark.parametrize("values, code", [
    ({"a": 2**80, "b": 2**80 + 1, "c": 2**80 + 1}, 0),
    ({"a": 2**63 - 2, "b": 2**63 - 1, "c": 2**63 - 1}, 0),
    ({"a": -(2**63 - 1), "b": -(2**63 - 2), "c": -(2**63 - 2)}, 0),
    ({"a": -(2**90), "b": -(2**90) + 1, "c": -(2**90) + 2}, 1),
    # a + 1 wraps to b in int64 arithmetic
    ({"a": 2**63 - 1, "b": -(2**63), "c": -(2**63)}, 1),
], ids=["2**80", "int64_top", "int64_bottom", "big_negative_bad", "wrap_bad"])
def test_check_big_values(tmp_path, capsys, values, code):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(values))
    got, out, _ = run(capsys, "check", FIXTURES / "f.dtl",
                      FIXTURES / "chain.dti", path)
    assert got == code
    assert out.strip() == ("valid" if code == 0 else "invalid")


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "check", FIXTURES / "f.dtl",
                       FIXTURES / "chain.dti", path)
    assert code == 2


def test_check_wrong_variables(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"a": 0}))
    code, _, _ = run(capsys, "check", FIXTURES / "f.dtl",
                     FIXTURES / "chain.dti", path)
    assert code == 2


@pytest.mark.parametrize("assignment, message", [
    ({"a": 0, "b": 1, "z": 3}, "assignment has no value for variable 'c'"),
    ({"a": 0, "b": 1, "c": 1.0, "z": 3},
     "assignment names undeclared variable 'z'"),
    ({"a": 0, "b": True, "c": 1.5},
     "assignment value True of variable 'b' is not an integer"),
    ([0, 1, 1], "assignment must be a JSON object mapping each variable to "
                "an integer"),
], ids=["missing", "undeclared", "not_integer", "not_object"])
def test_check_names_the_bad_entry(tmp_path, capsys, assignment, message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(assignment))
    code, out, err = run(capsys, "check", FIXTURES / "f.dtl",
                         FIXTURES / "chain.dti", path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_check_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "check", FIXTURES / "f.dtl",
                         FIXTURES / "chain.dti", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: maximum recursion depth exceeded")


_DEEP = {
    "5000_parens": "(" * 5000 + "x1 <= x2" + ")" * 5000,
    "5000_nots": "!" * 5000 + "x1 <= x2",
    "981_nots": "!" * 981 + "x1 = x2 + 1",
}


def _deep_argv(tmp_path, command, expr):
    (tmp_path / "deep.dtl").write_text(f"rel R/2 := {expr}\n")
    (tmp_path / "r.dti").write_text("var a b\nR(a, b)\n")
    (tmp_path / "w.json").write_text('{"a": 0, "b": 1}')
    files = {"classify": ["deep.dtl"], "solve": ["deep.dtl", "r.dti"],
             "check": ["deep.dtl", "r.dti", "w.json"]}[command]
    return [command] + [tmp_path / f for f in files]


@pytest.mark.parametrize("command", ["classify", "solve", "check"])
@pytest.mark.parametrize("expr", list(_DEEP.values()), ids=list(_DEEP))
def test_deep_nesting_exits_2(tmp_path, capsys, command, expr):
    limit = formula.MAX_NESTING
    code, out, err = run(capsys, *_deep_argv(tmp_path, command, expr))
    assert (code, out) == (2, "")
    assert err == (f"error: formula nests deeper than {limit} levels "
                   f"(line 1, col {12 + limit})\n")


@pytest.mark.parametrize("command", ["classify", "solve", "check"])
@pytest.mark.parametrize("expr", [
    "(" * formula.MAX_NESTING + "x1 <= x2" + ")" * formula.MAX_NESTING,
    "!" * formula.MAX_NESTING + "x1 < x2 + 1",
], ids=["parens", "nots"])
def test_nesting_at_the_limit_runs(tmp_path, capsys, command, expr):
    code, out, err = run(capsys, *_deep_argv(tmp_path, command, expr))
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv", [
    ("classify", "f.dtl"),
    ("solve", "f.dtl", "chain.dti"),
    ("check", "f.dtl", "chain.dti", "w.json"),
], ids=["classify", "solve", "check"])
def test_commands_close_their_files(tmp_path, capsys, argv):
    (tmp_path / "w.json").write_text('{"a": 0, "b": 1, "c": 1}')
    paths = [tmp_path / a if a == "w.json" else FIXTURES / a
             for a in argv[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, argv[0], *paths)
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("argv, bad", [
    (("classify", "f.dtl"), "f.dtl"),
    (("solve", "f.dtl", "chain.dti"), "f.dtl"),
    (("solve", "f.dtl", "chain.dti"), "chain.dti"),
    (("check", "f.dtl", "chain.dti", "w.json"), "f.dtl"),
    (("check", "f.dtl", "chain.dti", "w.json"), "chain.dti"),
], ids=["classify", "solve_dtl", "solve_dti", "check_dtl", "check_dti"])
def test_non_utf8_input_exits_2(tmp_path, capsys, argv, bad):
    # one Latin-1 byte in a comment: both formats are UTF-8
    (tmp_path / "w.json").write_text('{"a": 0, "b": 1, "c": 1}')
    data = (FIXTURES / bad).read_bytes()
    (tmp_path / bad).write_bytes(b"# caf\xe9\n" + data)
    paths = [tmp_path / a if a in (bad, "w.json") else FIXTURES / a
             for a in argv[1:]]
    code, out, err = run(capsys, argv[0], *paths)
    assert code == 2
    assert out == ""
    assert err == (f"error: {tmp_path / bad} is not UTF-8 text: invalid "
                   f"continuation byte at byte 5\n")


# ---------------------------------------------------------------------------
# instance files


def test_instance_sugar_expansion():
    lang = parse_language("rel Le/2 := x1 <= x2")
    inst, ext = parse_instance("var a b\nLe(a, b)\nb = a + 2\na != b\n", lang)
    assert len(inst.constraints) == 3
    assert len(ext.relations) == 3
    assert ext.q == 2


def test_instance_write_parse_roundtrip():
    lang = parse_language("rel Le/2 := x1 <= x2")
    inst = Instance(("a", "b", "c"), (("Le", ("a", "b")), ("Le", ("b", "c"))))
    text = write_instance(inst)
    back, _ = parse_instance(text, lang)
    assert back == inst


def test_instance_undeclared_variable():
    lang = parse_language("rel Le/2 := x1 <= x2")
    import pytest
    from dtcsp import ParseError
    with pytest.raises(ParseError):
        parse_instance("var a\nLe(a, b)\n", lang)


INSTANCE_LANG = parse_language(
    "rel Le/2 := x1 <= x2\n"
    "rel S/2 := x2 = x1 + 1\n"
    "rel T/3 := x1 <= x2 | x3 = x1 + 1\n")


@pytest.mark.parametrize("text, error, message", [
    ("", ParseError, "instance file declares no variables"),
    ("# only a comment\n\t\n", ParseError,
     "instance file declares no variables"),
    ("\nvars a b\n", ParseError,
     "expected a 'var a b c' declaration (line 2)"),
    ("var # a b\n", ParseError, "expected a 'var a b c' declaration (line 1)"),
    ("var a 1b\n", ParseError, "bad variable name '1b' (line 1)"),
    ("var a b\r\nLe(a, b)\r\n\r\nLe(a # b)\n", ParseError,
     "cannot parse constraint 'Le(a' (line 4)"),
    ("var a b\na == b\n", ParseError,
     "cannot parse constraint 'a == b' (line 2)"),
    ("var a b\nvar c\n", ParseError,
     "cannot parse constraint 'var c' (line 2)"),
    ("var a a\nLe(a, a)\n", ParseError, "duplicate variable declaration"),
    ("var a b\nNope(a)\n", ParseError, "unknown relation 'Nope'"),
    ("var a b\nLe(a, b, a)\n", ArityError, "Le expects 2 arguments, got 3"),
    ("var a b\nLe()\n", ArityError, "Le expects 2 arguments, got 0"),
    ("var a\nLe(a, b)\n", ParseError, "undeclared variable 'b'"),
    ("var a\nLe(a, )\n", ParseError, "undeclared variable ''"),
    # a syntax error anywhere wins over a duplicate declaration, which wins
    # over validation errors, which come in constraint order
    ("var a a\nNope(b)\nLe(a\n", ParseError,
     "cannot parse constraint 'Le(a' (line 3)"),
    ("var a a\nNope(b)\n", ParseError, "duplicate variable declaration"),
    ("var a\nLe(a, a)\nLe(a, b)\nNope(a)\n", ParseError,
     "undeclared variable 'b'"),
    ("var a b\nS(a, b)\nLe(a, a, a)\nLe(a, c)\n", ArityError,
     "Le expects 2 arguments, got 3"),
    ("var a b\nS(a, b)\nLe(a, c)\nNope(a)\nLe(b)\n", ParseError,
     "undeclared variable 'c'"),
])
def test_instance_parse_errors(text, error, message):
    with pytest.raises(error) as info:
        parse_instance(text, INSTANCE_LANG)
    assert type(info.value) is error
    assert str(info.value) == message


CHAIN_LANG = parse_language(
    "rel S/2 := x2 = x1 + 1\n"
    "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)\n"
    "rel N/2 := x1 != x2 + 2\n")


def _chain_instance(n=3000, seed=0):
    """A successor chain over n variables with n // 2 F and N applications
    on random variables, shuffled: the shape of a Horn request."""
    rng = random.Random(seed)
    vs = tuple(f"v{i}" for i in range(n))
    cons = [("S", (vs[i], vs[i + 1])) for i in range(n - 1)]
    for _ in range(n // 2):
        name, k = rng.choice((("F", 4), ("N", 2)))
        cons.append((name, tuple(rng.sample(vs, k))))
    rng.shuffle(cons)
    return Instance(vs, tuple(cons))


class _NoLinePattern:
    def __getattr__(self, name):
        raise AssertionError("application-only text reached _LINE_RE")


def test_application_only_text_is_split(monkeypatch):
    inst = _chain_instance()
    text = write_instance(inst)
    monkeypatch.setattr(cli, "_LINE_RE", _NoLinePattern())
    parse_instance(text, CHAIN_LANG)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        got, lang = parse_instance(text, CHAIN_LANG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == inst and lang is CHAIN_LANG
    assert _layout(got) == _layout(inst)
    # This 93 KiB, 4,500-line text parses with a traced peak of 1.7 MiB
    # here and of 2.3 MiB through _LINE_RE.  One fullmatch of a repeated
    # line pattern over the whole text, in place of the search line by
    # line, would add about 5.4 MiB of backtracking state, a frame per
    # line; the bound fails on that and leaves room over both parses.
    assert peak < 4 * 2**20


def _relations(lang):
    return [(r.name, r.arity, r.formula.root) for r in lang.relations]


def test_write_instance_round_trips_difference_literals():
    text = ("var a b c\nLe(a, b)\nb = a + 2\nb = a\nc <= a - 1\nc < b + 3\n"
            "a != c - 4\nb != c\nc <= b + 0\na < c - 0\nb = a + 2\n")
    inst, ext = parse_instance(text, INSTANCE_LANG)
    written = write_instance(inst)
    assert written.splitlines()[1:5] == [
        "Le(a, b)", "b = a + 2", "b = a", "c <= a - 1"]
    back, back_ext = parse_instance(written, INSTANCE_LANG)
    assert back == inst
    assert _relations(back_ext) == _relations(ext)


# ---------------------------------------------------------------------------
# the one-pattern parser against the line-by-line reference

_DTI_NAMES = ("a", "b", "c", "_d", "x1", "var", "Le")
_ARITY = {"Le": 2, "S": 2, "T": 3}
_WS = st.sampled_from(["", "", "", " ", " ", "  ", "\t", " \t", "\u00a0"])
_GARBAGE = ("Le(a", "a == b", "a >= b", "(", "Le(a)(b)", "Le(a # b)",
            "var a b", "a = b +", "1a = b", "Le[a, b]", "a = b + c", "a b",
            "Le(a, b) x", "a = b + 2 + 1", "a <= 3")
# Close to an application R(a, ..., b): for the check that sends text to
# the split path, and for the split and the replacements that tokenize it.
_NEAR_MISSES = ("Le()", "Le({} {})", "Le({},,{})", "Le({}, {},)",
                "Le ( {} ,{} )", "Le({},\t{})", "Le(\u00a0{}, {})",
                "Le(Le, {})", "Le({}, Le)", "Le({}, {}", "Le {}, {})",
                "Le(({}, {}))", "Le({}, {})(", "Le({}){}", "{}",
                "1Le({}, {})", "Le({})Le({})", "Le({},\x1f{})",
                "Le({}, {})\x1f", "\x00", "Le({}, {}) ")


@st.composite
def _dti_line(draw, declared, flawed, apply_only=False):
    """One line; a flawed one may name an unknown relation, get the arity
    wrong, use an undeclared variable, come close to an application or not
    parse at all.  With ``apply_only`` an unflawed line is an application
    or blank, without a comment."""
    def ws():
        return draw(_WS)

    def var():
        return draw(st.sampled_from(declared + (("zz", "") if flawed else ())))

    kinds = ["apply"] * 4 + (["blank"] if apply_only else
                             ["sugar"] * 2 + ["blank", "comment"])
    if flawed:
        kinds += ["near_miss"] * 3 + ["garbage"] * (1 if apply_only else 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "apply":
        name = draw(st.sampled_from(sorted(_ARITY)
                                    + (["Nope", "le"] if flawed else [])))
        n = _ARITY.get(name, 1)
        if flawed:
            n = draw(st.sampled_from([n, n, 0, n + 1, n - 1]))
        inner = ",".join(ws() + var() + ws() for _ in range(n)) or ws()
        line = f"{ws()}{name}{ws()}({inner}){ws()}"
    elif kind == "sugar":
        op = draw(st.sampled_from(["<=", "<", "=", "!="]))
        tail = ""
        if draw(st.booleans()):
            sign = draw(st.sampled_from("+-"))
            digits = draw(st.sampled_from(["0", "1", "2", "07", "12"]))
            tail = f"{ws()}{sign}{ws()}{digits}"
        line = f"{ws()}{var()}{ws()}{op}{ws()}{var()}{tail}{ws()}"
    elif kind == "blank":
        line = ws()
    elif kind == "comment":
        line = f"{ws()}# {draw(st.sampled_from(['note', 'Le(a, b)', 'var x']))}"
    elif kind == "near_miss":
        line = draw(st.sampled_from(_NEAR_MISSES)).format(var(), var())
    else:
        line = draw(st.sampled_from(_GARBAGE))
    if not apply_only and kind != "comment" and draw(st.integers(0, 4)) == 0:
        line += f"{ws()}#{draw(st.sampled_from(['', ' c', 'Le(a)']))}"
    return line


@st.composite
def dti_texts(draw, valid=None, apply_only=None):
    """Instance text over INSTANCE_LANG.  Half of the texts are valid: known
    relations with their arity over declared variables.  In the others,
    about one line in four is flawed (see ``_dti_line``), and the
    declaration may repeat a variable or be malformed or missing.  In a
    quarter of the texts every line after the declaration is an
    application or blank, the text that ``parse_instance`` splits.
    ``valid`` and ``apply_only`` fix those choices when given."""
    if valid is None:
        valid = draw(st.booleans())
    if apply_only is None:
        apply_only = draw(st.integers(0, 3)) == 0
    declared = tuple(draw(st.lists(st.sampled_from(_DTI_NAMES), min_size=1,
                                   max_size=5, unique=True)))
    names = declared
    if not valid and draw(st.integers(0, 4)) == 0:
        names += (draw(st.sampled_from(declared)),)
    head = "var " + " ".join(names)
    if not valid and draw(st.integers(0, 4)) == 0:
        head = draw(st.sampled_from(["var", "vars a", "var a 1b", "Le(a, b)",
                                     ""]))
    lines = [draw(st.sampled_from(["", "# header", "  "]))
             for _ in range(draw(st.integers(0, 2)))]
    lines.append(head)
    for _ in range(draw(st.integers(0, 12))):
        flawed = not valid and draw(st.integers(0, 3)) == 0
        lines.append(draw(_dti_line(declared, flawed, apply_only)))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n\x0b")


def _parsed(parse, text):
    try:
        inst, lang = parse(text, INSTANCE_LANG)
    except DtcspError as exc:
        return type(exc), str(exc)
    return inst, _relations(lang)


def _layout(inst):
    """The groups in order, with their arrays' dtypes, shapes and bytes."""
    return [(name, args.dtype, args.shape, args.tobytes(), order.dtype,
             order.tobytes()) for name, args, order in inst.groups]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(dti_texts())
def test_parse_instance_matches_line_parser(text):
    got = _parsed(parse_instance, text)
    assert got == _parsed(naive_parse_instance, text)
    inst = got[0]
    if isinstance(inst, Instance):
        # the id view is the one built from names, down to the bytes
        by_names = Instance(inst.variables, inst.constraints)
        assert inst.names == by_names.names
        assert _layout(inst) == _layout(by_names)
        assert all(args.dtype == np.int32 and order.dtype == np.int64
                   for _, args, order in inst.groups)
        assert _parsed(parse_instance, write_instance(inst)) == got


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dti_texts(valid=True, apply_only=True)
       .map(lambda text: text.replace("\u00a0", " ")))
def test_application_only_ascii_text_is_split(text):
    # valid application-only ASCII text (spaces, tabs, blank lines, comment
    # lines before the declaration, any line ends, relation names that are
    # also declared variables) and what write_instance makes of it, with
    # no implicit relations, never reach the line pattern
    with mock.patch.object(cli, "_match_lines",
                           side_effect=AssertionError("reached _match_lines")):
        got = _parsed(parse_instance, text)
        assert got == _parsed(naive_parse_instance, text)
        assert _parsed(parse_instance, write_instance(got[0])) == got


@pytest.mark.parametrize("line", [
    *(m.format("a", "b") for m in _NEAR_MISSES),
    "Le(a, zz)", "Nope(a, b)", "Le(a)", "Le(b, a) # c", "a = b", "Le(a, b", "",
])
def test_one_line_away_from_application_only(line):
    # the only line of the text that might send it down the other path
    text = f"var a b Le\nLe(a, b)\nS(b, Le)\n{line}\nT(a, b, a)\n"
    got = _parsed(parse_instance, text)
    assert got == _parsed(naive_parse_instance, text)


@pytest.mark.parametrize("line", [
    *(m.format("a", "b") for m in _NEAR_MISSES), "Le(a b, a)",
])
def test_one_line_away_before_relations_named_like_variables(line):
    # every later relation name is a declared variable, so tokens read one
    # slot off would still map to ids: the token count must turn away two
    # tokens in one slot (Le(a b, a))
    text = f"var a b Le\n{line}\nLe(a, a)\nLe(b, a)\n"
    got = _parsed(parse_instance, text)
    assert got == _parsed(naive_parse_instance, text)


def test_instance_from_names_numbers_and_groups_like_the_parser():
    # repeated declarations, undeclared arguments (numbered after the
    # declared ones, in order of first use), R(), an empty-string name and
    # T applied at two arities (invalid, but grouped by relation first)
    inst = Instance(("a", "b", "a"),
                    (("T", ("b", "x")), ("R", ()), ("T", ("a",)),
                     ("R", ("",)), ("T", ("x", "a")), ("S", ("y", "b", "y"))))
    assert inst.names == ("a", "b", "x", "", "y")
    assert [(name, args.tolist(), order.tolist())
            for name, args, order in inst.groups] == [
        ("T", [[1, 2], [2, 0]], [0, 4]), ("T", [[0]], [2]),
        ("R", [[]], [1]), ("R", [[3]], [3]), ("S", [[4, 1, 4]], [5])]
    assert all(args.dtype == np.int32 and order.dtype == np.int64
               for _, args, order in inst.groups)
    assert [inst.constraint(i) for i in range(6)] == list(inst.constraints)


# ---------------------------------------------------------------------------
# no input gives a traceback

_SPLICED = st.sampled_from([b"\xe9", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])


def _spliced(texts):
    """Bytes: three times in five those of ``texts``, else arbitrary ones
    or those of ``texts`` with a sequence that is not UTF-8 spliced in."""
    def splice(args):
        data, bad, at = args
        at %= len(data) + 1
        return data[:at] + bad + data[at:]

    encoded = texts.map(str.encode)
    kinds = [encoded] * 3 + [
        st.binary(max_size=120),
        st.tuples(encoded, _SPLICED, st.integers(0, 10**4)).map(splice)]
    return st.integers(0, 4).flatmap(kinds.__getitem__)


def _main(*argv):
    """``cli.main``'s exit code and stdout; an exception escapes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_spliced(st.just(write_language(INSTANCE_LANG))),
       _spliced(dti_texts()),
       st.one_of(st.none(), st.binary(max_size=40),
                 st.dictionaries(st.sampled_from(_DTI_NAMES),
                                 st.integers(-2**70, 2**70))
                 .map(lambda d: json.dumps(d).encode())))
def test_no_input_gives_a_traceback(language, instance, assignment):
    # exit codes only: 0 and 1 answers, 2 input errors, 3 budget errors;
    # with no assignment drawn, check gets the witness solve printed
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "l.dtl").write_bytes(language)
        (tmp / "i.dti").write_bytes(instance)
        codes = [_main("classify", tmp / "l.dtl")[0]]
        code, out = _main("solve", tmp / "l.dtl", tmp / "i.dti", "--json")
        codes.append(code)
        if assignment is None:
            witness = json.loads(out)["assignment"] if code == 0 else {}
            assignment = json.dumps(witness).encode()
        (tmp / "w.json").write_bytes(assignment)
        codes.append(_main("check", tmp / "l.dtl", tmp / "i.dti",
                           tmp / "w.json")[0])
    assert set(codes) <= {0, 1, 2, 3}
