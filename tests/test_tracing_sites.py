"""perfbench's tracer replaces functions at the call sites listed in
``perfbench/tracing.py``; a refactor that drops one of those names would
break ``perfbench/run.py --trace 1`` without failing anything else, and one
that stops calling a name that stays defined would zero its per-layer
metric without failing anything else."""

import argparse
import importlib
import importlib.util
import pathlib
from collections import Counter

import pytest

from dtcsp import parse_language

from conftest import FIXTURES

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_traced_call_sites_resolve():
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.CALL_SITES
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracing.CALL_SITES and not missing, missing


_CLASSIFY_SITES = [(module, attr) for module, attr, _ in tracing.CALL_SITES
                   if module in ("dtcsp.classify", "dtcsp.grids")]
# classify never calls `equivalent`; it only keeps the name importable
_NEVER_CALLED = {("dtcsp.classify", "equivalent")}


@pytest.fixture(scope="module")
def classify_site_calls():
    # t2.dtl (MODMAX_CLOSED(2)) runs profiles, positivity and both grid
    # kernels of the preservation test; f.dtl (HORN_TRACTABLE) the Horn test
    calls = Counter()
    saved = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in _CLASSIFY_SITES:
        mod = importlib.import_module(module)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, counting((module, attr), getattr(mod, attr)))
    try:
        classify_module = importlib.import_module("dtcsp.classify")
        verdicts = [classify_module.classify(parse_language(
            (FIXTURES / name).read_text())).describe()
            for name in ("t2.dtl", "f.dtl")]
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    assert verdicts == ["MODMAX_CLOSED(2)", "HORN_TRACTABLE"]
    return calls


@pytest.mark.parametrize("site", [
    pytest.param(site, marks=pytest.mark.xfail(
        strict=True, reason="classify never calls it, so perfbench's "
        "formula.equivalent_ms reads 0"))
    if site in _NEVER_CALLED else site
    for site in _CLASSIFY_SITES], ids=".".join)
def test_traced_classify_sites_are_called(classify_site_calls, site):
    assert classify_site_calls[site] > 0


_SOLVE_SITES = [(module, attr) for module, attr, _ in tracing.CALL_SITES
                if module in ("dtcsp.cli", "dtcsp.horn", "dtcsp.finite")]
# Sites the routes below never reach, with the reason.
_NOT_ON_SOLVE_ROUTES = {
    ("dtcsp.horn", "solve_horn_csp"): "cli calls it through its own binding",
    ("dtcsp.finite", "solve_mod_max"): "cli calls it through its own binding",
    ("dtcsp.finite", "backtracking_solve"):
        "cli calls it through its own binding, and no solver calls it: a "
        "decide_max_closed fallback builds its own window grids",
}
_ROUTES = (("horn", "f.dtl", "chain.dti"), ("ac", "maxrel.dtl", "maxinst.dti"),
           ("modmax", "t2.dtl", "t2.dti"), ("bt", "dist15.dtl", "triangle.dti"))


@pytest.fixture(scope="module")
def solve_site_calls():
    # each fixture pair is parsed by cli.parse_instance and solved by
    # cli._run_method on the route its verdict selects, as perfbench does
    calls = Counter()
    saved = []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    cli = importlib.import_module("dtcsp.cli")
    for module, attr in _SOLVE_SITES:
        mod = importlib.import_module(module)
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, counting((module, attr), getattr(mod, attr)))
    routes = []
    try:
        for _, language, instance in _ROUTES:
            base = parse_language((FIXTURES / language).read_text())
            verdict = cli.classify(base)
            inst, lang = cli.parse_instance((FIXTURES / instance).read_text(),
                                            base)
            method = cli._AUTO_METHOD[verdict.cls]
            args = argparse.Namespace(window=None, modulus=None)
            result = cli._run_method(method, lang, inst, verdict, args, {})
            routes.append((method, result.status, result.fallback))
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
    assert routes == [("horn", "SAT", False), ("ac", "SAT", False),
                      ("modmax", "SAT", False), ("bt", "UNSAT", False)]
    return calls


@pytest.mark.parametrize("site", [
    pytest.param(site, marks=pytest.mark.xfail(
        strict=True, reason=_NOT_ON_SOLVE_ROUTES[site]))
    if site in _NOT_ON_SOLVE_ROUTES else site
    for site in _SOLVE_SITES], ids=".".join)
def test_traced_solve_sites_are_called(solve_site_calls, site):
    assert solve_site_calls[site] > 0
