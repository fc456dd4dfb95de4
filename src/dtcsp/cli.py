"""Command-line front end.

Commands: ``classify`` a language file, ``solve`` a language/instance pair
with an auto-selected or forced method, ``gen`` seed-deterministic random
inputs, and ``check`` a claimed assignment.  Exit codes for solve: 0 SAT,
1 UNSAT, 2 input error, 3 budget error; classify exits 3 when budgets force
an unknown verdict.

Instance files (.dti) are line oriented with '#' comments: a first line
``var a b c`` declares the variables, every following line applies a relation
``R(a, b)`` or uses a difference literal such as ``b = a + 2`` directly
(expanded into an implicit relation).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import string
import sys
import time
from itertools import repeat

import numpy as np

from .classify import VerdictClass, classify
from .errors import BudgetExceeded, DtcspError, NotHornError, ParseError
from .finite import (
    Instance,
    backtracking_solve,
    bounded_window,
    decide_max_closed,
    relation_codes,
    satisfies,
    solve_mod_max,
    validate_instance,
)
from .formula import (
    Cmp,
    ConstraintLanguage,
    Formula,
    Literal,
    RelationDef,
    parse_language,
    write_language,
)
from .horn import solve_horn_csp
from .oracle import brute_solve, random_horn_relation, random_instance, random_relation

_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_NAMES_RE = re.compile(rf"{_ID}(?: {_ID})*")  # names joined by spaces
_WS = r"[^\S\n]*"  # whitespace within a line
# The first line with text before any '#': the declaration.
_HEAD_RE = re.compile(r"^[^\S\n]*([^#\s][^#\n]*)", re.M)
# One match per line: an application R(a, b) (groups 1-2), a difference
# literal b = a + 2 (groups 3-7), nothing, or (group 8) anything else; each
# may be followed by a comment.
_LINE_RE = re.compile(
    rf"^{_WS}(?:({_ID}){_WS}\(([^)#\n]*)\)"
    rf"|({_ID}){_WS}(<=|<|!=|=){_WS}({_ID})(?:{_WS}([+-]){_WS}(\d+))?)?"
    rf"{_WS}(?:#.*)?$|^(.+)$", re.M)
# Line breaks of str.splitlines in ASCII text, other than '\n'.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
_MARKS_TO_BLANKS = str.maketrans("(,)", "   ")
# The class of each byte: 0 in identifiers, 1-4 for the marks '\n' '(' ','
# ')', 5 for any other byte.
_CLASS = np.full(256, 5, dtype=np.uint8)
_CLASS[list((string.ascii_letters + string.digits + "_").encode())] = 0
_CLASS[list(b"\n(,)")] = [1, 2, 3, 4]
_CLASS = _CLASS.tobytes()
# _FOLLOWS[a, b, filled]: mark b may follow mark a in application-only
# text with blanks dropped, with identifier characters between them
# (filled = 1) or without (0).  Blank lines and the ends of applications
# hold none; the relation name before '(' and each argument hold some.
_FOLLOWS = np.zeros((6, 6, 2), dtype=bool)
_FOLLOWS[[1, 4], [1, 1], 0] = True  # '\n\n' ')\n'
_FOLLOWS[[1, 2, 2, 3, 3], [2, 3, 4, 3, 4], 1] = True  # '\n(' '(,' '()' ',,' ',)'
_FOLLOWS = _FOLLOWS.ravel()  # at 12a + 2b + filled

_CMP_SLUG = {Cmp.LEQ: "leq", Cmp.LT: "lt", Cmp.EQ: "eq", Cmp.NEQ: "neq"}
_SLUG_TEXT = {"leq": "<=", "lt": "<", "eq": "=", "neq": "!="}
_IMPLICIT_RE = re.compile(r"^_(leq|lt|eq|neq)([+-]\d+)$")


def parse_instance(text: str, lang: ConstraintLanguage):
    """Parse a .dti document; returns (instance, language with implicit
    relations for any sugar literals appended).

    Lines end as ``str.splitlines`` ends them; ASCII text whose only line
    break is ``'\\n'`` is read as it is.  Text whose lines after the
    declaration are all blank or applications ``R(a, ..., b)`` of a relation
    to declared variables is split into tokens at once: with blanks
    dropped, its marks ``'\\n' ( , )`` must follow each other as in such
    lines, and one ``split()`` must then give 2·(applications) + (commas)
    identifier tokens, one per name slot (``_split_applications`` gives the
    argument).  Any other text (difference literals, comments, ``R()``,
    undeclared variables, other whitespace, a line that does not parse)
    goes through one pattern that matches every line of the text at once.
    Both end in the one grouping step of every instance,
    ``Instance.from_applications``.  Errors name the first offending line;
    validation errors follow ``validate_instance``.
    """
    if text.isascii() and not any(c in text for c in _OTHER_BREAKS):
        body = text.removesuffix("\n")  # as the join below would give
    else:
        body = "\n".join(text.splitlines())
    head = _HEAD_RE.search(body)
    if head is None:
        raise ParseError("instance file declares no variables")
    parts = head.group(1).split()
    lineno = body.count("\n", 0, head.start()) + 1
    if parts[0] != "var" or len(parts) < 2:
        raise ParseError("expected a 'var a b c' declaration", lineno)
    if not _NAMES_RE.fullmatch(" ".join(parts[1:])):
        for v in parts[1:]:
            if not _NAMES_RE.fullmatch(v):
                raise ParseError(f"bad variable name {v!r}", lineno)
    variables = tuple(parts[1:])
    ids = dict(zip(dict.fromkeys(variables), range(len(variables))))
    start = body.find("\n", head.end()) + 1
    lines = body[start - 1:] if start else ""  # each line after its '\n'
    split = _split_applications(lines, ids, lang)
    implicit = {}
    if split is None:
        names, arg_texts, implicit = _match_lines(body, start)
        split = *relation_codes(names), *_tokenize_arguments(ids, arg_texts)
    extended = lang.extended(implicit.values()) if implicit else lang
    inst = Instance.from_applications(variables, ids, *split)
    validate_instance(extended, inst)
    return inst, extended


def _match_lines(body, start):
    """Relation names, argument texts and implicit relations of the lines
    of ``body`` from ``start`` on; difference literals become applications
    of implicit relations."""
    rows = _LINE_RE.findall(body, start) if start else []
    names, arg_texts, *_, bad = zip(*rows) if rows else [()] * 8
    if any(bad):
        for m in _LINE_RE.finditer(body, start):
            if m.group(8):
                line = m.group(8).split("#", 1)[0].strip()
                raise ParseError(f"cannot parse constraint {line!r}",
                                 body.count("\n", 0, m.start()) + 1)
    implicit = {}
    if not all(names):  # difference literals or blank lines
        names, arg_texts = [], []
        for name, args, lhs, cmp_text, rhs, sign, digits, _ in rows:
            if lhs:
                offset = int(digits) * (-1 if sign == "-" else 1) if digits else 0
                cmp = Cmp(cmp_text)
                rel = implicit.get((cmp, offset))
                if rel is None:
                    rel = implicit[cmp, offset] = RelationDef(
                        f"_{_CMP_SLUG[cmp]}{offset:+d}", 2,
                        Formula(Literal(0, 1, cmp, offset)))
                name, args = rel.name, f"{lhs},{rhs}"
            if name:
                names.append(name)
                arg_texts.append(args)
    return names, arg_texts, implicit


def _split_applications(lines, ids, lang):
    """``(relations, code, args, starts, arity)`` of
    ``Instance.from_applications`` for ``lines``, each line after its
    ``'\\n'``, when every line is blank or an application ``R(a, ..., b)``
    of a relation of ``lang`` or a name of ``ids`` to names of ``ids``;
    else None, and ``_match_lines`` reads the text.

    With blanks (space, tab) dropped, the marks ``'\\n' ( , )`` must follow
    each other as in such lines (``_FOLLOWS``): each line is empty or
    ``R(a,...,b)``, each of its 2 + c slots (c commas; the relation name
    before ``(`` and each argument) holds identifier characters, and
    nothing lies outside the slots.  Any other character fails this check.
    ``split()`` of the text with blanks kept and marks made blanks then
    gives at least one token in each slot and none elsewhere, so it gives
    2·(applications) + (commas) tokens exactly when each slot holds one.
    Then the relation names head runs of arity + 1 tokens.  One dict maps
    every token to a variable id or, for a relation name that is not a
    variable, to a code after the ids; a token that is neither, or an
    argument that is no variable, sends the text to ``_match_lines``.
    """
    if not lines.isascii():
        return None
    # blanks dropped; a last '\n' ends the last line
    classes = np.frombuffer(lines.encode().translate(_CLASS, b" \t") + b"\1",
                            dtype=np.uint8)
    at = classes.nonzero()[0]
    marks = classes[at]
    filled = at[1:] - at[:-1] > 1
    if not _FOLLOWS[marks[:-1] * 12 + marks[1:] * 2 + filled].all():
        return None
    opens = (marks == 2).nonzero()[0]
    arity = (marks == 4).nonzero()[0] - opens  # commas + 1
    tokens = lines.translate(_MARKS_TO_BLANKS).split()
    if len(tokens) != len(opens) + arity.sum():  # 2·(applications) + commas
        return None
    n = len(ids)
    # identifiers only, so that a token such as 1R is no relation name
    rel_names = [r.name for r in lang.relations if _NAMES_RE.fullmatch(r.name)]
    lookup = {name: n + i for i, name in enumerate(rel_names)}
    lookup.update(ids)
    try:
        codes = np.fromiter(map(lookup.__getitem__, tokens), dtype=np.int32,
                            count=len(tokens))
    except KeyError:
        return None
    heads = np.cumsum(arity + 1) - (arity + 1)
    is_arg = np.ones(len(tokens), dtype=bool)
    is_arg[heads] = False
    args = codes[is_arg]
    if (args >= n).any():
        return None
    return ((*ids, *rel_names), codes[heads], args, np.cumsum(arity) - arity,
            arity)


def _tokenize_arguments(ids, arg_texts):
    """``(args, starts, arity)`` of ``Instance.from_applications`` for
    argument texts (``"a, b"``); an argument not in ``ids`` is added to it
    with the next id."""
    commas = np.fromiter(map(str.count, arg_texts, repeat(",")),
                         dtype=np.int64, count=len(arg_texts))
    tokens = list(map(str.strip, ",".join(arg_texts).split(","))) \
        if arg_texts else []
    args = np.fromiter(map(ids.get, tokens, repeat(-1)), dtype=np.int32,
                       count=len(tokens))
    starts = np.concatenate(([0], np.cumsum(commas + 1)[:-1]))
    arity = commas + 1
    for t in np.flatnonzero(args < 0).tolist():
        row = int(np.searchsorted(starts, t, "right")) - 1
        if tokens[t] == "" and commas[row] == 0:
            arity[row] = 0  # R(): no arguments
        else:  # undeclared: new ids, which validation rejects
            args[t] = ids.setdefault(tokens[t], len(ids))
    return args, starts, arity


def write_instance(inst: Instance) -> str:
    """The .dti text of an instance.  Implicit relations (named like
    ``_eq+2``, as ``parse_instance`` names difference literals) are written
    back as difference literals, so the text parses to an equal instance."""
    lines = ["var " + " ".join(inst.variables)]
    for name, args in inst.constraints:
        m = _IMPLICIT_RE.match(name)
        if m and len(args) == 2:
            offset = int(m.group(2))
            tail = f" {'+' if offset > 0 else '-'} {abs(offset)}" if offset else ""
            lines.append(f"{args[0]} {_SLUG_TEXT[m.group(1)]} {args[1]}{tail}")
        else:
            lines.append(f"{name}({', '.join(args)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reports


def verdict_to_dict(verdict):
    return {
        "class": verdict.cls.value,
        "d": verdict.d,
        "certificate": [
            {
                "relation": w.relation,
                "op": {"kind": w.op.kind.value, "d": w.op.d},
                "first": list(w.first),
                "second": list(w.second),
                "image": list(w.image),
            }
            for w in verdict.witnesses
        ],
        "passing": list(verdict.passing),
        "notes": list(verdict.notes),
    }


def report_dict(status, method, verdict, assignment, stats):
    base = {"facts": 0, "revisions": 0, "branches": 0, "wall_ms": 0.0}
    base.update(stats or {})
    return {
        "status": status,
        "method": method,
        "verdict": verdict_to_dict(verdict) if verdict is not None else None,
        "assignment": dict(assignment) if assignment is not None else None,
        "stats": base,
    }


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    print(report["status"])
    print(f"method: {report['method']}")
    if report["verdict"] is not None:
        v = report["verdict"]
        d = f"({v['d']})" if v["d"] is not None and "MOD" in v["class"] else ""
        print(f"verdict: {v['class']}{d}")
    if report["assignment"]:
        for var in sorted(report["assignment"]):
            print(f"  {var} = {report['assignment'][var]}")


# ---------------------------------------------------------------------------
# Commands

def _read_input(path):
    """The text of a UTF-8 .dtl or .dti file, else a ``ParseError``."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None


def cmd_classify(args) -> int:
    try:
        lang = parse_language(_read_input(args.language))
    except (OSError, DtcspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = classify(lang)
    if args.json:
        print(json.dumps(verdict_to_dict(verdict), sort_keys=True))
    else:
        print(f"verdict: {verdict.describe()}")
        for note in verdict.notes:
            print(f"  - {note}")
        for line in verdict.passing:
            print(f"  + {line}")
        for w in verdict.witnesses:
            print(f"  ! {w.relation}: {w.op.describe()} maps {w.first} and "
                  f"{w.second} to {w.image}, which is outside the relation")
    if verdict.cls is VerdictClass.DEGENERATE_OR_UNKNOWN:
        return 3
    return 0


_AUTO_METHOD = {
    VerdictClass.HORN_TRACTABLE: "horn",
    VerdictClass.MAX_CLOSED: "ac",
    VerdictClass.MIN_CLOSED: "ac",
    VerdictClass.MODMAX_CLOSED: "modmax",
    VerdictClass.MODMIN_CLOSED: "modmax",
    VerdictClass.NP_HARD: "bt",
    VerdictClass.DEGENERATE_OR_UNKNOWN: "bt",
}


_MODULAR = (VerdictClass.MODMAX_CLOSED, VerdictClass.MODMIN_CLOSED)


def _flag_error(method, verdict, args):
    """Why ``--window`` or ``--modulus`` would not be used by the method,
    or None when both are usable."""
    if args.window is not None and method in ("horn", "modmax"):
        return (f"--window does not apply to method {method}, which decides "
                f"over all integers")
    fixed = verdict.cls in _MODULAR
    if args.modulus is not None and method != "modmax":
        return f"--modulus does not apply to method {method}"
    if args.modulus is not None and fixed:
        return (f"--modulus does not apply to method modmax here: the "
                f"verdict {verdict.describe()} fixes the modulus")
    if args.modulus is None and method == "modmax" and not fixed:
        return ("method modmax needs --modulus: the language has no modular "
                "verdict")
    return None


def _run_method(method, lang, inst, verdict, args, stats):
    window = range(0, args.window) if args.window is not None else None
    if method == "horn":
        return solve_horn_csp(lang, inst, stats=stats)
    if method == "ac":
        mode = "min" if verdict.cls is VerdictClass.MIN_CLOSED else "max"
        return decide_max_closed(lang, inst, mode=mode, window=window,
                                 stats=stats)
    if method == "modmax":
        if verdict.cls in _MODULAR:
            d = verdict.d
            mode = "max" if verdict.cls is VerdictClass.MODMAX_CLOSED else "min"
        else:
            d, mode = args.modulus, "max"
        return solve_mod_max(lang, inst, d, mode=mode, stats=stats)
    if method == "bt":
        return backtracking_solve(lang, inst, window=window, stats=stats)
    if method == "brute":
        w = window if window is not None else bounded_window(lang, inst)
        return brute_solve(lang, inst, w, stats=stats)
    raise ValueError(f"unknown method {method!r}")


def cmd_solve(args) -> int:
    try:
        lang = parse_language(_read_input(args.language))
        inst, lang = parse_instance(_read_input(args.instance), lang)
    except (OSError, DtcspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = {}
    start = time.perf_counter()
    try:
        verdict = classify(lang)
        method = args.method if args.method != "auto" else _AUTO_METHOD[verdict.cls]
        error = _flag_error(method, verdict, args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
        result = _run_method(method, lang, inst, verdict, args, stats)
    except NotHornError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stats["wall_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    if args.seed is not None:
        stats["seed"] = args.seed
    if result.sat and not satisfies(lang, inst, result.assignment):
        print("error: solver returned an invalid witness", file=sys.stderr)
        return 3
    report = report_dict(result.status, method, verdict, result.assignment, stats)
    _print_report(report, args.json)
    return 0 if result.sat else 1


def cmd_gen(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rels = []
    if args.kind == "horn":
        for i in range(args.relations):
            rels.append(random_horn_relation(
                2 + (i % 2), args.q, seed=args.seed * 97 + i, name=f"R{i}"))
    else:
        for i in range(args.relations):
            dialect = "mixed" if args.kind == "mixed" else args.kind
            rels.append(random_relation(
                2 + (i % 2), args.q, seed=args.seed * 97 + i,
                dialect=dialect, name=f"R{i}"))
    lang = ConstraintLanguage(tuple(rels))
    inst = random_instance(lang, args.nvars, args.nconstraints,
                           seed=args.seed * 89 + 7)
    (out / "lang.dtl").write_text(write_language(lang))
    (out / "inst.dti").write_text(write_instance(inst))
    print(f"wrote {out / 'lang.dtl'} and {out / 'inst.dti'}")
    return 0


def cmd_check(args) -> int:
    try:
        lang = parse_language(_read_input(args.language))
        inst, lang = parse_instance(_read_input(args.instance), lang)
    except (OSError, DtcspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        assignment = json.loads(pathlib.Path(args.assignment).read_text())
        _check_assignment(assignment, inst.variables)
    except (OSError, ValueError, RecursionError) as exc:  # deep JSON recurses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if satisfies(lang, inst, assignment):
        print("valid")
        return 0
    print("invalid")
    return 1


def _check_assignment(assignment, variables):
    """Raise a ``ValueError`` naming the first declared variable without a
    value, else the first key that is no declared variable, else the first
    value that is not an integer."""
    if not isinstance(assignment, dict):
        raise ValueError("assignment must be a JSON object mapping each "
                         "variable to an integer")
    for v in variables:
        if v not in assignment:
            raise ValueError(f"assignment has no value for variable {v!r}")
    declared = set(variables)
    for key in assignment:
        if key not in declared:
            raise ValueError(f"assignment names undeclared variable {key!r}")
    for key, value in assignment.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"assignment value {value!r} of variable {key!r} "
                             f"is not an integer")


def _int_at_least(name, least):
    """argparse type for a flag taking an integer of at least ``least``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer of at least {least}, got {text!r}")
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dtcsp",
        description="solve and classify CSPs over the integers with order "
                    "and successor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a .dtl language")
    p.add_argument("language")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve a .dti instance over a .dtl language")
    p.add_argument("language")
    p.add_argument("instance")
    p.add_argument("--method", default="auto",
                   choices=["auto", "horn", "ac", "modmax", "bt", "brute"])
    p.add_argument("--window", type=_int_at_least("window", 1), default=None,
                   help="override the (q+1)n decision window size (at least 1)")
    p.add_argument("--modulus", type=_int_at_least("modulus", 1), default=None,
                   help="modulus when forcing --method modmax on a language "
                        "without a modular verdict (at least 1)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded for reproducibility")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="emit a seed-deterministic language/instance pair")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--kind", default="mixed",
                   choices=["mixed", "successor", "order", "horn"])
    p.add_argument("--relations", type=_int_at_least("relations", 1),
                   default=3)
    p.add_argument("--q", type=_int_at_least("q", 0), default=2)
    p.add_argument("--nvars", type=_int_at_least("nvars", 1), default=5)
    p.add_argument("--nconstraints", type=_int_at_least("nconstraints", 0),
                   default=5)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify a claimed assignment")
    p.add_argument("language")
    p.add_argument("instance")
    p.add_argument("assignment", help="JSON file mapping variables to integers")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main_entry():  # pragma: no cover - console script shim
    raise SystemExit(main())
