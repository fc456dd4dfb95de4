"""Correctness gate, run outside the timed region.

Every verdict, modulus and status must equal the expectation the request was
built with; every NP_HARD certificate must re-check by evaluation; every SAT
witness is re-checked constraint by constraint with plain formula
evaluation.  ``check`` returns None for a correct answer, else a reason.
"""

from __future__ import annotations


def naive_violation(rel, op, width=6):
    """A pair of relation tuples in [0, width)^k whose componentwise op-image
    is not in the relation, found by plain enumeration; None if there is none
    in that window.  ``op`` is ``max`` or ``min``, so images stay inside the
    window and membership is exact."""
    from dtcsp import materialize
    rows = materialize(rel, range(width)).tuples
    members = set(rows)
    for s in rows:
        for t in rows:
            if tuple(map(op, s, t)) not in members:
                return s, t
    return None


def check_verdict(req, lang, verdict):
    got = verdict.cls.value
    if got != req.expect:
        return f"verdict {got}, expected {req.expect}"
    if req.expect_d is not None and verdict.d != req.expect_d:
        return f"modulus {verdict.d}, expected {req.expect_d}"
    if got == "NP_HARD":
        if not verdict.witnesses:
            return "NP_HARD without a certificate"
        for w in verdict.witnesses:
            if not w.revalidates(lang.relation(w.relation)):
                return f"certificate on {w.relation} does not re-check"
    return None


def check_solution(req, lang, inst, result):
    if result.status != req.expect:
        return f"status {result.status}, expected {req.expect}"
    if result.status == "SAT":
        assignment = result.assignment
        if set(assignment) != set(inst.variables):
            return "witness does not assign exactly the instance variables"
        for name, args in inst.constraints:
            values = tuple(assignment[a] for a in args)
            if not lang.relation(name).formula.evaluate(values):
                return f"witness violates {name}{args}"
    return None
