"""Seeded generators for the benchmark's requests, as .dtl/.dti text.

Every request carries the answer it must get.  That answer comes from how
the request was built (a planted assignment, a contradiction planted on
purpose, a language family whose class is known) or, for the random mixed
family, from the naive oracle; never from the code path being timed.

A workload is a sequence of decks.  A deck is a fixed list of slots, so every
deck has the same mix, and the timed loop always runs whole decks: two runs
with different seeds see the same proportions of every family.  Deck ``i`` of
seed ``s`` depends only on ``(workload, s, i)`` and, in the classifier
workload, on a tag that goes into relation names, so that a repeated deck is
a set of new languages rather than hits in a per-relation cache.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

# Time spent in correctness references (the oracle, the gate) while
# languages and requests are built and checked.  They are not part of the
# program, so set-up time excludes it.
reference_ns = 0


def reference(fn, *args):
    global reference_ns
    start = time.perf_counter_ns()
    try:
        return fn(*args)
    finally:
        reference_ns += time.perf_counter_ns() - start


@dataclass(frozen=True)
class Request:
    family: str
    lang: str          # .dtl text (classify_mix) or a key of the language table
    inst: str | None   # .dti text, None for classification requests
    expect: str        # verdict class or SAT/UNSAT
    expect_d: int | None = None


def _rng(*parts):
    return random.Random("/".join(map(str, parts)))


def _off(c):
    if c > 0:
        return f" + {c}"
    if c < 0:
        return f" - {-c}"
    return ""


def _lit(a, cmp, b, c=0):
    return f"x{a} {cmp} x{b}{_off(c)}"


def _dti(variables, constraints):
    lines = ["var " + " ".join(variables)]
    lines += [f"{name}({', '.join(args)})" for name, args in constraints]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# classify_mix: one language per request


def _order_lang(rng, name, p, flip):
    """Difference bound plus ``z <= max(x, y) + p`` (or its min mirror)."""
    z, x, y = rng.sample((1, 2, 3), 3)
    if flip:
        tern = f"{_lit(x, '<=', z, p)} | {_lit(y, '<=', z, p)}"
    else:
        tern = f"{_lit(z, '<=', x, p)} | {_lit(z, '<=', y, p)}"
    a, b = rng.sample((1, 2), 2)
    c = rng.choice((-p, p))
    bound = f"{_lit(a, '<=', b, c)} & {_lit(b, '<=', a, p)}"
    rels = [f"rel {name}m/3 := {tern}", f"rel {name}b/2 := {bound}"]
    rng.shuffle(rels)
    return "\n".join(rels) + "\n", "MIN_CLOSED" if flip else "MAX_CLOSED", None


def _horn_f_lang(rng, name):
    """F-style successor biconditional plus a successor step: Horn."""
    a, b, c, d = rng.sample((1, 2, 3, 4), 4)
    s, t = rng.choice((-1, 1)), rng.choice((-1, 1))
    left, right = _lit(b, "=", a, s), _lit(d, "=", c, t)
    text = (f"rel {name}f/4 := ({left} -> {right}) & ({right} -> {left})\n"
            f"rel {name}s/2 := {_lit(2, '=', 1, rng.choice((-1, 1)))}\n")
    return text, "HORN_TRACTABLE", None


def _horn_clause_lang(rng, name):
    """Clause sets with one positive successor atom per clause at most."""
    x, y, z = rng.sample((1, 2, 3), 3)
    c1 = f"{_lit(x, '!=', y, rng.choice((-1, 1)))} | {_lit(z, '=', x, rng.choice((-2, 2)))}"
    c2 = f"{_lit(y, '!=', z, 0)} | {_lit(x, '!=', z, rng.choice((-1, 1)))}"
    text = (f"rel {name}h/3 := ({c1}) & ({c2})\n"
            f"rel {name}e/2 := {_lit(1, '=', 2, rng.choice((-1, 1)))}\n")
    return text, "HORN_TRACTABLE", None


def _progression(d, start, steps, rng):
    terms = [_lit(2, "=", 1, start + i * d) for i in range(steps + 1)]
    rng.shuffle(terms)
    return " | ".join(terms)


def _t_relation(d):
    return (f"({_lit(1, '=', 3, d)} & {_lit(2, '=', 3)}) | "
            f"({_lit(1, '=', 3, d)} & {_lit(2, '=', 3, d)}) | "
            f"({_lit(1, '=', 3)} & {_lit(2, '=', 3, d)})")


def _modular_lang(rng, name, d):
    """Step-d progressions plus the T(d) triple: MODMAX_CLOSED(d) exactly."""
    rels = [f"rel {name}p/2 := {_progression(d, -d, 2, rng)}",
            f"rel {name}q/2 := {_progression(d, -d * rng.randint(0, 2), rng.randint(1, 2), rng)}",
            f"rel {name}t/3 := {_t_relation(d)}"]
    rng.shuffle(rels)
    return "\n".join(rels) + "\n", "MODMAX_CLOSED", d


def _arity3_lang(rng, name, m):
    """OR of (x1 = x2 + i & x3 = x1 + i), i < m.

    Positive, and for every d >= 2 the pair (0,0,0), (d, d-1, d+1) has the
    d-modular max (d, 0, 0) outside the relation (mirror for min), while
    plain max/min fail on (1,0,2), (2,2,2); so the verdict is NP_HARD.
    """
    order = list(range(m))
    rng.shuffle(order)
    body = " | ".join(f"({_lit(1, '=', 2, i)} & {_lit(3, '=', 1, i)})" for i in order)
    return f"rel {name}a/3 := {body}\n", "NP_HARD", None


def _betweenness(perm):
    a, b, c = perm
    return (f"({_lit(a, '<', b)} & {_lit(b, '<', c)}) | "
            f"({_lit(c, '<', b)} & {_lit(b, '<', a)})")


def _cyclic(perm):
    a, b, c = perm
    return (f"({_lit(a, '<', b)} & {_lit(b, '<', c)}) | "
            f"({_lit(b, '<', c)} & {_lit(c, '<', a)}) | "
            f"({_lit(c, '<', a)} & {_lit(a, '<', b)})")


def _betw_lang(rng, name):
    return f"rel {name}w/3 := {_betweenness(rng.sample((1, 2, 3), 3))}\n", "NP_HARD", None


def _cyc_lang(rng, name):
    return f"rel {name}c/3 := {_cyclic(rng.sample((1, 2, 3), 3))}\n", "NP_HARD", None


def _dist_pair_lang(rng, name, k):
    """Distances k and 5k: the distance-1/distance-5 pair scaled by k, which
    is the same problem on each residue class mod k."""
    rels = []
    for tag, dist in (("u", k), ("v", 5 * k)):
        terms = [_lit(1, "=", 2, dist), _lit(1, "=", 2, -dist)]
        rng.shuffle(terms)
        rels.append(f"rel {name}{tag}/2 := {' | '.join(terms)}")
    rng.shuffle(rels)
    return "\n".join(rels) + "\n", "NP_HARD", None


_ORDER_ATOM = re.compile(r"x(\d+) <=? x(\d+)")


def _random_mixed_lang(rng, name, nrels=2, q_max=2):
    """Random order-dialect language, kept only when the naive oracle finds a
    max-violating and a min-violating pair: then no candidate polymorphism of
    the order branch survives and the verdict must be NP_HARD."""
    from dtcsp import ConstraintLanguage, random_relation, write_language

    from gate import naive_violation
    while True:
        rels = [random_relation(rng.randint(2, 3), rng.randint(1, q_max),
                                rng.randrange(10**9), dialect="mixed",
                                name=f"{name}r{i}")
                for i in range(nrels)]
        text = write_language(ConstraintLanguage(tuple(rels)))
        if not any(a != b for a, b in _ORDER_ATOM.findall(text)):
            continue
        if any(reference(naive_violation, r, max) for r in rels) and \
                any(reference(naive_violation, r, min) for r in rels):
            return text, "NP_HARD", None


# Slot list of one classify_mix deck: 40 requests.  The cheap order, Horn and
# hard families (31 slots, 14 of them near 10 ms so that p50 falls inside one
# tight group) set p50; the modular and arity-3 positive families (9 slots)
# set p90 and most of the time.
CLASSIFY_SLOTS = (
    [("order_max", lambda r, n: _order_lang(r, n, 1, False))] * 4
    + [("order_max", lambda r, n: _order_lang(r, n, 3, False))] * 2
    + [("order_min", lambda r, n: _order_lang(r, n, 1, True))] * 6
    + [("horn_f", _horn_f_lang)] * 3
    + [("horn_clauses", _horn_clause_lang)] * 8
    + [("random_mixed", _random_mixed_lang)] * 2
    + [("dist_pair", lambda r, n: _dist_pair_lang(r, n, 1))]
    + [("dist_pair", lambda r, n: _dist_pair_lang(r, n, 2))]
    + [("betweenness", _betw_lang)] * 2
    + [("cyclic", _cyc_lang)] * 2
    + [("modular_d2", lambda r, n: _modular_lang(r, n, 2))]
    + [("modular_d3", lambda r, n: _modular_lang(r, n, 3))] * 2
    + [("modular_d4", lambda r, n: _modular_lang(r, n, 4))]
    + [("arity3_m2", lambda r, n: _arity3_lang(r, n, 2))]
    + [("arity3_m3", lambda r, n: _arity3_lang(r, n, 3))] * 3
    + [("arity3_m4", lambda r, n: _arity3_lang(r, n, 4))]
)


def classify_deck(seed, index, tag):
    out = []
    for slot, (family, make) in enumerate(CLASSIFY_SLOTS):
        rng = _rng("classify_mix", seed, index, slot)
        text, cls, d = make(rng, f"L{slot}{tag}")
        out.append(Request(family, text, None, cls, d))
    _interleave(out)
    return out


def _interleave(requests):
    """Deterministic shuffle, so heavy families are spread through the deck."""
    random.Random(len(requests)).shuffle(requests)


# ---------------------------------------------------------------------------
# Languages of the solve workloads, classified once during set-up.

SOLVE_LANGUAGES = {
    "horn_succ": (
        "rel S/2 := x2 = x1 + 1\n"
        "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)\n"
        "rel N/2 := x1 != x2 + 2\n", "HORN_TRACTABLE", None),
    "horn_clauses": (
        "rel S/2 := x2 = x1 + 1\n"
        "rel H/3 := (x1 != x2 + 1 | x3 = x1 + 2) & (x2 != x3 | x1 != x3 + 1)\n"
        "rel N/2 := x1 != x2 + 1\n", "HORN_TRACTABLE", None),
    "ring_max": (
        "rel M/3 := x3 <= x1 + 1 | x3 <= x2 + 1\n"
        "rel C/2 := x1 <= x2 - 1\n", "MAX_CLOSED", None),
    "ring_min": (
        "rel M/3 := x1 <= x3 + 1 | x2 <= x3 + 1\n"
        "rel C/2 := x1 <= x2 - 1\n", "MIN_CLOSED", None),
    "bounds_max": (
        "rel A/2 := x1 <= x2 + 2\n"
        "rel B/2 := x1 <= x2 + 1 & x2 <= x1 + 3\n"
        "rel M/3 := x3 <= x1 + 2 | x3 <= x2 + 2\n"
        "rel C/2 := x1 <= x2 - 1\n", "MAX_CLOSED", None),
    "mod2": (
        "rel P/2 := x2 = x1 - 2 | x2 = x1 | x2 = x1 + 2\n"
        f"rel T/3 := {_t_relation(2)}\n"
        "rel D/2 := x2 = x1 + 2\n", "MODMAX_CLOSED", 2),
    "mod3": (
        "rel P/2 := x2 = x1 - 3 | x2 = x1 | x2 = x1 + 3\n"
        f"rel T/3 := {_t_relation(3)}\n"
        "rel D/2 := x2 = x1 + 3\n", "MODMAX_CLOSED", 3),
}

HARD_LANGUAGES = {
    "cyclic": (f"rel C/3 := {_cyclic((1, 2, 3))}\n", "NP_HARD", None),
    "betweenness": (f"rel B/3 := {_betweenness((1, 2, 3))}\n", "NP_HARD", None),
    "dist15": (
        "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1\n"
        "rel D5/2 := x1 = x2 + 5 | x1 = x2 - 5\n", "NP_HARD", None),
}


MIXED_LANGUAGES = 20


def hard_languages():
    """Fixed hard languages plus MIXED_LANGUAGES random mixed ones.

    The random languages are drawn once, the same for every seed, so that a
    seed changes only the instances; successive decks rotate through them."""
    table = dict(HARD_LANGUAGES)
    for i in range(MIXED_LANGUAGES):
        table[f"mixed{i}"] = _random_mixed_lang(_rng("mixed", i), f"R{i}",
                                                nrels=3, q_max=1)
    return table


# ---------------------------------------------------------------------------
# Instance builders.  Each returns (.dti text, expected status).


def _vars(n):
    return [f"v{i}" for i in range(n)]


def _planted(rng, vs, values, pool, m):
    """m applications drawn from pool that the planted values satisfy.

    pool: list of (relation, arity, predicate over the argument values).
    """
    out = []
    for _ in range(1000 * m):
        if len(out) == m:
            return out
        name, arity, holds = rng.choice(pool)
        args = rng.sample(vs, arity)
        if holds(*(values[a] for a in args)):
            out.append((name, tuple(args)))
    raise RuntimeError(f"planted values satisfy too few of {[p[0] for p in pool]}")


def _horn_chain(rng, n, sat):
    """Successor chain with F biconditionals and != side constraints."""
    vs = _vars(n)
    values = {v: i for i, v in enumerate(vs)}
    cons = [("S", (vs[i], vs[i + 1])) for i in range(n - 1)]
    pool = [("F", 4, lambda a, b, c, d: (b == a + 1) == (d == c + 1)),
            ("N", 2, lambda a, b: a != b + 2)]
    cons += _planted(rng, vs, values, pool, n // 2)
    rng.shuffle(cons)
    if not sat:
        k = rng.randrange(n - 2)
        # the chain forces v[k+2] = v[k] + 2, which N forbids
        cons.append(("N", (vs[k + 2], vs[k])))
    return _dti(vs, cons), "SAT" if sat else "UNSAT"


def _horn_clauses(rng, n, sat):
    """H, S and N applications on a planted permutation of 0..n-1."""
    vs = _vars(n)
    perm = list(range(n))
    rng.shuffle(perm)
    values = dict(zip(vs, perm))
    by_value = {val: v for v, val in values.items()}
    pool = [("H", 3, lambda a, b, c: (a != b + 1 or c == a + 2) and (b != c or a != c + 1)),
            ("N", 2, lambda a, b: a != b + 1)]
    cons = _planted(rng, vs, values, pool, n)
    for v in rng.sample(vs, n // 4):
        if values[v] + 1 in by_value:
            cons.append(("S", (v, by_value[values[v] + 1])))
    rng.shuffle(cons)
    if not sat:
        a, b = rng.sample(vs, 2)
        # S(a, b) says b = a + 1, which N(b, a) forbids
        cons += [("S", (a, b)), ("N", (b, a))]
    return _dti(vs, cons), "SAT" if sat else "UNSAT"


def _ring(n, sat, flip=False):
    """Ternary ring over a strict chain; closing the chain makes a cycle.
    Not random: one n gives one instance, so its cost does not vary."""
    vs = _vars(n)
    if flip:
        cons = [("M", (vs[(i + 1) % n], vs[(i + 2) % n], vs[i])) for i in range(n)]
    else:
        cons = [("M", (vs[i], vs[(i + 1) % n], vs[(i + 2) % n])) for i in range(n)]
    cons += [("C", (vs[i], vs[i + 1])) for i in range(n - 1)]
    if not sat:
        cons.append(("C", (vs[-1], vs[0])))
    return _dti(vs, cons), "SAT" if sat else "UNSAT"


def _bounds(rng, n):
    """Planted difference bounds and max-terms: SAT."""
    vs = _vars(n)
    values = {v: rng.randrange(2 * n) for v in vs}
    pool = [("A", 2, lambda a, b: a <= b + 2),
            ("B", 2, lambda a, b: a <= b + 1 and b <= a + 3),
            ("M", 3, lambda a, b, c: c <= a + 2 or c <= b + 2),
            ("C", 2, lambda a, b: a <= b - 1)]
    return _dti(vs, _planted(rng, vs, values, pool, n)), "SAT"


def _dvv(rng, n, d):
    """One constant-false D(v, v) on the last variable plus free P pairs:
    UNSAT, with about d^(n/2) residue branches before the search ends."""
    vs = _vars(n)
    pairs = [("P", (vs[2 * i], vs[2 * i + 1])) for i in range((n - 1) // 2)]
    rng.shuffle(pairs)
    return _dti(vs, [("D", (vs[-1], vs[-1]))] + pairs), "UNSAT"


def _modular_planted(rng, n, d):
    """P, T and D applications on planted values in [0, 3d): SAT."""
    vs = _vars(n)
    values = {v: rng.randrange(3 * d) for v in vs}
    pool = [("P", 2, lambda a, b: b - a in (-d, 0, d)),
            ("T", 3, lambda a, b, c: (a, b) in ((c + d, c), (c + d, c + d), (c, c + d))),
            ("D", 2, lambda a, b: b == a + d)]
    return _dti(vs, _planted(rng, vs, values, pool, n)), "SAT"


# Slot list of one solve_tractable deck: 20 requests, 12 Horn (60%),
# 5 max/min-closed (25%), 3 modular (15%).  The six Horn SAT items at
# n = 3000 take ranks 9-14 of 20, so the median falls inside that group rather
# than on the edge between two sizes.  The three n = 12 ring SAT items, each
# well over the next item, are the top 15%, so p90 falls inside that group
# too, not on the edge between two families.
TRACTABLE_SLOTS = (
    [(family, lang, lambda r, make=make, n=n, sat=sat: make(r, n, sat))
     for family, lang, make in (("horn_chain", "horn_succ", _horn_chain),
                                ("horn_clauses", "horn_clauses", _horn_clauses))
     for n, sat in ((1000, True), (2000, False), (3000, True),
                    (3000, True), (3000, True), (3000, False))]
    + [("ring_max", "ring_max", lambda r: _ring(12, True)),
       ("ring_min", "ring_min", lambda r: _ring(12, True, flip=True)),
       ("ring_min", "ring_min", lambda r: _ring(12, True, flip=True)),
       ("ring_max", "ring_max", lambda r: _ring(13, False)),
       ("bounds_max", "bounds_max", lambda r: _bounds(r, 10)),
       ("mod_dvv", "mod2", lambda r: _dvv(r, 14, 2)),
       ("mod_planted", "mod2", lambda r: _modular_planted(r, 12, 2)),
       ("mod_planted", "mod3", lambda r: _modular_planted(r, 16, 3))]
)


def tractable_deck(seed, index):
    out = []
    for slot, (family, lang, make) in enumerate(TRACTABLE_SLOTS):
        text, status = make(_rng("solve_tractable", seed, index, slot))
        out.append(Request(family, lang, text, status))
    _interleave(out)
    return out


# ---------------------------------------------------------------------------
# solve_hard instances


def _cyclic_ok(a, b, c):
    return a < b < c or b < c < a or c < a < b


def _betw_ok(a, b, c):
    return a < b < c or c < b < a


def _ordering(rng, n, sat, name, holds, density):
    """density * n constraints on a planted linear order; the UNSAT variant
    adds a two-constraint core that no linear order satisfies (R(a,b,c) with
    R(b,a,c) or R(a,c,b)).

    UNSAT cores sit on the first declared variables, which the search
    assigns first, so refuting them takes a shallow tree rather than one
    exponential in n."""
    vs = _vars(n)
    perm = list(range(n))
    rng.shuffle(perm)
    values = dict(zip(vs, perm))
    cons = _planted(rng, vs, values, [(name, 3, holds)], density * n)
    if not sat:
        a, b, c = rng.sample(vs[:3], 3)
        swap = (b, a, c) if name == "B" else (a, c, b)
        cons += [(name, (a, b, c)), (name, swap)]
        rng.shuffle(cons)
    return _dti(vs, cons), "SAT" if sat else "UNSAT"


def _dist15(rng, n, sat):
    """Planted distance graph; the UNSAT variant adds an odd cycle on the
    first declared variables (every allowed distance is odd, so odd cycles
    are unsatisfiable)."""
    vs = _vars(n)
    # a random tree of distance-1/5 steps, so that the planted pool is dense
    values = {vs[0]: 0}
    for i in range(1, n):
        values[vs[i]] = values[vs[rng.randrange(i)]] + rng.choice((-5, -1, 1, 5))
    pool = [("D1", 2, lambda a, b: abs(a - b) == 1),
            ("D5", 2, lambda a, b: abs(a - b) == 5)]
    cons = _planted(rng, vs, values, pool, n)
    if not sat:
        a, b, c = rng.sample(vs[:3], 3)
        cons += [("D1", (a, b)), ("D5", (b, c)), ("D1", (c, a))]
        rng.shuffle(cons)
    return _dti(vs, cons), "SAT" if sat else "UNSAT"


def _mixed(rng, lang_text, n):
    """Random applications; the answer comes from the oracle's brute force."""
    from dtcsp import brute_solve, parse_language, random_instance
    from dtcsp.cli import parse_instance, write_instance
    lang = parse_language(lang_text)
    inst = random_instance(lang, n, rng.randint(n, 2 * n), rng.randrange(10**9))
    text = write_instance(inst)
    inst, lang = parse_instance(text, lang)
    window = range((lang.q + 1) * n)
    return text, reference(brute_solve, lang, inst, window).status


def hard_deck(seed, index, languages):
    """20 requests, five of each family.  Cyclic ordering stops at n = 9 and
    the ordering families have 2n constraints: planted cyclic instances at
    n = 10, or with n constraints, have a heavy tail of search (one in ten
    to fifty takes 5-25x the median), which would make every figure depend
    on a few draws."""
    mixed = [(5 * index + j) % MIXED_LANGUAGES for j in range(5)]
    slots = (
        [("cyclic", "cyclic",
          lambda r, n=n, sat=sat: _ordering(r, n, sat, "C", _cyclic_ok, 2))
         for n, sat in ((6, True), (7, True), (8, True), (8, False), (9, True))]
        + [("betweenness", "betweenness",
            lambda r, n=n, sat=sat: _ordering(r, n, sat, "B", _betw_ok, 2))
           for n, sat in ((7, True), (9, True), (10, True), (10, False), (8, True))]
        + [("dist15", "dist15", lambda r, n=n, sat=sat: _dist15(r, n, sat))
           for n, sat in ((8, True), (10, True), (12, True), (10, False), (11, True))]
        + [("random_mixed", f"mixed{k}",
            lambda r, k=k, n=n: _mixed(r, languages[f"mixed{k}"][0], n))
           for k, n in zip(mixed, (4, 5, 5, 6, 6))]
    )
    out = []
    for slot, (family, lang, make) in enumerate(slots):
        text, status = make(_rng("solve_hard", seed, index, slot))
        out.append(Request(family, lang, text, status))
    _interleave(out)
    return out
