"""Opt-in scaling sweep; gates nothing and is not a benchmark workload.

    python3 perfbench/sweep.py

Regenerates the re-anchor rows of ROADMAP.md as curves, at sizes that finish
in under a minute each on a 2-core machine:

* ``decide_max_closed`` on the ternary ``x3 <= x1+1 | x3 <= x2+1`` ring plus
  the ``x1 <= x2-1`` chain, over n;
* ``solve_horn_csp`` on successor chains, n = 1000 and 4000;
* ``solve_mod_max`` (d = 2) on one constant-false ``D(v, v)`` plus free
  progression pairs, over n;
* ``classify`` of the positive arity-3 relation
  ``OR_{i<m} (x1 = x2+i & x3 = x1+i)``, over m.

Every answer is checked against its construction.  The curves are written to
``perfbench/out/sweep.json``, next to the traces of the gated runs.
"""

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from dtcsp import (  # noqa: E402
    classify,
    decide_max_closed,
    parse_language,
    solve_horn_csp,
    solve_mod_max,
)
from dtcsp.cli import parse_instance  # noqa: E402


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter() - start) * 1000.0


def ring_rows(sizes):
    text, _, _ = workloads.SOLVE_LANGUAGES["ring_max"]
    lang = parse_language(text)
    for n in sizes:
        dti, want = workloads._ring(n, True)
        inst, ext = parse_instance(dti, lang)
        stats = {}
        res, ms = timed(decide_max_closed, ext, inst, stats=stats)
        yield {"n": n, "ms": ms, "status": res.status, "ok": res.status == want,
               "revisions": stats.get("revisions", 0)}


def horn_rows(sizes):
    lang = parse_language("rel S/2 := x2 = x1 + 1\n")
    for n in sizes:
        vs = workloads._vars(n)
        dti = workloads._dti(vs, [("S", (vs[i], vs[i + 1])) for i in range(n - 1)])
        inst, ext = parse_instance(dti, lang)
        stats = {}
        res, ms = timed(solve_horn_csp, ext, inst, stats=stats)
        yield {"n": n, "ms": ms, "status": res.status, "ok": res.sat,
               "facts": stats.get("facts", 0)}


def dvv_rows(sizes):
    text, _, d = workloads.SOLVE_LANGUAGES["mod2"]
    lang = parse_language(text)
    for n in sizes:
        dti, want = workloads._dvv(random.Random(n), n, d)
        inst, ext = parse_instance(dti, lang)
        stats = {}
        res, ms = timed(solve_mod_max, ext, inst, d, stats=stats)
        yield {"n": n, "ms": ms, "status": res.status, "ok": res.status == want,
               "branches": stats.get("branches", 0)}


def arity3_rows(sizes):
    for m in sizes:
        text, want, _ = workloads._arity3_lang(random.Random(m), "A", m)
        verdict, ms = timed(classify, parse_language(text))
        yield {"m": m, "ms": ms, "verdict": verdict.describe(),
               "ok": verdict.cls.value == want}


def main():
    curves = {
        "ring_chain_decide_max_closed": ring_rows((10, 15, 20, 25)),
        "horn_successor_chain": horn_rows((1000, 4000)),
        "dvv_solve_mod_max_d2": dvv_rows((10, 12, 14, 16, 18)),
        "arity3_positive_classify": arity3_rows((2, 3, 4, 5)),
    }
    out = {}
    ok = True
    for name, rows in curves.items():
        out[name] = []
        for row in rows:
            out[name].append(row)
            ok &= row["ok"]
            print(name, json.dumps(row), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "sweep.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
