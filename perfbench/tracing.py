"""In-memory spans around the layers' public functions, installed at the call
sites the program really uses.

dtcsp modules import each other's functions by name (``classify`` imports
``reduce``/``to_cnf``/``to_dnf``/``equivalent``; ``horn`` imports ``is_horn``
and ``satisfies``; ``finite`` calls ``arc_consistency`` and
``decide_max_closed`` as module globals; ``cli`` routes solve requests to
the solvers it imports by name; everyone reaches ``grids`` through the
module), so each binding is replaced in the module that looks it up.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent, request)``; ``parent`` is the
index of the enclosing span or -1.  Counters are summed per name.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The same function bound in two modules
# gets the same span name.
CALL_SITES = (
    ("dtcsp.formula", "parse_language", "formula.parse"),
    ("dtcsp.cli", "parse_instance", "cli.parse_instance"),
    ("dtcsp.classify", "classify", "classify.classify"),
    ("dtcsp.classify", "preserved_by", "classify.preserved_by"),
    ("dtcsp.classify", "difference_profile", "classify.profile"),
    ("dtcsp.classify", "is_horn", "classify.is_horn"),
    ("dtcsp.classify", "is_positive", "classify.is_positive"),
    ("dtcsp.classify", "reduce", "formula.reduce"),
    ("dtcsp.classify", "to_cnf", "formula.to_cnf"),
    ("dtcsp.classify", "to_dnf", "formula.to_dnf"),
    ("dtcsp.classify", "equivalent", "formula.equivalent"),
    ("dtcsp.grids", "grid_eval", "grids.grid_eval"),
    ("dtcsp.grids", "accumulate_leq_mod", "grids.accumulate"),
    ("dtcsp.grids", "other_residue_any", "grids.other_residue"),
    ("dtcsp.finite", "arc_consistency", "finite.ac"),
    ("dtcsp.finite", "decide_max_closed", "finite.decide_max_closed"),
    ("dtcsp.finite", "backtracking_solve", "finite.backtracking"),
    ("dtcsp.finite", "solve_mod_max", "finite.solve_mod_max"),
    ("dtcsp.finite", "satisfies", "finite.verify"),
    ("dtcsp.horn", "solve_horn_csp", "horn.solve_horn_csp"),
    ("dtcsp.cli", "solve_horn_csp", "horn.solve_horn_csp"),
    ("dtcsp.cli", "decide_max_closed", "finite.decide_max_closed"),
    ("dtcsp.cli", "solve_mod_max", "finite.solve_mod_max"),
    ("dtcsp.cli", "backtracking_solve", "finite.backtracking"),
    ("dtcsp.horn", "compile_horn_instance", "horn.compile"),
    ("dtcsp.horn", "solve_horn", "horn.solve"),
    ("dtcsp.horn", "is_horn", "classify.is_horn"),
    ("dtcsp.horn", "satisfies", "finite.verify"),
)


def _count_exit(tracer, name, args, kwargs, out):
    """Counters read from a call's arguments and result."""
    c = tracer.counters
    if name == "classify.preserved_by":
        c["preserved_by_cells"] += (2 * out.halfwidth + 1) ** args[0].arity
    elif name == "grids.grid_eval":
        _, arity, lo, hi = args
        c["grid_eval_cells"] += (hi - lo) ** arity
    elif name == "formula.reduce":
        c["reduced_clauses"] += len(out.clauses)
    elif name == "horn.compile":
        c["horn_clauses"] += len(out)
    elif name == "finite.decide_max_closed":
        c["fallbacks"] += bool(out.fallback)
        parent = tracer.stack[-1] if tracer.stack else -1
        if parent >= 0 and tracer.spans[parent][0] == "finite.solve_mod_max":
            c["quotient_solves"] += 1
            c["quotient_sat"] += out.sat


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.request = -1
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stats = kwargs.get("stats") if name == "finite.backtracking" else None
            branches = stats.get("branches", 0) if stats is not None else 0
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if stats is not None:
                delta = stats.get("branches", 0) - branches
                self.counters["bt_branches"] += delta
                if any(spans[i][0] == "finite.solve_mod_max" for i in stack):
                    self.counters["mod_bt_branches"] += delta
            _count_exit(self, name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, name in CALL_SITES:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": self.spans, "counters": dict(self.counters)},
                      fh, separators=(",", ":"))

    def summary(self):
        """Per span name: calls, total ns, self ns (total minus direct
        children); plus the total of top-level spans and the time of
        solve_mod_max spent outside its decide_max_closed children."""
        total = defaultdict(int)
        calls = Counter()
        child = defaultdict(int)
        child_quotient = defaultdict(int)
        top = 0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            calls[name] += 1
            if parent < 0:
                top += dur
            else:
                child[parent] += dur
                if name == "finite.decide_max_closed":
                    child_quotient[parent] += dur
        self_ns = defaultdict(int)
        mod_self = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[i]
            if name == "finite.solve_mod_max":
                mod_self += end - start - child_quotient[i]
        return {"total": total, "calls": calls, "self": self_ns,
                "top_ns": top, "mod_self_ns": mod_self}
