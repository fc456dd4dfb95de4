"""dtcsp benchmark: classifier and solver requests in a closed loop.

    python3 perfbench/run.py --workload classify_mix --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client sends one request at a time and waits for the answer (closed
loop, no think time, one process, no threads).  A request enters the
program as generated .dtl/.dti text through the public API:

* ``classify_mix``: parse a language and classify it;
* ``solve_tractable`` / ``solve_hard``: parse an instance over a language
  parsed and classified once in set-up, then solve it with the solver its
  verdict selects, through the routing of ``dtcsp solve --method auto``.

BENCHMARK.json gates classify_mix and solve_tractable.  solve_hard still
runs on request but is not gated: its pure-Python search is the most
sensitive of the three to the speed drift of a shared CPU, too much for the
gate's bounds (see design.json).

Whole decks of requests run (see workloads.py) for about ``--seconds``,
and at least until MIN_REQUESTS requests were served.  Every answer goes
through the correctness gate (gate.py) outside the timed region.  With
``--trace 0`` the last line of output carries the end-to-end metrics; with
``--trace 1`` each deck runs twice, untraced and traced, and the last line
carries per-layer metrics from the traced copies (tracing.py), whose spans
are also written to ``perfbench/out/``.
``--plant-wrong`` gives the first request a wrong expectation, so the run
must fail.  Exit status: 0 when every answer is correct, 1 when the gate or
a self-check fails, 2 when the program cannot be loaded.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("classify_mix", "solve_tractable", "solve_hard")
MIN_REQUESTS = 100  # so that at least 10 latencies lie beyond p90
SETUP_REPEATS = 3  # this process plus two fresh ones; setup_s is their median
# what `dtcsp solve --method auto` passes when no --window or --modulus is given
AUTO_ARGS = argparse.Namespace(window=None, modulus=None)


class LoadError(Exception):
    pass


def load_program():
    """Import dtcsp from this checkout's src/, never from anywhere else."""
    if not (SRC / "dtcsp" / "__init__.py").is_file():
        raise LoadError(f"no dtcsp package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dtcsp
    if Path(dtcsp.__file__).resolve().parent != (SRC / "dtcsp").resolve():
        raise LoadError(f"dtcsp was imported from {dtcsp.__file__}")
    return {name: importlib.import_module(f"dtcsp.{name}")
            for name in ("formula", "classify", "cli")}


# ---------------------------------------------------------------------------
# Workloads: set-up, one timed request, its check


class ClassifyMix:
    def __init__(self, mods, seed):
        self.m = mods
        self.seed = seed

    def setup(self):
        pass

    def deck(self, index, tag):
        import workloads
        return workloads.classify_deck(self.seed, index, tag)

    def texts(self):
        return [r.lang for r in self.deck(0, "p0")]

    def serve(self, req, stats):
        lang = self.m["formula"].parse_language(req.lang)
        return lang, self.m["classify"].classify(lang)

    def check(self, req, out):
        import gate
        return gate.check_verdict(req, *out)


class Solve:
    """Shared by solve_tractable and solve_hard; they differ in languages
    and decks only."""

    def __init__(self, mods, seed, hard):
        import workloads
        self.m = mods
        self.seed = seed
        self.hard = hard
        self.langs = {}
        self.table = (workloads.hard_languages() if hard
                      else dict(workloads.SOLVE_LANGUAGES))

    def setup(self):
        import gate
        import workloads
        for key, (text, cls, d) in self.table.items():
            lang = self.m["formula"].parse_language(text)
            verdict = self.m["classify"].classify(lang)
            err = workloads.reference(gate.check_verdict,
                                      workloads.Request(key, text, None, cls, d),
                                      lang, verdict)
            if err:
                raise RuntimeError(f"language {key}: {err}")
            self.langs[key] = (lang, verdict)

    def deck(self, index, tag):
        import workloads
        if self.hard:
            return workloads.hard_deck(self.seed, index, self.table)
        return workloads.tractable_deck(self.seed, index)

    def texts(self):
        return ([t for t, _, _ in self.table.values()]
                + [r.inst for r in self.deck(0, "p0")])

    def serve(self, req, stats):
        cli = self.m["cli"]
        base, verdict = self.langs[req.lang]
        inst, lang = cli.parse_instance(req.inst, base)
        result = cli._run_method(cli._AUTO_METHOD[verdict.cls], lang, inst,
                                 verdict, AUTO_ARGS, stats)
        return lang, inst, result

    def check(self, req, out):
        import gate
        return gate.check_solution(req, *out)


def make_workload(name, mods, seed):
    if name == "classify_mix":
        return ClassifyMix(mods, seed)
    return Solve(mods, seed, hard=(name == "solve_hard"))


def fingerprint(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Timed loop


class Run:
    def __init__(self, workload, plant_wrong=False):
        self.w = workload
        self.plant_wrong = plant_wrong
        self.latencies = []
        self.decks = 0
        self.failures = []
        self.sample = None  # (request, answer) kept for the gate self-check

    def deck(self, index, tag):
        deck = self.w.deck(index, tag)
        if self.plant_wrong and index == 0:
            deck[0] = dataclasses.replace(deck[0], expect=wrong_expectation(deck[0]))
        return deck

    def run_deck(self, deck, tracer=None):
        """Serve every request; returns the summed service time in ns."""
        clock = time.perf_counter_ns
        spent = 0
        for req in deck:
            stats = {}
            if tracer is not None:
                tracer.request += 1
            start = clock()
            try:
                out = self.w.serve(req, stats)
                err = None
            except Exception as exc:  # a raising request is a failed request
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            took = clock() - start
            spent += took
            self.latencies.append(took)
            if err is None:
                err = self.w.check(req, out)
                if err is None and self.sample is None:
                    self.sample = (req, out)
            if err is not None:
                self.failures.append(f"{req.family}: {err}")
            if tracer is not None:
                for key, value in stats.items():
                    tracer.counters["stat_" + key] += value
                if isinstance(self.w, Solve) \
                        and self.w.langs[req.lang][1].cls.value.startswith("MOD"):
                    tracer.counters["stat_residue_branches"] += stats.get("branches", 0)
        self.decks += 1
        return spent


def wrong_expectation(req):
    swap = {"SAT": "UNSAT", "UNSAT": "SAT"}
    return swap.get(req.expect, "DEGENERATE_OR_UNKNOWN")


def time_is_up(run, start, seconds, rounds):
    """True once another round of decks would more likely end after
    ``seconds`` than before, and enough requests were served.  Rounds are
    whole, so on average the timed phase lasts ``seconds``."""
    elapsed = time.perf_counter() - start
    return (elapsed + 0.5 * elapsed / rounds >= seconds
            and len(run.latencies) >= MIN_REQUESTS)


def measure(run, seconds, first_deck):
    start = time.perf_counter()
    deck, index = first_deck, 0
    while True:
        run.run_deck(deck)
        index += 1
        if time_is_up(run, start, seconds, index):
            return
        deck = run.deck(index, f"p{index}")


def measure_traced(run, seconds, first_deck, tracer):
    """Alternate an untraced and a traced copy of each deck; the copies have
    different relation names, so neither warms a cache for the other."""
    start = time.perf_counter()
    plain_ns = traced_ns = 0
    traced_requests = 0
    index = 0
    while True:
        plain_ns += run.run_deck(first_deck if index == 0
                                 else run.deck(index, f"u{index}"))
        deck = run.deck(index, f"t{index}")
        tracer.install()
        try:
            traced_ns += run.run_deck(deck, tracer)
        finally:
            tracer.uninstall()
        traced_requests += len(deck)
        index += 1
        if time_is_up(run, start, seconds, index):
            return plain_ns, traced_ns, traced_requests


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run, setup_s, peak_rss_mb):
    lat_ms = [ns / 1e6 for ns in run.latencies]
    attempted = len(lat_ms)
    # over the whole timed phase, so that speed drift during the run is
    # averaged over every deck
    return {
        "throughput_rps": (attempted / (sum(lat_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (1.0 - len(run.failures) / attempted, "ratio"),
    }


def per_layer(tracer, plain_ns, traced_ns, n):
    s = tracer.summary()
    total, calls, self_ns = s["total"], s["calls"], s["self"]
    c = tracer.counters

    def ms(*names):
        return sum(total[x] for x in names) / 1e6 / n

    def per(value):
        return value / n

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "classify.preserved_by_ms": (ms("classify.preserved_by"), "ms/req"),
        "classify.preserved_by_calls": (per(calls["classify.preserved_by"]), "count/req"),
        "classify.preserved_by_cells": (per(c["preserved_by_cells"]), "count/req"),
        "grids.accumulate_ms": (ms("grids.accumulate"), "ms/req"),
        "grids.accumulate_calls": (per(calls["grids.accumulate"]), "count/req"),
        "grids.other_residue_ms": (ms("grids.other_residue"), "ms/req"),
        "classify.profile_ms": (ms("classify.profile"), "ms/req"),
        "classify.profile_calls": (per(calls["classify.profile"]), "count/req"),
        "classify.horn_positive_ms": (ms("classify.is_horn", "classify.is_positive"), "ms/req"),
        "formula.normal_form_ms": (ms("formula.to_cnf", "formula.to_dnf"), "ms/req"),
        "formula.reduce_ms": (ms("formula.reduce"), "ms/req"),
        "formula.reduce_calls": (per(calls["formula.reduce"]), "count/req"),
        "formula.reduced_clauses": (per(c["reduced_clauses"]), "count/req"),
        "formula.equivalent_ms": (ms("formula.equivalent"), "ms/req"),
        "classify.self_ms": (self_ns["classify.classify"] / 1e6 / n, "ms/req"),
        "classify.ops_per_verdict": (ratio(calls["classify.preserved_by"],
                                           calls["classify.classify"]), "count"),
        "grids.grid_eval_ms": (ms("grids.grid_eval"), "ms/req"),
        "grids.grid_eval_cells": (per(c["grid_eval_cells"]), "count/req"),
        "finite.decide_max_closed_ms": (ms("finite.decide_max_closed"), "ms/req"),
        "finite.decide_max_closed_calls": (per(calls["finite.decide_max_closed"]), "count/req"),
        "finite.ac_ms": (ms("finite.ac"), "ms/req"),
        "finite.ac_calls": (per(calls["finite.ac"]), "count/req"),
        "finite.revisions": (per(c["stat_revisions"]), "count/req"),
        "finite.fallback_ratio": (ratio(c["fallbacks"], calls["finite.decide_max_closed"]), "ratio"),
        "finite.mod_self_ms": (s["mod_self_ns"] / 1e6 / n, "ms/req"),
        "finite.residue_branches": (per(c["stat_residue_branches"] - c["mod_bt_branches"]), "count/req"),
        "finite.quotient_solves": (per(c["quotient_solves"]), "count/req"),
        "finite.quotient_sat_ratio": (ratio(c["quotient_sat"], c["quotient_solves"]), "ratio"),
        "finite.backtracking_ms": (ms("finite.backtracking"), "ms/req"),
        "finite.branches": (per(c["bt_branches"]), "count/req"),
        "finite.verify_ms": (ms("finite.verify"), "ms/req"),
        "horn.compile_ms": (ms("horn.compile"), "ms/req"),
        "horn.clauses": (per(c["horn_clauses"]), "count/req"),
        "horn.solve_ms": (ms("horn.solve"), "ms/req"),
        "horn.facts": (per(c["stat_facts"]), "count/req"),
        "cli.parse_instance_ms": (ms("cli.parse_instance"), "ms/req"),
        "formula.parse_ms": (ms("formula.parse"), "ms/req"),
        "trace.requests": (n, "count"),
        "trace.coverage_pct": (100.0 * s["top_ns"] / traced_ns, "%"),
        "trace.remainder_ms": ((traced_ns - s["top_ns"]) / 1e6 / n, "ms/req"),
        "trace.overhead_pct": (100.0 * (traced_ns / plain_ns - 1.0), "%"),
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def self_check(run, metrics, trace):
    """The gate must trip on a wrong expectation, and the printed metrics
    must be exactly the declared ones, each with its unit and a finite value."""
    problems = []
    if run.sample is not None:
        req, out = run.sample
        wrong = dataclasses.replace(req, expect=wrong_expectation(req))
        if run.w.check(wrong, out) is None:
            problems.append("gate accepted a deliberately wrong expectation")
    declared = declared_metrics(trace)
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if printed != declared:
        problems.append(f"printed metrics {sorted(printed.items())} differ from "
                        f"declared {sorted(declared.items())}")
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value!r}")
    return problems


# ---------------------------------------------------------------------------


def child_setup_seconds(args):
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-wrong", action="store_true",
                   help="give the first request a wrong expectation; the run must fail")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        mods = load_program()
    except (LoadError, ImportError) as exc:
        print(f"error: cannot load dtcsp: {exc}", file=sys.stderr)
        return 2
    import tracing

    workload = make_workload(args.workload, mods, args.seed)
    run = Run(workload, plant_wrong=args.plant_wrong)
    try:
        workload.setup()
    except RuntimeError as exc:  # a set-up language got the wrong verdict
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first_deck = run.deck(0, "u0" if args.trace else "p0")
    import workloads
    setup_s = time.perf_counter() - STARTED - workloads.reference_ns / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        plain_ns, traced_ns, n = measure_traced(run, args.seconds, first_deck,
                                                tracer)
    else:
        measure(run, args.seconds, first_deck)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    mine = fingerprint(workload.texts())
    if mine != fingerprint(make_workload(args.workload, mods, args.seed).texts()):
        problems.append("the same seed generated different input text")
    if mine == fingerprint(make_workload(args.workload, mods, args.seed + 1).texts()):
        problems.append("two seeds generated the same input text")

    if tracer is not None:
        metrics = per_layer(tracer, plain_ns, traced_ns, n)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
    else:
        setups = [setup_s] + [child_setup_seconds(args)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(run, statistics.median(setups), peak_rss_mb)
    problems += self_check(run, metrics, args.trace)

    attempted = len(run.latencies)
    failed = len(run.failures)
    for line in run.failures[:20] + problems:
        print(f"error: {line}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} requests in "
          f"{run.decks} decks, "
          f"{failed} failed (failed_ratio {failed / attempted:.4f})")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
