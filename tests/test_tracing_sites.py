"""perfbench's tracer replaces functions at the call sites listed in
``perfbench/tracing.py``; a refactor that drops one of those names would
break ``perfbench/run.py --trace 1`` without failing anything else."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_traced_call_sites_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.CALL_SITES
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert tracing.CALL_SITES and not missing, missing
