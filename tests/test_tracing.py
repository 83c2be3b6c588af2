"""The benchmark's per-layer tracer (perfbench/tracing.py) patches
functions of the package by name and relies on the pipeline calling
them as module globals.  This runs one problem through the traced
pipeline, so a renamed hook or a call that bypasses one fails here and
not only in the benchmark's traced run.  The tracer is loaded from its
file and not modified.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from hylotab import blocking, formulas, parser, preprocess, semantics, tableau
from hylotab.tableau import Limits

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Sat, graded (so preprocess expands it) and with a binder over a box
# (so tau skolemizes it); the model is extracted and validated.
PROBLEM = "trans r; formula: <r>^1 p & down x . [r] <r> x;"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pipeline(hy, text):
    problem = hy.parser.parse(text)
    prepared = hy.preprocess.preprocess(problem)
    result = hy.tableau.solve(prepared, Limits())
    ok, _ = hy.semantics.validate_extraction(result.branch, result.blocking, prepared)
    return result.verdict, ok


def test_tracer_hooks_run_the_pipeline():
    tracing = load_tracing()
    hy = SimpleNamespace(parser=parser, preprocess=preprocess, tableau=tableau,
                         blocking=blocking, semantics=semantics, formulas=formulas)
    originals = [(m, name, getattr(m, name)) for m, name in (
        (preprocess, "classify"), (preprocess, "preprocess"), (tableau, "nominals"),
        (tableau, "subst_var"), (tableau, "recompute_blocking"), (tableau, "solve"))]
    tracer = tracing.Tracer(hy)
    tracer.install()
    try:
        (verdict, ok), _ = tracer.run("p0", pipeline, hy, PROBLEM)
    finally:
        tracer.uninstall()
    assert (verdict, ok) == ("sat", True)
    names = {span[3] for span in tracer.spans}
    assert {"parser.parse", "fragments.classify", "preprocess.preprocess", "tableau.solve",
            "tableau.init_branch", "tableau.step", "blocking.recompute",
            "semantics.validate", "semantics.extract"} <= names
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace_overhead_frac"}
    assert metrics["formulas.nominals_calls"] > 0
    assert metrics["formulas.subst_var_calls"] > 0
    assert metrics["preprocess.size_ratio"] > 1
    assert metrics["fragments.rejected"] == 0
    assert all(getattr(m, name) is fn for m, name, fn in originals)
