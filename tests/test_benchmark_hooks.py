"""The benchmark traces stochlp from outside the package, by name.

``perfbench/tracing.py`` replaces module attributes and class methods with
wrappers; a renamed or deleted name makes its ``install`` fail, and a call
that no longer goes through the traced name leaves its layer empty.
"""

import importlib.util
from pathlib import Path

from stochlp import analysis, lshaped, phedging, sampling
from stochlp.execution import ExecConfig
from stochlp.fixtures import simple_model, simple_problem, simple_sampler

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_called():
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        sync = ExecConfig(mode="sync", workers=2)
        lshaped.solve_lshaped(simple_problem(),
                              lshaped.LShapedConfig(cuts="multi", execution=sync))
        phedging.solve_ph(simple_problem(),
                          phedging.PhConfig(max_iterations=2, execution=sync))
        x = [40.0, 80.0]
        analysis.evaluate_decision(simple_problem(), x)
        sampling.evaluate_on_samples(simple_model(), simple_sampler(), x, 4, seed=0)
    finally:
        tracing.uninstall(saved)
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)
    names = {span.name for span in tracer.spans}
    assert {"lshaped.solve", "lshaped.master", "lshaped.subproblem", "lshaped.cuts",
            "execution.run_wave", "phedging.solve", "phedging.subproblem"} <= names
    waves = [span for span in tracer.spans if span.name == "execution.run_wave"]
    assert all(span.attrs["workers"] == 1 for span in waves)
    # the sampled evaluation's LP solves are spans of the sampling layer
    assert "analysis.evaluate_decision" in names
    assert any(span.name == "kernel.solve_lp" and span.parent is not None
               and span.parent.name == "sampling.evaluate" for span in tracer.spans)


def _traced(run):
    """Spans of ``run()`` under the installed tracer."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        run()
    finally:
        tracing.uninstall(saved)
    return tracer.spans, tracing


def test_ph_final_evaluation_is_a_span_of_the_ph_solve():
    spans, tracing = _traced(lambda: phedging.solve_ph(
        simple_problem(), phedging.PhConfig(max_iterations=2)))
    evals = [span for span in spans if span.name == "analysis.evaluate_decision"]
    assert evals
    assert all(tracing._has_ancestor(span, "phedging.solve") for span in evals)


def test_sampled_measures_reach_the_ews_ev_and_dep_layers():
    cfg = sampling.SaaConfig(n0=4, max_n=4, batches=2, eval_samples=16)
    spans, _ = _traced(lambda: analysis.sampled_measures(
        simple_model(), simple_sampler(), cfg, seed=0))
    names = {span.name for span in spans}
    assert {"analysis.ews", "analysis.ev", "model.build_dep"} <= names
