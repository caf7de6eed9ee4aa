"""The benchmark traces stochlp from outside the package, by name.

``perfbench/tracing.py`` replaces module attributes and class methods with
wrappers; a renamed or deleted name makes its ``install`` fail, and a call
that no longer goes through the traced name leaves its layer empty.
"""

import importlib.util
from pathlib import Path

from stochlp import lshaped, phedging
from stochlp.execution import ExecConfig
from stochlp.fixtures import simple_problem

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
        lshaped.solve_lshaped(simple_problem(), lshaped.LShapedConfig(cuts="multi"),
                              engine=sync)
        phedging.solve_ph(simple_problem(), phedging.PhConfig(max_iterations=2),
                          engine=sync)
    finally:
        tracing.uninstall(saved)
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)
    names = {span.name for span in tracer.spans}
    assert {"lshaped.solve", "lshaped.master", "lshaped.subproblem", "lshaped.cuts",
            "execution.run_wave", "phedging.solve", "phedging.subproblem"} <= names
    waves = [span for span in tracer.spans if span.name == "execution.run_wave"]
    assert all(span.attrs["workers"] == 1 for span in waves)
