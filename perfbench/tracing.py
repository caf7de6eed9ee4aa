"""Spans and counters taken around calls into stochlp's public functions.

The package itself is not instrumented: ``install`` replaces each traced
name where callers look it up (a module attribute or a class method) with a
wrapper that records a span, and ``uninstall`` puts the originals back.
Spans stay in memory until the run ends.

A span's parent is the innermost open span of its own thread.  A span
opened by a worker thread with nothing open yet belongs to the innermost
span of the main thread, which is the ``run_wave`` call that handed out the
work.  Self time is shared fairly: at each instant, the open spans with no
open child split the instant equally, so threads that interleave under the
interpreter lock are not counted twice and the self times of all spans add
up to the wall time the spans cover.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def begin(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            span = Span(name, time.perf_counter(), parent)
            stack.append(span)
            self.spans.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def take(self):
        """Hand over the finished spans and start an empty list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _note_lp(span, args, kwargs, sol):
    lp = args[0] if args else kwargs["lp"]
    span.attrs = {"pivots": sol.iterations, "rows": lp.nrows}


def _note_iterations(span, args, kwargs, result):
    span.attrs = {"iterations": result.iterations}


def _note_wave(span, args, kwargs, envs):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    span.attrs = {"busy": sum(e.wall for e in envs), "workers": workers}


def _note_eval(span, args, kwargs, values):
    span.attrs = {"samples": len(values)}


def _points():
    """(owner, attribute, span name, result hook) for every traced name."""
    from stochlp import analysis, execution, kernel, lshaped, model, phedging
    from stochlp import sampling, serialize, smps
    return [
        (kernel, "solve_lp", "kernel.solve_lp", _note_lp),
        (kernel, "solve_qp_diagonal", "kernel.solve_qp", _note_iterations),
        (lshaped, "solve_lshaped", "lshaped.solve", _note_iterations),
        (lshaped.MasterState, "solve_plain", "lshaped.master", None),
        (lshaped.MasterState, "solve_rd", "lshaped.master", None),
        (lshaped.MasterState, "solve_level", "lshaped.master", None),
        (lshaped, "solve_subproblem", "lshaped.subproblem", None),
        (lshaped, "aggregate_cuts", "lshaped.cuts", None),
        (lshaped, "make_feasibility_cut", "lshaped.cuts", None),
        (execution, "run_wave", "execution.run_wave", _note_wave),
        (lshaped, "run_wave", "execution.run_wave", _note_wave),
        (phedging, "run_wave", "execution.run_wave", _note_wave),
        (phedging, "solve_ph", "phedging.solve", _note_iterations),
        (phedging, "solve_ph_subproblem", "phedging.subproblem", None),
        (analysis, "evaluate_decision", "analysis.evaluate_decision", None),
        (analysis, "sampled_measures", "analysis.sampled_measures", None),
        (analysis, "ews", "analysis.ews", None),
        (analysis, "expected_value_decision", "analysis.ev", None),
        (model, "build_deterministic_equivalent", "model.build_dep", None),
        (analysis, "build_deterministic_equivalent", "model.build_dep", None),
        (sampling, "saa_solve", "sampling.saa_solve", None),
        (analysis, "saa_solve", "sampling.saa_solve", None),
        (sampling.NormalSampler, "sample", "sampling.draw", None),
        (sampling.DiscreteSampler, "sample", "sampling.draw", None),
        (sampling, "evaluate_on_samples", "sampling.evaluate", _note_eval),
        (analysis, "evaluate_on_samples", "sampling.evaluate", _note_eval),
        (smps, "read_smps", "smps.read", None),
        (serialize, "load_problem", "serialize.load", None),
    ]


def wrap(tracer, name, fn, hook):
    """``fn`` recording a span per call; ``hook(span, args, kwargs, result)`` notes counters."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if hook is not None:
            hook(span, args, kwargs, result)
        return result
    return traced


def install(tracer):
    """Wrap every traced name; returns the originals for ``uninstall``."""
    saved = []
    for owner, attr, name, hook in _points():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(tracer, name, original, hook))
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def self_times(spans):
    """Fair-share self time of each span, keyed by span identity."""
    events = []
    for sp in spans:
        events.append((sp.start, 1, sp))
        events.append((sp.end, 0, sp))
    events.sort(key=lambda e: (e[0], e[1]))
    open_children = {}
    leaves = set()
    share = {id(sp): 0.0 for sp in spans}
    last = None
    for t, kind, sp in events:
        if last is not None and leaves and t > last:
            dt = (t - last) / len(leaves)
            for leaf in leaves:
                share[id(leaf)] += dt
        last = t
        parent = sp.parent if sp.parent is not None and id(sp.parent) in share else None
        if kind == 1:
            open_children[id(sp)] = 0
            leaves.add(sp)
            if parent is not None:
                open_children[id(parent)] += 1
                leaves.discard(parent)
        else:
            del open_children[id(sp)]
            leaves.discard(sp)
            if parent is not None and id(parent) in open_children:
                open_children[id(parent)] -= 1
                if open_children[id(parent)] == 0:
                    leaves.add(parent)
    return share


def _has_ancestor(sp, name):
    p = sp.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_table(spans):
    """Per span name: calls, inclusive seconds of outermost calls, self seconds."""
    share = self_times(spans)
    table = {}
    for sp in spans:
        row = table.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += share[id(sp)]
        if not _has_ancestor(sp, sp.name):
            row["s"] += sp.duration
    return table


def layer_metrics(spans):
    """The benchmark's per-layer metrics for the spans of one solve."""
    share = self_times(spans)
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)

    def outer(name):
        return [s for s in by.get(name, []) if not _has_ancestor(s, name)]

    def total(name):
        return sum(s.duration for s in outer(name))

    def self_total(name):
        return sum(share[id(s)] for s in by.get(name, []))

    def attr_sum(spans_, key):
        return sum(s.attrs[key] for s in spans_ if s.attrs)

    lps = by.get("kernel.solve_lp", [])
    qps = by.get("kernel.solve_qp", [])
    master_lps = [s for s in lps if s.parent is not None and s.parent.name == "lshaped.master"]
    sub_lps = [s for s in lps if s.parent is not None and s.parent.name == "lshaped.subproblem"]
    eval_lps = [s for s in lps if s.parent is not None and s.parent.name == "sampling.evaluate"]
    waves = outer("execution.run_wave")
    wave_capacity = sum(s.attrs["workers"] * s.duration for s in waves if s.attrs)
    busy = attr_sum(waves, "busy")
    samples = attr_sum(outer("sampling.evaluate"), "samples")
    final_evals = [s for s in outer("analysis.evaluate_decision")
                   if _has_ancestor(s, "phedging.solve")]
    last_master = max(master_lps, key=lambda s: s.start) if master_lps else None
    return {
        "kernel.lp_calls": len(lps),
        "kernel.lp_s": sum(s.duration for s in lps),
        "kernel.lp_pivots": attr_sum(lps, "pivots"),
        "kernel.qp_calls": len(qps),
        "kernel.qp_s": sum(s.duration for s in qps),
        "kernel.qp_ipm_iterations": attr_sum(qps, "iterations"),
        "lshaped.iterations": attr_sum(outer("lshaped.solve"), "iterations"),
        "lshaped.master_solves": len(outer("lshaped.master")),
        "lshaped.master_s": total("lshaped.master"),
        "lshaped.master_self_s": self_total("lshaped.master"),
        "lshaped.master_pivots": attr_sum(master_lps, "pivots"),
        "lshaped.master_rows": last_master.attrs["rows"] if last_master else 0,
        "lshaped.subproblem_solves": len(by.get("lshaped.subproblem", [])),
        "lshaped.subproblem_s": total("lshaped.subproblem"),
        "lshaped.subproblem_self_s": self_total("lshaped.subproblem"),
        "lshaped.subproblem_pivots": attr_sum(sub_lps, "pivots"),
        "lshaped.cut_s": total("lshaped.cuts"),
        "execution.waves": len(waves),
        "execution.wave_s": sum(s.duration for s in waves),
        "execution.worker_busy_s": busy,
        "execution.parallel_efficiency": busy / wave_capacity if wave_capacity else 0.0,
        "phedging.iterations": attr_sum(outer("phedging.solve"), "iterations"),
        "phedging.subproblem_s": total("phedging.subproblem"),
        "phedging.subproblem_self_s": self_total("phedging.subproblem"),
        "phedging.final_eval_s": sum(s.duration for s in final_evals),
        "model.dep_builds": len(outer("model.build_dep")),
        "model.dep_build_s": total("model.build_dep"),
        "sampling.draws": len(by.get("sampling.draw", [])),
        "sampling.draw_s": total("sampling.draw"),
        "sampling.eval_s": total("sampling.evaluate"),
        "sampling.eval_cache_hit_ratio": 1.0 - len(eval_lps) / samples if samples else 0.0,
        "analysis.ews_s": total("analysis.ews"),
        "analysis.ev_s": total("analysis.ev"),
    }


def setup_metrics(spans):
    """Per-layer seconds of the input readers, from the spans of one set-up."""
    def total(name):
        return sum(s.duration for s in spans if s.name == name)
    return {"smps.read_s": total("smps.read"), "serialize.load_s": total("serialize.load")}


def unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ratio") or name.endswith("_efficiency"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def median_metrics(samples):
    """Median of each metric over several solves."""
    return {k: float(np.median([s[k] for s in samples])) for k in samples[0]}
