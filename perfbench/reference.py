#!/usr/bin/env python3
"""Reference figures quoted in the benchmark README.

    python3 perfbench/reference.py --seed 1 --seconds 25

Run from the repository root.  Prints, one JSON line each:

- ``serial``: the farmer-partial-sync2 instance solved with the 2-worker
  sync engine and with the serial engine, alternating in one process;
- ``highs``: HiGHS (``scipy.optimize.linprog``) seconds on the DEP of each
  farmer workload's instances, median of five solves;
- ``overhead``: for every workload, solves with tracing off and on,
  alternating in one process, beside spans per solve times the cost of one
  span.

Two variants of a solve alternate, the order flipping every pair, so that
the machine's slow drift falls on both; each figure is the median over the
pairs of the second variant's time over the first's.
"""

import argparse
import json
import shutil
import time

import run  # sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, FarmerWorkload, LShapedWorkload  # noqa: E402


def prepared(wl, seed):
    """Instances and in-memory problems of a workload, warmed up."""
    workdir = run.WORK / f"reference-{wl.name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        instances = wl.prepare(seed, str(workdir), False)
        problems = [wl.setup(inst) for inst in instances]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.warmup()
    return instances, problems


def alternate(first, second, instances, problems, seconds):
    """Times of ``first`` and ``second`` solving each instance in turn."""
    times = ([], [])
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        for inst, problem in zip(instances, problems):
            order = (0, 1) if len(times[1]) % 2 == 0 else (1, 0)
            for k in order:
                t = time.perf_counter()
                (first, second)[k](inst, problem)
                times[k].append(time.perf_counter() - t)
    ratio = np.array(times[1]) / np.array(times[0])
    return {"pairs": int(ratio.size), "first_s": float(np.median(times[0])),
            "second_s": float(np.median(times[1])),
            "ratio": float(np.median(ratio))}


def serial_partial(seed, seconds):
    sync = WORKLOADS["farmer-partial-sync2"]
    serial = LShapedWorkload("farmer-partial-serial", sync.scenarios, sync.toy_scenarios,
                             sync.instances, sync.fmt, sync.cuts, bundles=sync.bundles,
                             workers=1)
    instances, problems = prepared(sync, seed)
    res = alternate(sync.solve, serial.solve, instances, problems, seconds)
    return {"pairs": res["pairs"], "sync2_s": res["first_s"], "serial_s": res["second_s"],
            "serial_over_sync2": res["ratio"]}


def highs_dep(seed):
    out = {}
    for name, wl in WORKLOADS.items():
        if not isinstance(wl, FarmerWorkload):
            continue
        per_instance = []
        for inst in prepared(wl, seed)[0]:
            times = []
            for _ in range(5):
                t = time.perf_counter()
                oracle.dep_optimum(inst.arrays)
                times.append(time.perf_counter() - t)
            per_instance.append(float(np.median(times)))
        out[name] = {"scenarios": wl.scenarios, "dep_s": float(np.mean(per_instance))}
    return out


def span_cost():
    """Seconds a traced call adds to a plain one: best of five runs of 10^5 calls."""
    tracer = tracing.Tracer()

    def plain(x):
        return x

    best = []
    for fn in (plain, tracing.wrap(tracer, "probe", plain, None)):
        runs = []
        for _ in range(5):
            t = time.perf_counter()
            for i in range(100000):
                fn(i)
            runs.append((time.perf_counter() - t) / 100000)
            tracer.take()
        best.append(min(runs))
    return best[1] - best[0]


def tracing_overhead(seed, seconds):
    cost = span_cost()
    out = {"span_cost_s": cost}
    for name, wl in WORKLOADS.items():
        instances, problems = prepared(wl, seed)
        spans = []

        def traced(inst, problem):
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                wl.solve(inst, problem)
            finally:
                tracing.uninstall(saved)
            spans.append(len(tracer.take()))

        res = alternate(wl.solve, traced, instances, problems, seconds)
        out[name] = {"pairs": res["pairs"], "untraced_s": res["first_s"],
                     "traced_s": res["second_s"], "overhead": res["ratio"] - 1.0,
                     "spans_per_solve": float(np.median(spans)),
                     "estimated_overhead": float(np.median(spans)) * cost / res["first_s"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args()
    run.import_stochlp()
    print("serial " + json.dumps(serial_partial(args.seed, 2 * args.seconds)), flush=True)
    print("highs " + json.dumps(highs_dep(args.seed)), flush=True)
    print("overhead " + json.dumps(tracing_overhead(args.seed, args.seconds)), flush=True)
    print("stamp " + json.dumps(run.stamp()))


if __name__ == "__main__":
    main()
