#!/usr/bin/env python3
"""stochlp benchmark: time to a solver result on four workloads.

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload farmer-multicut --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--workload`` the workload runs in this
process, driven in a closed loop by one caller: each solve starts when the
previous one has returned.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones, from spans taken around calls into
stochlp's modules.  The package is imported from ``src/`` of the checkout
the script sits in; without it the script exits with status 2.
"""

import os

# One BLAS thread in every workload process: on a small machine the thread
# count otherwise decides the numbers (it must be set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / "_work"

E2E_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Set-up is timed before the first solve and again after every round, and
# the fastest call is reported.  Calls of a millisecond or less ran at two
# speeds about 1.8x apart, the machine switching between them every few
# seconds, so a median flipped between the two from run to run; the fastest
# of several hundred calls spread over the run repeats.
SETUP_FIRST = (7, 0.25)      # (at least this many calls, for at least seconds)
SETUP_PER_ROUND = (1, 0.1)
SETUP_MAX_CALLS = 5000


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_stochlp():
    if not (SRC / "stochlp" / "__init__.py").is_file():
        fail(f"no stochlp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stochlp
    if Path(stochlp.__file__).resolve().parent != SRC / "stochlp":
        fail(f"imported stochlp from {stochlp.__file__}, not from {SRC}")


def stamp():
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stochlp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def median(values):
    return float(np.median(values))


def time_setup(wl, inst, limits, times, layers, tracer):
    """Call the workload's set-up until both limits are met; returns the problem."""
    min_calls, seconds = limits
    t_begin = time.perf_counter()
    calls = 0
    while calls < SETUP_MAX_CALLS and (
            calls < min_calls or time.perf_counter() - t_begin < seconds):
        t = time.perf_counter()
        problem = wl.setup(inst)
        times.append(time.perf_counter() - t)
        calls += 1
        if tracer is not None:
            layers.append(tracing.setup_metrics(tracer.take()))
    return problem


def run_workload(wl, seed, seconds, trace, toy):
    name = wl.name
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        instances = wl.prepare(seed, str(workdir), toy)
        wl.warmup()
        tracer = tracing.Tracer() if trace else None
        saved = tracing.install(tracer) if trace else None
        try:
            loop = solve_loop(wl, instances, seconds, tracer)
        finally:
            if saved is not None:
                tracing.uninstall(saved)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run still has its directory there
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = loop["raised"]
    wrong = []
    for (i, _), (res, count) in loop["results"].items():
        verdict = wl.check(instances[i], res)
        if verdict is not None:
            failed += count
            wrong.append({"instance": instances[i].label, "outcome": verdict[0],
                          "message": verdict[1], "operations": count})
    solved = [t for t in loop["times"] if t]
    solve_s = float(np.mean([median(t) for t in solved])) if solved else float("nan")
    setup = [min(t) for t in loop["setup_times"]]
    correct = bool(solved) and not any(w["outcome"] == "wrong" for w in wrong)

    if trace:
        metrics = tracing.median_metrics(loop["layers"]) if loop["layers"] else {}
        if loop["setup_layers"]:
            metrics.update(tracing.median_metrics(loop["setup_layers"]))
        units = {k: tracing.unit(k) for k in metrics}
    else:
        metrics = {"solve_s": solve_s, "setup_s": float(np.mean(setup)),
                   "peak_rss_mb": peak_mb}
        units = E2E_UNITS
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "toy": toy,
        "config": wl.describe(toy), "instances": [inst.label for inst in instances],
        "rounds": loop["rounds"], "solve_times_s": loop["times"],
        "setup_s_per_instance": setup, "solve_s": solve_s, "peak_rss_mb": peak_mb,
        "errors": loop["errors"], "check_failures": wrong, "stamp": stamp(),
    }
    if loop["first_traced"] is not None:
        spans, wall = loop["first_traced"]
        table = tracing.layer_table(spans)
        detail["layer_table_first_solve"] = table
        detail["self_time_sum_over_solve_wall"] = sum(r["self_s"] for r in table.values()) / wall
        write_spans(RESULTS / f"{name}-seed{seed}-spans.json", spans)
    result = {"correct": correct, "attempted": loop["attempted"], "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail["result"] = result
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{trace}.json", "w") as f:
        json.dump(detail, f, indent=1, default=str)
    return result, detail


def solve_loop(wl, instances, seconds, tracer):
    """Whole rounds (one solve per instance) until the next would pass ``seconds``."""
    setup_times = [[] for _ in instances]
    setup_layers = []
    problems = [time_setup(wl, inst, SETUP_FIRST, setup_times[i], setup_layers, tracer)
                for i, inst in enumerate(instances)]
    times = [[] for _ in instances]
    results, errors, layers = {}, [], []
    attempted = raised = rounds = 0
    first_traced = None
    t_start = time.perf_counter()
    while True:
        for i, inst in enumerate(instances):
            attempted += 1
            t = time.perf_counter()
            try:
                res = wl.solve(inst, problems[i])
            except Exception as exc:  # noqa: BLE001 - a raising solve is a failed operation
                raised += 1
                errors.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                if tracer is not None:
                    tracer.take()
                continue
            times[i].append(time.perf_counter() - t)
            if tracer is not None:
                spans = tracer.take()
                layers.append(tracing.layer_metrics(spans))
                first_traced = first_traced or (spans, times[i][-1])
            entry = results.setdefault((i, wl.fingerprint(res)), [res, 0])
            entry[1] += 1
        for i, inst in enumerate(instances):
            time_setup(wl, inst, SETUP_PER_ROUND, setup_times[i], setup_layers, tracer)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    return {"times": times, "results": results, "errors": errors, "layers": layers,
            "attempted": attempted, "raised": raised, "rounds": rounds,
            "first_traced": first_traced, "setup_times": setup_times,
            "setup_layers": setup_layers}


def write_spans(path, spans):
    """Spans as [name, start, end, parent index], times relative to the first start."""
    index = {id(sp): k for k, sp in enumerate(spans)}
    t0 = spans[0].start
    rows = [[sp.name, sp.start - t0, sp.end - t0,
             index.get(id(sp.parent)) if sp.parent is not None else None]
            for sp in spans]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(rows, f)


def run_all(args):
    """Each workload in its own process; a table of the results."""
    rows = []
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        rows.append((name, res))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"    {metric:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run one workload in this process (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = ap.parse_args(argv)
    import_stochlp()
    if args.workload is None:
        return run_all(args)
    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                  args.trace, args.toy)
    for err in detail["errors"] + [w["message"] for w in detail["check_failures"]]:
        print(f"problem: {err}")
    print(f"{args.workload}: {detail['rounds']} rounds, solve times "
          + ", ".join(f"{min(t):.4g}-{max(t):.4g} s" for t in detail["solve_times_s"] if t))
    print("stamp: " + json.dumps(detail["stamp"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
