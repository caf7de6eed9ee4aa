"""Command-line front end.

Subcommands: ``solve`` (dep / lshaped / ph), ``analyze`` (measures and
decision evaluation), ``saa`` (sample average approximation with confidence
intervals), ``convert`` (SMPS to the native format).  Every run prints a
human-readable summary (or the machine JSON with ``--format machine``) and
``--out PATH`` additionally writes the machine-readable report.

Exit codes: 0 optimal, 1 configuration or parse error, 2 iteration or
budget limit, 3 infeasible or unbounded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import analysis, fixtures, kernel, serialize, smps
from .errors import (
    ConfigError,
    MasterInfeasible,
    InfeasibleScenario,
    StochLPError,
    UnboundedSubproblem,
)
from .execution import ExecConfig
from .lshaped import LShapedConfig, solve_lshaped
from .model import build_deterministic_equivalent
from .phedging import PhConfig, solve_ph
from .report import SolveReport, _jsonable, logger
from .sampling import SaaConfig, saa_solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_LIMIT = 2
EXIT_INFEASIBLE = 3


def _add_common(p):
    p.add_argument("--input", nargs="+", metavar="PATH",
                   help="native .json problem file, or CORE TIME STOCH paths")
    p.add_argument("--fixture", choices=fixtures.fixture_names(),
                   help="built-in problem")
    p.add_argument("--out", help="write the machine-readable JSON report here")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="what to print on stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker threads of --exec async (overrides STOCHLP_WORKERS); "
                        "serial and sync run every wave inline")
    p.add_argument("--verbose", "-v", action="count", default=0)


def _load_problem(args):
    if bool(args.input) == bool(args.fixture):
        raise ConfigError("exactly one of --input or --fixture is required")
    if args.fixture:
        return fixtures.get_fixture(args.fixture)
    if len(args.input) == 1:
        return serialize.load_problem(args.input[0])
    if len(args.input) == 3:
        return smps.read_smps_files(*args.input)
    raise ConfigError("--input takes one native file or three SMPS paths")


def _exec_config(args):
    return ExecConfig.parse(getattr(args, "exec_mode", None) or "serial",
                            workers=args.workers)


def _emit(args, report: SolveReport):
    doc = report.to_json() if hasattr(report, "to_json") else json.dumps(_jsonable(report), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(doc)
            f.write("\n")
    if args.format == "machine":
        print(doc)
    elif hasattr(report, "to_text"):
        print(report.to_text(), end="")
    else:
        print(doc)


def _parse_cuts(text):
    if text.startswith("partial"):
        if ":" not in text:
            raise ConfigError("partial aggregation needs a bundle size: partial:N")
        return "partial", int(text.split(":", 1)[1])
    if text in ("single", "multi"):
        return text, 1
    raise ConfigError(f"unknown cut mode {text!r}")


def _parse_penalty(text):
    if text == "adaptive":
        return "adaptive", 1.0
    if text.startswith("fixed"):
        r = 1.0
        if ":" in text:
            r = float(text.split(":", 1)[1])
        return "fixed", r
    raise ConfigError(f"unknown penalty {text!r}")


def cmd_solve(args):
    problem = _load_problem(args)
    engine = _exec_config(args)
    t0 = time.perf_counter()
    if args.method == "dep":
        lp = build_deterministic_equivalent(problem)
        sol = kernel.solve_lp(lp)
        status_map = {kernel.OPTIMAL: "optimal", kernel.INFEASIBLE: "infeasible",
                      kernel.UNBOUNDED: "unbounded",
                      kernel.ITERATION_LIMIT: "iteration_limit"}
        rep = SolveReport(
            method="dep", status=status_map[sol.status],
            objective=problem.report_value(sol.objective) if sol.x is not None else np.nan,
            decision=sol.x[:problem.n] if sol.x is not None else None,
            recourse=[sol.x[problem.n + s * problem.m:problem.n + (s + 1) * problem.m]
                      for s in range(problem.nscen)] if sol.status == kernel.OPTIMAL else None,
            iterations=sol.iterations, seed=args.seed,
            wall_time=time.perf_counter() - t0)
        rep.config = {"method": "dep", "seed": args.seed}
    elif args.method == "lshaped":
        cuts, bundle = _parse_cuts(args.cuts)
        cfg = LShapedConfig(cuts=cuts, bundle_size=bundle,
                            regularization=args.regularization,
                            consolidation=args.consolidate,
                            gap_tol=args.gap, execution=engine)
        if args.max_iterations:
            cfg.max_iterations = args.max_iterations
        rep = solve_lshaped(problem, cfg, engine, seed=args.seed)
    else:
        pen, r = _parse_penalty(args.penalty)
        cfg = PhConfig(penalty=pen, r=r, primal_tol=args.gap if args.gap != 1e-6 else 1e-5,
                       dual_tol=args.gap if args.gap != 1e-6 else 1e-5,
                       execution=engine)
        if args.max_iterations:
            cfg.max_iterations = args.max_iterations
        rep = solve_ph(problem, cfg, engine, seed=args.seed)
    rep.config.update({"seed": args.seed, "method": args.method})
    rep.log_trace()
    _emit(args, rep)
    if rep.status == "optimal":
        return EXIT_OK
    if rep.status == "iteration_limit":
        return EXIT_LIMIT
    return EXIT_INFEASIBLE


def cmd_analyze(args):
    problem = _load_problem(args)
    wanted = [m.strip() for m in args.measures.split(",")] if args.measures else \
        ["ews", "evpi", "eev", "vss"]
    out = {"format": "stochlp-analysis/1", "seed": args.seed, "measures": {}}
    text = []
    if args.evaluate:
        x = np.array(json.load(open(args.evaluate)), dtype=float)
        val = analysis.evaluate_decision(problem, x)
        val = problem.report_value(val) if np.isfinite(val) else val
        out["measures"]["evaluate"] = {"measure": "evaluate", "mode": "exact",
                                       "value": val, "x": x.tolist()}
        text.append(f"V(x):  {val:.12g}")
    measures = analysis.all_measures(problem)
    for name in wanted:
        if name not in measures:
            raise ConfigError(f"unknown measure {name!r}")
        res = measures[name]
        out["measures"][name] = res.to_dict()
        text.append(f"{name.upper() + ':':<6} {res.value:.12g}"
                    + (f"   {res.flags}" if res.flags else ""))
    doc = json.dumps(_jsonable(out), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(doc + "\n")
    print(doc if args.format == "machine" else "\n".join(text))
    return EXIT_OK


def cmd_saa(args):
    model = fixtures.get_model(args.model) if args.model in ("simple", "farmer") \
        else None
    if model is None:
        raise ConfigError("--model must name a built-in sampling model (simple, farmer)")
    sampler = fixtures.get_sampler(args.sampler)
    cfg = SaaConfig(confidence=args.confidence, rel_tol=args.rel_tol,
                    n0=args.n0, batches=args.batches,
                    eval_samples=args.eval_samples)
    res = saa_solve(model, sampler, cfg, seed=args.seed)
    out = {"format": "stochlp-saa/1", "seed": args.seed,
           "confidence": res.report.to_dict(),
           "decision": res.decision.tolist(),
           "sample_size": res.n, "rounds": res.rounds,
           "budget_exceeded": res.budget_exceeded,
           "config": {"rel_tol": args.rel_tol, "confidence": args.confidence,
                      "n0": args.n0, "batches": args.batches,
                      "eval_samples": args.eval_samples, "sampler": args.sampler}}
    doc = json.dumps(_jsonable(out), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(doc + "\n")
    if args.format == "machine":
        print(doc)
    else:
        r = res.report
        print(f"confidence interval (p = {int(r.level * 100)}%): [{r.lo:.6g}, {r.hi:.6g}]")
        print(f"relative error: {r.relative_error:.6g}")
        print(f"sample size:    {r.n}")
        print(f"seed:           {args.seed}")
    return EXIT_LIMIT if res.budget_exceeded else EXIT_OK


def cmd_convert(args):
    problem = smps.read_smps_files(*args.smps)
    serialize.save_problem(problem, args.out_path)
    print(f"wrote {args.out_path}: {problem.n} first-stage variables, "
          f"{problem.m} second-stage variables, {problem.r} second-stage constraints, "
          f"{problem.nscen} scenarios")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="stochlp",
                                 description="two-stage stochastic LP toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem instance")
    _add_common(p)
    p.add_argument("--method", choices=("dep", "lshaped", "ph"), default="dep")
    p.add_argument("--cuts", default="multi", help="single | multi | partial:N")
    p.add_argument("--regularization", choices=("none", "tr", "rd", "level"),
                   default="none")
    p.add_argument("--consolidate", action="store_true")
    p.add_argument("--exec", dest="exec_mode", default="serial",
                   help="serial | sync | async:KAPPA")
    p.add_argument("--penalty", default="fixed:1", help="fixed:R | adaptive")
    p.add_argument("--gap", type=float, default=1e-6,
                   help="relative gap tolerance (PH: squared-gap tolerances)")
    p.add_argument("--max-iterations", type=int, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("analyze", help="stochastic-programming measures")
    _add_common(p)
    p.add_argument("--measures", help="comma list from: ews, evpi, eev, vss, vrp")
    p.add_argument("--evaluate", metavar="XFILE",
                   help="JSON file with a first-stage decision to evaluate")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("saa", help="sample average approximation")
    _add_common(p)
    p.add_argument("--model", default="simple")
    p.add_argument("--sampler", default="simple-normal")
    p.add_argument("--rel-tol", type=float, default=5e-2)
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--n0", type=int, default=16)
    p.add_argument("--batches", type=int, default=10)
    p.add_argument("--eval-samples", type=int, default=1000)
    p.set_defaults(fn=cmd_saa)

    p = sub.add_parser("convert", help="SMPS triplet to the native format")
    p.add_argument("smps", nargs=3, metavar=("CORE", "TIME", "STOCH"))
    p.add_argument("out_path", metavar="OUT")
    p.set_defaults(fn=cmd_convert)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    if getattr(args, "verbose", 0):
        import logging
        logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
        logger.setLevel(logging.DEBUG if args.verbose > 1 else logging.INFO)
    try:
        return args.fn(args)
    except (ConfigError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (MasterInfeasible, InfeasibleScenario, UnboundedSubproblem) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except StochLPError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
