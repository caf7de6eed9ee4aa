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
from dataclasses import replace

import numpy as np

from . import analysis, fixtures, kernel, serialize, smps
from .errors import ConfigError, InfeasibleProblem, StochLPError, UnboundedProblem
from .execution import ExecConfig, _number
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


def _emit(args, doc, text):
    """Write the JSON ``doc`` to --out, and print it or the ``text`` summary."""
    if args.out:
        with open(args.out, "w") as f:
            f.write(doc + "\n")
    sys.stdout.write(doc + "\n" if args.format == "machine" else text)


def _parse_cuts(text):
    if text.startswith("partial"):
        if ":" not in text:
            raise ConfigError("partial aggregation needs a bundle size: partial:N")
        return "partial", _number(int, text.split(":", 1)[1], "bundle size")
    if text in ("single", "multi"):
        return text, 1
    raise ConfigError(f"unknown cut mode {text!r}")


def _parse_penalty(text):
    if text == "adaptive":
        return "adaptive", PhConfig.r
    if text.startswith("fixed"):
        r = PhConfig.r
        if ":" in text:
            r = _number(float, text.split(":", 1)[1], "penalty")
        return "fixed", r
    raise ConfigError(f"unknown penalty {text!r}")


def _iteration_limit(cfg, args):
    """``cfg`` with ``--max-iterations``, when given, through the config's own checks."""
    return cfg if args.max_iterations is None else replace(cfg, max_iterations=args.max_iterations)


def cmd_solve(args):
    problem = _load_problem(args)
    engine = _exec_config(args)
    t0 = time.perf_counter()
    if args.method == "dep":
        lp = build_deterministic_equivalent(problem)
        sol = kernel.solve_lp(lp)
        rep = SolveReport(
            method="dep", status=sol.status,
            objective=problem.report_value(sol.objective) if sol.x is not None else np.nan,
            decision=sol.x[:problem.n] if sol.x is not None else None,
            recourse=(sol.x[problem.n:].reshape(problem.nscen, problem.m)
                      if sol.status == kernel.OPTIMAL else None),
            iterations=sol.iterations, seed=args.seed,
            wall_time=time.perf_counter() - t0)
        rep.config = {"method": "dep", "seed": args.seed}
    elif args.method == "lshaped":
        cuts, bundle = _parse_cuts(args.cuts)
        cfg = LShapedConfig(cuts=cuts, bundle_size=bundle, regularization=args.regularization,
                            consolidation=args.consolidate, execution=engine,
                            gap_tol=LShapedConfig.gap_tol if args.gap is None else args.gap)
        rep = solve_lshaped(problem, _iteration_limit(cfg, args), seed=args.seed)
    else:
        pen, r = _parse_penalty(args.penalty)
        tol = (PhConfig.primal_tol, PhConfig.dual_tol) if args.gap is None else (args.gap,) * 2
        cfg = PhConfig(penalty=pen, r=r, primal_tol=tol[0], dual_tol=tol[1], execution=engine)
        rep = solve_ph(problem, _iteration_limit(cfg, args), seed=args.seed)
    rep.config.update({"seed": args.seed, "method": args.method})
    rep.log_trace()
    _emit(args, rep.to_json(), rep.to_text())
    if rep.status == "optimal":
        return EXIT_OK
    if rep.status == "iteration_limit":
        return EXIT_LIMIT
    return EXIT_INFEASIBLE


def cmd_analyze(args):
    wanted = [m.strip() for m in args.measures.split(",")] if args.measures else \
        ["ews", "evpi", "eev", "vss"]
    for name in wanted:
        if name not in analysis.MEASURES:
            raise ConfigError(f"unknown measure {name!r}")
    problem = _load_problem(args)
    out = {"format": "stochlp-analysis/1", "seed": args.seed, "measures": {}}
    text = []
    if args.evaluate:
        with open(args.evaluate) as f:
            x = np.array(json.load(f), dtype=float)
        val = analysis.evaluate_decision(problem, x)
        val = problem.report_value(val) if np.isfinite(val) else val
        out["measures"]["evaluate"] = {"measure": "evaluate", "mode": "exact",
                                       "value": val, "x": x.tolist()}
        text.append(f"V(x):  {val:.12g}")
    measures = analysis.all_measures(problem)
    for name in wanted:
        res = measures[name]
        out["measures"][name] = res.to_dict()
        text.append(f"{name.upper() + ':':<6} {res.value:.12g}"
                    + (f"   {res.flags}" if res.flags else ""))
    _emit(args, json.dumps(_jsonable(out), indent=2), "\n".join(text) + "\n")
    return EXIT_OK


def cmd_saa(args):
    model = fixtures.simple_model()     # the one model --model admits
    sampler = fixtures.get_sampler(args.sampler)
    cfg = SaaConfig(confidence=args.confidence, rel_tol=args.rel_tol, n0=args.n0,
                    batches=args.batches, eval_samples=args.eval_samples)
    res = saa_solve(model, sampler, cfg, seed=args.seed)
    out = {"format": "stochlp-saa/1", "seed": args.seed,
           "confidence": res.report.to_dict(),
           "decision": res.decision.tolist(),
           "sample_size": res.n, "rounds": res.rounds,
           "budget_exceeded": res.budget_exceeded,
           "config": {"rel_tol": cfg.rel_tol, "confidence": cfg.confidence, "n0": cfg.n0,
                      "batches": cfg.batches, "eval_samples": cfg.eval_samples,
                      "sampler": args.sampler}}
    r = res.report
    _emit(args, json.dumps(_jsonable(out), indent=2),
          f"confidence interval (p = {int(r.level * 100)}%): [{r.lo:.6g}, {r.hi:.6g}]\n"
          f"relative error: {r.relative_error:.6g}\n"
          f"sample size:    {r.n}\n"
          f"seed:           {args.seed}\n")
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
    p.add_argument("--cuts", default=LShapedConfig.cuts, help="single | multi | partial:N")
    p.add_argument("--regularization", choices=("none", "tr", "rd", "level"),
                   default=LShapedConfig.regularization)
    p.add_argument("--consolidate", action="store_true")
    p.add_argument("--exec", dest="exec_mode", default="serial",
                   help="serial | sync | async:KAPPA")
    p.add_argument("--penalty", default=PhConfig.penalty, help="adaptive | fixed:R")
    p.add_argument("--gap", type=float, default=None,
                   help=f"relative gap tolerance, default {LShapedConfig.gap_tol:g} (PH: "
                        f"squared-gap tolerances, default {PhConfig.primal_tol:g})")
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
    p.add_argument("--model", choices=("simple",), default="simple",
                   help="the model the built-in samplers draw scenarios for")
    p.add_argument("--sampler", default="simple-normal")
    p.add_argument("--rel-tol", type=float, default=SaaConfig.rel_tol)
    p.add_argument("--confidence", type=float, default=SaaConfig.confidence)
    p.add_argument("--n0", type=int, default=SaaConfig.n0)
    p.add_argument("--batches", type=int, default=SaaConfig.batches)
    p.add_argument("--eval-samples", type=int, default=SaaConfig.eval_samples)
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
    except (InfeasibleProblem, UnboundedProblem) as e:
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
