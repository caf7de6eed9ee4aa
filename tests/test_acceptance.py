"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The random-instance sweep (criteria 6-9, 11-12) is computed once in
module-scoped fixtures and shared.
"""

import os
import time

import numpy as np
import pytest

from stochlp import analysis, kernel
from stochlp.analysis import eev, evpi, ews, vrp, vss
from stochlp.execution import ExecConfig, run_async
from stochlp.fixtures import (
    farmer_problem,
    simple_discrete_sampler,
    simple_model,
    simple_problem,
    simple_sampler,
)
from stochlp.lshaped import (
    BasisPool,
    LShapedConfig,
    _Coordinator,
    make_bundles,
    solve_lshaped,
    solve_recourse,
)
from stochlp.model import build_deterministic_equivalent
from stochlp.phedging import PhConfig, solve_ph
from stochlp.sampling import SaaConfig, saa_solve

from _problems import (
    dep_optimum,
    first_stage_feasible_points,
    highs_dep_optimum,
    random_norrc_problem,
    random_rcr_problem,
)

N_SWEEP = int(os.environ.get("STOCHLP_SWEEP_INSTANCES", "100"))
N_NORRC = int(os.environ.get("STOCHLP_NORRC_INSTANCES", "20"))
GRID = [(cuts, bs, reg, mode)
        for cuts, bs in (("single", 1), ("multi", 1), ("partial", 2))
        for reg in ("none", "tr", "rd", "level")
        for mode in ("serial", "sync", "async")]


def _line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _engine(mode):
    if mode == "serial":
        return ExecConfig(mode="serial")
    if mode == "sync":
        return ExecConfig(mode="sync", workers=4)
    return ExecConfig(mode="async", workers=4, kappa=0.5)


def _scenario_values(problem, x):
    """Per-scenario recourse values at x; +inf marks infeasibility."""
    rec = solve_recourse(BasisPool(problem.batch), x, range(problem.nscen))
    return np.where(rec.feasible, rec.value, np.inf)


def _check_cuts(problem, cfg, cuts, points, point_values):
    """Worst over-estimation slack of optimality cuts at sampled points.

    An optimality cut in theta slot k under-estimates the probability-weighted
    recourse of bundle k, the scenarios ``make_bundles`` puts there under ``cfg``.
    """
    worst = -np.inf
    bundles = make_bundles(problem.nscen, cfg.cuts, cfg.bundle_size)
    bundle_of = np.repeat(np.arange(len(bundles)), [len(b) for b in bundles])
    cuts = cuts.take(cuts.optimality)
    member = bundle_of[None, :] == cuts.slot[:, None]      # (cuts, scenarios)
    for x, vals in zip(points, point_values):
        true = np.where(member, problem.probabilities * vals, 0.0).sum(axis=1)
        finite = np.isfinite(true)
        if finite.any():
            worst = max(worst, float((cuts.value_at(x) - true)[finite].max()))
    return worst


@pytest.fixture(scope="module")
def sweep6():
    """Criterion 6 sweep; also collects data for criteria 8, 9, 11 and 12."""
    t0 = time.time()
    ls_worst = 0.0
    ph_worst = 0.0
    ph_highs_worst = 0.0
    dep_highs_worst = 0.0
    cut_worst = -np.inf
    failures = []
    drift_ok = True
    ordering_worst = -np.inf
    problems = {}
    for seed in range(N_SWEEP):
        p = random_rcr_problem(seed)
        problems[seed] = p
        dep_v, _ = dep_optimum(p)
        highs_v = highs_dep_optimum(p)
        dep_highs_worst = max(dep_highs_worst,
                              abs(dep_v - highs_v) / max(1.0, abs(highs_v)))
        pts = first_stage_feasible_points(p, 10, seed + 5000)
        pvals = [_scenario_values(p, x) for x in pts]
        for cuts, bs, reg, mode in GRID:
            cfg = LShapedConfig(cuts=cuts, bundle_size=bs, regularization=reg,
                                execution=_engine(mode))
            rep = solve_lshaped(p, cfg)
            rel = abs(rep.extras["internal_objective"] - dep_v) / max(1.0, abs(dep_v))
            ls_worst = max(ls_worst, rel)
            if rel > 1e-5 or rep.status != "optimal":
                failures.append((seed, cuts, reg, mode, rel, rep.status))
            cut_worst = max(cut_worst,
                            _check_cuts(p, cfg, rep.extras["_cuts"], pts, pvals))
        ph = solve_ph(p, PhConfig(penalty="adaptive", primal_tol=1e-7,
                                  dual_tol=1e-7))
        ph_rel = abs(ph.extras["internal_objective"] - dep_v) / max(1.0, abs(dep_v))
        ph_worst = max(ph_worst, ph_rel)
        if ph_rel > 1e-3:
            failures.append((seed, "ph", "", "serial", ph_rel, ph.status))
        ph_highs = abs(ph.extras["internal_objective"] - highs_v) / max(1.0, abs(highs_v))
        ph_highs_worst = max(ph_highs_worst, ph_highs)
        if ph_highs > 1e-3:
            failures.append((seed, "ph vs HiGHS", "", "serial", ph_highs, ph.status))
        for t in ph.trace:
            if t["multiplier_drift"] > 1e-6 * t["iteration"]:
                drift_ok = False
        # ordering chain data (criterion 11)
        w = ews(p)
        e, _ = eev(p)
        tol = 1e-6 * (1.0 + abs(dep_v))
        ordering_worst = max(ordering_worst, w - dep_v - tol, dep_v - e - tol)
    return {
        "runs": N_SWEEP * (len(GRID) + 1),
        "ls_worst": ls_worst,
        "ph_worst": ph_worst,
        "ph_highs_worst": ph_highs_worst,
        "dep_highs_worst": dep_highs_worst,
        "cut_worst": cut_worst,
        "failures": failures,
        "drift_ok": drift_ok,
        "ordering_worst": ordering_worst,
        "wall": time.time() - t0,
        "problems": problems,
    }


@pytest.fixture(scope="module")
def sweep7():
    """Criterion 7: instances lacking relatively complete recourse."""
    t0 = time.time()
    worst = 0.0
    cut_worst = -np.inf
    failures = []
    for seed in range(N_NORRC):
        p = random_norrc_problem(seed)
        dep_v, _ = dep_optimum(p)
        cfg = LShapedConfig(cuts="multi")
        rep = solve_lshaped(p, cfg)
        rel = abs(rep.extras["internal_objective"] - dep_v) / max(1.0, abs(dep_v))
        worst = max(worst, rel)
        feasible = all(np.isfinite(_scenario_values(p, rep.decision)))
        if rel > 1e-5 or rep.status != "optimal" or not feasible:
            failures.append((seed, rel, rep.status, feasible))
        pts = [rep.decision] + first_stage_feasible_points(p, 9, seed + 9000)
        pvals = [_scenario_values(p, x) for x in pts]
        cut_worst = max(cut_worst, _check_cuts(p, cfg, rep.extras["_cuts"], pts, pvals))
    return {"worst": worst, "failures": failures, "cut_worst": cut_worst,
            "wall": time.time() - t0}


def test_criterion_01_textbook_dep():
    t0 = time.time()
    sol = kernel.solve_lp(build_deterministic_equivalent(simple_problem()))
    wall = time.time() - t0
    err = abs(sol.objective - (-855.833333333333))
    ok = err <= 1e-6 and wall < 1.0
    _line(1, ok, f"DEP objective {sol.objective:.12f}, |err|={err:.2e}, {wall:.3f}s")


def test_criterion_02_textbook_lshaped_variants():
    p = simple_problem()
    details = []
    ok = True
    for reg in ("none", "tr", "rd", "level"):
        t0 = time.time()
        rep = solve_lshaped(p, LShapedConfig(cuts="multi", regularization=reg))
        wall = time.time() - t0
        err = abs(rep.objective - (-855.8333333333358))
        good = err <= 1e-3 and wall < 5.0
        ok = ok and good
        details.append(f"{reg}:{err:.1e}/{wall:.2f}s")
    _line(2, ok, "multi-cut L-shaped " + " ".join(details))


def test_criterion_03_textbook_ph():
    p = simple_problem()
    details = []
    ok = True
    for pen in ("fixed", "adaptive"):
        t0 = time.time()
        rep = solve_ph(p, PhConfig(penalty=pen, r=1.0, primal_tol=1e-5,
                                   dual_tol=1e-5))
        wall = time.time() - t0
        err = abs(rep.objective - (-855.8333333333))
        good = err <= 0.5 and wall < 30.0 and rep.status == "optimal"
        ok = ok and good
        details.append(f"{pen}:{rep.objective:.4f}({wall:.1f}s)")
    _line(3, ok, "PH " + " ".join(details))


def test_criterion_04_textbook_evpi():
    res = evpi(simple_problem())
    err = abs(res.value - 662.916666666667)
    _line(4, err <= 1e-3, f"EVPI {res.value:.12f}, |err|={err:.2e}")


def test_criterion_05_farmer():
    t0 = time.time()
    p = farmer_problem()
    v, x = vrp(p)
    e = evpi(p)
    s = vss(p)
    y0 = solve_recourse(BasisPool(p.batch), np.array(x), [0]).y[0]
    wall = time.time() - t0
    checks = [
        abs(v - (-108390.0)) <= 1e-3,
        np.allclose(x, [170.0, 80.0, 250.0], atol=1e-4),
        abs(e.value - 7015.6) <= 0.1,
        abs(s.value - 1150.0) <= 0.1,
        np.allclose(y0, [0, 0, 310, 48, 6000, 0], atol=1e-3),
        wall < 2.0,
    ]
    _line(5, all(checks),
          f"DEP={v:.2f} x={np.round(x, 4)} EVPI={e.value:.2f} "
          f"VSS={s.value:.2f} recourse ok={checks[4]} {wall:.2f}s")


def test_criterion_06_oracle_equivalence_sweep(sweep6):
    ok = not sweep6["failures"] and sweep6["wall"] < 600.0
    _line(6, ok,
          f"{sweep6['runs']} runs over {N_SWEEP} instances: worst L-shaped rel "
          f"{sweep6['ls_worst']:.2e} (tol 1e-5), worst PH rel "
          f"{sweep6['ph_worst']:.2e} (tol 1e-3), worst PH rel against the HiGHS DEP "
          f"{sweep6['ph_highs_worst']:.2e} (tol 1e-3; kernel DEP against HiGHS "
          f"{sweep6['dep_highs_worst']:.2e}), {sweep6['wall']:.0f}s"
          + (f"; failures: {sweep6['failures'][:4]}" if sweep6["failures"] else ""))


def test_criterion_07_feasibility_cut_suite(sweep7):
    ok = not sweep7["failures"]
    _line(7, ok,
          f"{N_NORRC} non-complete-recourse instances: worst rel "
          f"{sweep7['worst']:.2e} (tol 1e-5), final points scenario-feasible, "
          f"{sweep7['wall']:.0f}s"
          + (f"; failures: {sweep7['failures'][:4]}" if sweep7["failures"] else ""))


def test_criterion_08_cut_validity(sweep6, sweep7):
    worst = max(sweep6["cut_worst"], sweep7["cut_worst"])
    ok = worst <= 1e-6
    _line(8, ok,
          f"optimality cuts at 10 sampled points per instance: worst "
          f"over-estimation {worst:.2e} (tol 1e-6)")


def test_criterion_09_ph_invariants(sweep6):
    p = simple_problem()
    ok = sweep6["drift_ok"]
    recompute_ok = True
    for pen in ("fixed", "adaptive"):
        rep = solve_ph(p, PhConfig(penalty=pen, r=1.0))
        for t in rep.trace:
            if t["multiplier_drift"] > 1e-6 * t["iteration"]:
                ok = False
        xs = rep.extras["scenario_decisions"]
        dual = float(p.probabilities @ np.sum((xs - rep.decision) ** 2, axis=1))
        if abs(dual - rep.gaps["dual_gap"]) > 1e-9:
            recompute_ok = False
    _line(9, ok and recompute_ok,
          f"multiplier conservation on all traced iterations; dual gap "
          f"recomputed from state within 1e-9: {recompute_ok}")


def test_criterion_10_saa():
    t0 = time.time()
    cfg = SaaConfig(rel_tol=5e-2, n0=16, batches=10, eval_samples=300)
    res = saa_solve(simple_model(), simple_sampler(), cfg, seed=0)
    normal_ok = res.report.relative_error <= 5e-2 and not res.budget_exceeded

    covered = 0
    sampler = simple_discrete_sampler()
    # evaluation noise of the two-point distribution dominates the interval
    # width, so these runs exit on the n-budget; coverage is what matters
    cal_cfg = SaaConfig(rel_tol=5e-2, n0=16, batches=10, eval_samples=300,
                        max_n=128)
    for seed in range(100):
        r = saa_solve(simple_model(), sampler, cal_cfg, seed=seed)
        if r.report.lo - 1e-9 <= -855.833333333333 <= r.report.hi + 1e-9:
            covered += 1
    wall = time.time() - t0
    ok = normal_ok and covered >= 90 and wall < 300.0
    _line(10, ok,
          f"normal-sampler rel err {res.report.relative_error:.4f} at n="
          f"{res.n} (tol 5e-2); discrete calibration coverage {covered}/100 "
          f"(need >= 90); {wall:.0f}s")


def test_criterion_11_measure_ordering(sweep6):
    anchors_ok = True
    for p in (simple_problem(), farmer_problem()):
        v, _ = vrp(p)
        w = ews(p)
        e, _ = eev(p)
        tol = 1e-6 * (1.0 + abs(v))
        anchors_ok = anchors_ok and (w <= v + tol) and (v <= e + tol)
    ok = anchors_ok and sweep6["ordering_worst"] <= 0.0
    _line(11, ok,
          f"EWS <= VRP <= EEV on textbook, farmer and {N_SWEEP} random "
          f"instances (worst violation {max(sweep6['ordering_worst'], 0):.2e})")


def test_criterion_12_async_protocol(sweep6):
    import threading

    n_checked = 0
    ok = True
    details = []
    for seed in list(sweep6["problems"])[:8]:
        p = sweep6["problems"][seed]
        serial = solve_lshaped(p, LShapedConfig(cuts="multi"))
        engine = ExecConfig(mode="async", workers=4, kappa=0.5)
        cfg = LShapedConfig(cuts="multi", execution=engine)
        coord = _Coordinator(p, cfg)
        slow = []

        def delayed(dec, idx, _coord=coord, _slow=slow):
            tid = threading.get_ident()
            if not _slow:
                _slow.append(tid)
            if tid == _slow[0]:
                time.sleep(0.05)
            return _coord.worker_payload(dec, idx)

        stats = run_async(coord, delayed, engine)
        obj = coord.U_best
        gap_tol = cfg.gap_tol * (1.0 + abs(obj)) * 2
        match = abs(obj - serial.extras["internal_objective"]) <= max(gap_tol, 1e-6)
        exactly_once = (stats.issued == stats.received
                        and stats.max_pair_multiplicity == 1)
        if not (match and exactly_once and coord.status == "optimal"):
            ok = False
            details.append((seed, match, exactly_once, coord.status))
        n_checked += 1
    _line(12, ok,
          f"{n_checked} instances with a 50 ms-delayed worker: no deadlock, "
          f"exactly-once processing, objectives match serial"
          + (f"; failures {details}" if details else ""))


SSN_DIR = os.environ.get("STOCHLP_SSN_DIR", os.path.join(os.path.dirname(__file__), "data"))


def test_criterion_13_ssn_dimensions_if_present():
    core = os.path.join(SSN_DIR, "ssn.cor")
    if not os.path.exists(core):
        print("criterion 13: SKIP - SSN SMPS triplet not supplied "
              "(timings out of scope; substituted by criteria 6, 8, 12)")
        pytest.skip("SSN fixture not present")
    from stochlp.smps import read_smps_files
    p = read_smps_files(core)
    ok = p.n == 89 and p.m == 706 and p.r == 175
    _line(13, ok, f"SSN dimensions n={p.n} m={p.m} r={p.r}")
