"""Measures: decision evaluation, EWS/EVPI/EEV/VSS, ordering, agnosticism."""

from dataclasses import replace

import numpy as np
import pytest

from stochlp import analysis, kernel, lshaped, model, sampling
from stochlp.analysis import InternalConsistencyError
from stochlp.errors import (
    FirstStageInfeasible,
    InfeasibleProblem,
    InfeasibleScenario,
    NumericalBreakdown,
)
from stochlp.fixtures import farmer_problem, simple_model, simple_problem, simple_sampler
from stochlp.model import (
    FirstStage,
    LPInstance,
    RecourseShape,
    Scenario,
    build_deterministic_equivalent,
    build_problem,
)

from _problems import dep_optimum, farmer_instance, infeasible_problem, random_rcr_problem


class TestEvaluateDecision:
    def test_farmer_optimal_decision(self):
        val = analysis.evaluate_decision(farmer_problem(), [170.0, 80.0, 250.0])
        assert val == pytest.approx(-108390.0, abs=1e-3)

    def test_iteration_limit_raises_naming_the_scenario(self, monkeypatch):
        # a recourse LP stopped by the iteration limit has no value to report
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        with pytest.raises(kernel.NumericalBreakdown, match="scenario 0 ended iteration_limit"):
            analysis.evaluate_decision(farmer_problem(), [170.0, 80.0, 250.0])

    def test_scenarios_differing_only_in_bounds_are_solved_apart(self):
        # min x - 0.5 y1 - 0.5 y2 with y1 <= 2, y2 <= 10 at x = 0: -6
        p = build_problem(
            FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                       lb=[0.0], ub=[4.0]),
            RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",), ub=[10.0]),
            [Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0], ub=[2.0]),
             Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0])])
        assert analysis.evaluate_decision(p, [0.0]) == -6.0

    def test_single_scenario_dep_optimum(self):
        p = build_problem(
            FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                       lb=[0.0], ub=[4.0]),
            RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",)),
            [Scenario(probability=1.0, q=[2.0], T=[[-1.0]], h=[1.0])])
        sol = kernel.solve_lp(build_deterministic_equivalent(p))
        val = analysis.evaluate_decision(p, sol.x[:1])
        assert val == pytest.approx(sol.objective, abs=1e-8)

    def test_textbook_pinned_decision_matches_bounded_dep(self):
        p = simple_problem()
        x = np.array([40.0, 20.0])
        val = analysis.evaluate_decision(p, x)
        pinned = build_problem(
            FirstStage(c=p.first.c, A=p.first.A, b=p.first.b,
                       row_senses=p.first.row_senses, lb=x, ub=x),
            p.shape,
            [Scenario(probability=w, q=q, T=T, h=h)
             for w, q, T, h in zip(p.probabilities, p.batch.q, p.batch.T, p.batch.h)])
        dep = kernel.solve_lp(build_deterministic_equivalent(pinned))
        assert val == pytest.approx(dep.objective, abs=1e-7)

    def test_first_stage_infeasible_raises(self):
        with pytest.raises(FirstStageInfeasible):
            analysis.evaluate_decision(simple_problem(), [0.0, 0.0])

    def test_second_stage_infeasible_reports_inf(self):
        from stochlp.fixtures import norrc1_problem
        p = norrc1_problem()
        val = analysis.evaluate_decision(p, [10.0, 0.0])
        assert val == np.inf


class TestMeasures:
    def test_textbook_evpi(self):
        res = analysis.evpi(simple_problem())
        assert res.value == pytest.approx(662.916666666667, abs=1e-3)

    def test_farmer_evpi(self):
        res = analysis.evpi(farmer_problem())
        assert res.value == pytest.approx(7015.6, abs=0.1)

    def test_farmer_vss(self):
        res = analysis.vss(farmer_problem())
        assert res.value == pytest.approx(1150.0, abs=0.1)

    def test_single_scenario_evpi_zero(self):
        p = build_problem(
            FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                       lb=[0.0], ub=[4.0]),
            RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",)),
            [Scenario(probability=1.0, q=[2.0], T=[[-1.0]], h=[1.0])])
        assert analysis.evpi(p).value == pytest.approx(0.0, abs=1e-8)
        assert analysis.ews(p) == pytest.approx(analysis.vrp(p)[0], abs=1e-8)

    def test_identical_scenarios_vss_zero(self):
        p0 = simple_problem()
        q, T, h = p0.batch.q[0], p0.batch.T[0], p0.batch.h[0]
        twin = build_problem(
            p0.first, p0.shape,
            [Scenario(probability=0.5, q=q, T=T, h=h),
             Scenario(probability=0.5, q=q, T=T, h=h)])
        assert analysis.vss(twin).value == pytest.approx(0.0, abs=1e-6)

    def test_textbook_ews_identity(self):
        p = simple_problem()
        v, _ = analysis.vrp(p)
        w = analysis.ews(p)
        assert v - w == pytest.approx(662.916666666667, abs=1e-3)

    def test_ordering_chain_on_random_instances(self):
        for seed in range(20):
            p = random_rcr_problem(seed)
            v, _ = analysis.vrp(p)
            w = analysis.ews(p)
            e, _ = analysis.eev(p)
            tol = 1e-6 * (1.0 + abs(v))
            assert w <= v + tol
            assert v <= e + tol

    def test_negative_clamp_keeps_raw(self):
        p = simple_problem()
        res = analysis.evpi(p)
        assert "raw" in res.components

    def test_all_measures_match_evpi_and_vss(self):
        p = farmer_problem()
        measures = analysis.all_measures(p)
        for single in (analysis.evpi(p), analysis.vss(p)):
            res = measures[single.measure]
            assert (res.value, res.flags) == (single.value, single.flags)
            assert res.components.keys() == single.components.keys()
            for key, val in single.components.items():
                np.testing.assert_array_equal(res.components[key], val)

    def test_consistency_error_for_bad_values(self):
        from stochlp.analysis import _clamp
        with pytest.raises(InternalConsistencyError):
            _clamp("EVPI", -1.0, 1.0)
        assert _clamp("EVPI", -1e-9, 1.0)[0] == 0.0


class TestInfeasibleProgram:
    """An infeasible program fails as infeasible in every measure, not as a breakdown."""

    @pytest.mark.parametrize("measure, copies", [
        pytest.param(analysis.vrp, 1, id="vrp"),
        pytest.param(analysis.expected_value_decision, 1, id="expected_value_decision"),
        pytest.param(analysis.vrp, 200, id="vrp-past-the-dep-budget")])
    def test_raises_infeasible_problem(self, measure, copies):
        with pytest.raises(InfeasibleProblem, match="ended infeasible"):
            measure(infeasible_problem(copies))

    def test_ews_names_the_scenario(self):
        with pytest.raises(InfeasibleScenario) as exc:
            analysis.ews(infeasible_problem())
        assert exc.value.scenario == 0
        assert "L-shaped" not in str(exc.value)


class TestSolverAgnosticism:
    def test_measures_same_under_all_solvers(self):
        from stochlp.lshaped import LShapedConfig, solve_lshaped
        from stochlp.phedging import PhConfig, solve_ph
        p = farmer_problem()
        v_dep, _ = dep_optimum(p)
        v_ls = solve_lshaped(p, LShapedConfig()).extras["internal_objective"]
        v_ph = solve_ph(p, PhConfig(penalty="fixed", r=1.0)).extras["internal_objective"]
        w = analysis.ews(p)
        evpi_dep = v_dep - w
        evpi_ls = v_ls - w
        evpi_ph = v_ph - w
        assert evpi_ls == pytest.approx(evpi_dep, abs=1e-2)
        assert evpi_ph == pytest.approx(evpi_dep, abs=1.0)   # PH gap tolerance

    def test_evaluation_consistency_with_dep_optimizer(self):
        for seed in range(10):
            p = random_rcr_problem(seed)
            v, x = dep_optimum(p)
            val = analysis.evaluate_decision(p, x)
            assert val == pytest.approx(v, rel=1e-6, abs=1e-6)


INSTANCES = {"simple": lambda n: sampling._batch_instance(simple_model(), simple_sampler(), n,
                                                          seed=n),
             "farmer": lambda S: farmer_instance(S, seed=S)}


def _first_stage_violation(p, x):
    first = p.first
    return kernel.primal_violation(
        LPInstance(c=np.zeros(first.n), A=first.A, rhs=first.b, row_senses=first.row_senses,
                   lb=first.lb, ub=first.ub), x)


class TestRowBudget:
    """``vrp`` solves the DEP whole below ``lshaped.DEP_ROW_BUDGET`` rows, L-shaped above."""

    @pytest.mark.parametrize("family, size", [
        ("simple", 16), ("simple", 64), ("simple", 256), ("farmer", 30), ("farmer", 150)],
        ids=str)
    def test_both_sides_agree(self, monkeypatch, family, size):
        p = INSTANCES[family](size)
        sides = []
        for budget in (0, 10**9):
            monkeypatch.setattr(lshaped, "DEP_ROW_BUDGET", budget)
            v, x = analysis.vrp(p)
            assert _first_stage_violation(p, x) <= 1e-7
            assert analysis.evaluate_decision(p, x) == pytest.approx(v, rel=1e-9)
            sides.append(v)
        assert sides[0] == pytest.approx(sides[1], rel=1e-9)

    def test_saa_interval_same_on_both_sides(self, monkeypatch):
        cfg = sampling.SaaConfig(n0=64, max_n=64, batches=4, eval_samples=200)
        reports = []
        for budget in (0, 10**9):
            monkeypatch.setattr(lshaped, "DEP_ROW_BUDGET", budget)
            reports.append(sampling.saa_solve(simple_model(), simple_sampler(), cfg, seed=3).report)
        lshaped_side, dep_side = reports
        assert lshaped_side.lo == pytest.approx(dep_side.lo, rel=1e-9)
        assert lshaped_side.hi == pytest.approx(dep_side.hi, rel=1e-9)

    def test_kernel_config_reaches_the_lshaped_run(self, monkeypatch):
        monkeypatch.setattr(lshaped, "DEP_ROW_BUDGET", 0)
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        with pytest.raises(NumericalBreakdown, match="recourse LP of scenario 0 ended iteration_limit"):
            analysis.vrp(farmer_problem())

    def test_iteration_limit_raises_numerical_breakdown(self, monkeypatch):
        monkeypatch.setattr(lshaped, "DEP_ROW_BUDGET", 0)
        run = lshaped.solve_lshaped
        monkeypatch.setattr(lshaped, "solve_lshaped",
                            lambda p, cfg: run(p, replace(cfg, max_iterations=1)))
        with pytest.raises(NumericalBreakdown, match="L-shaped run ended iteration_limit"):
            analysis.vrp(farmer_problem())

    def test_no_dep_past_the_budget(self, monkeypatch):
        def refuse(p):
            raise AssertionError(f"DEP of {p.nscen} scenarios built")
        monkeypatch.setattr(model, "build_deterministic_equivalent", refuse)
        cfg = sampling.SaaConfig(n0=1024, max_n=1024, batches=2, eval_samples=100)
        res = sampling.saa_solve(simple_model(), simple_sampler(), cfg, seed=0)
        assert (res.n, res.rounds) == (1024, 1)
        measures = analysis.all_measures(farmer_instance(1000, seed=0))
        assert measures["evpi"].value >= 0.0 and measures["vss"].value >= 0.0


class TestSampledCalibration:
    def test_evpi_interval_covers_truth(self):
        # repeated-run calibration on the 2-point sampler: the EVPI interval
        # should cover the exact 662.9167 in nearly every seeded run
        from stochlp.analysis import sampled_measures
        from stochlp.fixtures import simple_discrete_sampler, simple_model
        from stochlp.sampling import SaaConfig
        cfg = SaaConfig(rel_tol=5e-2, n0=16, batches=8, eval_samples=200,
                        max_n=128)
        model = simple_model()
        sampler = simple_discrete_sampler()
        covered = 0
        runs = 40
        for seed in range(runs):
            out = sampled_measures(model, sampler, cfg, seed=seed)
            iv = out["evpi"].interval
            if iv.lo - 1e-9 <= 662.916666666667 <= iv.hi + 1e-9:
                covered += 1
        assert covered >= int(0.9 * runs)
