"""Measures: decision evaluation, EWS/EVPI/EEV/VSS, ordering, agnosticism."""

import numpy as np
import pytest

from stochlp import analysis, kernel
from stochlp.analysis import InternalConsistencyError
from stochlp.errors import FirstStageInfeasible, InfeasibleProblem, InfeasibleScenario
from stochlp.fixtures import farmer_problem, simple_problem
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_deterministic_equivalent,
    build_problem,
)

from _problems import infeasible_problem, random_rcr_problem


class TestEvaluateDecision:
    def test_farmer_optimal_decision(self):
        val = analysis.evaluate_decision(farmer_problem(), [170.0, 80.0, 250.0])
        assert val == pytest.approx(-108390.0, abs=1e-3)

    def test_iteration_limit_raises_naming_the_scenario(self):
        # a recourse LP stopped by the iteration limit has no value to report
        cfg = kernel.KernelConfig(max_iterations=1)
        with pytest.raises(kernel.NumericalBreakdown, match="scenario 0 ended iteration_limit"):
            analysis.evaluate_decision(farmer_problem(), [170.0, 80.0, 250.0], cfg)

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
            [Scenario(probability=s.probability, q=s.q, T=s.T, h=s.h)
             for s in p.scenarios])
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
        sc = p0.scenarios[0]
        twin = build_problem(
            p0.first, p0.shape,
            [Scenario(probability=0.5, q=sc.q, T=sc.T, h=sc.h),
             Scenario(probability=0.5, q=sc.q, T=sc.T, h=sc.h)])
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

    @pytest.mark.parametrize("measure", [analysis.vrp, analysis.expected_value_decision])
    def test_raises_infeasible_problem(self, measure):
        with pytest.raises(InfeasibleProblem, match="ended infeasible"):
            measure(infeasible_problem())

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
        v_dep, _ = analysis.vrp(p)
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
            v, x = analysis.vrp(p)
            val = analysis.evaluate_decision(p, x)
            assert val == pytest.approx(v, rel=1e-6, abs=1e-6)


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
