"""L-shaped solver: cuts, aggregation, policies, and DEP agreement."""

import numpy as np
import pytest

from stochlp import analysis, kernel
from stochlp.errors import ConfigError, MasterInfeasible, MixedOutcome, NotInfeasible
from stochlp.execution import ExecConfig
from stochlp.fixtures import farmer_problem, norrc1_problem, simple_problem
from stochlp.lshaped import (
    LShapedConfig,
    aggregate_cuts,
    make_bundles,
    make_feasibility_cut,
    make_optimality_cut,
    solve_lshaped,
    solve_subproblem,
)
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_problem,
)

from _problems import first_stage_feasible_points, random_rcr_problem


def _outcomes_at(problem, x):
    outs = []
    for s, sc in enumerate(problem.scenarios):
        out, _ = solve_subproblem(problem.shape, sc, np.asarray(x, float),
                                  scenario_index=s)
        outs.append(out)
    return outs


class TestSubproblem:
    def test_textbook_value_matches_singleton_dep(self):
        p = simple_problem()
        x = np.array([40.0, 20.0])
        out, _ = solve_subproblem(p.shape, p.scenarios[0], x, scenario_index=0)
        assert out.feasible
        sc = p.scenarios[0]
        singleton = build_problem(
            FirstStage(c=p.first.c, A=p.first.A, b=p.first.b,
                       row_senses=p.first.row_senses,
                       lb=x, ub=x),          # pin x by bounds
            p.shape, [Scenario(probability=1.0, q=sc.q, T=sc.T, h=sc.h)])
        from stochlp.model import build_deterministic_equivalent
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert out.value == pytest.approx(dep.objective - p.first.c @ x, abs=1e-7)

    def test_one_dimensional_infeasibility_measure(self):
        # y = h - x with y >= 0: at x > h the measure is x - h
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[2.0])
        out, _ = solve_subproblem(shape, sc, np.array([5.0]), scenario_index=0)
        assert not out.feasible
        assert out.value == pytest.approx(3.0, abs=1e-8)

    def test_farmer_recourse_at_optimum(self):
        p = farmer_problem()
        out, _ = solve_subproblem(p.shape, p.scenarios[0],
                                  np.array([170.0, 80.0, 250.0]), scenario_index=0)
        np.testing.assert_allclose(out.y, [0, 0, 310, 48, 6000, 0], atol=1e-3)

    def test_unbounded_subproblem_raises(self):
        from stochlp.errors import UnboundedSubproblem
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        sc = Scenario(probability=1.0, q=[-1.0], T=[[0.0]], h=[0.0])
        with pytest.raises(UnboundedSubproblem):
            solve_subproblem(shape, sc, np.array([0.0]), scenario_index=3)

    def test_iteration_limit_raises_naming_the_scenario(self):
        p = farmer_problem()
        with pytest.raises(kernel.NumericalBreakdown,
                           match="recourse LP of scenario 2 ended iteration_limit"):
            solve_subproblem(p.shape, p.scenarios[2], np.array([170.0, 80.0, 250.0]),
                             kernel.KernelConfig(max_iterations=1), scenario_index=2)


class TestCuts:
    def test_optimality_cut_tight_at_generator(self):
        p = simple_problem()
        x = np.array([45.0, 30.0])
        outs = _outcomes_at(p, x)
        cut = make_optimality_cut(outs, p.probabilities)
        expected = sum(p.probabilities[s] * outs[s].value for s in range(2))
        assert cut.value_at(x) == pytest.approx(expected, abs=1e-7)
        assert cut.source == frozenset({0, 1})

    def test_constant_cut_when_t_zero(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[2.0])
        out, _ = solve_subproblem(shape, sc, np.array([7.0]), scenario_index=0)
        cut = make_optimality_cut([out], [1.0])
        np.testing.assert_allclose(cut.gradient, [0.0])
        assert cut.rhs == pytest.approx(2.0, abs=1e-9)   # theta >= q * h = 2

    def test_cut_never_overestimates(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            p = random_rcr_problem(seed)
            pts = first_stage_feasible_points(p, 10, seed)
            gen = pts[0]
            outs = _outcomes_at(p, gen)
            cut = make_optimality_cut(outs, p.probabilities)
            for x in pts:
                true = sum(p.probabilities[s] * o.value
                           for s, o in enumerate(_outcomes_at(p, x)))
                assert cut.value_at(x) <= true + 1e-6

    def test_mixed_outcome_rejected(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[2.0])
        bad, _ = solve_subproblem(shape, sc, np.array([5.0]), scenario_index=0)
        with pytest.raises(MixedOutcome):
            make_optimality_cut([bad], [1.0])

    def test_feasibility_cut_violated_by_generator(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[2.0])
        x = np.array([5.0])
        out, _ = solve_subproblem(shape, sc, x, scenario_index=0)
        cut = make_feasibility_cut(out)
        assert cut.rhs - cut.gradient @ x > 1e-8        # violated at generator
        # the cut reduces to x <= 2 after normalization
        ok = np.array([1.5])
        assert cut.gradient @ ok >= cut.rhs - 1e-9

    def test_not_infeasible_rejected(self):
        p = simple_problem()
        out = _outcomes_at(p, [40.0, 20.0])[0]
        with pytest.raises(NotInfeasible):
            make_feasibility_cut(out)


class TestAggregation:
    def test_bundle_layout_example(self):
        groups = make_bundles(6000, "partial", 32)
        assert len(groups) == 188
        assert all(len(g) == 32 for g in groups[:187])
        assert len(groups[-1]) == 6000 - 187 * 32

    def test_boundary_policies(self):
        assert make_bundles(5, "partial", 1) == make_bundles(5, "multi", 1)
        assert make_bundles(5, "partial", 5) == make_bundles(5, "single", 1)

    def test_five_scenarios_bundle_two(self):
        assert make_bundles(5, "partial", 2) == [[0, 1], [2, 3], [4]]

    def test_partial_one_equals_multi_cuts(self):
        p = simple_problem()
        outs = _outcomes_at(p, [50.0, 40.0])
        multi = aggregate_cuts(outs, p.probabilities, "multi")
        partial = aggregate_cuts(outs, p.probabilities, "partial", bundle_size=1)
        assert len(multi) == len(partial) == 2
        for a, b in zip(multi, partial):
            np.testing.assert_allclose(a.gradient, b.gradient)
            assert a.rhs == pytest.approx(b.rhs)

    def test_partial_full_equals_single_cut(self):
        p = simple_problem()
        outs = _outcomes_at(p, [50.0, 40.0])
        single = aggregate_cuts(outs, p.probabilities, "single")
        partial = aggregate_cuts(outs, p.probabilities, "partial", bundle_size=2)
        assert len(single) == len(partial) == 1
        np.testing.assert_allclose(single[0].gradient, partial[0].gradient)


class TestSolve:
    def test_textbook_multi_cut(self):
        rep = solve_lshaped(simple_problem(), LShapedConfig(cuts="multi"))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(-855.8333333333358, abs=1e-3)

    def test_farmer(self):
        rep = solve_lshaped(farmer_problem(), LShapedConfig(cuts="multi"))
        assert rep.objective == pytest.approx(-108390.0, abs=1e-3)
        np.testing.assert_allclose(rep.decision, [170.0, 80.0, 250.0], atol=1e-4)

    @pytest.mark.parametrize("reg", ["none", "tr", "rd", "level"])
    def test_textbook_all_regularizations(self, reg):
        rep = solve_lshaped(simple_problem(),
                            LShapedConfig(cuts="multi", regularization=reg))
        assert rep.objective == pytest.approx(-855.8333, abs=1e-3)

    def test_lower_bound_monotone_without_regularization(self):
        for seed in range(5):
            p = random_rcr_problem(seed)
            rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
            lows = [t["lower"] for t in rep.trace if np.isfinite(t["lower"])]
            assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))

    def test_sandwich_property(self):
        for seed in range(5):
            p = random_rcr_problem(seed)
            v, _ = analysis.vrp(p)
            rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
            for t in rep.trace:
                if np.isfinite(t["lower"]):
                    assert t["lower"] <= v + 1e-6 * (1 + abs(v))
                if np.isfinite(t["upper"]):
                    assert t["upper"] >= v - 1e-6 * (1 + abs(v))

    def test_trust_region_box_respected(self):
        p = simple_problem()
        cfg = LShapedConfig(cuts="multi", regularization="tr", tr_delta0=1.0)
        # instrument: wrap the master to record candidates and the active box
        from stochlp import lshaped as m

        seen = []
        orig = m.MasterState.solve_plain

        def spy(self, tr_center=None, tr_delta=None):
            res = orig(self, tr_center=tr_center, tr_delta=tr_delta)
            if tr_center is not None:
                seen.append((res[0].copy(), tr_center.copy(), tr_delta))
            return res

        m.MasterState.solve_plain = spy
        try:
            solve_lshaped(p, cfg)
        finally:
            m.MasterState.solve_plain = orig
        assert seen
        for cand, center, delta in seen:
            assert np.max(np.abs(cand - center)) <= delta + 1e-9

    def test_incumbent_first_stage_feasible(self):
        for seed in range(5):
            p = random_rcr_problem(seed)
            rep = solve_lshaped(p, LShapedConfig())
            from stochlp.model import LPInstance
            probe = LPInstance(c=np.zeros(p.n), A=p.first.A, rhs=p.first.b,
                               row_senses=p.first.row_senses, lb=p.first.lb,
                               ub=p.first.ub)
            assert kernel.primal_violation(probe, rep.decision) <= 1e-7

    def test_iteration_limit_flagged(self):
        rep = solve_lshaped(farmer_problem(), LShapedConfig(cuts="single", max_iterations=2))
        assert rep.status == "iteration_limit"
        assert rep.iterations == len(rep.trace) == 2
        with pytest.raises(ConfigError):
            LShapedConfig(max_iterations=0)

    def test_master_infeasible(self):
        first = FirstStage(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 3.0],
                           row_senses=("<=", ">="), lb=[0.0], ub=[10.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        scen = [Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        with pytest.raises(MasterInfeasible):
            solve_lshaped(p, LShapedConfig())


class TestScenarioBoundOverrides:
    def test_solvers_agree_with_per_scenario_bounds(self):
        first = FirstStage(c=[2.0, -1.0], A=[[1.0, 1.0]], b=[3.0],
                           row_senses=("<=",), lb=[0.0, 0.0], ub=[3.0, 3.0])
        shape = RecourseShape(W=[[1.0, 0.5], [0.0, 1.0]], sense="min",
                              row_senses=(">=", ">="), ub=[5.0, 5.0])
        scen = [Scenario(probability=0.3, q=[1.0, 0.5],
                         T=[[-1.0, 0.0], [0.0, -1.0]], h=[-1.0, 0.5],
                         ub=[2.0, 5.0]),
                Scenario(probability=0.7, q=[0.8, 1.2],
                         T=[[-0.5, -0.5], [0.0, -1.0]], h=[0.5, 1.0],
                         lb=[0.1, 0.0])]
        p = build_problem(first, shape, scen)
        v, _ = analysis.vrp(p)
        rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
        assert rep.extras["internal_objective"] == pytest.approx(v, rel=1e-5,
                                                                 abs=1e-7)


class TestFeasibilityCuts:
    def test_norrc_fixture_matches_dep(self):
        p = norrc1_problem()
        v, _ = analysis.vrp(p)
        rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(v, rel=1e-5, abs=1e-7)
        assert rep.cut_counts["feasibility"] > 0

    def test_final_point_scenario_feasible(self):
        from _problems import random_norrc_problem
        for seed in range(5):
            p = random_norrc_problem(seed)
            rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
            assert rep.status == "optimal"
            for s, sc in enumerate(p.scenarios):
                out, _ = solve_subproblem(p.shape, sc, rep.decision,
                                          scenario_index=s)
                assert out.feasible


@pytest.fixture
def lp_solves(monkeypatch):
    """Every LPSolution that kernel.solve_lp returns while the test runs."""
    solves = []
    solve_lp = kernel.solve_lp
    monkeypatch.setattr(kernel, "solve_lp",
                        lambda *a, **kw: solves.append(solve_lp(*a, **kw)) or solves[-1])
    return solves


class TestMaster:
    def test_master_resolve_after_violated_cuts_takes_dual_pivots(self, lp_solves):
        from stochlp.lshaped import MasterState
        p = farmer_problem()
        st = MasterState(p, p.nscen, -1e10)
        x, theta, _ = st.solve_plain()
        for cut in aggregate_cuts(_outcomes_at(p, x), p.probabilities, "multi"):
            assert cut.value_at(x) > theta[cut.aggregate]
            st.add_cut(cut)
        lp_solves.clear()
        _, _, value = st.solve_plain()
        (sol,) = lp_solves
        assert sol.extras["pivots"]["dual"] >= 1
        assert sol.extras["pivots"]["phase1"] == sol.extras["pivots"]["phase2"] == 0
        assert value == pytest.approx(kernel.solve_lp(st._instance()).objective, rel=1e-9)


    def test_iteration_limit_raises_naming_the_master(self):
        # an iterate stopped by the limit may break the first stage; it is no candidate
        from stochlp.lshaped import MasterState
        p = farmer_problem()
        st = MasterState(p, 1, -1e10, kernel.KernelConfig(max_iterations=1))
        st.add_cut(make_optimality_cut(_outcomes_at(p, [170.0, 80.0, 250.0]),
                                       p.probabilities))
        with pytest.raises(kernel.NumericalBreakdown, match="master LP ended iteration_limit"):
            st.solve_plain()


class TestConsolidation:
    def test_all_active_none_removed(self):
        from stochlp.lshaped import MasterState
        p = simple_problem()
        st = MasterState(p, 2, -1e10)
        rep = solve_lshaped(p, LShapedConfig())     # smoke: cuts exist somewhere
        assert st.consolidate(1) == 0               # no cuts, nothing to remove

    def test_stale_cut_removed(self):
        from stochlp.lshaped import Cut, MasterState
        p = simple_problem()
        st = MasterState(p, 1, -1e10)
        cut = Cut(kind="optimality", gradient=np.array([0.0, 0.0]), rhs=-1e9,
                  source=frozenset({0, 1}), aggregate=0)
        st.add_cut(cut)
        binding = Cut(kind="optimality", gradient=np.array([1.0, 1.0]), rhs=100.0,
                      source=frozenset({0, 1}), aggregate=0)
        st.add_cut(binding)
        st.solve_plain()
        assert st.consolidate(1) == 1               # the slack cut goes
        assert len(st.cuts) == 1

    def test_consolidation_keeps_the_warm_basis(self, lp_solves):
        from stochlp.lshaped import MasterState
        p = farmer_problem()
        rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
        st = MasterState(p, p.nscen, -1e10)
        for cut in rep.extras["_cuts"]:
            st.add_cut(cut)
        st.solve_plain()
        st.solve_plain()
        assert st.consolidate(1) > 0
        lp_solves.clear()
        _, _, value = st.solve_plain()
        (warm,) = lp_solves
        cold = kernel.solve_lp(st._instance())
        assert value == pytest.approx(cold.objective, rel=1e-9)
        assert warm.iterations < cold.iterations

    def test_consolidation_drops_a_warm_basis_with_nonbasic_dropped_slack(self):
        from stochlp.lshaped import Cut, MasterState
        p = simple_problem()
        st = MasterState(p, 1, -1e10)
        cut = Cut(kind="optimality", gradient=np.array([1.0, 1.0]), rhs=100.0,
                  source=frozenset({0, 1}), aggregate=0)
        st.add_cut(cut)
        st.solve_plain()                             # binding: its slack is nonbasic
        st.inactive[id(cut)] = 1
        assert st.consolidate(1) == 1
        assert st._warm is None

    def test_feasibility_cuts_never_removed(self):
        from stochlp.lshaped import Cut, MasterState
        p = simple_problem()
        st = MasterState(p, 1, -1e10)
        fcut = Cut(kind="feasibility", gradient=np.array([1.0, 0.0]), rhs=41.0,
                   source=frozenset({0}))
        st.add_cut(fcut)
        ocut = Cut(kind="optimality", gradient=np.array([1.0, 1.0]), rhs=50.0,
                   source=frozenset({0, 1}), aggregate=0)
        st.add_cut(ocut)
        for _ in range(4):
            st.solve_plain()
        st.consolidate(1)
        assert any(c.kind == "feasibility" for c in st.cuts)

    def test_consolidated_run_same_objective(self):
        plain = LShapedConfig(cuts="multi", consolidation=False)
        consolidated = LShapedConfig(cuts="multi", consolidation=True,
                                     consolidation_threshold=2, consolidation_period=3)
        for seed in range(5):
            p = random_rcr_problem(seed)
            a = solve_lshaped(p, plain)
            b = solve_lshaped(p, consolidated)
            assert a.extras["internal_objective"] == pytest.approx(
                b.extras["internal_objective"], rel=1e-5, abs=1e-6)
        # async consolidates too; on seed 9 stale cuts are dropped
        p = random_rcr_problem(9)
        engine = ExecConfig(mode="async", workers=1, kappa=1.0)
        a = solve_lshaped(p, plain, engine=engine)
        b = solve_lshaped(p, consolidated, engine=engine)
        assert a.extras["internal_objective"] == pytest.approx(
            b.extras["internal_objective"], rel=1e-5, abs=1e-6)
        assert b.cut_counts["optimality"] < a.cut_counts["optimality"]


class TestExecutionModes:
    def test_one_worker_sync_identical_to_serial(self):
        p = simple_problem()
        a = solve_lshaped(p, LShapedConfig(), engine=ExecConfig(mode="serial"))
        b = solve_lshaped(p, LShapedConfig(),
                          engine=ExecConfig(mode="sync", workers=1))
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.decision, b.decision)

    def test_sync_matches_serial(self):
        p = simple_problem()
        a = solve_lshaped(p, LShapedConfig(), engine=ExecConfig(mode="serial"))
        b = solve_lshaped(p, LShapedConfig(),
                          engine=ExecConfig(mode="sync", workers=4))
        assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_sync_deterministic_across_runs(self):
        p = random_rcr_problem(3)
        vals = set()
        for _ in range(3):
            rep = solve_lshaped(p, LShapedConfig(),
                                engine=ExecConfig(mode="sync", workers=4))
            vals.add(round(rep.extras["internal_objective"], 9))
        assert len(vals) == 1

    def test_async_kappa_one_matches(self):
        p = simple_problem()
        rep = solve_lshaped(p, LShapedConfig(),
                            engine=ExecConfig(mode="async", workers=2, kappa=1.0))
        assert rep.objective == pytest.approx(-855.8333333, abs=1e-3)
        st = rep.extras["async"]
        assert st["issued"] == st["received"]
        assert st["max_pair_multiplicity"] == 1

    def test_async_kappa_one_single_worker_replays_serial(self):
        p = random_rcr_problem(0)
        a = solve_lshaped(p, LShapedConfig(cuts="multi"))
        b = solve_lshaped(p, LShapedConfig(cuts="multi"),
                          engine=ExecConfig(mode="async", workers=1, kappa=1.0))
        assert (a.status, a.iterations, a.cut_counts, a.objective) == \
            (b.status, b.iterations, b.cut_counts, b.objective)
        np.testing.assert_array_equal(a.decision, b.decision)
        drop_wall = [{k: v for k, v in t.items() if k != "wall"} for t in a.trace]
        assert drop_wall == [{k: v for k, v in t.items() if k != "wall"} for t in b.trace]

    def test_async_trace_counts_every_cut(self):
        rep = solve_lshaped(random_rcr_problem(0), LShapedConfig(cuts="multi"),
                            engine=ExecConfig(mode="async", workers=2, kappa=0.5))
        added = rep.cut_counts["added_total"]
        assert added > 0
        assert sum(t["cuts_added"] for t in rep.trace) == added
