"""L-shaped solver: cuts, aggregation, policies, and DEP agreement."""

from dataclasses import replace

import numpy as np
import pytest

from stochlp import kernel, lshaped
from stochlp.errors import ConfigError, MasterInfeasible, UnboundedSubproblem
from stochlp.execution import ExecConfig
from stochlp.fixtures import farmer_problem, norrc1_problem, simple_problem
from stochlp.lshaped import (
    BasisPool,
    Cuts,
    LShapedConfig,
    MasterState,
    aggregate_cuts,
    make_bundles,
    make_feasibility_cut,
    solve_lshaped,
    solve_recourse,
    solve_subproblem,
)
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_problem,
    stack_scenarios,
)

from _problems import (
    dep_optimum,
    first_stage_feasible_points,
    infeasible_problem,
    random_norrc_problem,
    random_rcr_problem,
    unbounded_recourse_problem,
)

REGULARIZATIONS = ["none", "tr", "rd", "level"]


def _recourse(batch, x):
    """The ``Recourse`` of every scenario of ``batch`` at x, from an empty pool."""
    return solve_recourse(BasisPool(batch), np.asarray(x, float), range(batch.size))


def _recourse_at(problem, x):
    return _recourse(problem.batch, x)


def _one(shape, sc, x):
    """The ``Recourse`` of the single scenario ``sc`` at x."""
    return _recourse(stack_scenarios(shape, [sc]), x)


def _single(nscen):
    """Every scenario in bundle 0: the single-cut ``bundle_of``."""
    return np.zeros(nscen, dtype=int)


def _cut(gradient, rhs, slot=0, scenario=-1):
    """A block of one cut: an optimality cut in θ slot ``slot``, or with
    ``slot=-1`` the feasibility cut of ``scenario``."""
    return Cuts(np.array([gradient], float), np.array([rhs], float), np.array([slot]),
                np.array([scenario]))


class TestSubproblem:
    def test_textbook_value_matches_singleton_dep(self):
        p = simple_problem()
        x = np.array([40.0, 20.0])
        sol = solve_subproblem(p.batch, 0, x)
        assert sol.status == kernel.OPTIMAL
        b = p.batch
        singleton = build_problem(
            FirstStage(c=p.first.c, A=p.first.A, b=p.first.b,
                       row_senses=p.first.row_senses,
                       lb=x, ub=x),          # pin x by bounds
            p.shape, [Scenario(probability=1.0, q=b.q[0], T=b.T[0], h=b.h[0])])
        from stochlp.model import build_deterministic_equivalent
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert sol.objective == pytest.approx(dep.objective - p.first.c @ x, abs=1e-7)
        rec = _recourse_at(p, x)
        assert rec.feasible[0] and rec.value[0] == sol.objective

    def test_one_dimensional_infeasibility_measure(self):
        # y = h - x with y >= 0: at x > h the measure is x - h
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[2.0])
        rec = _one(shape, sc, [5.0])
        assert not rec.feasible[0]
        assert rec.value[0] == pytest.approx(3.0, abs=1e-8)
        assert np.isnan(rec.y[0]).all()

    def test_farmer_recourse_at_optimum(self):
        p = farmer_problem()
        rec = _recourse_at(p, [170.0, 80.0, 250.0])
        np.testing.assert_allclose(rec.y[0], [0, 0, 310, 48, 6000, 0], atol=1e-3)

    def test_unbounded_subproblem_raises(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        sc = Scenario(probability=1.0, q=[-1.0], T=[[0.0]], h=[0.0])
        batch = stack_scenarios(shape, [sc] * 4)
        with pytest.raises(UnboundedSubproblem) as exc:
            solve_subproblem(batch, 3, np.array([0.0]))
        assert exc.value.scenario == 3

    def test_iteration_limit_raises_naming_the_scenario(self, monkeypatch):
        p = farmer_problem()
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        with pytest.raises(kernel.NumericalBreakdown,
                           match="recourse LP of scenario 2 ended iteration_limit"):
            solve_subproblem(p.batch, 2, np.array([170.0, 80.0, 250.0]))


class TestCuts:
    def test_optimality_cut_tight_at_generator(self):
        p = simple_problem()
        x = np.array([45.0, 30.0])
        rec = _recourse_at(p, x)
        cut = aggregate_cuts(rec, p.probabilities, _single(2))
        assert len(cut) == 1
        expected = sum(p.probabilities[s] * rec.value[s] for s in range(2))
        assert cut.value_at(x)[0] == pytest.approx(expected, abs=1e-7)
        assert cut.slot.tolist() == [0] and cut.scenario.tolist() == [-1]

    def test_constant_cut_when_t_zero(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[2.0])
        cut = aggregate_cuts(_one(shape, sc, [7.0]), np.ones(1), _single(1))
        np.testing.assert_allclose(cut.gradient, [[0.0]])
        np.testing.assert_allclose(cut.rhs, [2.0], rtol=0, atol=1e-9)   # theta >= q * h = 2

    def test_cut_never_overestimates(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            p = random_rcr_problem(seed)
            pts = first_stage_feasible_points(p, 10, seed)
            gen = pts[0]
            cut = aggregate_cuts(_recourse_at(p, gen), p.probabilities, _single(p.nscen))
            assert len(cut) == 1
            for x in pts:
                true = p.probabilities @ _recourse_at(p, x).value
                assert cut.value_at(x)[0] <= true + 1e-6

    def test_mixed_outcome_rejected(self):
        # h = 2 is infeasible at x = 5 and h = 9 is not: only the bundle without it gets a cut
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        rec = _recourse(stack_scenarios(shape, [Scenario(probability=1.0, q=[1.0], T=[[1.0]],
                                                         h=[h]) for h in (2.0, 9.0, 9.0)]),
                        [5.0])
        assert rec.feasible.tolist() == [False, True, True]
        assert len(aggregate_cuts(rec, np.full(3, 1 / 3), _single(3))) == 0
        cut = aggregate_cuts(rec, np.full(3, 1 / 3), np.array([0, 1, 1]))
        assert cut.slot.tolist() == [1] and cut.scenario.tolist() == [-1]
        assert cut.value_at(np.array([5.0])) == pytest.approx([2 / 3 * 4.0])

    def test_feasibility_cut_violated_by_generator(self):
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        sc = Scenario(probability=1.0, q=[1.0], T=[[1.0]], h=[2.0])
        x = np.array([5.0])
        cut = make_feasibility_cut(_one(shape, sc, x))
        assert cut.slot.tolist() == [-1] and cut.scenario.tolist() == [0]
        assert cut.value_at(x)[0] > 1e-8        # violated at generator
        # the cut reduces to x <= 2 after normalization
        ok = np.array([1.5])
        assert cut.value_at(ok)[0] <= 1e-9

    def test_a_fully_feasible_record_gives_an_empty_block(self):
        p = simple_problem()
        rec = _recourse_at(p, [40.0, 20.0])
        assert rec.feasible.all()
        cuts = make_feasibility_cut(rec)
        assert len(cuts) == 0 and cuts.gradient.shape == (0, p.n)


class TestCutStep:
    """``_Coordinator._cuts``: the violated cuts of one record, in bundle order."""

    @staticmethod
    def _step(theta_gap):
        # y = h_s - x, y >= 0: at x = 5 the middle bundle's h = 2 and h = 3 are infeasible
        first = FirstStage(c=[0.0], A=np.zeros((0, 1)), b=[], row_senses=(), lb=[0.0],
                           ub=[10.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",))
        p = build_problem(first, shape, [Scenario(probability=1 / 6, q=[1.0], T=[[1.0]],
                                                  h=[h]) for h in (9, 8, 2, 3, 7, 6)])
        coord = lshaped._Coordinator(p, LShapedConfig(cuts="partial", bundle_size=2))
        x = np.array([5.0])
        rec = solve_recourse(coord.pool, x, range(p.nscen))
        v = aggregate_cuts(rec, p.probabilities, coord.bundle_of).value_at(x)
        # theta sits theta_gap * (1 + |v|) below each bundle's cut value
        theta = np.full(3, -1e10)
        theta[[0, 2]] = v - theta_gap * (1.0 + np.abs(v))
        coord.payloads[0] = (x, theta)
        return rec, coord._cuts(rec, 0)

    def test_violated_cuts_come_in_bundle_order(self):
        rec, cuts = self._step(1e-3)
        assert rec.feasible.tolist() == [True, True, False, False, True, True]
        assert cuts.slot.tolist() == [0, -1, -1, 2]
        assert cuts.scenario.tolist() == [-1, 2, 3, -1]
        np.testing.assert_allclose(cuts.value_at(np.array([5.0]))[1:3], [3.0, 2.0])

    def test_a_cut_within_tolerance_of_its_theta_is_not_added(self):
        _, cuts = self._step(0.5e-9)
        assert cuts.slot.tolist() == [-1, -1]
        _, cuts = self._step(2e-9)
        assert cuts.slot.tolist() == [0, -1, -1, 2]

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_matches_the_cut_by_cut_step(self, seed):
        # the reference tests and sorts one cut at a time; between the optimum
        # and other first-stage points some bundles are infeasible, some not
        p = random_norrc_problem(seed)
        best = solve_lshaped(p).decision
        coord = lshaped._Coordinator(p, LShapedConfig(cuts="partial", bundle_size=2))
        rng = np.random.default_rng(seed)
        points = [best + t * (y - best) for y in first_stage_feasible_points(p, 3, seed)
                  for t in (0.05, 0.2, 0.5)]
        for k, x in enumerate(points):
            rec = solve_recourse(coord.pool, x, range(p.nscen))
            agg = aggregate_cuts(rec, p.probabilities, coord.bundle_of)
            feas = make_feasibility_cut(rec)
            theta = np.full(coord.state.K, -1e10)
            theta[agg.slot] = agg.value_at(x) + rng.normal(0.0, 1.0, len(agg))
            coord.payloads[k] = (x, theta)
            rows = [("f", i) for i in range(len(feas)) if feas.value_at(x)[i] > kernel.FEAS_TOL]
            rows += [("o", i) for i in range(len(agg)) if agg.value_at(x)[i] > theta[agg.slot[i]]
                     + 1e-9 * (1.0 + abs(agg.value_at(x)[i]))]
            rows.sort(key=lambda r: agg.slot[r[1]] if r[0] == "o"
                      else coord.bundle_of[feas.scenario[r[1]]])
            cuts = coord._cuts(rec, k)
            assert len(cuts) == len(rows)
            for j, (kind, i) in enumerate(rows):
                block = agg if kind == "o" else feas
                np.testing.assert_array_equal(cuts.gradient[j], block.gradient[i])
                assert (cuts.rhs[j], cuts.slot[j], cuts.scenario[j]) == \
                    (block.rhs[i], block.slot[i], block.scenario[i])


def _bundle_of(nscen, policy, bundle_size):
    bundles = make_bundles(nscen, policy, bundle_size)
    return np.repeat(np.arange(len(bundles)), [len(b) for b in bundles])


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
        rec = _recourse_at(p, [50.0, 40.0])
        multi = aggregate_cuts(rec, p.probabilities, _bundle_of(2, "multi", 1))
        partial = aggregate_cuts(rec, p.probabilities, _bundle_of(2, "partial", 1))
        assert len(multi) == len(partial) == 2
        np.testing.assert_allclose(multi.gradient, partial.gradient)
        np.testing.assert_allclose(multi.rhs, partial.rhs)
        assert multi.slot.tolist() == partial.slot.tolist() == [0, 1]
        np.testing.assert_allclose(multi.gradient, p.probabilities[:, None] * rec.gradient)
        np.testing.assert_allclose(multi.rhs, p.probabilities * rec.rhs)

    def test_partial_full_equals_single_cut(self):
        p = simple_problem()
        rec = _recourse_at(p, [50.0, 40.0])
        single = aggregate_cuts(rec, p.probabilities, _bundle_of(2, "single", 1))
        partial = aggregate_cuts(rec, p.probabilities, _bundle_of(2, "partial", 2))
        assert len(single) == len(partial) == 1
        np.testing.assert_allclose(single.gradient, partial.gradient)
        np.testing.assert_allclose(single.gradient[0], p.probabilities @ rec.gradient)


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
            v, _ = dep_optimum(p)
            rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
            for t in rep.trace:
                if np.isfinite(t["lower"]):
                    assert t["lower"] <= v + 1e-6 * (1 + abs(v))
                if np.isfinite(t["upper"]):
                    assert t["upper"] >= v - 1e-6 * (1 + abs(v))

    def test_trust_region_box_respected(self):
        p = simple_problem()
        cfg = LShapedConfig(cuts="multi", regularization="tr")
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

    def test_a_negative_gap_tolerance_is_rejected(self):
        with pytest.raises(ConfigError, match="gap_tol must be >= 0"):
            LShapedConfig(gap_tol=-1e-9)
        assert LShapedConfig(gap_tol=0.0).gap_tol == 0.0

    @pytest.mark.parametrize("reg", REGULARIZATIONS)
    def test_master_infeasible(self, reg):
        first = FirstStage(c=[1.0], A=[[1.0], [1.0]], b=[1.0, 3.0],
                           row_senses=("<=", ">="), lb=[0.0], ub=[10.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        scen = [Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        with pytest.raises(MasterInfeasible):
            solve_lshaped(p, LShapedConfig(regularization=reg))

    @pytest.mark.parametrize("reg", REGULARIZATIONS)
    def test_feasibility_cuts_that_empty_the_first_stage_raise(self, reg):
        # the unboxed master is solved before the trust-region one, so no box hides this
        with pytest.raises(MasterInfeasible):
            solve_lshaped(infeasible_problem(), LShapedConfig(regularization=reg))


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
        v, _ = dep_optimum(p)
        rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
        assert rep.extras["internal_objective"] == pytest.approx(v, rel=1e-5,
                                                                 abs=1e-7)


class TestFeasibilityCuts:
    @pytest.mark.parametrize("reg", REGULARIZATIONS)
    def test_norrc_fixture_matches_dep(self, reg):
        p = norrc1_problem()
        v, _ = dep_optimum(p)
        rep = solve_lshaped(p, LShapedConfig(cuts="multi", regularization=reg))
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(v, rel=1e-5, abs=1e-7)
        assert rep.cut_counts["feasibility"] > 0

    @pytest.mark.parametrize("reg", REGULARIZATIONS)
    def test_final_point_scenario_feasible(self, reg):
        for seed in range(5):
            p = random_norrc_problem(seed)
            rep = solve_lshaped(p, LShapedConfig(cuts="multi", regularization=reg))
            assert rep.status == "optimal"
            for s in range(p.nscen):
                assert solve_subproblem(p.batch, s, rep.decision).status == kernel.OPTIMAL


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
        p = farmer_problem()
        st = MasterState(p, p.nscen)
        x, theta, _ = st.solve_plain()
        cuts = aggregate_cuts(_recourse_at(p, x), p.probabilities, np.arange(p.nscen))
        assert (cuts.value_at(x) > theta[cuts.slot]).all()
        st.add_cuts(cuts)
        lp_solves.clear()
        _, _, value = st.solve_plain()
        (sol,) = lp_solves
        assert sol.extras["pivots"]["dual"] >= 1
        assert sol.extras["pivots"]["phase1"] == sol.extras["pivots"]["phase2"] == 0
        assert value == pytest.approx(kernel.solve_lp(st._instance()).objective, rel=1e-9)


    def test_trust_region_resolve_after_violated_cuts_takes_dual_pivots(self, lp_solves):
        p = farmer_problem()
        st = MasterState(p, p.nscen)
        center = np.array([150.0, 100.0, 250.0])
        x, theta, _ = st.solve_plain(tr_center=center, tr_delta=50.0)
        cuts = aggregate_cuts(_recourse_at(p, x), p.probabilities, np.arange(p.nscen))
        assert (cuts.value_at(x) > theta[cuts.slot]).all()
        st.add_cuts(cuts)
        lp_solves.clear()
        # the box moves to the new center and shrinks, as after a null step
        _, _, value = st.solve_plain(tr_center=x, tr_delta=25.0)
        (sol,) = lp_solves
        assert sol.extras["pivots"]["dual"] >= 1
        assert sol.extras["pivots"]["phase1"] == 0
        cold = kernel.solve_lp(st._instance(tr_center=x, tr_delta=25.0))
        assert value == pytest.approx(cold.objective, rel=1e-9)

    def test_iteration_limit_raises_naming_the_master(self, monkeypatch):
        # an iterate stopped by the limit may break the first stage; it is no candidate
        p = farmer_problem()
        st = MasterState(p, 1)
        st.add_cuts(aggregate_cuts(_recourse_at(p, [170.0, 80.0, 250.0]), p.probabilities,
                                   _single(p.nscen)))
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        with pytest.raises(kernel.NumericalBreakdown, match="master LP ended iteration_limit"):
            st.solve_plain()

    @pytest.mark.parametrize("reg", ["rd", "level"])
    def test_a_non_optimal_regularized_master_falls_back_and_is_counted(self, monkeypatch, reg):
        solve = kernel.solve_qp_diagonal
        monkeypatch.setattr(kernel, "solve_qp_diagonal", lambda qp: replace(
            solve(qp), status=np.full(qp.size, kernel.ITERATION_LIMIT, dtype=object)))
        rep = solve_lshaped(simple_problem(), LShapedConfig(cuts="multi", regularization=reg))
        assert rep.status == "optimal"
        assert sum(rec["master_fallbacks"] for rec in rep.trace) > 0
        v, _ = dep_optimum(simple_problem())
        assert rep.extras["internal_objective"] == pytest.approx(v, rel=1e-6)


class TestConsolidation:
    def test_all_active_none_removed(self):
        p = simple_problem()
        st = MasterState(p, 2)
        rep = solve_lshaped(p, LShapedConfig())     # smoke: cuts exist somewhere
        assert st.consolidate(1) == 0               # no cuts, nothing to remove

    def test_stale_cut_removed(self):
        p = simple_problem()
        st = MasterState(p, 1)
        st.add_cuts(_cut([0.0, 0.0], -1e9))
        st.add_cuts(_cut([1.0, 1.0], 100.0))        # binding
        st.solve_plain()
        assert st.consolidate(1) == 1               # the slack cut goes
        assert len(st.cuts) == 1 and st.cuts.rhs.tolist() == [100.0]

    def test_consolidation_keeps_the_warm_basis(self, lp_solves):
        p = farmer_problem()
        rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
        st = MasterState(p, p.nscen)
        st.add_cuts(rep.extras["_cuts"])
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
        p = simple_problem()
        st = MasterState(p, 1)
        st.add_cuts(_cut([1.0, 1.0], 100.0))
        st.solve_plain()                             # binding: its slack is nonbasic
        st.age[0] = 1
        assert st.consolidate(1) == 1
        assert st._warm is None

    def test_feasibility_cuts_never_removed(self):
        p = simple_problem()
        st = MasterState(p, 1)
        st.add_cuts(_cut([1.0, 0.0], 41.0, slot=-1, scenario=0))
        st.add_cuts(_cut([1.0, 1.0], 50.0))
        for _ in range(4):
            st.solve_plain()
        st.consolidate(1)
        assert (~st.cuts.optimality).any()

    def test_consolidated_run_same_objective(self, monkeypatch):
        monkeypatch.setattr(lshaped, "_CONSOLIDATE_AFTER", 2)
        monkeypatch.setattr(lshaped, "_CONSOLIDATE_EVERY", 3)
        plain = LShapedConfig(cuts="multi", consolidation=False)
        consolidated = LShapedConfig(cuts="multi", consolidation=True)
        for seed in range(5):
            p = random_rcr_problem(seed)
            a = solve_lshaped(p, plain)
            b = solve_lshaped(p, consolidated)
            assert a.extras["internal_objective"] == pytest.approx(
                b.extras["internal_objective"], rel=1e-5, abs=1e-6)
        # async consolidates too; on seed 9 stale cuts are dropped
        p = random_rcr_problem(9)
        engine = ExecConfig(mode="async", workers=1, kappa=1.0)
        a = solve_lshaped(p, replace(plain, execution=engine))
        b = solve_lshaped(p, replace(consolidated, execution=engine))
        assert a.extras["internal_objective"] == pytest.approx(
            b.extras["internal_objective"], rel=1e-5, abs=1e-6)
        assert b.cut_counts["optimality"] < a.cut_counts["optimality"]


class TestExecutionModes:
    def test_one_worker_sync_identical_to_serial(self):
        p = simple_problem()
        a = solve_lshaped(p, LShapedConfig(execution=ExecConfig(mode="serial")))
        b = solve_lshaped(p, LShapedConfig(execution=ExecConfig(mode="sync", workers=1)))
        assert a.objective == b.objective
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.decision, b.decision)

    def test_sync_matches_serial(self):
        p = simple_problem()
        a = solve_lshaped(p, LShapedConfig(execution=ExecConfig(mode="serial")))
        b = solve_lshaped(p, LShapedConfig(execution=ExecConfig(mode="sync", workers=4)))
        assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_sync_deterministic_across_runs(self):
        p = random_rcr_problem(3)
        vals = set()
        for _ in range(3):
            rep = solve_lshaped(p, LShapedConfig(execution=ExecConfig(mode="sync", workers=4)))
            vals.add(round(rep.extras["internal_objective"], 9))
        assert len(vals) == 1

    def test_async_kappa_one_matches(self):
        p = simple_problem()
        rep = solve_lshaped(p, LShapedConfig(
            execution=ExecConfig(mode="async", workers=2, kappa=1.0)))
        assert rep.objective == pytest.approx(-855.8333333, abs=1e-3)
        st = rep.extras["async"]
        assert st["issued"] == st["received"]
        assert st["max_pair_multiplicity"] == 1

    def test_async_kappa_one_single_worker_replays_serial(self):
        p = random_rcr_problem(0)
        a = solve_lshaped(p, LShapedConfig(cuts="multi"))
        b = solve_lshaped(p, LShapedConfig(
            cuts="multi", execution=ExecConfig(mode="async", workers=1, kappa=1.0)))
        assert (a.status, a.iterations, a.cut_counts, a.objective) == \
            (b.status, b.iterations, b.cut_counts, b.objective)
        np.testing.assert_array_equal(a.decision, b.decision)
        drop_wall = [{k: v for k, v in t.items() if k != "wall"} for t in a.trace]
        assert drop_wall == [{k: v for k, v in t.items() if k != "wall"} for t in b.trace]

    def test_async_trace_counts_every_cut(self):
        rep = solve_lshaped(random_rcr_problem(0), LShapedConfig(
            cuts="multi", execution=ExecConfig(mode="async", workers=2, kappa=0.5)))
        added = rep.cut_counts["added_total"]
        assert added > 0
        assert sum(t["cuts_added"] for t in rep.trace) == added

    @pytest.mark.parametrize("cuts, bundle_size", [("single", 1), ("multi", 1), ("partial", 2)],
                             ids=["single", "multi", "partial2"])
    @pytest.mark.parametrize("make", [random_rcr_problem, random_norrc_problem],
                             ids=["rcr", "norrc"])
    def test_async_bundles_replay_serial_waves(self, make, cuts, bundle_size):
        # one item of every bundle against one item per bundle, at kappa = 1
        per_record = ("cuts_added", "bunched", "lp_solved")
        for seed in range(20):
            p = make(seed)
            cfg = LShapedConfig(cuts=cuts, bundle_size=bundle_size)
            a = solve_lshaped(p, cfg)
            b = solve_lshaped(p, replace(cfg, execution=ExecConfig(mode="async", workers=1,
                                                                   kappa=1.0)))
            assert (a.status, a.iterations, a.cut_counts) == \
                (b.status, b.iterations, b.cut_counts)
            assert [[t[k] for k in per_record] for t in a.trace] == \
                [[t[k] for k in per_record] for t in b.trace]
            assert a.extras["internal_objective"] == pytest.approx(
                b.extras["internal_objective"], rel=1e-12)

    @pytest.fixture
    def recourse_calls(self, monkeypatch):
        """The scenario count of every ``lshaped.solve_recourse`` call."""
        calls = []
        solve = lshaped.solve_recourse
        monkeypatch.setattr(lshaped, "solve_recourse",
                            lambda pool, x, idx, *a, **kw: calls.append(len(idx))
                            or solve(pool, x, idx, *a, **kw))
        return calls

    @pytest.mark.parametrize("engine", [ExecConfig(mode="serial"),
                                        ExecConfig(mode="sync", workers=2)],
                             ids=["serial", "sync"])
    def test_a_wave_is_one_recourse_call(self, recourse_calls, engine):
        p = random_rcr_problem(0)
        rep = solve_lshaped(p, LShapedConfig(cuts="multi", execution=engine))
        assert recourse_calls == [p.nscen] * rep.iterations

    def test_an_async_item_is_one_bundle(self, recourse_calls):
        p = random_rcr_problem(0)
        rep = solve_lshaped(p, LShapedConfig(
            cuts="multi", execution=ExecConfig(mode="async", workers=1, kappa=1.0)))
        st = rep.extras["async"]
        assert st["issued"] == p.nscen * st["versions"]
        assert recourse_calls == [1] * st["issued"]

    @pytest.mark.parametrize("engine", [ExecConfig(mode="serial"),
                                        ExecConfig(mode="async", workers=2, kappa=0.5)],
                             ids=["serial", "async"])
    def test_unbounded_recourse_raises_itself_in_every_mode(self, engine):
        # a worker's package error is re-raised as is, not wrapped in WorkerPanic
        with pytest.raises(UnboundedSubproblem) as exc:
            solve_lshaped(unbounded_recourse_problem(), LShapedConfig(execution=engine))
        assert exc.value.scenario == 0
