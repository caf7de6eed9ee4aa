"""Progressive hedging: update formulas, invariants, and DEP agreement."""

from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest

from stochlp import kernel
from stochlp.errors import ConfigError, InfeasibleScenario, NumericalBreakdown
from stochlp.execution import ExecConfig
from stochlp.fixtures import farmer_problem, simple_model, simple_problem, simple_sampler
from stochlp.model import FirstStage, RecourseShape, Scenario, build_problem, build_wait_and_see
from stochlp.phedging import (
    PhConfig,
    ProximalStacks,
    aggregate_implementable,
    solve_ph,
    solve_ph_subproblem,
    update_multipliers,
    update_penalty,
)
from stochlp.sampling import _batch_instance

from _problems import dep_optimum, farmer_instance, random_rcr_problem, stack_of_one


class TestUpdates:
    def test_aggregate_identical_copies(self):
        xs = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        xi = aggregate_implementable(xs, [0.2, 0.5, 0.3])
        np.testing.assert_allclose(xi, [1.0, 2.0])

    def test_aggregate_weighted(self):
        xs = np.array([[0.0, 1.0], [1.0, 1.0]])
        xi = aggregate_implementable(xs, [0.4, 0.6])
        assert xi[0] == pytest.approx(0.6)

    def test_multipliers_unchanged_at_consensus(self):
        rho = np.array([[1.0], [-1.0]])
        xs = np.array([[2.0], [2.0]])
        out = update_multipliers(rho, xs, np.array([2.0]), 5.0)
        np.testing.assert_allclose(out, rho)

    def test_multiplier_hand_case(self):
        # r=2, x=(1),(3), pi=(.5,.5): xi=2, rho' = (-2, +2)
        xs = np.array([[1.0], [3.0]])
        xi = aggregate_implementable(xs, [0.5, 0.5])
        out = update_multipliers(np.zeros((2, 1)), xs, xi, 2.0)
        np.testing.assert_allclose(out, [[-2.0], [2.0]])

    def test_penalty_balanced_unchanged(self):
        assert update_penalty(1.0, 1.0, 3.0) == 3.0

    def test_penalty_grows_on_consensus_violation(self):
        # consensus violation (dual gap) dominating drives r up
        assert update_penalty(1.0, 100.0, 2.0) == 4.0

    def test_penalty_shrinks_when_xi_oscillates(self):
        assert update_penalty(100.0, 1.0, 2.0) == 1.0

    def test_penalty_clamped(self):
        assert update_penalty(1e9, 0.0, 2e-6) == pytest.approx(1e-6)


class TestSubproblem:
    def test_proximal_limit_pins_to_center(self):
        p = simple_problem()
        xi = np.array([50.0, 30.0])
        sol = solve_ph_subproblem(ProximalStacks(p), [0], xi, np.zeros((p.nscen, 2)), 1e6)
        np.testing.assert_allclose(sol.xs[0], xi, atol=1e-3)

    def test_infeasible_scenario_raises(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[1.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",),
                              ub=[0.5])
        sc = Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[2.0])
        p = build_problem(first, shape, [sc])
        with pytest.raises(InfeasibleScenario):
            solve_ph(p, PhConfig())

    def test_unconverged_qp_raises_naming_the_scenario(self, monkeypatch):
        p = simple_problem()
        monkeypatch.setattr(kernel, "IPM_MAX_ITERATIONS", 2)
        with pytest.raises(NumericalBreakdown, match="scenario 1 ended iteration_limit"):
            solve_ph_subproblem(ProximalStacks(p), [1], np.array([50.0, 30.0]),
                                np.zeros((p.nscen, 2)), 1.0)

    def test_the_lowest_stalled_scenario_of_a_bundle_is_named(self, monkeypatch):
        p = farmer_problem()
        data = ProximalStacks(p)
        xi, rho = np.array([170.0, 80.0, 250.0]), np.zeros((p.nscen, 3))

        def solve(limit, warm=None):
            with patch.object(kernel, "IPM_MAX_ITERATIONS", limit):
                return solve_ph_subproblem(data, range(p.nscen), xi, rho, 1.0, warm=warm)

        def solves(limit):
            try:
                solve(limit)
            except NumericalBreakdown:
                return False
            return True

        enough = next(k for k in range(1, 101) if solves(k))
        (_, qp), = data.groups
        # a restart far off needs more iterations than any cold start
        far = (np.full(qp.c.shape[1], 1e12), np.full(qp.g.shape[1], 1e-2), np.zeros(qp.bE.shape[1]))
        # the far-off members get one cold retry, which the cold limit suffices for
        assert solve(enough, warm=[None, far, far]).qp_retries == 2
        qp_solve = kernel.solve_qp_diagonal

        def cold_retry_stalls(qp, warm_start=None):
            if warm_start is not None:
                return qp_solve(qp, warm_start)
            with patch.object(kernel, "IPM_MAX_ITERATIONS", 1):
                return qp_solve(qp)

        monkeypatch.setattr(kernel, "solve_qp_diagonal", cold_retry_stalls)
        with pytest.raises(NumericalBreakdown,
                           match="proximal subproblem of scenario 1 ended iteration_limit"):
            solve(enough, warm=[None, far, far])

    def test_scenarios_of_another_row_pattern_get_their_own_stack(self):
        # scenario 1 has its own row senses and scenario 2 a finite upper bound
        first = FirstStage(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[4.0], row_senses=("<=",))
        shape = RecourseShape(W=[[1.0, -1.0]], sense="min", row_senses=(">=",))
        scen = [Scenario(probability=0.4, q=[1.5, 0.5], T=[[-1.0, 0.0]], h=[0.5]),
                Scenario(probability=0.3, q=[1.0, 1.0], T=[[0.0, 1.0]], h=[3.0],
                         row_senses=("<=",)),
                Scenario(probability=0.3, q=[2.0, 0.1], T=[[-1.0, -1.0]], h=[1.0],
                         ub=[5.0, 5.0])]
        p = build_problem(first, shape, scen)
        data = ProximalStacks(p)
        assert sorted(idx.tolist() for idx, _ in data.groups) == [[0], [1], [2]]
        xi, rho = np.array([1.0, 0.5]), np.array([[0.2, -0.1], [-0.3, 0.4], [0.1, -0.2]])
        sol = solve_ph_subproblem(data, [2, 0, 1], xi, rho, 2.0)
        for k, s in enumerate([2, 0, 1]):
            ws = build_wait_and_see(p, s)
            lp = replace(ws, c=ws.c + np.concatenate([rho[s], np.zeros(2)]))
            qp = stack_of_one(lp, [2.0, 2.0, 0.0, 0.0], np.concatenate([xi, np.zeros(2)]))
            alone = kernel.solve_qp_diagonal(qp).member(0)
            np.testing.assert_allclose(sol.xs[k], alone.x[:2], atol=1e-9)
            np.testing.assert_allclose(sol.ys[k], alone.x[2:], atol=1e-9)
        v, _ = dep_optimum(p)
        rep = solve_ph(p, PhConfig(primal_tol=1e-8, dual_tol=1e-8))
        assert rep.status == "optimal"
        assert rep.extras["internal_objective"] == pytest.approx(v, rel=1e-4, abs=1e-6)

    def test_unconverged_wait_and_see_raises(self, monkeypatch):
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        with pytest.raises(NumericalBreakdown, match="wait-and-see LP of scenario 0"):
            solve_ph(farmer_problem(), PhConfig())

    def test_linearized_penalty_path(self):
        # the l1 surrogate lacks strong convexity, so no optimality claim;
        # the driver must still run and return scenario-feasible solutions
        p = simple_problem()
        cfg = PhConfig(penalty="fixed", r=1.0, linearize="one",
                       max_iterations=50)
        rep = solve_ph(p, cfg)
        assert np.isfinite(rep.objective)
        xs = rep.extras["scenario_decisions"]
        for s in range(p.nscen):
            lp = build_wait_and_see(p, s)
            assert kernel.primal_violation(lp, np.concatenate([xs[s], rep.recourse[s]])) <= 1e-6

    def test_linearized_subproblem_pins_to_center_for_large_r(self):
        p = simple_problem()
        xi = np.array([50.0, 30.0])
        sol = solve_ph_subproblem(ProximalStacks(p), [0], xi, np.zeros((p.nscen, 2)), 1e5,
                                  linearize="one")
        np.testing.assert_allclose(sol.xs[0], xi, atol=1e-6)


class TestSolve:
    def test_a_stalled_warm_start_is_retried_cold(self):
        # a warm-started proximal QP of this batch stalls at the iteration
        # limit, though it solves cold; without the cold retry the run raises
        p = _batch_instance(simple_model(), simple_sampler(), 64, 2)
        rep = solve_ph(p, PhConfig(penalty="adaptive"))
        assert rep.status == "optimal"
        assert sum(rec["qp_retries"] for rec in rep.trace) > 0
        v, _ = dep_optimum(p)
        assert rep.extras["internal_objective"] == pytest.approx(v, rel=1e-3)

    def test_single_scenario_exact_in_two_iterations(self):
        first = FirstStage(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[4.0],
                           row_senses=("<=",))
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        scen = [Scenario(probability=1.0, q=[1.5], T=[[-1.0, 0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        rep = solve_ph(p, PhConfig())
        v, _ = dep_optimum(p)
        assert rep.iterations <= 2
        assert rep.gaps["dual_gap"] <= 1e-12
        assert rep.extras["internal_objective"] == pytest.approx(v, abs=1e-6)

    def test_textbook_fixed_penalty(self):
        rep = solve_ph(simple_problem(), PhConfig(penalty="fixed", r=1.0))
        assert rep.status == "optimal"
        assert abs(rep.objective - (-855.8333)) <= 0.5
        assert rep.gaps["primal_gap"] <= 1e-5
        assert rep.gaps["dual_gap"] <= 1e-5

    def test_textbook_adaptive_penalty(self):
        rep = solve_ph(simple_problem(), PhConfig(penalty="adaptive"))
        assert abs(rep.objective - (-855.8333)) <= 0.5

    def test_farmer_close_to_dep(self):
        rep = solve_ph(farmer_problem(), PhConfig(penalty="fixed", r=1.0))
        assert abs(rep.objective - (-108390.0)) <= 1.0
        np.testing.assert_allclose(rep.decision, [170.0, 80.0, 250.0], atol=1e-2)

    def test_multiplier_conservation_along_run(self):
        rep = solve_ph(simple_problem(), PhConfig(penalty="fixed", r=1.0))
        for t in rep.trace:
            assert t["multiplier_drift"] <= 1e-6 * t["iteration"]

    def test_dual_gap_recomputable_from_state(self):
        p = farmer_problem()
        rep = solve_ph(p, PhConfig(penalty="fixed", r=1.0))
        xs = rep.extras["scenario_decisions"]
        xi = rep.decision
        probs = p.probabilities
        dual = float(probs @ np.sum((xs - xi) ** 2, axis=1))
        assert dual == pytest.approx(rep.gaps["dual_gap"], abs=1e-9, rel=1e-9)

    def test_objective_recomputable_from_state(self):
        p = simple_problem()
        rep = solve_ph(p, PhConfig(penalty="fixed", r=1.0))
        xs = rep.extras["scenario_decisions"]
        ys = rep.recourse
        probs = p.probabilities
        val = sum(probs[s] * (p.first.c @ xs[s] + p.batch.q[s] @ ys[s])
                  for s in range(p.nscen))
        assert val == pytest.approx(rep.extras["internal_objective"],
                                    rel=1e-9, abs=1e-12)

    def test_random_instances_match_dep(self):
        for seed in range(8):
            p = random_rcr_problem(seed)
            v, _ = dep_optimum(p)
            rep = solve_ph(p, PhConfig(penalty="adaptive", primal_tol=1e-8,
                                       dual_tol=1e-8))
            rel = abs(rep.extras["internal_objective"] - v) / max(1e-3, abs(v))
            assert rel <= 1e-3

    def test_iteration_limit_flagged(self):
        rep = solve_ph(simple_problem(), PhConfig(penalty="fixed", r=1.0,
                                                  max_iterations=3))
        assert rep.status == "iteration_limit"
        assert rep.iterations == len(rep.trace) == 3
        assert rep.decision is not None
        with pytest.raises(ConfigError):
            PhConfig(max_iterations=0)

    def test_ipm_stall_is_not_reported_as_optimal(self, monkeypatch):
        # two IPM steps are far from converged: the iterate must not be used
        monkeypatch.setattr(kernel, "IPM_MAX_ITERATIONS", 2)
        with pytest.raises(NumericalBreakdown, match="ended iteration_limit"):
            solve_ph(farmer_problem(), PhConfig(max_iterations=30))


class TestConfig:
    @pytest.mark.parametrize("norm", ["two", "", "ONE"])
    def test_unknown_linearize_norm_is_rejected(self, norm):
        with pytest.raises(ConfigError, match="linearize"):
            PhConfig(linearize=norm)

    @pytest.mark.parametrize("norm", [None, "one", "inf"])
    def test_known_linearize_norms_are_accepted(self, norm):
        penalty = "adaptive" if norm is None else "fixed"
        assert PhConfig(penalty=penalty, linearize=norm).linearize == norm

    @pytest.mark.parametrize("norm", ["one", "inf"])
    def test_linearize_with_the_adaptive_penalty_is_rejected(self, norm):
        with pytest.raises(ConfigError, match='penalty="fixed"'):
            PhConfig(linearize=norm)
        with pytest.raises(ConfigError, match='penalty="fixed"'):
            PhConfig(penalty="adaptive", linearize=norm)


    @pytest.mark.parametrize("field", ["primal_tol", "dual_tol"])
    def test_a_negative_tolerance_is_rejected(self, field):
        with pytest.raises(ConfigError, match="must be >= 0"):
            PhConfig(**{field: -1e-9})
        assert getattr(PhConfig(**{field: 0.0}), field) == 0.0


class TestWaitAndSeeForm:
    def test_a_solve_builds_the_form_once(self, monkeypatch):
        from stochlp import model
        calls = []
        build = model.stack_wait_and_see

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model, "stack_wait_and_see", counted)
        p = farmer_instance(8, 3)
        rep = solve_ph(p, PhConfig(max_iterations=5))
        assert rep.iterations == 5
        assert len(calls) == 1

    def test_scenario_lps_are_members_of_the_form(self):
        p = farmer_instance(4, 1)
        data = ProximalStacks(p)
        rho = np.arange(4 * p.n, dtype=float).reshape(4, p.n)
        for s in range(4):
            lp = data.lp(s, rho)
            np.testing.assert_array_equal(lp.c[:p.n], p.first.c + rho[s])
            np.testing.assert_array_equal(lp.c[p.n:], p.batch.q[s])
            np.testing.assert_array_equal(lp.A, p.wait_and_see.A[s])


class TestTrace:
    def test_ipm_iterations_and_qp_time_are_recorded(self):
        rep = solve_ph(farmer_problem(), PhConfig(penalty="fixed", r=1.0))
        total = sum(t["ipm_iterations"] for t in rep.trace)
        assert total > 0
        # every wave settles each of the three scenarios: at its last
        # active set, or by at least one interior-point iteration
        assert all(0 <= t["qp_accepted"] <= 3 for t in rep.trace)
        assert all(t["ipm_iterations"] >= 3 - t["qp_accepted"] for t in rep.trace)
        assert rep.trace[0]["qp_accepted"] == 0
        assert all(t["qp_accepted"] > 0 for t in rep.trace[len(rep.trace) // 2:])
        assert all(t["qp_s"] > 0.0 for t in rep.trace)


class TestExecutionModes:
    def test_sync_matches_serial(self):
        p = simple_problem()
        a = solve_ph(p, PhConfig(penalty="fixed", r=1.0))
        b = solve_ph(p, PhConfig(penalty="fixed", r=1.0,
                                 execution=ExecConfig(mode="sync", workers=4)))
        assert a.objective == pytest.approx(b.objective, abs=1e-9)
        assert a.iterations == b.iterations

    @pytest.mark.parametrize("penalty", ["fixed", "adaptive"])
    def test_single_scenario_items_match_the_bundle(self, penalty):
        # async at kappa = 1 on one worker solves one scenario per item
        p = farmer_problem()
        a = solve_ph(p, PhConfig(penalty=penalty))
        b = solve_ph(p, PhConfig(penalty=penalty,
                                 execution=ExecConfig(mode="async", workers=1, kappa=1.0)))
        assert b.status == a.status == "optimal"
        assert b.objective == pytest.approx(a.objective, rel=1e-6)
        assert abs(b.iterations - a.iterations) <= 0.02 * a.iterations
        assert b.extras["async"]["issued"] == p.nscen * b.extras["async"]["versions"]

    def test_async_converges_and_conserves(self):
        # async trajectories differ run to run; tighter gaps pin the value
        p = simple_problem()
        rep = solve_ph(p, PhConfig(penalty="fixed", r=1.0,
                                   primal_tol=1e-7, dual_tol=1e-7,
                                   execution=ExecConfig(mode="async", workers=3, kappa=0.5)))
        assert rep.status == "optimal"
        assert abs(rep.objective - (-855.8333)) <= 0.5
        st = rep.extras["async"]
        assert st["issued"] == st["received"]
        assert rep.extras["multiplier_drift"] <= 1e-6 * max(1, rep.iterations)

    def test_async_trace_has_objective(self):
        rep = solve_ph(simple_problem(), PhConfig(
            penalty="fixed", r=1.0, max_iterations=20,
            execution=ExecConfig(mode="async", workers=2, kappa=0.5)))
        assert rep.trace
        assert all("objective" in t for t in rep.trace)
