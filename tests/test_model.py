"""Model construction, normalization, and derived deterministic programs."""

import numpy as np
import pytest

from stochlp import kernel
from stochlp.errors import (
    DimensionMismatch,
    EmptyScenarioSet,
    IndexOutOfRange,
    NonPositiveProbability,
    ProbabilityMassError,
)
from stochlp.fixtures import farmer_problem, simple_problem
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_deterministic_equivalent,
    build_expected_value_problem,
    build_problem,
    build_wait_and_see,
    expected_scenario,
    validate,
)
from stochlp import serialize

from _problems import random_rcr_problem


def _tiny(prob_weights=(0.5, 0.5), nscen=2):
    first = FirstStage(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[4.0], row_senses=("<=",))
    shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
    scen = [Scenario(probability=w, q=[1.0], T=[[1.0, 0.0]], h=[float(k)])
            for k, w in enumerate(prob_weights[:nscen], start=1)]
    return first, shape, scen


class TestBuildProblem:
    def test_textbook_two_scenarios(self):
        p = simple_problem()
        assert p.nscen == 2
        assert p.n == 2 and p.m == 2 and p.r == 4
        np.testing.assert_allclose(p.probabilities, [0.4, 0.6])

    def test_single_scenario_identity(self):
        first, shape, scen = _tiny((1.0,), nscen=1)
        p = build_problem(first, shape, scen)
        assert p.nscen == 1
        assert p.scenarios[0].probability == 1.0

    def test_weight_normalization(self):
        first, shape, scen = _tiny()
        scen = [Scenario(probability=2.0, q=[1.0], T=[[1.0, 0.0]], h=[1.0]),
                Scenario(probability=3.0, q=[1.0], T=[[1.0, 0.0]], h=[2.0])]
        p = build_problem(first, shape, scen)
        np.testing.assert_allclose(p.probabilities, [0.4, 0.6])

    def test_near_one_drift_warns(self):
        first, shape, _ = _tiny()
        scen = [Scenario(probability=0.4, q=[1.0], T=[[1.0, 0.0]], h=[1.0]),
                Scenario(probability=0.57, q=[1.0], T=[[1.0, 0.0]], h=[2.0])]
        with pytest.warns(UserWarning, match="normalizing"):
            p = build_problem(first, shape, scen)
        assert abs(p.probabilities.sum() - 1.0) <= 1e-12

    def test_probability_sum_always_one(self):
        for seed in range(20):
            p = random_rcr_problem(seed)
            assert abs(p.probabilities.sum() - 1.0) <= 1e-9

    def test_empty_scenarios(self):
        first, shape, _ = _tiny()
        with pytest.raises(EmptyScenarioSet):
            build_problem(first, shape, [])

    def test_nonpositive_probability(self):
        with pytest.raises(NonPositiveProbability):
            Scenario(probability=0.0, q=[1.0], T=[[1.0]], h=[1.0])

    def test_degenerate_mass_is_error(self):
        first, shape, _ = _tiny()
        huge = [Scenario(probability=1e308, q=[1.0], T=[[1.0, 0.0]], h=[1.0]),
                Scenario(probability=1e308, q=[1.0], T=[[1.0, 0.0]], h=[2.0])]
        with pytest.raises(ProbabilityMassError):
            build_problem(first, shape, huge)

    def test_dimension_mismatch_names_offender(self):
        first, shape, scen = _tiny()
        bad = [Scenario(probability=1.0, q=[1.0, 2.0], T=[[1.0, 0.0]], h=[1.0])]
        with pytest.raises(DimensionMismatch, match="scenario 0 q"):
            build_problem(first, shape, bad)

    def test_max_min_folds_as_cost_against_profit(self):
        # max first stage with a min second stage: recourse cost is subtracted
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[5.0], sense="max")
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",))
        scen = [Scenario(probability=1.0, q=[2.0], T=[[-1.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        sol = kernel.solve_lp(build_deterministic_equivalent(p))
        # max_x x - 2x over [0, 5]: optimum 0 at x = 0
        assert p.report_value(sol.objective) == pytest.approx(0.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)


class TestDeterministicEquivalent:
    def test_textbook_objective_coefficients(self):
        # max-sense q folded in: -9.6 = -0.4 * 24 on the first recourse column
        p = simple_problem()
        lp = build_deterministic_equivalent(p)
        np.testing.assert_allclose(
            lp.c, [100.0, 150.0, -9.6, -11.2, -16.8, -19.2])

    def test_shape_counts(self):
        # variable count n + S*m and row count p + S*r, exactly
        for seed in range(10):
            p = random_rcr_problem(seed)
            lp = build_deterministic_equivalent(p)
            assert lp.nvars == p.n + p.nscen * p.m
            assert lp.nrows == p.first.p + p.nscen * p.r

    def test_single_scenario_collapse(self):
        # DEP, WS(0) and the expected-value problem agree on one scenario
        first, shape, scen = _tiny((1.0,), nscen=1)
        p = build_problem(first, shape, scen)
        dep = kernel.solve_lp(build_deterministic_equivalent(p))
        ws = kernel.solve_lp(build_wait_and_see(p, 0))
        ev = kernel.solve_lp(build_expected_value_problem(p))
        assert abs(dep.objective - ws.objective) <= 1e-9
        assert abs(dep.objective - ev.objective) <= 1e-9

    def test_second_stage_labels(self):
        p = simple_problem()
        lp = build_deterministic_equivalent(p)
        assert lp.col_names[2] == "y1_1"
        assert lp.col_names[-1] == "y2_2"


class TestWaitAndSee:
    def test_index_out_of_range(self):
        p = simple_problem()
        with pytest.raises(IndexOutOfRange):
            build_wait_and_see(p, 2)

    def test_ws_cross_checked_against_singleton_dep(self):
        p = simple_problem()
        ws = kernel.solve_lp(build_wait_and_see(p, 1))
        singleton = build_problem(
            p.first, p.shape,
            [Scenario(probability=1.0, q=p.scenarios[1].q,
                      T=p.scenarios[1].T, h=p.scenarios[1].h)])
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert abs(ws.objective - dep.objective) <= 1e-8 * (1 + abs(dep.objective))


class TestExpectedScenario:
    def test_farmer_mean_yields(self):
        p = farmer_problem()
        mean = expected_scenario(p.scenarios, p.shape)
        np.testing.assert_allclose(np.diag(np.asarray(mean.T)[:3, :3]),
                                   [2.5, 3.0, 20.0])
        assert mean.probability == 1.0

    def test_single_scenario(self):
        p = simple_problem()
        mean = expected_scenario([p.scenarios[0]], p.shape)
        np.testing.assert_allclose(mean.q, p.scenarios[0].q)

    def test_weighted_mean_of_costs(self):
        p = simple_problem()
        mean = expected_scenario(p.scenarios, p.shape)
        # internal q is negated (max second stage): 0.4*24 + 0.6*28 = 26.4
        assert abs(mean.q[0] - (-26.4)) <= 1e-12

    def test_empty(self):
        with pytest.raises(EmptyScenarioSet):
            expected_scenario([], simple_problem().shape)

    def test_missing_bound_override_counts_the_shape_bound(self):
        # shape ub 10, one of two equally likely scenarios overrides it with 2
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[4.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",),
                              ub=[10.0])
        scen = [Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0], ub=[2.0]),
                Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        mean = expected_scenario(p.scenarios, p.shape)
        np.testing.assert_array_equal(mean.ub, [6.0])
        np.testing.assert_array_equal(mean.bounds(p.shape)[0], [0.0])
        ev = build_expected_value_problem(p)
        np.testing.assert_array_equal(ev.ub[1:], [6.0])
        assert kernel.solve_lp(ev).objective == pytest.approx(-6.0, abs=1e-9)

    def test_ev_problem_is_ws_on_mean(self):
        p = farmer_problem()
        ev = build_expected_value_problem(p)
        assert ev.nvars == p.n + p.m

    def test_ev_cross_checked_by_singleton_dep(self):
        from stochlp.model import TwoStageProblem
        p = simple_problem()
        ev = kernel.solve_lp(build_expected_value_problem(p))
        mean = expected_scenario(p.scenarios, p.shape)
        singleton = TwoStageProblem(first=p.first, shape=p.shape,
                                    scenarios=(mean,),
                                    declared_first_sense=p.declared_first_sense,
                                    declared_second_sense=p.declared_second_sense)
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert ev.objective == pytest.approx(dep.objective, abs=1e-9)


class TestSenses:
    def test_max_round_trip(self):
        # a pure maximization problem reports the max value, argmax unchanged
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[5.0], sense="max")
        shape = RecourseShape(W=[[1.0]], sense="max", row_senses=("<=",))
        scen = [Scenario(probability=1.0, q=[2.0], T=[[1.0]], h=[10.0])]
        p = build_problem(first, shape, scen)
        sol = kernel.solve_lp(build_deterministic_equivalent(p))
        # max_x x + 2 (10 - x): optimum 20 at x = 0, internal min value -20
        assert p.report_value(sol.objective) == pytest.approx(20.0, abs=1e-8)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-8)
        assert sol.objective == pytest.approx(-20.0, abs=1e-8)


class TestValidate:
    def test_clean_farmer(self):
        assert validate(farmer_problem()) == []

    def test_zero_row_warning(self):
        first, shape, scen = _tiny()
        shape = RecourseShape(W=[[1.0], [0.0]], sense="min", row_senses=(">=", ">="))
        scen = [Scenario(probability=1.0, q=[1.0], T=[[1.0, 0.0], [0.0, 0.0]],
                         h=[1.0, 0.0])]
        p = build_problem(first, shape, scen)
        assert any("all-zero row 1" in d for d in validate(p))

    def test_probability_drift_reported(self):
        p = simple_problem()
        drifted = p.__class__(
            first=p.first, shape=p.shape,
            scenarios=(p.scenarios[0],
                       Scenario(probability=0.57, q=p.scenarios[1].q,
                                T=p.scenarios[1].T, h=p.scenarios[1].h)),
            declared_first_sense=p.declared_first_sense,
            declared_second_sense=p.declared_second_sense)
        assert any("probabilities sum" in d for d in validate(drifted))


class TestScenarioOverrides:
    def test_scenario_bounds_override_shape_defaults(self):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[4.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",),
                              ub=[10.0])
        scen = [Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0],
                         ub=[2.0]),                    # tighter than the shape
                Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        lp = build_deterministic_equivalent(p)
        np.testing.assert_allclose(lp.ub[1:], [2.0, 10.0])
        sol = kernel.solve_lp(lp)
        # min x - 0.5 y1 - 0.5 y2 with y1 <= 2, y2 <= 10: value -6 at x=0
        assert sol.objective == pytest.approx(-6.0, abs=1e-9)

    def test_scenario_bounds_round_trip(self, tmp_path):
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[4.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",),
                              ub=[10.0])
        scen = [Scenario(probability=1.0, q=[-1.0], T=[[0.0]], h=[0.0],
                         lb=[0.5], ub=[2.0], row_senses=("<=",))]
        p = build_problem(first, shape, scen)
        path = tmp_path / "ovr.json"
        serialize.save_problem(p, path)
        q = serialize.load_problem(path)
        np.testing.assert_array_equal(q.scenarios[0].lb, [0.5])
        np.testing.assert_array_equal(q.scenarios[0].ub, [2.0])
        assert q.scenarios[0].row_senses == ("<=",)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        for name, p in (("simple", simple_problem()), ("farmer", farmer_problem()),
                        ("rand", random_rcr_problem(3))):
            path = tmp_path / f"{name}.json"
            serialize.save_problem(p, path)
            q = serialize.load_problem(path)
            assert q.nscen == p.nscen
            np.testing.assert_array_equal(q.first.c, p.first.c)
            np.testing.assert_array_equal(q.first.lb, p.first.lb)
            np.testing.assert_array_equal(q.first.ub, p.first.ub)
            for a, b in zip(q.scenarios, p.scenarios):
                assert a.probability == b.probability
                np.testing.assert_array_equal(a.q, b.q)
                np.testing.assert_array_equal(np.asarray(a.h), np.asarray(b.h))
            dep_a = kernel.solve_lp(build_deterministic_equivalent(p))
            dep_b = kernel.solve_lp(build_deterministic_equivalent(q))
            assert dep_a.objective == pytest.approx(dep_b.objective, abs=1e-12)


class TestSparseInput:
    """Sparse A, W and T are converted to dense once, at construction."""

    @staticmethod
    def _sparse_farmer():
        import scipy.sparse as sp
        from dataclasses import replace
        dense = farmer_problem()
        first = replace(dense.first, A=sp.csr_matrix(dense.first.A))
        shape = replace(dense.shape, W=sp.coo_matrix(dense.shape.W))
        scenarios = [replace(s, T=sp.csc_matrix(s.T)) for s in dense.scenarios]
        return dense, build_problem(first, shape, scenarios)

    def test_stores_ndarrays(self):
        dense, p = self._sparse_farmer()
        assert type(p.first.A) is np.ndarray
        assert type(p.shape.W) is np.ndarray
        assert all(type(s.T) is np.ndarray for s in p.scenarios)
        np.testing.assert_array_equal(p.first.A, dense.first.A)
        np.testing.assert_array_equal(p.shape.W, dense.shape.W)
        for a, b in zip(p.scenarios, dense.scenarios):
            np.testing.assert_array_equal(a.T, b.T)

    def test_solvers_and_measures_match_dense(self):
        from stochlp import analysis
        from stochlp.lshaped import LShapedConfig, solve_lshaped
        from stochlp.phedging import PhConfig, solve_ph
        dense, p = self._sparse_farmer()
        dep = [kernel.solve_lp(build_deterministic_equivalent(q)).objective for q in (dense, p)]
        assert dep[0] == dep[1] == pytest.approx(-108390.0)
        ls = [solve_lshaped(q, LShapedConfig(cuts="multi")) for q in (dense, p)]
        assert ls[0].objective == ls[1].objective
        np.testing.assert_array_equal(ls[0].decision, ls[1].decision)
        ph = [solve_ph(q, PhConfig(penalty="adaptive")) for q in (dense, p)]
        assert ph[0].objective == ph[1].objective
        assert ph[0].iterations == ph[1].iterations
        assert analysis.ews(dense) == analysis.ews(p)
        x = [170.0, 80.0, 250.0]
        assert analysis.evaluate_decision(dense, x) == analysis.evaluate_decision(p, x)

    def test_round_trip_matches_dense(self, tmp_path):
        dense, p = self._sparse_farmer()
        serialize.save_problem(p, tmp_path / "sparse.json")
        serialize.save_problem(dense, tmp_path / "dense.json")
        assert (tmp_path / "sparse.json").read_text() == (tmp_path / "dense.json").read_text()
        q = serialize.load_problem(tmp_path / "sparse.json")
        for a, b in zip(q.scenarios, dense.scenarios):
            np.testing.assert_array_equal(a.T, b.T)
