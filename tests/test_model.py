"""Model construction, normalization, and derived deterministic programs."""

from dataclasses import replace

import numpy as np
import pytest

from stochlp import kernel, model
from stochlp.errors import (
    DimensionMismatch,
    EmptyScenarioSet,
    IndexOutOfRange,
    NonPositiveProbability,
    ProbabilityMassError,
    ProblemTooLarge,
)
from stochlp.fixtures import (
    FARMER_YIELDS,
    farmer_problem,
    farmer_scenario,
    simple_discrete_sampler,
    simple_model,
    simple_problem,
    simple_problem_declared_scenarios,
)
from stochlp.model import (
    FirstStage,
    LPInstance,
    RecourseShape,
    Scenario,
    build_deterministic_equivalent,
    build_expected_value_problem,
    build_problem,
    build_wait_and_see,
    expected_scenario,
    minimization_form,
    stack_scenarios,
    validate,
    write_targets,
)
from stochlp import serialize

from _problems import farmer_instance, random_rcr_problem


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
        assert p.batch.probability[0] == 1.0

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

    def test_a_batch_of_no_rows_is_refused(self):
        # rows() builds the batch itself, without stack_arrays' check
        with pytest.raises(EmptyScenarioSet):
            simple_problem().batch.rows([], [])

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
            assert type(lp.A) is np.ndarray

    def test_size_guard_raises_before_allocating(self, monkeypatch):
        # farmer: 13 rows and 21 columns, so an [A | I] tableau of 8 * 13 * 34 bytes
        p = farmer_problem()
        nr, nv = p.first.p + p.nscen * p.r, p.n + p.nscen * p.m
        assert (nr, nv) == (13, 21)
        monkeypatch.setattr(model, "DEP_MAX_BYTES", 1024)
        monkeypatch.setattr(np, "zeros", None)      # nothing may be allocated first
        with pytest.raises(ProblemTooLarge, match=r"3536 byte tableau, over the limit of "
                                                  r"1024 bytes; use --method lshaped"):
            build_deterministic_equivalent(p)

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
            [Scenario(probability=1.0, q=p.batch.q[1],
                      T=p.batch.T[1], h=p.batch.h[1])])
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert abs(ws.objective - dep.objective) <= 1e-8 * (1 + abs(dep.objective))


class TestExpectedScenario:
    def test_farmer_mean_yields(self):
        p = farmer_problem()
        mean = expected_scenario(p.batch)
        np.testing.assert_allclose(np.diag(np.asarray(mean.T[0])[:3, :3]),
                                   [2.5, 3.0, 20.0])
        assert mean.probability.tolist() == [1.0]

    def test_single_scenario(self):
        p = simple_problem()
        mean = expected_scenario(p.batch.rows([0], [1.0]))
        np.testing.assert_allclose(mean.q[0], p.batch.q[0])

    def test_weighted_mean_of_costs(self):
        p = simple_problem()
        mean = expected_scenario(p.batch)
        # internal q is negated (max second stage): 0.4*24 + 0.6*28 = 26.4
        assert abs(mean.q[0, 0] - (-26.4)) <= 1e-12

    def test_empty(self):
        # an empty scenario set is refused where it is stacked, before any mean
        with pytest.raises(EmptyScenarioSet):
            expected_scenario(stack_scenarios(simple_problem().shape, []))

    def test_missing_bound_override_counts_the_shape_bound(self):
        # shape ub 10, one of two equally likely scenarios overrides it with 2
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[4.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",),
                              ub=[10.0])
        scen = [Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0], ub=[2.0]),
                Scenario(probability=0.5, q=[-1.0], T=[[0.0]], h=[0.0])]
        p = build_problem(first, shape, scen)
        mean = expected_scenario(p.batch)
        np.testing.assert_array_equal(mean.ub, [[6.0]])
        np.testing.assert_array_equal(mean.lb, [[0.0]])
        ev = build_expected_value_problem(p)
        np.testing.assert_array_equal(ev.ub[1:], [6.0])
        assert kernel.solve_lp(ev).objective == pytest.approx(-6.0, abs=1e-9)

    def test_row_senses_are_compared_with_their_defaults_resolved(self):
        # a scenario that spells out the shape's row senses has the same program
        p = simple_problem()
        first, second = simple_problem_declared_scenarios()
        spelled = replace(second, row_senses=p.shape.row_senses)
        mean = expected_scenario(stack_scenarios(p.shape, [first, spelled]))
        assert mean.senses == (p.shape.row_senses,) and not mean.own_senses[0]
        other = replace(second, row_senses=("=",) * p.r)
        with pytest.raises(ValueError, match="disagree on row senses"):
            expected_scenario(stack_scenarios(p.shape, [first, other]))
        mean = expected_scenario(stack_scenarios(p.shape, [other, other]))
        assert mean.senses == (("=",) * p.r,) and mean.own_senses[0]

    def test_ev_problem_is_ws_on_mean(self):
        p = farmer_problem()
        ev = build_expected_value_problem(p)
        assert ev.nvars == p.n + p.m

    def test_ev_cross_checked_by_singleton_dep(self):
        from stochlp.model import TwoStageProblem
        p = simple_problem()
        ev = kernel.solve_lp(build_expected_value_problem(p))
        mean = expected_scenario(p.batch)
        singleton = TwoStageProblem(first=p.first, batch=mean,
                                    declared_first_sense=p.declared_first_sense,
                                    declared_second_sense=p.declared_second_sense)
        dep = kernel.solve_lp(build_deterministic_equivalent(singleton))
        assert ev.objective == pytest.approx(dep.objective, abs=1e-9)


class TestWriteTargets:
    def test_writes_copies_in_order(self):
        q, T, h = np.zeros(2), np.zeros((1, 2)), np.zeros(1)
        q2, T2, h2 = write_targets(q, T, h, [("q", 1), ("T", 0, 0), ("h", 0)],
                                   [[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
        np.testing.assert_array_equal(q2, [[0.0, 3.0], [0.0, 6.0]])
        np.testing.assert_array_equal(T2, [[[4.0, 0.0]], [[7.0, 0.0]]])
        np.testing.assert_array_equal(h2, [[5.0], [8.0]])
        assert not q.any() and not T.any() and not h.any()

    def test_a_repeated_target_takes_its_last_column(self):
        q2, _, _ = write_targets(np.zeros(2), np.zeros((1, 2)), np.zeros(1),
                                 [("q", 1), ("q", 0), ("q", 1)], [[3.0, 4.0, 6.0]])
        np.testing.assert_array_equal(q2, [[4.0, 6.0]])

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown scenario data target"):
            write_targets(np.zeros(1), np.zeros((1, 1)), np.zeros(1), [("W", 0, 0)], [[1.0]])


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
        drifted = replace(p, batch=replace(p.batch, probability=np.array([0.4, 0.57])))
        assert any("probabilities sum" in d for d in validate(drifted))


class TestWaitAndSeeForm:
    """The stacked form holds each scenario's wait-and-see LP exactly."""

    @staticmethod
    def _scenarios():
        return [Scenario(probability=0.3, q=[1.5, 0.5, 1.0], T=[[-1.0, 0.0], [0.0, 1.0]],
                         h=[0.5, 2.0]),
                Scenario(probability=0.3, q=[1.0, 1.0, 2.0], T=[[0.0, 1.0], [1.0, 1.0]],
                         h=[3.0, 1.0], lb=[1.0, 0.0, -2.0], ub=[6.0, 7.0, np.inf]),
                Scenario(probability=0.4, q=[2.0, 0.1, 0.3], T=[[-1.0, -1.0], [0.5, 0.0]],
                         h=[1.0, 4.0], row_senses=("<=", "="))]

    @classmethod
    def _problem(cls):
        first = FirstStage(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[4.0], row_senses=("<=",),
                           ub=[3.0, 5.0])
        shape = RecourseShape(W=[[1.0, -1.0, 0.0], [0.0, 1.0, 1.0]], sense="min",
                              row_senses=(">=", "="), ub=[8.0, np.inf, 9.0])
        return build_problem(first, shape, cls._scenarios())

    @staticmethod
    def _reference(p, sc):
        """Scenario ``sc``'s wait-and-see LP assembled from its own fields."""
        first, shape = p.first, p.shape
        return {"c": np.concatenate([first.c, sc.q]),
                "A": np.block([[first.A, np.zeros((first.p, p.m))], [sc.T, shape.W]]),
                "rhs": np.concatenate([first.b, sc.h]),
                "row_senses": first.row_senses + (sc.row_senses or shape.row_senses),
                "lb": np.concatenate([first.lb, shape.lb if sc.lb is None else sc.lb]),
                "ub": np.concatenate([first.ub, shape.ub if sc.ub is None else sc.ub]),
                "col_names": ("x1", "x2", "y1", "y2", "y3")}

    def test_members_match_the_scenario_data(self):
        from stochlp.phedging import ProximalStacks
        p = self._problem()
        stacks = ProximalStacks(p)
        assert not p.wait_and_see.shared
        for s, sc in enumerate(self._scenarios()):
            want = self._reference(p, sc)
            for lp in (build_wait_and_see(p, s), stacks.lp(s, np.zeros((p.nscen, p.n)))):
                for name, value in want.items():
                    np.testing.assert_array_equal(getattr(lp, name), value, err_msg=name)

    def test_a_shared_matrix_is_broadcast(self):
        p = simple_problem()
        form = p.wait_and_see
        assert form.shared and form.A.strides[0] == 0
        assert form is p.wait_and_see
        for s, sc in enumerate(simple_problem_declared_scenarios()):
            np.testing.assert_array_equal(form.A[s], self._reference(p, sc)["A"])

    def test_the_form_is_read_only(self):
        form = self._problem().wait_and_see
        for name in ("c", "A", "rhs", "lb", "ub"):
            assert not getattr(form, name).flags.writeable


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
        np.testing.assert_array_equal(q.batch.lb[0], [0.5])
        np.testing.assert_array_equal(q.batch.ub[0], [2.0])
        assert q.batch.senses[0] == ("<=",)


class TestReadOnlyScenarioData:
    """A problem's scenario data has one copy, and nothing writes to it."""

    @staticmethod
    def _batches():
        from stochlp.sampling import sample_instance
        p = simple_problem()
        yield "built", p.batch
        yield "loaded", serialize.problem_from_dict(serialize.problem_to_dict(p)).batch
        yield "sampled", sample_instance(simple_model(), simple_discrete_sampler(), 8, 0).batch
        yield "mean", expected_scenario(p.batch)
        yield "minimized", minimization_form(p.first, p.batch)[1]

    def test_every_batch_array_refuses_writes(self):
        for label, batch in self._batches():
            for name in ("probability", "q", "T", "h", "lb", "ub", "own_senses"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(batch, name)[0] = 0
                assert not getattr(batch, name).flags.writeable, (label, name)

    def test_the_probabilities_are_the_batch_s(self):
        p = simple_problem()
        assert p.probabilities is p.batch.probability
        with pytest.raises(ValueError, match="read-only"):
            p.probabilities[0] = 0.5


class TestSerialization:
    def test_a_loaded_document_is_normalized_like_a_built_problem(self):
        weights = (0.4, 5.0)
        m = simple_model()
        built = build_problem(m.first, m.shape,
                              [replace(s, probability=w)
                               for s, w in zip(simple_problem_declared_scenarios(), weights)])
        doc = serialize.problem_to_dict(simple_problem())
        for sc, w in zip(doc["scenarios"], weights):
            sc["probability"] = w
        loaded = serialize.problem_from_dict(doc)
        for name in ("probability", "q", "T", "h", "lb", "ub"):
            np.testing.assert_array_equal(getattr(loaded.batch, name),
                                          getattr(built.batch, name), err_msg=name)
        assert loaded.batch.senses == built.batch.senses
        assert (loaded.declared_first_sense, loaded.declared_second_sense) == ("min", "max")
        dep = [kernel.solve_lp(build_deterministic_equivalent(q)).objective
               for q in (loaded, built)]
        assert dep[0] == dep[1]

    @pytest.mark.parametrize("field, value, error, message", [
        ("q", [24.0, 28.0, 1.0], DimensionMismatch, "scenario 1 q: expected shape"),
        ("h", [0.0, 0.0, 300.0], DimensionMismatch, "scenario 1 h: expected shape"),
        ("T", {"shape": [4, 3], "rows": [], "cols": [], "vals": []}, DimensionMismatch,
         "scenario 1 T: expected shape"),
        ("probability", 0.0, NonPositiveProbability, "scenario 1 probability must be > 0"),
    ])
    def test_a_loaded_document_is_checked_like_a_built_problem(self, field, value, error,
                                                               message):
        doc = serialize.problem_to_dict(simple_problem())
        doc["scenarios"][1][field] = value
        with pytest.raises(error, match=message):
            serialize.problem_from_dict(doc)

    def test_round_trip_exact(self, tmp_path):
        # farmer-150's stored probabilities sum to 1 only up to rounding
        for name, p in (("simple", simple_problem()), ("farmer", farmer_problem()),
                        ("rand", random_rcr_problem(3)), ("farmer-150", farmer_instance(150, 1))):
            path = tmp_path / f"{name}.json"
            serialize.save_problem(p, path)
            q = serialize.load_problem(path)
            assert q.nscen == p.nscen
            np.testing.assert_array_equal(q.first.c, p.first.c)
            np.testing.assert_array_equal(q.first.lb, p.first.lb)
            np.testing.assert_array_equal(q.first.ub, p.first.ub)
            np.testing.assert_array_equal(q.batch.probability, p.batch.probability)
            np.testing.assert_array_equal(q.batch.q, p.batch.q)
            np.testing.assert_array_equal(q.batch.h, p.batch.h)
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
        scenarios = [farmer_scenario(1.0 / 3.0, y) for y in FARMER_YIELDS]
        scenarios = [replace(s, T=sp.csc_matrix(s.T)) for s in scenarios]
        return dense, build_problem(first, shape, scenarios)

    def test_stores_ndarrays(self):
        dense, p = self._sparse_farmer()
        assert type(p.first.A) is np.ndarray
        assert type(p.shape.W) is np.ndarray
        assert type(p.batch.T) is np.ndarray
        np.testing.assert_array_equal(p.first.A, dense.first.A)
        np.testing.assert_array_equal(p.shape.W, dense.shape.W)
        np.testing.assert_array_equal(p.batch.T, dense.batch.T)

    def test_lp_instance_stores_an_ndarray(self):
        import scipy.sparse as sp
        dense = build_deterministic_equivalent(farmer_problem())
        lp = LPInstance(c=dense.c, A=sp.csc_matrix(dense.A), rhs=dense.rhs,
                        row_senses=dense.row_senses, lb=dense.lb, ub=dense.ub)
        assert type(lp.A) is np.ndarray
        np.testing.assert_array_equal(lp.A, dense.A)

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
        np.testing.assert_array_equal(q.batch.T, dense.batch.T)
