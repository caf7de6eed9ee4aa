"""Samplers, sampled instances, confidence intervals, and the SAA driver."""

import numpy as np
import pytest

from stochlp import analysis, kernel
from stochlp.errors import EmptyScenarioSet, TooFewBatches
from stochlp.fixtures import (
    simple_discrete_sampler,
    simple_model,
    simple_problem,
    simple_sampler,
)
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    StochasticModel,
    build_deterministic_equivalent,
    build_problem,
)
from stochlp.sampling import (
    DiscreteSampler,
    SaaConfig,
    _batch_instance,
    confidence_interval,
    evaluate_on_samples,
    saa_solve,
    sample_instance,
)


class TestSamplers:
    def test_same_seed_identical(self):
        sampler = simple_sampler()
        a = sampler.sample(42, 7)
        b = sampler.sample(42, 7)
        np.testing.assert_array_equal(a, b)

    def test_different_index_different_draw(self):
        sampler = simple_sampler()
        a = sampler.sample(42, 0)
        b = sampler.sample(42, 1)
        assert not np.array_equal(a[2:], b[2:])      # the components that land in h

    def test_normal_sampler_targets(self):
        sc = simple_sampler().batch(simple_model().shape, 1, 1)
        # sampled components land in (q1, q2, h3, h4); rows 0-1 of h untouched
        assert sc.h[0, 0] == 0.0 and sc.h[0, 1] == 0.0
        assert 300 < sc.h[0, 2] < 500       # d1 ~ N(400, 50)
        assert 15 < sc.q[0, 0] < 35         # q1 ~ N(24, 2)

    def test_normal_draws_equal_multivariate_normal_bit_for_bit(self):
        from stochlp.sampling import scenario_rng
        sampler = simple_sampler()
        shape = simple_model().shape
        for seed in (0, 1, 7, 2**40 + 3):
            drawn = sampler.batch(shape, 250, seed)
            for index in range(250):
                ref = scenario_rng(seed, index).multivariate_normal(
                    sampler.mean, sampler.cov, method="cholesky")
                np.testing.assert_array_equal(sampler.sample(seed, index), ref)
                np.testing.assert_array_equal([drawn.q[index, 0], drawn.q[index, 1],
                                               drawn.h[index, 2], drawn.h[index, 3]], ref)

    def test_covariance_not_positive_definite_fails_at_construction(self):
        from stochlp.sampling import NormalSampler
        template = simple_sampler().template
        with pytest.raises(ValueError, match="positive definite"):
            NormalSampler(mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]], template=template,
                          targets=(("q", 0), ("q", 1)))

    @pytest.mark.parametrize("target", [("W", 0, 0), ("q", -1), ("q", 2), ("T", 4, 0),
                                        ("h", 0, 0)])
    def test_target_outside_the_template_fails_at_construction(self, target):
        from stochlp.sampling import NormalSampler
        template = simple_sampler().template          # q (2,), T (4, 2), h (4,)
        with pytest.raises(ValueError, match="unknown scenario data target"):
            NormalSampler(mean=[0.0, 0.0], cov=np.eye(2), template=template,
                          targets=(("q", 0), target))

    def test_discrete_sampler_without_scenarios_fails_at_construction(self):
        with pytest.raises(ValueError, match="one finite, non-negative weight per scenario"):
            DiscreteSampler(scenarios=(), weights=())

    @pytest.mark.parametrize("weights", [(0.0, 0.0), (-1.0, 2.0), (np.inf, 1.0),
                                         (np.nan, 1.0)])
    def test_bad_weights_fail_at_construction(self, weights):
        scenarios = simple_discrete_sampler().scenarios
        with pytest.raises(ValueError, match="one finite, non-negative weight per scenario"):
            DiscreteSampler(scenarios=scenarios, weights=weights)

    def test_discrete_sampler_hits_both_atoms(self):
        sampler = simple_discrete_sampler()
        hs = {float(sampler.scenarios[sampler.sample(0, i)].h[2]) for i in range(64)}
        assert hs == {500.0, 300.0}

    def test_sample_instance_probabilities(self):
        inst = sample_instance(simple_model(), simple_sampler(), 25, seed=3)
        assert inst.nscen == 25
        np.testing.assert_allclose(inst.probabilities, np.full(25, 1 / 25))

    def test_hundred_scenario_instance(self):
        inst = sample_instance(simple_model(), simple_sampler(), 100, seed=3)
        assert inst.nscen == 100
        sol = kernel.solve_lp(build_deterministic_equivalent(inst))
        assert sol.status == kernel.OPTIMAL

    def test_sample_instance_reproducible(self):
        a = sample_instance(simple_model(), simple_sampler(), 10, seed=5)
        b = sample_instance(simple_model(), simple_sampler(), 10, seed=5)
        np.testing.assert_array_equal(a.batch.q, b.batch.q)
        np.testing.assert_array_equal(a.batch.h, b.batch.h)

    def test_single_sample_is_wait_and_see(self):
        inst = sample_instance(simple_model(), simple_sampler(), 1, seed=9)
        from stochlp.model import build_wait_and_see
        dep = kernel.solve_lp(build_deterministic_equivalent(inst))
        ws = kernel.solve_lp(build_wait_and_see(inst, 0))
        assert dep.objective == pytest.approx(ws.objective, abs=1e-9)


class TestEvaluateOnSamples:
    @pytest.mark.parametrize("first_sense, second_sense",
                             [("min", "min"), ("min", "max"), ("max", "min"), ("max", "max")])
    def test_scores_the_built_problem_objective(self, first_sense, second_sense):
        # the upper estimate of an SAA run must score the objective that the
        # lower-estimate instances (built by build_problem) optimize
        first = FirstStage(c=[3.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           ub=[2.0], sense=first_sense)
        shape = RecourseShape(W=[[1.0]], sense=second_sense, row_senses=("<=",),
                              lb=[1.0], ub=[5.0])
        scenarios = (Scenario(probability=1.0, q=[-2.0], T=[[1.0]], h=[4.0]),
                     Scenario(probability=1.0, q=[-1.0], T=[[0.5]], h=[3.0]))
        sampler = DiscreteSampler(scenarios=scenarios, weights=(0.5, 0.5))
        x = [1.0]
        vals = evaluate_on_samples(StochasticModel(first, shape), sampler, x, 8, seed=3)
        drawn = [scenarios[sampler.sample(3, i)] for i in range(8)]
        assert {id(s) for s in drawn} == {id(s) for s in scenarios}
        for v, sc in zip(vals, drawn):
            expected = analysis.evaluate_decision(build_problem(first, shape, [sc]), x)
            assert v == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("sampler", [simple_sampler(), simple_discrete_sampler()],
                             ids=["normal", "discrete"])
    def test_an_empty_sample_is_an_empty_scenario_set(self, sampler):
        with pytest.raises(EmptyScenarioSet):
            evaluate_on_samples(simple_model(), sampler, [46.67, 36.25], 0, seed=1)

    def test_scenarios_differing_only_in_bounds_are_kept_apart(self):
        # same (q, T, h), different upper bound on y: two recourse LPs, two values
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[4.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=(">=",), ub=[10.0])
        scenarios = (Scenario(probability=1.0, q=[-1.0], T=[[0.0]], h=[0.0], ub=[2.0]),
                     Scenario(probability=1.0, q=[-1.0], T=[[0.0]], h=[0.0]))
        model = StochasticModel(first, shape)
        sampler = DiscreteSampler(scenarios=scenarios, weights=(0.5, 0.5))
        vals = evaluate_on_samples(model, sampler, [0.0], 16, seed=0)
        drawn = [scenarios[sampler.sample(0, i)] for i in range(16)]
        assert {id(s) for s in drawn} == {id(s) for s in scenarios}
        np.testing.assert_array_equal(vals, [-2.0 if s is scenarios[0] else -10.0
                                             for s in drawn])
        assert _batch_instance(model, sampler, 16, 0).nscen == 2


class TestConfidenceInterval:
    def test_equal_values_zero_width(self):
        rep = confidence_interval([2.5, 2.5, 2.5, 2.5], 0.95)
        assert rep.lo == pytest.approx(2.5)
        assert rep.hi == pytest.approx(2.5)

    def test_t_table_arithmetic(self):
        # values {1,2,3} at 95%: 2 +- 4.303 / sqrt(3)
        rep = confidence_interval([1.0, 2.0, 3.0], 0.95)
        assert rep.point == pytest.approx(2.0)
        assert rep.hi == pytest.approx(2.0 + 4.302652729911275 / np.sqrt(3), abs=1e-9)
        assert rep.lo == pytest.approx(2.0 - 4.302652729911275 / np.sqrt(3), abs=1e-9)

    def test_too_few(self):
        with pytest.raises(TooFewBatches):
            confidence_interval([1.0], 0.95)

    def test_lo_point_hi_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.normal(0, 1, int(rng.integers(2, 12)))
            rep = confidence_interval(vals, 0.9)
            assert rep.lo <= rep.point <= rep.hi


class TestSaa:
    def test_textbook_normal_sampler_terminates(self):
        cfg = SaaConfig(rel_tol=5e-2, n0=16, batches=5, eval_samples=300)
        res = saa_solve(simple_model(), simple_sampler(), cfg, seed=7)
        assert res.report.relative_error <= 5e-2
        assert not res.budget_exceeded
        assert res.report.lo <= res.report.point <= res.report.hi

    def test_reproducible(self):
        cfg = SaaConfig(rel_tol=5e-2, n0=16, batches=4, eval_samples=200)
        a = saa_solve(simple_model(), simple_sampler(), cfg, seed=11)
        b = saa_solve(simple_model(), simple_sampler(), cfg, seed=11)
        assert a.report.lo == b.report.lo
        assert a.report.hi == b.report.hi
        np.testing.assert_array_equal(a.decision, b.decision)

    def test_fixed_sampler_collapses(self):
        # a sampler that always emits one scenario: zero-width-ish interval at
        # the deterministic optimum
        from stochlp.sampling import DiscreteSampler
        p = simple_problem()
        b = p.batch
        declared = Scenario(probability=1.0, q=-b.q[1], T=b.T[1],
                            h=b.h[1])      # declared orientation (max q)
        sampler = DiscreteSampler(scenarios=(declared,), weights=(1.0,))
        cfg = SaaConfig(rel_tol=0.5, n0=4, batches=3, eval_samples=50)
        res = saa_solve(simple_model(), sampler, cfg, seed=1)
        from stochlp.model import build_wait_and_see
        ws = kernel.solve_lp(build_wait_and_see(p, 1))
        assert res.report.lo == pytest.approx(ws.objective, abs=1e-6)
        assert res.report.hi == pytest.approx(ws.objective, abs=1e-6)

    def test_budget_exceeded_flagged(self):
        cfg = SaaConfig(rel_tol=1e-9, n0=4, batches=3, eval_samples=50, max_n=8)
        res = saa_solve(simple_model(), simple_sampler(), cfg, seed=2)
        assert res.budget_exceeded
        assert "budget_exceeded" in res.report.flags

    def test_halfwidth_shrinks_with_sample_size(self):
        # paired seeds, n vs 4n: the lower-bound CI half-width shrinks by
        # roughly a factor 2, within 25% on the averaged ratio
        cfg_small = SaaConfig(rel_tol=1e-12, n0=16, batches=8, eval_samples=100,
                              max_n=16)
        cfg_large = SaaConfig(rel_tol=1e-12, n0=64, batches=8, eval_samples=100,
                              max_n=64)
        ratios = []
        for seed in range(10):
            a = saa_solve(simple_model(), simple_sampler(), cfg_small, seed=seed)
            b = saa_solve(simple_model(), simple_sampler(), cfg_large, seed=seed)
            wa = a.lower.hi - a.lower.lo
            wb = b.lower.hi - b.lower.lo
            if wb > 0:
                ratios.append(wa / wb)
        assert 1.5 <= np.mean(ratios) <= 2.5


class TestSampledMeasures:
    def test_textbook_vss_significance_flag_path(self):
        from stochlp.analysis import sampled_measures
        cfg = SaaConfig(rel_tol=0.5, n0=16, batches=4, eval_samples=120)
        out = sampled_measures(simple_model(), simple_sampler(), cfg, seed=3)
        assert set(out) == {"vrp", "evpi", "vss"}
        vss = out["vss"]
        assert vss.interval.lo <= vss.interval.hi
        # the textbook VSS is small relative to sampling noise; the warning
        # path is exercised when the interval straddles zero
        if vss.interval.lo <= 0.0 <= vss.interval.hi:
            assert "not_statistically_significant" in vss.flags

    def test_fixed_sampler_zero_width_matches_exact(self):
        from stochlp.analysis import sampled_measures
        from stochlp.sampling import DiscreteSampler
        p = simple_problem()
        b = p.batch
        declared = Scenario(probability=1.0, q=-b.q[0], T=b.T[0], h=b.h[0])
        sampler = DiscreteSampler(scenarios=(declared,), weights=(1.0,))
        cfg = SaaConfig(rel_tol=0.9, n0=4, batches=3, eval_samples=40)
        out = sampled_measures(simple_model(), sampler, cfg, seed=5)
        assert out["evpi"].interval.hi == pytest.approx(0.0, abs=1e-6)
        assert abs(out["vss"].interval.point) <= 1e-6

    def test_sample_size_comes_from_config(self):
        from stochlp.analysis import sampled_measures
        cfg = SaaConfig(rel_tol=0.9, n0=4, batches=3, eval_samples=40)
        with pytest.raises(TypeError):
            sampled_measures(simple_model(), simple_sampler(), cfg, seed=5, n=64)
