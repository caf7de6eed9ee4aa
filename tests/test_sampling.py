"""Samplers, sampled instances, confidence intervals, and the SAA driver."""

import numpy as np
import pytest

from stochlp import analysis, kernel
from stochlp.errors import TooFewBatches
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
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.h, b.h)

    def test_different_index_different_draw(self):
        sampler = simple_sampler()
        a = sampler.sample(42, 0)
        b = sampler.sample(42, 1)
        assert not np.array_equal(a.h, b.h)

    def test_normal_sampler_targets(self):
        sampler = simple_sampler()
        sc = sampler.sample(1, 0)
        # sampled components land in (q1, q2, h3, h4); rows 0-1 of h untouched
        assert sc.h[0] == 0.0 and sc.h[1] == 0.0
        assert 300 < sc.h[2] < 500          # d1 ~ N(400, 50)
        assert 15 < sc.q[0] < 35            # q1 ~ N(24, 2)

    def test_discrete_sampler_hits_both_atoms(self):
        sampler = simple_discrete_sampler()
        hs = {float(sampler.sample(0, i).h[2]) for i in range(64)}
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
        for sa, sb in zip(a.scenarios, b.scenarios):
            np.testing.assert_array_equal(sa.q, sb.q)
            np.testing.assert_array_equal(sa.h, sb.h)

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
        drawn = [sampler.sample(3, i) for i in range(8)]
        assert {id(s) for s in drawn} == {id(s) for s in scenarios}
        for v, sc in zip(vals, drawn):
            expected = analysis.evaluate_decision(build_problem(first, shape, [sc]), x)
            assert v == pytest.approx(expected, abs=1e-9)

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
        drawn = [sampler.sample(0, i) for i in range(16)]
        assert {id(s) for s in drawn} == {id(s) for s in scenarios}
        np.testing.assert_array_equal(vals, [-2.0 if s is scenarios[0] else -10.0
                                             for s in drawn])
        assert len(_batch_instance(model, sampler, 16, 0).scenarios) == 2


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
        sc = p.scenarios[1]
        from dataclasses import replace
        declared = replace(sc, q=-sc.q)      # declared orientation (max q)
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
        from dataclasses import replace
        from stochlp.analysis import sampled_measures
        from stochlp.sampling import DiscreteSampler
        p = simple_problem()
        declared = replace(p.scenarios[0], q=-p.scenarios[0].q)
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
