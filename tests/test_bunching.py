"""Bunched recourse: pooled optimal bases resolve scenarios as the LP would."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochlp import analysis, kernel, lshaped
from stochlp.errors import InfeasibleScenario, SecondStageInfeasible
from stochlp.fixtures import (
    FARMER_YIELDS,
    farmer_problem,
    farmer_scenario,
    simple_model,
    simple_sampler,
)
from stochlp.lshaped import BasisPool, solve_recourse
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_problem,
    build_wait_and_see,
    problem_from_batch,
    stack_scenarios,
)
from stochlp.sampling import _batch_instance

from _problems import farmer_instance

SENSES = ("<=", ">=", "=")


def random_fixed_recourse(seed, vary_q, overrides, degenerate):
    """A shared W with bounded recourse, so every scenario is infeasible or bounded.

    ``degenerate`` draws small integers (ties in costs, zero rhs entries);
    ``overrides`` gives some scenarios their own bounds or row senses.
    Large h entries make some scenarios infeasible at some points.
    """
    rng = np.random.default_rng(seed)
    n, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    m = r + int(rng.integers(0, 4))
    if degenerate:
        W = rng.integers(-2, 3, (r, m)).astype(float)
        q = rng.integers(-2, 3, m).astype(float)
    else:
        W = np.round(rng.normal(0.0, 1.0, (r, m)), 3)
        q = np.round(rng.normal(0.0, 1.0, m), 3)
    senses = tuple(rng.choice(SENSES, r))
    ub = rng.uniform(1.0, 5.0, m)
    lb = np.where(rng.random(m) < 0.3, -ub, 0.0)
    shape = RecourseShape(W=W, row_senses=senses, lb=lb, ub=ub)
    T0 = np.round(rng.normal(0.0, 1.0, (r, n)), 2)
    scenarios = []
    for _ in range(int(rng.integers(2, 9))):
        qs = q + (np.round(rng.normal(0.0, 0.5, m), 2) if vary_q else 0.0)
        T = T0 + np.round(rng.normal(0.0, 0.2, (r, n)), 2)
        if degenerate:
            h = rng.integers(-1, 2, r).astype(float)
        else:
            h = np.round(rng.normal(0.0, 2.0, r), 2)
        kwargs = {}
        if overrides and rng.random() < 0.3:
            kwargs["ub"] = ub * rng.uniform(0.5, 1.5, m)
        if overrides and rng.random() < 0.2:
            kwargs["row_senses"] = tuple(rng.choice(SENSES, r))
        scenarios.append(Scenario(probability=1.0, q=qs, T=T, h=h, **kwargs))
    first = FirstStage(c=np.zeros(n), A=np.zeros((0, n)), b=[], row_senses=(),
                       lb=np.full(n, -2.0), ub=np.full(n, 2.0))
    return build_problem(first, shape, scenarios)


def _lp(problem, s, x):
    """Scenario s's one-row ``Recourse`` at x, solved by an LP (an empty pool)."""
    rec = solve_recourse(BasisPool(problem.batch), x, [s])
    assert not rec.bunched[0]
    return rec


def _y_violation(batch, k, x, y):
    lo, hi = batch.lb[k], batch.ub[k]
    ax = batch.shape.W @ y - (batch.h[k] - batch.T[k] @ x)
    rows = [max(a, 0.0) if s == "<=" else max(-a, 0.0) if s == ">=" else abs(a)
            for a, s in zip(ax, batch.senses[k])]
    return max(np.max(lo - y, initial=0.0), np.max(y - hi, initial=0.0), max(rows, default=0.0))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), vary_q=st.booleans(), overrides=st.booleans(),
       degenerate=st.booleans())
def test_bunched_outcomes_match_the_lp(seed, vary_q, overrides, degenerate):
    p = random_fixed_recourse(seed, vary_q, overrides, degenerate)
    rng = np.random.default_rng(seed + 1)
    points = rng.uniform(-2.0, 2.0, (6, p.n))
    pool = BasisPool(p.batch)
    idx = np.arange(p.nscen)
    solve_recourse(pool, points[0], idx)      # fills the pool
    x = points[1]
    rec = solve_recourse(pool, x, idx)
    assert rec.scenarios.tolist() == idx.tolist()
    for s in idx:
        ref = _lp(p, s, x)
        assert rec.feasible[s] == ref.feasible[0]
        if rec.feasible[s]:
            assert abs(rec.value[s] - ref.value[0]) <= 1e-9 * max(1.0, abs(ref.value[0]))
            assert _y_violation(p.batch, s, x, rec.y[s]) <= 1e-7
        else:
            assert np.isnan(rec.y[s]).all() and not rec.bunched[s]
        assert rec.rhs[s] == pytest.approx(rec.value[s] + rec.gradient[s] @ x, rel=1e-12)
        for xp in points[2:]:
            at = _lp(p, s, xp)
            if not at.feasible[0]:
                continue
            # optimality cut: Q_s(x') >= rhs - g.x'; feasibility cut: g.x' >= rhs
            g = float(rec.gradient[s] @ xp)
            slack = at.value[0] - (rec.rhs[s] - g) if rec.feasible[s] else g - rec.rhs[s]
            assert slack >= -1e-7 * (1.0 + abs(at.value[0]))


def test_farmer_outcomes_match_the_lp():
    # two of the three yield scenarios share an optimal basis at the optimum
    p = farmer_problem()
    x = np.array([170.0, 80.0, 250.0])
    rec = solve_recourse(BasisPool(p.batch), x, range(p.nscen))
    assert rec.bunched.tolist() == [False, True, False]
    for s in range(p.nscen):
        ref = _lp(p, s, x)
        assert rec.value[s] == pytest.approx(ref.value[0], rel=1e-12)
        np.testing.assert_allclose(rec.gradient[s], ref.gradient[0], rtol=1e-12)
        assert rec.rhs[s] == pytest.approx(ref.rhs[0], rel=1e-12)


def _counting(monkeypatch):
    solved = []
    solve = lshaped.solve_subproblem

    def counted(batch, s, x, warm=None):
        solved.append(s)
        return solve(batch, s, x, warm=warm)
    monkeypatch.setattr(lshaped, "solve_subproblem", counted)
    return solved


def _counting_rows(monkeypatch):
    """The bunched flags of the rows of every ``solve_recourse`` call, concatenated."""
    bunched = []
    solve = lshaped.solve_recourse

    def counted(*args, **kwargs):
        rec = solve(*args, **kwargs)
        bunched.extend(rec.bunched.tolist())
        return rec
    monkeypatch.setattr(lshaped, "solve_recourse", counted)
    return bunched


def _one_row_problem(scenarios):
    """min y1 + 2 y2 s.t. y1 + y2 >= h - x, 0 <= y1 <= 3, 0 <= y2 <= 4."""
    first = FirstStage(c=[0.0], A=np.zeros((0, 1)), b=[], row_senses=(), lb=[0.0], ub=[1.0])
    shape = RecourseShape(W=[[1.0, 1.0]], row_senses=(">=",), ub=[3.0, 4.0])
    return build_problem(first, shape, scenarios)


def _sc(h, **kw):
    return Scenario(probability=1.0, q=[1.0, 2.0], T=[[1.0]], h=[h], **kw)


class TestFallbackRoutes:
    def test_a_scenario_with_its_own_senses_goes_to_the_lp(self, monkeypatch):
        p = _one_row_problem([_sc(2.0), _sc(2.0, row_senses=("<=",)), _sc(2.5)])
        solved = _counting(monkeypatch)
        rec = solve_recourse(BasisPool(p.batch), np.zeros(1), range(3))
        assert solved == [0, 1]
        assert rec.bunched.tolist() == [False, False, True]
        assert rec.value[1] == _lp(p, 1, np.zeros(1)).value[0] == 0.0

    def test_an_infeasible_scenario_goes_to_the_lp(self, monkeypatch):
        p = _one_row_problem([_sc(1.0), _sc(9.0), _sc(1.5)])
        solved = _counting(monkeypatch)
        rec = solve_recourse(BasisPool(p.batch), np.zeros(1), range(3))
        assert solved == [0, 1]
        assert not rec.feasible[1] and rec.value[1] == pytest.approx(2.0)
        assert rec.bunched[2] and rec.value[2] == pytest.approx(1.5)

    def test_a_scenario_no_basis_accepts_goes_to_the_lp_and_its_basis_joins(self, monkeypatch):
        # h = 1: y1 basic below its bound; h = 5: y1 at its bound 3, y2 basic
        p = _one_row_problem([_sc(1.0), _sc(5.0), _sc(6.0), _sc(2.0)])
        pool = BasisPool(p.batch)
        solved = _counting(monkeypatch)
        rec = solve_recourse(pool, np.zeros(1), range(4))
        assert solved == [0, 1]
        assert rec.bunched.tolist() == [False, False, True, True]
        assert rec.value.tolist() == pytest.approx([1.0, 7.0, 9.0, 2.0])
        assert len(pool.entries) == 2
        assert pool.entries[0].basis.vstat.tolist() == [1, 2, 1]    # y1 at upper, y2 basic

    def test_one_lp_per_distinct_scenario_in_evaluation(self, monkeypatch):
        p = _one_row_problem([_sc(1.0), _sc(9.0), _sc(1.0)])
        with pytest.raises(SecondStageInfeasible) as exc:
            lshaped.recourse_values(p.batch, [0.0])
        assert exc.value.scenario == 1
        assert analysis.evaluate_decision(p, [0.0]) == np.inf
        bunched = _counting_rows(monkeypatch)
        q = _one_row_problem([_sc(1.0), _sc(5.0), _sc(1.0), _sc(2.0)])
        assert analysis.evaluate_decision(q, [0.0]) == pytest.approx(11.0 / 4)
        assert bunched == [False, False, True]


def test_one_basis_serves_most_simple_normal_samples(monkeypatch):
    from stochlp.fixtures import simple_model, simple_sampler
    from stochlp.sampling import evaluate_on_samples
    bunched = _counting_rows(monkeypatch)
    x = np.array([46.67, 36.25])
    vals = evaluate_on_samples(simple_model(), simple_sampler(), x, 200, 3)
    assert len(bunched) == 200
    assert bunched.count(False) <= 5
    drawn = simple_sampler().batch(simple_model().shape, 200, 3)
    ref = [analysis.evaluate_decision(problem_from_batch(simple_model().first,
                                                         drawn.rows([i], [1.0])), x)
           for i in (0, 57, 199)]
    np.testing.assert_allclose(vals[[0, 57, 199]], ref, rtol=1e-9)


def test_solve_recourse_keeps_the_order_of_idx():
    p = farmer_problem()
    x = np.array([100.0, 100.0, 300.0])
    rec = solve_recourse(BasisPool(p.batch), x, [2, 0])
    assert rec.scenarios.tolist() == [2, 0]
    for k, s in enumerate([2, 0]):
        assert rec.value[k] == pytest.approx(_lp(p, s, x).value[0], rel=1e-12)


def test_the_batch_is_built_once_per_problem():
    p = farmer_problem()
    assert p.batch is p.batch
    b = stack_scenarios(p.shape, [farmer_scenario(1.0 / 3.0, y) for y in FARMER_YIELDS])
    np.testing.assert_array_equal(b.T, p.batch.T)
    assert b.q.shape == (3, 6) and b.T.shape == (3, 4, 3) and b.lb.shape == (3, 6)


def test_threads_sharing_a_pool_get_the_lp_values():
    # async L-shaped workers share one pool; every outcome must still be the LP's
    import sys
    import threading

    p = random_fixed_recourse(11, vary_q=True, overrides=True, degenerate=False)
    pool = BasisPool(p.batch)
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, (6, 10, p.n))
    errors = []

    def work(xs):
        try:
            for x in xs:
                rec = solve_recourse(pool, x, range(p.nscen))
                for s in range(p.nscen):
                    ref = _lp(p, s, x)
                    if rec.feasible[s] != ref.feasible[0] or (
                            rec.feasible[s] and abs(rec.value[s] - ref.value[0])
                            > 1e-9 * max(1.0, abs(ref.value[0]))):
                        errors.append((s, x))
        except Exception as exc:      # reported below; a thread cannot raise into the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(xs,)) for xs in points]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert 0 < len(pool.entries) <= kernel._POOL_SIZE
    assert len({(e.basic.tobytes(), e.basis.vstat.tobytes()) for e in pool.entries}) \
        == len(pool.entries)


# ---------------------------------------------------------------------------
# the wait-and-see LPs of a problem with fixed T form one LP family


def _fixed_t(p, seed):
    """``p`` with every scenario's T set to scenario 0's, a first-stage row and costs."""
    rng = np.random.default_rng(seed)
    n = p.n
    first = FirstStage(c=np.round(rng.normal(0.0, 1.0, n), 2), A=np.ones((1, n)),
                       b=[float(rng.integers(-1, 3))], row_senses=(str(rng.choice(SENSES)),),
                       lb=np.full(n, -2.0), ub=np.full(n, 2.0))
    b = p.batch
    return problem_from_batch(first, replace(b, T=np.broadcast_to(b.T[0], b.T.shape).copy()))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), vary_q=st.booleans(), overrides=st.booleans(),
       degenerate=st.booleans())
def test_bunched_wait_and_see_solutions_match_the_lp(seed, vary_q, overrides, degenerate):
    p = _fixed_t(random_fixed_recourse(seed, vary_q, overrides, degenerate), seed)
    cold = [kernel.solve_lp(build_wait_and_see(p, s)) for s in range(p.nscen)]
    infeasible = [s for s, sol in enumerate(cold) if sol.status == kernel.INFEASIBLE]
    if infeasible:
        with pytest.raises(InfeasibleScenario) as exc:
            analysis.wait_and_see_solutions(p)
        assert exc.value.scenario == infeasible[0]
        return
    xs, values = analysis.wait_and_see_solutions(p)
    for s, ref in enumerate(cold):
        assert abs(values[s] - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        assert kernel.primal_violation(build_wait_and_see(p, s), xs[s]) <= 1e-7


def _highs_wait_and_see(p, s):
    """Optimal value of scenario s's wait-and-see LP, built here from the arrays."""
    first, b = p.first, p.batch
    A = np.block([[first.A, np.zeros((first.p, p.m))], [b.T[s], p.shape.W]])
    rhs = np.concatenate([first.b, b.h[s]])
    senses = np.array(first.row_senses + b.senses[s])
    sign = np.where(senses == ">=", -1.0, 1.0)
    ineq = senses != "="
    lo, hi = b.lb[s], b.ub[s]
    res = linprog(np.concatenate([first.c, b.q[s]]),
                  A_ub=(A * sign[:, None])[ineq], b_ub=(rhs * sign)[ineq],
                  A_eq=A[~ineq] if (~ineq).any() else None,
                  b_eq=rhs[~ineq] if (~ineq).any() else None,
                  bounds=list(zip(np.concatenate([first.lb, lo]), np.concatenate([first.ub, hi]))),
                  method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("seed", range(5))
def test_ews_of_simple_normal_batches_matches_highs(seed):
    p = _batch_instance(simple_model(), simple_sampler(), 64, seed)
    ref = sum(w * _highs_wait_and_see(p, s) for s, w in enumerate(p.probabilities))
    assert analysis.ews(p) == pytest.approx(ref, rel=1e-9)


def _recording_lp_solves(monkeypatch):
    """(warm start, solution) of every ``kernel.solve_lp`` call while the test runs."""
    solves = []
    solve = kernel.solve_lp

    def recorded(lp, warm_start=None):
        solves.append((warm_start, solve(lp, warm_start)))
        return solves[-1][1]
    monkeypatch.setattr(kernel, "solve_lp", recorded)
    return solves


def test_farmer_wait_and_see_lps_are_solved_one_by_one(monkeypatch):
    # the yields vary T, so the LPs share no constraint matrix: each is solved
    # alone, warm from the optimal basis of the one before
    solves = _recording_lp_solves(monkeypatch)
    p = farmer_problem()
    assert analysis.ews(p) == pytest.approx(-115405.5556, abs=1e-3)
    assert len(solves) == p.nscen
    assert solves[0][0] is None
    for (warm, _), (_, before) in zip(solves[1:], solves):
        assert warm is before.basis


def test_warm_wait_and_see_lps_take_few_pivots_and_keep_their_values(monkeypatch):
    p = farmer_instance(200, 1)
    solves = _recording_lp_solves(monkeypatch)
    xs, values = analysis.wait_and_see_solutions(p)
    assert sum(sol.iterations for _, sol in solves) < 200
    monkeypatch.undo()
    for s in range(p.nscen):
        cold = kernel.solve_lp(build_wait_and_see(p, s))
        assert values[s] == pytest.approx(cold.objective, rel=1e-12, abs=1e-9)
        assert kernel.primal_violation(build_wait_and_see(p, s), xs[s]) <= 1e-7


@pytest.mark.parametrize("bunched", [True, False])
def test_the_lowest_infeasible_wait_and_see_lp_is_named(monkeypatch, bunched):
    # x + y1 + y2 >= h with x <= 1, y1 <= 3, y2 <= 4: h = 9 and h = 10 are infeasible
    family = []
    solve_family = kernel.solve_family

    def tracked(*args, **kwargs):
        family.append(args[0])
        return solve_family(*args, **kwargs)
    monkeypatch.setattr(kernel, "solve_family", tracked)
    first_t = [[1.0]] if bunched else [[2.0]]
    p = _one_row_problem([Scenario(probability=1.0, q=[1.0, 2.0], T=first_t, h=[1.0]),
                          _sc(2.0), _sc(10.0), _sc(9.0), _sc(1.5)])
    with pytest.raises(InfeasibleScenario) as exc:
        analysis.ews(p)
    assert exc.value.scenario == 2
    assert [bool(f.excluded.any()) for f in family] == [not bunched]
