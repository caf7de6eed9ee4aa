"""LP/QP kernel checks against independent oracles.

The vertex-enumeration oracle solves standard-form instances (x >= 0,
equality rows) by enumerating basic solutions; general bounded instances
are cross-checked against scipy's HiGHS.  The QP path is checked against a
grid search with an inner LP.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from stochlp import kernel
from stochlp.errors import UnsupportedQuadratic
from stochlp.kernel import (
    KernelConfig,
    certificate_gap,
    linearize_penalty,
    primal_violation,
    solve_lp,
    solve_qp_diagonal,
    write_mps,
)
from stochlp.model import LPInstance


def vertex_enumeration_min(c, A, b):
    """Brute-force optimum of min c^T x s.t. A x = b, x >= 0."""
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(xb < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = c @ x
        if best is None or val < best[0] - 1e-12:
            best = (val, x)
    return best


def random_standard_form(rng, n, m):
    A = np.round(rng.normal(0, 1.5, (m, n)), 3)
    x_feas = rng.uniform(0.2, 2.0, n)
    b = A @ x_feas
    c = np.round(rng.normal(0, 2.0, n), 3)
    return c, A, b


def scipy_reference(lp):
    A = np.asarray(lp.A)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(lp.row_senses):
        if s == "<=":
            A_ub.append(A[i]); b_ub.append(lp.rhs[i])
        elif s == ">=":
            A_ub.append(-A[i]); b_ub.append(-lp.rhs[i])
        else:
            A_eq.append(A[i]); b_eq.append(lp.rhs[i])
    bounds = list(zip(np.where(np.isfinite(lp.lb), lp.lb, None),
                      np.where(np.isfinite(lp.ub), lp.ub, None)))
    return linprog(lp.c, A_ub=np.array(A_ub) if A_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(A_eq) if A_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=bounds, method="highs")


def random_bounded_lp(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 9))
    A = np.round(rng.normal(0, 2, (m, n)) * (rng.random((m, n)) < 0.7), 3)
    c = np.round(rng.normal(0, 3, n), 3)
    rhs = np.round(rng.normal(0, 4, m), 3)
    senses = tuple(rng.choice(["<=", ">=", "="], m, p=[0.45, 0.45, 0.10]))
    lb = np.where(rng.random(n) < 0.75, np.round(rng.normal(-2, 2, n), 3), -np.inf)
    width = np.abs(np.round(rng.normal(3, 2, n), 3))
    ub = np.where(rng.random(n) < 0.6,
                  np.where(np.isfinite(lb), lb + width, np.round(rng.normal(2, 2, n), 3)),
                  np.inf)
    return LPInstance(c=c, A=A, rhs=rhs, row_senses=senses, lb=lb, ub=ub)


class TestSolveLP:
    def test_one_dimensional_bound_row(self):
        lp = LPInstance(c=[1.0], A=[[1.0]], rhs=[3.0], row_senses=(">=",),
                        lb=[0.0], ub=[np.inf])
        sol = solve_lp(lp)
        assert sol.status == kernel.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)

    def test_textbook_dep_objective(self):
        from stochlp.fixtures import simple_problem
        from stochlp.model import build_deterministic_equivalent
        sol = solve_lp(build_deterministic_equivalent(simple_problem()))
        assert sol.objective == pytest.approx(-855.833333333333, abs=1e-6)

    def test_rejects_quadratic(self):
        qp = LPInstance(c=[0.0], A=np.zeros((0, 1)), rhs=[], row_senses=(),
                        lb=[0.0], ub=[1.0], qdiag=[1.0], qcenter=[0.0])
        with pytest.raises(ValueError):
            solve_lp(qp)

    def test_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(n, 4) + 1))
            c, A, b = random_standard_form(rng, n, m)
            lp = LPInstance(c=c, A=A, rhs=b, row_senses=("=",) * m,
                            lb=np.zeros(n), ub=np.full(n, np.inf))
            sol = solve_lp(lp)
            oracle = vertex_enumeration_min(c, A, b)
            assert oracle is not None
            if sol.status == kernel.UNBOUNDED:
                continue   # enumeration only sees vertices; skip unbounded
            assert sol.status == kernel.OPTIMAL
            assert sol.objective <= oracle[0] + 1e-6
            if sol.objective < oracle[0] - 1e-6:
                pytest.fail("simplex below the vertex optimum: infeasible point?")
            solved += 1
        assert solved >= 30

    def test_against_scipy_on_random_bounded(self):
        rng = np.random.default_rng(4)
        agree = 0
        for _ in range(200):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            ref = scipy_reference(lp)
            if sol.status == kernel.OPTIMAL:
                assert ref.status == 0
                assert sol.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
                assert primal_violation(lp, sol.x) <= 1e-7
                agree += 1
            elif sol.status == kernel.INFEASIBLE:
                assert certificate_gap(lp, sol.farkas) > 1e-9
                assert ref.status == 2
            else:
                # feasible + unbounded; HiGHS presolve may report either code
                probe = LPInstance(c=np.zeros(lp.nvars), A=lp.A, rhs=lp.rhs,
                                   row_senses=lp.row_senses, lb=lp.lb, ub=lp.ub)
                assert solve_lp(probe).status == kernel.OPTIMAL
        assert agree >= 50

    def test_strong_duality_on_200_instances(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status != kernel.OPTIMAL:
                continue
            dual_obj = float(sol.duals @ lp.rhs) if lp.nrows else 0.0
            z = sol.reduced_costs
            for j in range(lp.nvars):
                if z[j] > 1e-7:
                    dual_obj += z[j] * lp.lb[j]
                elif z[j] < -1e-7:
                    dual_obj += z[j] * lp.ub[j]
            assert abs(dual_obj - sol.objective) <= 1e-8 * (1.0 + abs(sol.objective)) * 100
            checked += 1

    def test_complementary_slackness(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 50:
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status != kernel.OPTIMAL:
                continue
            A = np.asarray(lp.A)
            res = A @ sol.x - lp.rhs if lp.nrows else np.zeros(0)
            for i, s in enumerate(lp.row_senses):
                if s == "=":
                    continue
                # nonzero dual => row active
                if abs(sol.duals[i]) > 1e-7:
                    assert abs(res[i]) <= 1e-6 * (1 + abs(lp.rhs[i]))
            checked += 1

    def test_dual_sign_convention(self):
        # >= row of a minimization: multiplier >= 0; <= row: <= 0
        lp = LPInstance(c=[1.0, 1.0], A=[[1.0, 0.0], [0.0, 1.0]], rhs=[2.0, 5.0],
                        row_senses=(">=", "<="), lb=[-np.inf, -np.inf],
                        ub=[np.inf, 4.0])
        sol = solve_lp(lp)
        assert sol.status == kernel.UNBOUNDED or sol.duals[0] >= -1e-9
        lp2 = LPInstance(c=[-1.0], A=[[1.0]], rhs=[3.0], row_senses=("<=",),
                         lb=[0.0], ub=[np.inf])
        sol2 = solve_lp(lp2)
        assert sol2.duals[0] <= 1e-9

    def test_farkas_certificates(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 40:
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status == kernel.INFEASIBLE:
                assert certificate_gap(lp, sol.farkas) > 1e-9
                found += 1

    def test_warm_start_soundness(self):
        rng = np.random.default_rng(8)
        n, m = 6, 5
        A = rng.normal(0, 1, (m, n))
        lb = np.zeros(n)
        ub = np.full(n, 8.0)
        senses = ("<=",) * m
        basis = None
        for k in range(60):
            rhs = A @ rng.uniform(1, 5, n) + rng.uniform(0, 1, m)
            c = rng.normal(0, 1, n)
            lp = LPInstance(c=c, A=A, rhs=rhs, row_senses=senses, lb=lb, ub=ub)
            cold = solve_lp(lp)
            warm = solve_lp(lp, warm_start=basis)
            assert cold.status == warm.status
            if cold.status == kernel.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-8,
                                                       rel=1e-8)
                basis = warm.basis

    @pytest.mark.parametrize("basic, vstat", [
        ([0, 7], [2, 0, 0, 2]),     # a basic index out of range
        ([2, 3], [7, 7, 2, 2]),     # not a status code
        ([2, 3], [-1, 0, 2, 2]),    # nor is a negative one
        ([2, 3], [1, 1, 2, 2]),     # nonbasic at an infinite upper bound
        ([2, 3], [2, 0, 0, 0]),     # vstat basic on other columns than basic
        ([1, 2], [0, 2, 2, 3]),     # a bounded slack marked free
    ])
    def test_invalid_warm_token_solves_cold(self, basic, vstat):
        lp = LPInstance(c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0],
                        row_senses=("<=", "<="), lb=[0.0, 0.0], ub=[np.inf, np.inf])
        token = kernel.Basis(np.array(basic), np.array(vstat, dtype=np.int8))
        sol = solve_lp(lp, warm_start=token)
        assert sol.status == kernel.OPTIMAL
        assert sol.objective == pytest.approx(-2.8, rel=1e-12)
        np.testing.assert_allclose(sol.x, [1.6, 1.2], rtol=1e-12)

    def test_iteration_limit_flagged(self):
        rng = np.random.default_rng(9)
        lp = random_bounded_lp(rng)
        assert solve_lp(lp).iterations > 1
        sol = solve_lp(lp, KernelConfig(max_iterations=1))
        assert sol.status == kernel.ITERATION_LIMIT
        assert sol.iterations == 1


def _with_rhs(lp, rhs):
    return LPInstance(c=lp.c, A=lp.A, rhs=rhs, row_senses=lp.row_senses,
                      lb=lp.lb, ub=lp.ub)


def _with_cuts(lp, basis, G, g):
    """``lp`` plus rows ``G x >= g``, and ``basis`` extended by their basic slacks."""
    k = G.shape[0]
    A = np.vstack([np.asarray(lp.A).reshape(lp.nrows, lp.nvars), G])
    grown = LPInstance(c=lp.c, A=A, rhs=np.concatenate([lp.rhs, g]),
                       row_senses=tuple(lp.row_senses) + (">=",) * k,
                       lb=lp.lb, ub=lp.ub)
    N = lp.nvars + lp.nrows
    warm = kernel.Basis(np.concatenate([basis.basic, np.arange(N, N + k)]),
                        np.concatenate([basis.vstat, np.full(k, 2, np.int8)]))
    return grown, warm


def warm_cases(seed, count):
    """``count`` (kind, lp, warm basis) triples of each kind, from optimal random LPs.

    ``rhs``: the rhs moved with c held, as in an L-shaped subproblem.
    ``rows``: ``>=`` rows violated at the optimum appended with basic
    slacks, as in a master after cuts.  Both leave the basis dual feasible.
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        lp = random_bounded_lp(rng)
        base = solve_lp(lp)
        if base.status != kernel.OPTIMAL:
            continue
        made += 1
        yield "rhs", _with_rhs(lp, lp.rhs + np.round(rng.normal(0, 2, lp.nrows), 3)), \
            base.basis
        k = int(rng.integers(1, 4))
        G = np.round(rng.normal(0, 2, (k, lp.nvars)), 3)
        g = G @ base.x + np.round(rng.uniform(0.01, 3.0, k), 3)
        yield ("rows",) + _with_cuts(lp, base.basis, G, g)


def assert_dual_certificate(lp, sol, tol=1e-7):
    """Sign convention, z = c - A^T y, and complementary slackness of an optimum."""
    A = np.asarray(lp.A).reshape(lp.nrows, lp.nvars)
    np.testing.assert_allclose(sol.reduced_costs, lp.c - A.T @ sol.duals, atol=1e-7)
    res = A @ sol.x - lp.rhs
    for i, s in enumerate(lp.row_senses):
        if s == ">=":
            assert sol.duals[i] >= -tol
        elif s == "<=":
            assert sol.duals[i] <= tol
        if s != "=" and abs(sol.duals[i]) > tol:
            assert abs(res[i]) <= 1e-6 * (1 + abs(lp.rhs[i]))
    for j, z in enumerate(sol.reduced_costs):
        if z > tol:
            assert sol.x[j] == pytest.approx(lp.lb[j], abs=1e-7)
        elif z < -tol:
            assert sol.x[j] == pytest.approx(lp.ub[j], abs=1e-7)


class TestDualSimplex:
    """Warm re-solves from a dual feasible basis take the dual simplex path."""

    def test_pivot_counters_sum_to_iterations(self):
        for kind, lp, basis in warm_cases(20, 50):
            for warm in (None, basis):
                sol = solve_lp(lp, warm_start=warm)
                assert set(sol.extras["pivots"]) == {"dual", "phase1", "phase2"}
                assert sum(sol.extras["pivots"].values()) == sol.iterations
                if warm is None:
                    assert sol.extras["pivots"]["dual"] == 0

    @pytest.mark.parametrize("kind", ["rhs", "rows"])
    def test_warm_matches_cold(self, kind):
        statuses = {}
        dual_optima = 0
        for k, lp, basis in warm_cases(21, 200):
            if k != kind:
                continue
            cold = solve_lp(lp)
            warm = solve_lp(lp, warm_start=basis)
            assert warm.status == cold.status
            statuses[warm.status] = statuses.get(warm.status, 0) + 1
            pivots = warm.extras["pivots"]
            if warm.status == kernel.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, rel=1e-8, abs=1e-8)
                assert primal_violation(lp, warm.x) <= 1e-7
                assert_dual_certificate(lp, warm)
                if pivots["phase1"] == pivots["phase2"] == 0:
                    dual_optima += 1
            else:
                assert warm.status == kernel.INFEASIBLE
                assert certificate_gap(lp, warm.farkas) > 1e-9
                assert warm.extras["infeasibility"] > 0
        assert statuses.get(kernel.OPTIMAL, 0) >= 50
        # the optimum is reached by dual pivots alone
        assert dual_optima == statuses[kernel.OPTIMAL]
        if kind == "rows":
            assert statuses.get(kernel.INFEASIBLE, 0) >= 20

    def test_violated_rows_take_dual_pivots(self):
        for kind, lp, basis in warm_cases(22, 50):
            if kind != "rows":
                continue
            sol = solve_lp(lp, warm_start=basis)
            if sol.status == kernel.OPTIMAL:
                assert sol.extras["pivots"]["dual"] >= 1
                assert sol.extras["pivots"]["phase1"] == 0

    def test_not_dual_feasible_warm_start_uses_primal(self):
        lp = LPInstance(c=[1.0, 2.0], A=[[1.0, 1.0]], rhs=[4.0], row_senses=(">=",),
                        lb=[0.0, 0.0], ub=[np.inf, np.inf])
        basis = solve_lp(lp).basis
        flipped = LPInstance(c=[2.0, 1.0], A=lp.A, rhs=lp.rhs, row_senses=lp.row_senses,
                             lb=lp.lb, ub=lp.ub)
        sol = solve_lp(flipped, warm_start=basis)
        assert sol.status == kernel.OPTIMAL
        assert sol.objective == pytest.approx(4.0)
        assert sol.extras["pivots"]["dual"] == 0
        assert sol.extras["pivots"]["phase2"] >= 1

    def test_iteration_limit_counts_dual_pivots(self):
        for kind, lp, basis in warm_cases(23, 400):
            full = solve_lp(lp, warm_start=basis)
            if full.status == kernel.OPTIMAL and full.extras["pivots"]["dual"] >= 2:
                break
        else:
            pytest.fail("no warm case needed two dual pivots")
        sol = solve_lp(lp, KernelConfig(max_iterations=1), warm_start=basis)
        assert sol.status == kernel.ITERATION_LIMIT
        assert sol.iterations == 1
        assert sol.extras["pivots"] == {"dual": 1, "phase1": 0, "phase2": 0}

    def test_maximization_duals_are_shadow_prices(self):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6; then tighten the second rhs
        # until x1 leaves the optimal basis
        lp = LPInstance(c=[1.0, 1.0], A=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0],
                        row_senses=("<=", "<="), lb=[0.0, 0.0], ub=[np.inf, np.inf],
                        sense="max")
        basis = solve_lp(lp).basis
        moved = LPInstance(c=lp.c, A=lp.A, rhs=[4.0, 1.0], row_senses=lp.row_senses,
                           lb=lp.lb, ub=lp.ub, sense="max")
        warm = solve_lp(moved, warm_start=basis)
        cold = solve_lp(moved)
        assert warm.extras["pivots"]["dual"] >= 1
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        np.testing.assert_allclose(warm.duals, cold.duals, atol=1e-12)


def degenerate_cases(seed, count):
    """``count`` (lp, grown, warm basis) triples of medium degenerate LPs.

    All rows of ``lp`` pass through one point ``x0`` with about half its
    coordinates at their lower bound, so ``x0`` is a degenerate vertex and
    cold solves take more than 60 pivots.  ``grown`` appends 80 ``>=`` rows
    that ``x0`` satisfies and the optimum of ``lp`` violates unless it is
    ``x0``, with ``warm`` that optimum's basis plus their basic slacks.
    """
    rng = np.random.default_rng(seed)
    n, m = 40, 50
    for _ in range(count):
        A = np.round(rng.normal(0, 1, (m, n)), 2)
        x0 = np.where(rng.random(n) < 0.5, 0.0, np.round(rng.uniform(0, 3, n), 2))
        lp = LPInstance(c=np.round(rng.normal(0, 1, n), 2), A=A, rhs=A @ x0,
                        row_senses=("<=",) * m, lb=np.zeros(n), ub=np.full(n, 5.0))
        base = solve_lp(lp)
        G = np.round(rng.normal(0, 1, (80, n)), 2)
        G *= np.sign(G @ (x0 - base.x))[:, None]
        yield (lp,) + _with_cuts(lp, base.basis, G, G @ (base.x + 3 * x0) / 4)


def assert_matches_highs(lp, sol):
    ref = scipy_reference(lp)
    assert sol.status == kernel.OPTIMAL and ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8, abs=1e-8)
    assert primal_violation(lp, sol.x) <= 1e-7
    assert_dual_certificate(lp, sol)


class TestLongSolves:
    """Solves long enough to refactorize the inverse and to meet degeneracy."""

    def test_cold(self):
        for lp, _, _ in degenerate_cases(30, 6):
            sol = solve_lp(lp)
            assert sol.iterations > kernel._REFACTOR_EVERY
            assert_matches_highs(lp, sol)

    def test_warm(self):
        long = 0
        for _, grown, warm in degenerate_cases(31, 6):
            sol = solve_lp(grown, warm_start=warm)
            assert_matches_highs(grown, sol)
            long += sol.extras["pivots"]["dual"] > kernel._REFACTOR_EVERY
        assert long >= 2

    def test_bland_from_the_first_degenerate_pivot(self, monkeypatch):
        cases = list(degenerate_cases(32, 4))
        dantzig = [solve_lp(lp).extras["pivots"] for lp, _, _ in cases]
        monkeypatch.setattr(kernel, "_STALL_LIMIT", 0)
        bland = []
        for lp, grown, warm in cases:
            sol = solve_lp(lp)
            assert_matches_highs(lp, sol)
            bland.append(sol.extras["pivots"])
            assert_matches_highs(grown, solve_lp(grown, warm_start=warm))
        assert bland != dantzig     # Bland's rule did choose other pivots


def grid_qp_oracle(lp, span, resolution):
    """Grid search over the quadratic coordinates with an inner LP for the rest."""
    idx = np.flatnonzero(lp.qdiag > 0)
    free = np.setdiff1d(np.arange(lp.nvars), idx)
    A = np.asarray(lp.A)
    grids = [np.arange(max(lp.lb[j], lp.qcenter[j] - span),
                       min(lp.ub[j], lp.qcenter[j] + span) + resolution, resolution)
             for j in idx]
    if not free.size:
        # every grid point at once, one point per row
        points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, idx.size)
        quad = points @ lp.c[idx] + 0.5 * np.sum(
            lp.qdiag[idx] * (points - lp.qcenter[idx]) ** 2, axis=1)
        viol = points @ A[:, idx].T - lp.rhs
        ok = np.ones(len(points), dtype=bool)
        for s, v in zip(lp.row_senses, viol.T):
            ok &= (v <= 1e-9) if s == "<=" else (v >= -1e-9) if s == ">=" else (np.abs(v) <= 1e-9)
        return (quad[ok].min() if ok.any() else np.inf) + lp.c0
    best = np.inf
    for point in itertools.product(*grids):
        point = np.asarray(point)
        quad = lp.c[idx] @ point + 0.5 * np.sum(lp.qdiag[idx] * (point - lp.qcenter[idx]) ** 2)
        sub = LPInstance(c=lp.c[free], A=A[:, free],
                         rhs=lp.rhs - A[:, idx] @ point,
                         row_senses=lp.row_senses,
                         lb=lp.lb[free], ub=lp.ub[free])
        sol = solve_lp(sub)
        if sol.status == kernel.OPTIMAL:
            best = min(best, quad + sol.objective)
    return best + lp.c0


class TestSolveQP:
    def test_box_projection(self):
        qp = LPInstance(c=[0.0], A=np.zeros((0, 1)), rhs=[], row_senses=(),
                        lb=[0.0], ub=[1.0], qdiag=[2.0], qcenter=[2.0])
        sol = solve_qp_diagonal(qp)
        assert sol.status == kernel.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_interior_stationary_point(self):
        qp = LPInstance(c=[1.0], A=np.zeros((0, 1)), rhs=[], row_senses=(),
                        lb=[-3.0], ub=[np.inf], qdiag=[1.0], qcenter=[0.0])
        sol = solve_qp_diagonal(qp)
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-6)

    def test_ph_subproblem_against_grid_oracle(self):
        from stochlp.fixtures import simple_problem
        from stochlp.phedging import solve_ph_subproblem
        p = simple_problem()
        xi = np.array([40.0, 20.0])
        x_s, y_s, obj, _ = solve_ph_subproblem(p.first, p.shape, p.scenarios[0],
                                               xi, np.zeros(2), 100.0)
        # oracle: grid over (x1, x2) with inner LP over y
        from stochlp.model import _ws_instance
        ws = _ws_instance(p.first, p.shape, p.scenarios[0])
        qd = np.zeros(ws.nvars); qd[:2] = 100.0
        qc = np.zeros(ws.nvars); qc[:2] = xi
        qp = LPInstance(c=ws.c, A=ws.A, rhs=ws.rhs, row_senses=ws.row_senses,
                        lb=ws.lb, ub=ws.ub, qdiag=qd, qcenter=qc)
        sol = solve_qp_diagonal(qp)
        coarse = grid_qp_oracle(qp, span=2.0, resolution=0.05)
        assert sol.objective <= coarse + 1e-3
        assert sol.objective >= coarse - 0.5   # grid upper-bounds the optimum

    def test_small_random_against_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            qd = rng.uniform(0.5, 3.0, n)
            qc = rng.uniform(-1, 1, n)
            c = rng.normal(0, 1, n)
            qp = LPInstance(c=c, A=np.zeros((0, n)), rhs=[], row_senses=(),
                            lb=np.full(n, -4.0), ub=np.full(n, 4.0),
                            qdiag=qd, qcenter=qc)
            sol = solve_qp_diagonal(qp)
            oracle = grid_qp_oracle(qp, span=4.0, resolution=0.01)
            assert sol.objective == pytest.approx(oracle, abs=1e-3)

    def test_kkt_residual_small(self):
        qp = LPInstance(c=[1.0, -1.0], A=[[1.0, 1.0]], rhs=[1.0],
                        row_senses=("<=",), lb=[0.0, 0.0], ub=[np.inf, np.inf],
                        qdiag=[1.0, 1.0], qcenter=[0.0, 0.0])
        sol = solve_qp_diagonal(qp)
        assert sol.status == kernel.OPTIMAL
        assert primal_violation(qp, sol.x) <= 1e-6
        grad = qp.c + qp.qdiag * (sol.x - qp.qcenter)
        lag = grad - np.asarray(qp.A).T @ sol.duals
        # at an interior optimum of nonnegative variables the gradient residual
        # is complementary with x
        assert float(np.abs(lag * sol.x).max()) <= 1e-5


class TestLinearizePenalty:
    def _toy(self):
        return LPInstance(c=[1.0, 0.5], A=[[1.0, 1.0]], rhs=[3.0],
                          row_senses=(">=",), lb=[0.0, 0.0], ub=[10.0, 10.0],
                          qdiag=[2.0, 2.0], qcenter=[1.0, 1.0])

    def test_zero_penalty_at_center_solution(self):
        base = LPInstance(c=[1.0, 0.5], A=[[1.0, 1.0]], rhs=[3.0],
                          row_senses=(">=",), lb=[0.0, 0.0], ub=[10.0, 10.0])
        opt = solve_lp(base)
        qp = LPInstance(c=base.c, A=base.A, rhs=base.rhs, row_senses=base.row_senses,
                        lb=base.lb, ub=base.ub, qdiag=[5.0, 5.0], qcenter=opt.x)
        lin = linearize_penalty(qp, "one")
        sol = solve_lp(lin)
        np.testing.assert_allclose(sol.x[:2], opt.x, atol=1e-7)

    def test_l1_matches_hand_expansion(self):
        qp = self._toy()
        lin = linearize_penalty(qp, "one")
        sol = solve_lp(lin)
        # hand expansion: min c x + 2(p1+n1+p2+n2), x - p + n = center
        n = 2
        A = np.zeros((1 + n, 3 * n))
        A[0, :n] = [1.0, 1.0]
        A[1:, :n] = np.eye(n)
        A[1:, n:2 * n] = -np.eye(n)
        A[1:, 2 * n:] = np.eye(n)
        hand = LPInstance(c=[1.0, 0.5, 2.0, 2.0, 2.0, 2.0], A=A,
                          rhs=[3.0, 1.0, 1.0], row_senses=(">=", "=", "="),
                          lb=[0.0] * 6, ub=[10.0, 10.0] + [np.inf] * 4)
        ref = solve_lp(hand)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-8)

    def test_linf_vs_l1_relation(self):
        qp = self._toy()
        l1 = solve_lp(linearize_penalty(qp, "one"))
        li = solve_lp(linearize_penalty(qp, "inf"))
        # max-norm penalty is no larger than the l1 penalty at any point
        assert li.objective <= l1.objective + 1e-8

    def test_feasibility_of_returned_point(self):
        qp = self._toy()
        for norm in ("one", "inf"):
            sol = solve_lp(linearize_penalty(qp, norm))
            base = LPInstance(c=qp.c, A=qp.A, rhs=qp.rhs, row_senses=qp.row_senses,
                              lb=qp.lb, ub=qp.ub)
            assert primal_violation(base, sol.x[:2]) <= 1e-8

    def test_nonuniform_rejected(self):
        qp = LPInstance(c=[0.0, 0.0], A=np.zeros((0, 2)), rhs=[], row_senses=(),
                        lb=[0.0, 0.0], ub=[1.0, 1.0], qdiag=[1.0, 2.0],
                        qcenter=[0.0, 0.0])
        with pytest.raises(UnsupportedQuadratic):
            linearize_penalty(qp, "one")


class TestMpsDump:
    def test_dump_reparse_same_optimum(self):
        from stochlp.smps import parse_mps
        rng = np.random.default_rng(13)
        for _ in range(10):
            lp = random_bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status != kernel.OPTIMAL:
                continue
            text = write_mps(lp)
            mps = parse_mps(text)
            rows = mps.row_names()
            n = len(mps.cols)
            A = np.zeros((len(rows), n))
            for (row, col), v in mps.entries.items():
                A[rows.index(row), mps.cols.index(col)] = v
            lp2 = LPInstance(
                c=[mps.obj.get(cn, 0.0) for cn in mps.cols], A=A,
                rhs=[mps.rhs.get(rn, 0.0) for rn in rows],
                row_senses=tuple(s for _, s in mps.rows),
                lb=[mps.lb.get(cn, 0.0) for cn in mps.cols],
                ub=[mps.ub.get(cn, np.inf) for cn in mps.cols])
            sol2 = solve_lp(lp2)
            assert sol2.objective == pytest.approx(sol.objective, abs=1e-9,
                                                   rel=1e-9)
