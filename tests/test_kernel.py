"""LP/QP kernel checks against independent oracles.

The vertex-enumeration oracle solves standard-form instances (x >= 0,
equality rows) by enumerating basic solutions; general bounded instances
are cross-checked against scipy's HiGHS.  The QP path is checked against a
grid search with an inner LP.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from stochlp import kernel
from stochlp.errors import (
    InfeasibleProblem,
    InfeasibleScenario,
    MasterInfeasible,
    NumericalBreakdown,
    UnboundedProblem,
    UnboundedSubproblem,
)
from stochlp.kernel import (
    linearize_penalty,
    primal_violation,
    solve_lp,
    solve_qp_diagonal,
    write_mps,
)
from stochlp.model import LPInstance

from _problems import stack_of_one


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


def certificate_gap(lp, y, tol=1e-7):
    """Certified infeasibility margin of a Farkas row certificate.

    Positive means ``y`` proves that no point within the bounds satisfies
    the rows: y^T rhs exceeds the supremum of y^T A x over the bound box
    (slack senses included).  Coefficients within ``tol`` of the cone are
    treated as exactly on it.
    """
    slack_of = {"<=": (0.0, np.inf), ">=": (-np.inf, 0.0), "=": (0.0, 0.0)}
    slack_lo, slack_hi = (np.array([slack_of[s][k] for s in lp.row_senses], dtype=float)
                          for k in (0, 1))
    a = np.concatenate([y @ np.asarray(lp.A, dtype=float), y])   # on the columns, then the slacks
    a[np.abs(a) <= tol * max(1.0, np.abs(y).max(initial=0.0))] = 0.0
    bound = np.where(a > 0, np.concatenate([lp.ub, slack_hi]),
                     np.concatenate([lp.lb, slack_lo]))[a != 0]
    if np.isinf(bound).any():
        return -np.inf
    return float(y @ lp.rhs - a[a != 0] @ bound)     # finite slack bounds are 0


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

    def test_iteration_limit_flagged(self, monkeypatch):
        rng = np.random.default_rng(9)
        lp = random_bounded_lp(rng)
        assert solve_lp(lp).iterations > 1
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        sol = solve_lp(lp)
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


class TestRequireOptimal:
    """The one mapping from a solver status to the package's errors."""

    def test_optimal_returns_the_solution(self):
        sol = kernel.LPSolution(status=kernel.OPTIMAL)
        assert kernel.require_optimal(sol, "LP") is sol

    @pytest.mark.parametrize("status, scenario, error, message", [
        (kernel.INFEASIBLE, None, InfeasibleProblem, "^LP ended infeasible$"),
        (kernel.INFEASIBLE, 2, InfeasibleScenario, "^scenario 2 has an infeasible"),
        (kernel.UNBOUNDED, None, UnboundedProblem, "^LP ended unbounded$"),
        (kernel.UNBOUNDED, 2, UnboundedSubproblem, "^LP of scenario 2 ended unbounded$"),
        (kernel.ITERATION_LIMIT, None, NumericalBreakdown, "^LP ended iteration_limit$"),
        (kernel.ITERATION_LIMIT, 2, NumericalBreakdown,
         "^LP of scenario 2 ended iteration_limit$"),
    ])
    def test_other_statuses_raise(self, status, scenario, error, message):
        with pytest.raises(error, match=message) as exc:
            kernel.require_optimal(kernel.LPSolution(status=status), "LP", scenario)
        if scenario is not None and error is not NumericalBreakdown:
            assert exc.value.scenario == scenario

    def test_scenario_errors_are_the_problem_errors(self):
        assert issubclass(InfeasibleScenario, InfeasibleProblem)
        assert issubclass(MasterInfeasible, InfeasibleProblem)
        assert issubclass(UnboundedSubproblem, UnboundedProblem)


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

    def test_iteration_limit_counts_dual_pivots(self, monkeypatch):
        for kind, lp, basis in warm_cases(23, 400):
            full = solve_lp(lp, warm_start=basis)
            if full.status == kernel.OPTIMAL and full.extras["pivots"]["dual"] >= 2:
                break
        else:
            pytest.fail("no warm case needed two dual pivots")
        monkeypatch.setattr(kernel, "MAX_PIVOTS", 1)
        sol = solve_lp(lp, warm_start=basis)
        assert sol.status == kernel.ITERATION_LIMIT
        assert sol.iterations == 1
        assert sol.extras["pivots"] == {"dual": 1, "phase1": 0, "phase2": 0}

    def test_maximization_duals_are_shadow_prices(self):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6, as min -x1 - x2; then
        # tighten the second rhs until x1 leaves the optimal basis
        lp = LPInstance(c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], rhs=[4.0, 6.0],
                        row_senses=("<=", "<="), lb=[0.0, 0.0], ub=[np.inf, np.inf])
        basis = solve_lp(lp).basis
        moved = LPInstance(c=lp.c, A=lp.A, rhs=[4.0, 1.0], row_senses=lp.row_senses,
                           lb=lp.lb, ub=lp.ub)
        warm = solve_lp(moved, warm_start=basis)
        cold = solve_lp(moved)
        assert warm.extras["pivots"]["dual"] >= 1
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        np.testing.assert_allclose(warm.duals, cold.duals, atol=1e-12)
        # the shadow prices of the maximization, -duals, are >= 0 on its <= rows
        assert (-warm.duals >= -1e-12).all()


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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 8),
       share=st.floats(0.0, 1.0))
@example(seed=0, m=5, n=7, share=0.0)       # every basic column a slack
@example(seed=1, m=5, n=7, share=1.0)       # no slack basic
@example(seed=2, m=6, n=2, share=1.0)       # more rows than structural columns
def test_basis_inverse_matches_dense(seed, m, n, share):
    """The slack-block inverse of a random basis of ``[A | I]`` is the dense one."""
    rng = np.random.default_rng(seed)
    A = np.hstack([rng.normal(0, 2, (m, n)), np.eye(m)])
    k = round(share * min(m, n))
    basic = rng.permutation(np.concatenate([rng.choice(n, k, replace=False),
                                            n + rng.choice(m, m - k, replace=False)]))
    B = A[:, basic]
    assume(np.linalg.cond(B) < 1e6)
    dense = np.linalg.inv(B)
    got = kernel._basis_inverse(A, basic, n)
    assert np.abs(got - dense).max() <= 1e-9 * np.abs(dense).max()


def _loop_violation(lp, x):
    """Reference: the per-row loop that measured a point's largest violation."""
    ax = np.asarray(lp.A) @ x
    v = max(np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0))
    for i, s in enumerate(lp.row_senses):
        if s == "<=":
            v = max(v, ax[i] - lp.rhs[i])
        elif s == ">=":
            v = max(v, lp.rhs[i] - ax[i])
        else:
            v = max(v, abs(ax[i] - lp.rhs[i]))
    return float(v)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([0.0, 1e-9, 1.0, 10.0]))
def test_primal_violation_matches_the_row_loop(seed, spread):
    rng = np.random.default_rng(seed)
    lp = random_bounded_lp(rng)
    x = np.clip(rng.normal(0, 3, lp.nvars), lp.lb, lp.ub) + spread * rng.normal(0, 1, lp.nvars)
    assert primal_violation(lp, x) == _loop_violation(lp, x)


class TestSingularBasis:
    """A basis whose structural block A_RC is singular is never inverted.

    Structural columns 0 and 1 differ only on row 2, whose slack is basic,
    so they are independent while their block on rows 0 and 1 is singular.
    """

    LP = LPInstance(c=[1.0, 1.0, 1.0], A=[[1.0, 1.0, 1.0], [2.0, 2.0, 0.0], [0.0, 5.0, 1.0]],
                    rhs=[1.0, 1.0, 1.0], row_senses=("<=", "<=", "<="),
                    lb=[0.0, 0.0, 0.0], ub=[1.0, 1.0, 1.0])
    BASIC = np.array([0, 1, 5])

    def test_warm_token_is_dropped(self):
        vstat = np.full(6, kernel._AT_LB, dtype=np.int8)
        vstat[self.BASIC] = kernel._BASIC
        tab = kernel._Tableau(self.LP)
        token = kernel.Basis(self.BASIC, vstat)
        assert kernel._usable_basis(token, tab.A, tab.lb, tab.ub) is None
        sol = solve_lp(self.LP, warm_start=token)
        assert sol.extras["pivots"]["dual"] == 0          # solved cold
        assert_matches_highs(self.LP, sol)

    def test_refactor_raises(self):
        wb = kernel._WorkingBasis(kernel._Tableau(self.LP), None)
        wb.basic = self.BASIC.copy()
        with pytest.raises(NumericalBreakdown, match="singular basis during refactorization"):
            wb.refactor()


def test_no_inverse_larger_than_the_structural_columns(monkeypatch):
    """Multi-cut L-shaped inverts no block larger than the master's x and θ columns."""
    from stochlp.lshaped import LShapedConfig, solve_lshaped
    from _problems import farmer_instance
    p = farmer_instance(40, 1)
    shapes = []
    inv = np.linalg.inv

    def recording(a):
        shapes.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording)
    rep = solve_lshaped(p, LShapedConfig(cuts="multi"))
    assert rep.status == "optimal"
    assert shapes and max(max(s) for s in shapes) <= p.n + p.nscen


def grid_qp_oracle(lp, D, z, span, resolution):
    """Minimum of ``lp``'s objective plus 1/2 sum D (x - z)^2: a grid search over
    the coordinates with D > 0 and an inner LP for the rest."""
    D, z = np.asarray(D, dtype=float), np.asarray(z, dtype=float)
    idx = np.flatnonzero(D > 0)
    free = np.setdiff1d(np.arange(lp.nvars), idx)
    A = lp.A
    grids = [np.arange(max(lp.lb[j], z[j] - span), min(lp.ub[j], z[j] + span) + resolution,
                       resolution)
             for j in idx]
    if not free.size:
        # every grid point at once, one point per row
        points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, idx.size)
        quad = points @ lp.c[idx] + 0.5 * np.sum(D[idx] * (points - z[idx]) ** 2, axis=1)
        viol = points @ A[:, idx].T - lp.rhs
        ok = np.ones(len(points), dtype=bool)
        for s, v in zip(lp.row_senses, viol.T):
            ok &= (v <= 1e-9) if s == "<=" else (v >= -1e-9) if s == ">=" else (np.abs(v) <= 1e-9)
        return quad[ok].min() if ok.any() else np.inf
    best = np.inf
    for point in itertools.product(*grids):
        point = np.asarray(point)
        quad = lp.c[idx] @ point + 0.5 * np.sum(D[idx] * (point - z[idx]) ** 2)
        sub = LPInstance(c=lp.c[free], A=A[:, free],
                         rhs=lp.rhs - A[:, idx] @ point,
                         row_senses=lp.row_senses,
                         lb=lp.lb[free], ub=lp.ub[free])
        sol = solve_lp(sub)
        if sol.status == kernel.OPTIMAL:
            best = min(best, quad + sol.objective)
    return best


def solve_one(lp, D, z):
    """``lp`` plus 1/2 sum D (x - z)^2, solved as a stack of one: member 0's solution."""
    return solve_qp_diagonal(stack_of_one(lp, D, z)).member(0)


class TestSolveQP:
    def test_box_projection(self):
        lp = LPInstance(c=[0.0], A=np.zeros((0, 1)), rhs=[], row_senses=(), lb=[0.0], ub=[1.0])
        sol = solve_one(lp, [2.0], [2.0])
        assert sol.status == kernel.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_interior_stationary_point(self):
        lp = LPInstance(c=[1.0], A=np.zeros((0, 1)), rhs=[], row_senses=(),
                        lb=[-3.0], ub=[np.inf])
        sol = solve_one(lp, [1.0], [0.0])
        assert sol.x[0] == pytest.approx(-1.0, abs=1e-6)

    def test_ph_subproblem_against_grid_oracle(self):
        from stochlp.fixtures import simple_problem
        from stochlp.phedging import ProximalStacks, solve_ph_subproblem
        p = simple_problem()
        xi = np.array([40.0, 20.0])
        solve_ph_subproblem(ProximalStacks(p), [0], xi, np.zeros((p.nscen, 2)), 100.0)
        # oracle: grid over (x1, x2) with inner LP over y
        from stochlp.model import build_wait_and_see
        ws = build_wait_and_see(p, 0)
        qd = np.zeros(ws.nvars); qd[:2] = 100.0
        qc = np.zeros(ws.nvars); qc[:2] = xi
        sol = solve_one(ws, qd, qc)
        coarse = grid_qp_oracle(ws, qd, qc, span=2.0, resolution=0.05)
        assert sol.objective <= coarse + 1e-3
        assert sol.objective >= coarse - 0.5   # grid upper-bounds the optimum

    def test_small_random_against_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 3))
            qd = rng.uniform(0.5, 3.0, n)
            qc = rng.uniform(-1, 1, n)
            c = rng.normal(0, 1, n)
            lp = LPInstance(c=c, A=np.zeros((0, n)), rhs=[], row_senses=(),
                            lb=np.full(n, -4.0), ub=np.full(n, 4.0))
            sol = solve_one(lp, qd, qc)
            oracle = grid_qp_oracle(lp, qd, qc, span=4.0, resolution=0.01)
            assert sol.objective == pytest.approx(oracle, abs=1e-3)

    def test_kkt_residual_small(self):
        lp = LPInstance(c=[1.0, -1.0], A=[[1.0, 1.0]], rhs=[1.0],
                        row_senses=("<=",), lb=[0.0, 0.0], ub=[np.inf, np.inf])
        qp = stack_of_one(lp, [1.0, 1.0], [0.0, 0.0])
        res = solve_qp_diagonal(qp)
        assert res.status[0] == kernel.OPTIMAL
        x, lam, y = res.iterate.x[0], res.iterate.lam[0], res.iterate.y[0]
        assert primal_violation(lp, x) <= 1e-6
        # stationarity D (x - z) + c + AE^T y + G^T lam = 0 from the iterate's
        # multipliers, which are >= 0 on G x <= g and complementary with its slack
        grad = qp.D[0] * (x - qp.z[0]) + qp.c[0] + qp.AE[0].T @ y + qp.G[0].T @ lam
        assert float(np.abs(grad).max()) <= 1e-6
        assert (lam >= 0.0).all()
        assert float(np.abs(lam * (qp.g[0] - qp.G[0] @ x)).max()) <= 1e-6


class TestLinearizePenalty:
    def _toy(self):
        """An LP whose proximal term is r = 2 around (1, 1)."""
        return LPInstance(c=[1.0, 0.5], A=[[1.0, 1.0]], rhs=[3.0],
                          row_senses=(">=",), lb=[0.0, 0.0], ub=[10.0, 10.0])

    def test_zero_penalty_at_center_solution(self):
        base = self._toy()
        opt = solve_lp(base)
        sol = solve_lp(linearize_penalty(base, 5.0, opt.x, "one"))
        np.testing.assert_allclose(sol.x[:2], opt.x, atol=1e-7)

    def test_l1_matches_hand_expansion(self):
        sol = solve_lp(linearize_penalty(self._toy(), 2.0, [1.0, 1.0], "one"))
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
        l1 = solve_lp(linearize_penalty(self._toy(), 2.0, [1.0, 1.0], "one"))
        li = solve_lp(linearize_penalty(self._toy(), 2.0, [1.0, 1.0], "inf"))
        # max-norm penalty is no larger than the l1 penalty at any point
        assert li.objective <= l1.objective + 1e-8

    def test_feasibility_of_returned_point(self):
        base = self._toy()
        for norm in ("one", "inf"):
            sol = solve_lp(linearize_penalty(base, 2.0, [1.0, 1.0], norm))
            assert primal_violation(base, sol.x[:2]) <= 1e-8


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
