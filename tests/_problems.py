"""Seeded random instance generators shared by the test modules.

``random_rcr_problem`` enforces relatively complete recourse by giving every
second-stage row a dedicated one-sided slack column with positive cost, so
any first-stage point has a feasible (and bounded) recourse.
``random_norrc_problem`` drops those slacks on capacity rows, so feasibility
cuts are required.  ``dep_optimum`` is the reference the solvers are checked
against: the DEP solved whole, whatever path ``analysis.vrp`` takes.
``highs_dep_optimum`` is the same optimum from HiGHS, built without the package.
``stack_of_one`` turns an LP plus a proximal term into the kernel's QP input.
"""

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

from stochlp import kernel
from stochlp.fixtures import farmer_model, farmer_scenario
from stochlp.model import (
    FirstStage,
    RecourseShape,
    Scenario,
    build_deterministic_equivalent,
    build_problem,
)


def dep_optimum(problem):
    """Optimal value and first-stage decision of the DEP, built and solved whole."""
    sol = kernel.solve_lp(build_deterministic_equivalent(problem))
    kernel.require_optimal(sol, "DEP solve")
    return sol.objective, sol.x[:problem.n]


def highs_dep_optimum(problem):
    """Optimal value of the DEP, assembled here from the problem's arrays and solved by HiGHS.

    Neither the package's DEP builder nor its kernel takes part, as in
    ``perfbench/oracle.py``, so a fault they share cannot agree with itself.
    """
    first, batch, W = problem.first, problem.batch, problem.shape.W
    S, r, n = batch.T.shape
    A = np.block([[first.A, np.zeros((first.A.shape[0], S * W.shape[1]))],
                  [batch.T.reshape(S * r, n), block_diag(*[W] * S)]])
    rhs = np.concatenate([first.b, batch.h.ravel()])
    senses = np.array(first.row_senses + sum(batch.senses, ()), dtype=object)
    sign = np.where(senses == ">=", -1.0, 1.0)
    ineq, eq = senses != "=", senses == "="
    res = linprog(np.concatenate([first.c, (batch.probability[:, None] * batch.q).ravel()]),
                  A_ub=sign[ineq, None] * A[ineq], b_ub=sign[ineq] * rhs[ineq],
                  A_eq=A[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                  bounds=np.column_stack([np.concatenate([first.lb, batch.lb.ravel()]),
                                          np.concatenate([first.ub, batch.ub.ravel()])]),
                  method="highs")
    assert res.status == 0, f"HiGHS ended with status {res.status}: {res.message}"
    return float(res.fun)


def stack_of_one(lp, D, z):
    """``lp`` plus 1/2 sum_j D_j (x_j - z_j)^2 as a ``kernel.QPStack`` of one."""
    D, z = (np.asarray(v, dtype=float)[None] for v in (D, z))
    return kernel.qp_stack(lp.c[None], lp.A[None], lp.rhs[None], lp.row_senses,
                           lp.lb[None], lp.ub[None], D, z)


def farmer_instance(S, seed):
    """Farmer with S equiprobable scenarios, yields scaled by one U(0.8, 1.2) factor each."""
    model = farmer_model()
    factors = np.random.default_rng(seed).uniform(0.8, 1.2, S)
    return build_problem(model.first, model.shape,
                         [farmer_scenario(1.0 / S, f * np.array([2.5, 3.0, 20.0]))
                          for f in factors])


def _first_stage(rng, n):
    p = int(rng.integers(0, 3))
    lb = np.zeros(n)
    ub = rng.uniform(2.0, 10.0, n)
    x0 = rng.uniform(lb, ub)
    A = np.round(rng.normal(0, 1.0, (p, n)), 3)
    senses = []
    b = np.empty(p)
    for i in range(p):
        s = rng.choice(["<=", ">="])
        senses.append(s)
        margin = rng.uniform(0.5, 2.0)
        b[i] = A[i] @ x0 + (margin if s == "<=" else -margin)
    c = np.round(rng.normal(0, 2.0, n), 3)
    return FirstStage(c=c, A=A, b=b, row_senses=tuple(senses), lb=lb, ub=ub)


def random_rcr_problem(seed, n_max=6, m_max=6, r_max=6, s_max=8):
    """Feasible, bounded instance with relatively complete recourse."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    r = int(rng.integers(1, min(r_max, 4) + 1))
    m_extra = int(rng.integers(1, max(2, m_max - r + 1)))
    m = m_extra + r
    first = _first_stage(rng, n)

    senses = tuple(rng.choice(["<=", ">="], r))
    W = np.round(rng.normal(0, 1.0, (r, m)), 3)
    for i, s in enumerate(senses):
        col = m_extra + i
        W[:, col] = 0.0
        W[i, col] = 1.0 if s == ">=" else -1.0   # one-sided slack per row
    lb2 = np.zeros(m)
    ub2 = np.concatenate([rng.uniform(1.0, 6.0, m_extra), np.full(r, np.inf)])
    shape = RecourseShape(W=W, sense="min", row_senses=senses, lb=lb2, ub=ub2)

    S = int(rng.integers(2, s_max + 1))
    scenarios = []
    weights = rng.uniform(0.2, 1.0, S)
    weights /= weights.sum()
    base_T = np.round(rng.normal(0, 1.0, (r, n)) * (rng.random((r, n)) < 0.8), 3)
    base_q = np.concatenate([np.round(rng.normal(0, 1.5, m_extra), 3),
                             rng.uniform(0.5, 3.0, r)])
    for k in range(S):
        T = base_T + np.round(rng.normal(0, 0.3, (r, n)), 3)
        q = base_q.copy()
        q[:m_extra] += np.round(rng.normal(0, 0.5, m_extra), 3)
        h = np.round(rng.normal(0, 2.0, r), 3)
        scenarios.append(Scenario(probability=weights[k], q=q, T=T, h=h))
    return build_problem(first, shape, scenarios)


def random_norrc_problem(seed, n_max=4, m_max=4, r_max=3, s_max=6):
    """Instance lacking relatively complete recourse, DEP-feasible by anchor.

    One capacity row per instance has bounded recourse and no slack: the
    feasible first-stage set is cut by second-stage feasibility, and the
    first-stage objective rewards walking into the infeasible region.
    """
    rng = np.random.default_rng(seed + 77000)
    n = int(rng.integers(1, n_max + 1))
    r = int(rng.integers(2, r_max + 1))
    m = r + 1
    lb = np.zeros(n)
    ub = rng.uniform(4.0, 10.0, n)
    c = -rng.uniform(0.5, 2.0, n)          # rewards large x
    first = FirstStage(c=c, A=np.zeros((0, n)), b=[], row_senses=(), lb=lb, ub=ub)

    senses = [">="] * r
    W = np.zeros((r, m))
    caps = np.full(m, np.inf)
    q2 = np.empty(m)
    # row 0: capacity row, y_0 in [0, cap], no slack -> induced constraint on x
    W[0, 0] = 1.0
    caps[0] = rng.uniform(1.0, 3.0)
    q2[0] = rng.uniform(0.2, 1.0)
    for i in range(1, r):
        W[i, i] = 1.0                       # slack-covered rows stay feasible
        q2[i] = rng.uniform(0.2, 1.5)
        caps[i] = np.inf
    W[:, m - 1] = rng.uniform(0.0, 0.5, r)
    q2[m - 1] = rng.uniform(0.5, 1.5)
    caps[m - 1] = rng.uniform(1.0, 4.0)
    shape = RecourseShape(W=W, sense="min", row_senses=tuple(senses),
                          lb=np.zeros(m), ub=caps)

    S = int(rng.integers(2, s_max + 1))
    weights = rng.uniform(0.2, 1.0, S)
    weights /= weights.sum()
    t_row = rng.uniform(0.3, 1.0, n)        # h + t.x <= cap must bind for some x
    scenarios = []
    for k in range(S):
        T = np.round(rng.normal(0, 0.4, (r, n)), 3)
        T[0] = -t_row
        h = np.round(rng.normal(0, 1.0, r), 3)
        # anchor x = 0 feasible: need h[0] <= cap0 (max of y0); keep strictly inside
        h[0] = rng.uniform(0.2, 0.8) * caps[0]
        q = q2 + np.concatenate([np.round(rng.normal(0, 0.2, m - 1), 3), [0.0]])
        q = np.maximum(q, 0.05)
        scenarios.append(Scenario(probability=weights[k], q=q, T=T, h=h))
    return build_problem(first, shape, scenarios)


def first_stage_feasible_points(problem, count, seed):
    """Sample feasible first-stage points by l1 projection of box samples."""
    from stochlp.model import LPInstance

    rng = np.random.default_rng(seed)
    first = problem.first
    n = first.n
    pts = []
    hi = np.where(np.isfinite(first.ub), first.ub, first.lb + 10.0)
    for _ in range(count):
        target = rng.uniform(first.lb, hi)
        # min sum |x - target| over the first-stage polyhedron
        c = np.concatenate([np.zeros(n), np.ones(2 * n)])
        A1 = first.A if isinstance(first.A, np.ndarray) else np.asarray(first.A.todense())
        A = np.zeros((first.p + n, 3 * n))
        A[:first.p, :n] = A1
        A[first.p:, :n] = np.eye(n)
        A[first.p:, n:2 * n] = -np.eye(n)
        A[first.p:, 2 * n:] = np.eye(n)
        rhs = np.concatenate([first.b, target])
        senses = first.row_senses + ("=",) * n
        lp = LPInstance(c=c, A=A, rhs=rhs, row_senses=senses,
                        lb=np.concatenate([first.lb, np.zeros(2 * n)]),
                        ub=np.concatenate([first.ub, np.full(2 * n, np.inf)]))
        sol = kernel.solve_lp(lp)
        if sol.status == kernel.OPTIMAL:
            pts.append(sol.x[:n])
    return pts


def infeasible_problem(copies=1):
    """``copies`` scenarios of min x + y with y <= 4, y >= x + 5, x >= 0: nothing is feasible."""
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(), lb=[0.0])
    shape = RecourseShape(W=[[1.0], [1.0]], sense="min", row_senses=("<=", ">="))
    sc = Scenario(probability=1.0 / copies, q=[1.0], T=[[0.0], [-1.0]], h=[4.0, 5.0])
    return build_problem(first, shape, [sc] * copies)


def unbounded_recourse_problem():
    """Recourse min -y1 s.t. y1 - y2 >= 0, y >= 0: unbounded at every x in [0, 1]."""
    first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                       lb=[0.0], ub=[1.0])
    shape = RecourseShape(W=[[1.0, -1.0]], sense="min", row_senses=(">=",))
    sc = Scenario(probability=1.0, q=[-1.0, 0.0], T=[[0.0]], h=[0.0])
    return build_problem(first, shape, [sc])
