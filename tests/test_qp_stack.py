"""Stacked interior point: every member ends as it would when solved alone."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stochlp import kernel
from stochlp.kernel import (
    QPIterate,
    qp_stack,
    solve_qp_diagonal,
)
from stochlp.model import LPInstance

from _problems import stack_of_one

SENSES = ("<=", ">=", "=")


def random_stack(seed):
    """Feasible, strictly convex diagonal QPs that share one row and bound pattern.

    The members differ in costs, rows, rhs, bound values, Hessian diagonal
    and center; a point inside the bounds satisfies every row.
    """
    rng = np.random.default_rng(seed)
    S, n, m = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
    senses = tuple(rng.choice(SENSES, m))
    U = rng.uniform(1.0, 5.0, (S, n))
    lb = np.where(rng.random(n) < 0.7, -U, -np.inf)
    ub = np.where(rng.random(n) < 0.7, U, np.inf)
    A = np.round(rng.normal(0.0, 1.0, (S, m, n)), 3)
    inside = rng.uniform(-0.5, 0.5, (S, n))
    side = np.array([1.0 if s == "<=" else -1.0 if s == ">=" else 0.0 for s in senses])
    rhs = np.einsum("sij,sj->si", A, inside) + side * rng.uniform(0.0, 1.0, (S, m))
    c = rng.normal(0.0, 1.0, (S, n))
    D = rng.uniform(0.5, 3.0, (S, n))
    z = rng.normal(0.0, 1.0, (S, n))
    return c, A, rhs, senses, lb, ub, D, z


def member_lp(data, i):
    """Member i's LP part; its proximal term is ``D[i]``, ``z[i]``."""
    c, A, rhs, senses, lb, ub, D, z = data
    return LPInstance(c=c[i], A=A[i], rhs=rhs[i], row_senses=senses, lb=lb[i], ub=ub[i])


def kernel_tol(lp):
    """The interior point's stopping tolerance on ``lp``."""
    return kernel.OPT_TOL * (1.0 + max(1.0, np.abs(lp.c).max(), np.abs(lp.rhs).max(initial=0.0)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_each_member_matches_its_solve_alone(seed):
    data = random_stack(seed)
    res = solve_qp_diagonal(qp_stack(*data))
    assert res.iterations == res.member_iterations.sum()
    for i in range(data[0].shape[0]):
        lp = member_lp(data, i)
        alone = solve_qp_diagonal(stack_of_one(lp, data[6][i], data[7][i])).member(0)
        assert res.status[i] == alone.status == kernel.OPTIMAL
        assert res.member_iterations[i] == alone.iterations
        tol = kernel_tol(lp)
        np.testing.assert_allclose(res.iterate.x[i], alone.x, rtol=0, atol=tol)
        assert res.objective[i] == pytest.approx(alone.objective, rel=0, abs=tol)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), stalled=st.integers(0, 4))
@example(seed=156, stalled=0)   # far off, this member needs 7 iterations, its cold start 8
def test_a_stalled_member_leaves_the_others_unchanged(seed, stalled):
    # the stalled member restarts far off; the limit is what the others need
    data = random_stack(seed)
    S = data[0].shape[0]
    stalled %= S
    qp = qp_stack(*data)
    others = np.flatnonzero(np.arange(S) != stalled)
    limit = int(solve_qp_diagonal(qp).member_iterations[others].max()) + 1
    far = QPIterate(x=np.full(qp.c.shape, 1e8), lam=np.full(qp.g.shape, 1e8),
                    y=np.zeros(qp.bE.shape), valid=np.arange(S) == stalled)
    # the premise: restarted far off, the stalled member needs at least the limit
    assert solve_qp_diagonal(qp, far).member_iterations[stalled] >= limit
    with patch.object(kernel, "IPM_MAX_ITERATIONS", limit):
        res = solve_qp_diagonal(qp, far)
        alone = solve_qp_diagonal(qp.take(others))
    assert res.status[stalled] == kernel.ITERATION_LIMIT
    assert res.member_iterations[stalled] == limit
    assert list(res.status[others]) == [kernel.OPTIMAL] * others.size
    np.testing.assert_array_equal(res.member_iterations[others], alone.member_iterations)
    np.testing.assert_allclose(res.iterate.x[others], alone.iterate.x, rtol=0, atol=1e-12)


def moved(data, seed, by=1e-3):
    """``data`` with its costs and centers moved by ``by`` N(0, 1) draws."""
    c, A, rhs, senses, lb, ub, D, z = data
    rng = np.random.default_rng([seed, 1])
    return (c + by * rng.normal(0.0, 1.0, c.shape), A, rhs, senses, lb, ub, D,
            z + by * rng.normal(0.0, 1.0, z.shape))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_an_accepted_member_matches_the_cold_solve_of_the_moved_stack(seed):
    data = random_stack(seed)
    start = solve_qp_diagonal(qp_stack(*data)).iterate
    data = moved(data, seed)
    qp = qp_stack(*data)
    res = solve_qp_diagonal(qp, start)
    # the interior point stops on its residuals, and at a degenerate vertex
    # its x can be much further than OPT_TOL from the optimum; solved to
    # 1e-12, its x is the reference the default tolerance is measured against
    with patch.object(kernel, "OPT_TOL", 1e-12):
        cold = solve_qp_diagonal(qp)
    for i in np.flatnonzero(res.accepted):
        assert res.status[i] == cold.status[i] == kernel.OPTIMAL
        assert res.member_iterations[i] == 0
        tol = kernel_tol(member_lp(data, i))
        np.testing.assert_allclose(res.iterate.x[i], cold.iterate.x[i], rtol=0, atol=tol)
        assert res.objective[i] == pytest.approx(cold.objective[i], rel=0, abs=tol)


@pytest.mark.parametrize("seed", range(5))
def test_a_far_off_warm_start_settles_no_member(seed):
    qp = qp_stack(*random_stack(seed))
    far = QPIterate(x=np.full(qp.c.shape, 1e8), lam=np.full(qp.g.shape, 1e8),
                    y=np.zeros(qp.bE.shape))
    res = solve_qp_diagonal(qp, far)
    assert not res.accepted.any()
    status, iterations, iterate = kernel._interior_point(qp, far)
    np.testing.assert_array_equal(res.status, status)
    np.testing.assert_array_equal(res.member_iterations, iterations)
    for name in ("x", "lam", "y"):
        np.testing.assert_array_equal(getattr(res.iterate, name), getattr(iterate, name))


def test_an_active_set_that_leaves_y_undetermined_falls_back():
    # min (x - 1/2)^2 / 2 + q^T y  s.t.  y1 + y2 >= 1, y >= 0: member 0 has
    # q = (1, 2) and the vertex y = (1, 0); member 1 has q = (1, 1), a face
    # of optima whose center the interior point stops at, where only the row
    # is active and the KKT system cannot fix y1 against y2
    inf = np.inf
    qp = qp_stack([[0.0, 1.0, 2.0], [0.0, 1.0, 1.0]], np.tile([[[0.0, 1.0, 1.0]]], (2, 1, 1)),
                  np.ones((2, 1)), (">=",), np.tile([-inf, 0.0, 0.0], (2, 1)), np.full((2, 3), inf),
                  np.tile([1.0, 0.0, 0.0], (2, 1)), np.tile([0.5, 0.0, 0.0], (2, 1)))
    start = solve_qp_diagonal(qp).iterate
    np.testing.assert_allclose(start.x[1, 1:], [0.5, 0.5], atol=1e-6)
    systems = []
    solve_each = kernel._solve_each

    def record(K, rhs):
        d, ok = solve_each(K, rhs)
        systems.append((K, ok))
        return d, ok

    with patch.object(kernel, "_solve_each", record):
        res = solve_qp_diagonal(qp, start)
    K, ok = systems[0]
    assert list(ok) == [True, False]
    assert np.linalg.matrix_rank(K[1]) < K.shape[1]
    assert list(res.accepted) == [True, False]
    assert list(res.status) == [kernel.OPTIMAL] * 2
    np.testing.assert_allclose(res.iterate.x[0], [0.5, 1.0, 0.0], atol=1e-12)
    # member 1 is the interior point's warm solve alone, as without the step
    status, iterations, iterate = kernel._interior_point(qp.take([1]), start.take([1]))
    assert res.status[1] == status[0] and res.member_iterations[1] == iterations[0] > 0
    np.testing.assert_allclose(res.iterate.x[1], iterate.x[0], rtol=0, atol=1e-12)


def test_infeasible_and_unbounded_members_end_alone():
    inf = np.inf
    # x in [0, 1] with x >= rhs: the middle member is infeasible
    c = np.array([[1.0], [1.0], [-1.0]])
    box = qp_stack(c, np.ones((3, 1, 1)), [[0.5], [5.0], [0.2]], (">=",),
                   np.zeros((3, 1)), np.ones((3, 1)), np.ones((3, 1)), np.zeros((3, 1)))
    with patch.object(kernel, "IPM_MAX_ITERATIONS", 30):
        res = solve_qp_diagonal(box)
        rest = solve_qp_diagonal(box.take([0, 2]))
    assert list(res.status) == [kernel.OPTIMAL, kernel.ITERATION_LIMIT, kernel.OPTIMAL]
    np.testing.assert_array_equal(res.iterate.x[[0, 2]], rest.iterate.x)
    # a free variable with x <= 0: linear costs send the second member to -inf
    free = qp_stack([[1.0], [1.0]], np.ones((2, 1, 1)), np.zeros((2, 1)), ("<=",),
                    np.full((2, 1), -inf), np.full((2, 1), inf), [[1.0], [0.0]], np.zeros((2, 1)))
    res = solve_qp_diagonal(free)
    assert list(res.status) == [kernel.OPTIMAL, kernel.UNBOUNDED]
    assert res.iterate.x[0, 0] == pytest.approx(-1.0, abs=1e-6)


def test_a_singular_member_fails_alone_in_the_stacked_solve():
    K = np.array([np.eye(2), np.zeros((2, 2)), 2.0 * np.eye(2)])
    d, ok = kernel._solve_each(K, np.ones((3, 2)))
    assert list(ok) == [True, False, True]
    np.testing.assert_allclose(d[[0, 2]], [[1.0, 1.0], [0.5, 0.5]])


def test_members_must_share_their_pattern():
    with pytest.raises(ValueError, match="bound pattern"):
        qp_stack(np.zeros((2, 1)), np.zeros((2, 0, 1)), np.zeros((2, 0)), (),
                 [[0.0], [-np.inf]], [[1.0], [1.0]], np.ones((2, 1)), np.zeros((2, 1)))


def _loop_parts(lp):
    """Reference: the per-row loop that split a program into the interior
    point's equality rows (AE, bE) and inequality rows (G x <= g)."""
    A, n = np.asarray(lp.A, dtype=float), lp.nvars
    eq_rows, eq_rhs, g_rows, g_rhs = [], [], [], []
    for i, s in enumerate(lp.row_senses):
        if s == "=":
            eq_rows.append(A[i])
            eq_rhs.append(lp.rhs[i])
        elif s == "<=":
            g_rows.append(A[i])
            g_rhs.append(lp.rhs[i])
        else:
            g_rows.append(-A[i])
            g_rhs.append(-lp.rhs[i])
    fixed = lp.lb == lp.ub
    for j in np.flatnonzero(fixed):
        eq_rows.append(np.eye(n)[j])
        eq_rhs.append(lp.lb[j])
    for j in np.flatnonzero(~fixed):
        if np.isfinite(lp.ub[j]):
            g_rows.append(np.eye(n)[j])
            g_rhs.append(lp.ub[j])
        if np.isfinite(lp.lb[j]):
            g_rows.append(-np.eye(n)[j])
            g_rhs.append(-lp.lb[j])
    return (np.array(eq_rows).reshape(-1, n), np.array(eq_rhs, dtype=float),
            np.array(g_rows).reshape(-1, n), np.array(g_rhs, dtype=float))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_stack_layout_matches_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(0, 5))
    lb = np.where(rng.random(n) < 0.7, rng.uniform(-3.0, 0.0, n), -np.inf)
    ub = np.where(rng.random(n) < 0.7, rng.uniform(0.0, 3.0, n), np.inf)
    fixed = rng.random(n) < 0.2
    lb[fixed] = ub[fixed] = rng.uniform(-1.0, 1.0, int(fixed.sum()))
    lp = LPInstance(c=rng.normal(0.0, 1.0, n), A=rng.normal(0.0, 1.0, (m, n)),
                    rhs=rng.normal(0.0, 1.0, m), row_senses=tuple(rng.choice(SENSES, m)),
                    lb=lb, ub=ub)
    qp = qp_stack(lp.c[None], lp.A[None], lp.rhs[None], lp.row_senses, lp.lb[None],
                  lp.ub[None], np.ones((1, n)), np.zeros((1, n)))
    for got, want in zip((qp.AE[0], qp.bE[0], qp.G[0], qp.g[0]), _loop_parts(lp)):
        np.testing.assert_array_equal(got, want)
