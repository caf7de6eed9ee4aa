"""Independent reference values for the benchmark's checks.

Everything here is assembled from plain numpy arrays and solved with
HiGHS through ``scipy.optimize.linprog``.  Nothing in ``stochlp`` is
imported, so a fault in the package's model builders or its simplex
cannot make a wrong answer agree with itself.

A two-stage problem is given as arrays: first stage ``c, A1 x <= b1`` with
bounds ``lb1``; recourse ``W`` with row senses, fixed across scenarios;
per-scenario ``q[s]``, ``T[s]``, ``h[s]`` and probability ``p[s]``, where
scenario s asks ``T[s] x + W y (sense) h[s]``, ``y >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


@dataclass(frozen=True)
class TwoStageArrays:
    c: np.ndarray          # (n,)
    A1: np.ndarray         # (p, n), rows are <=
    b1: np.ndarray         # (p,)
    lb1: np.ndarray        # (n,)
    W: np.ndarray          # (r, m)
    senses: tuple          # r entries of "<=" or ">="
    q: np.ndarray          # (S, m)
    T: np.ndarray          # (S, r, n)
    h: np.ndarray          # (S, r)
    p: np.ndarray          # (S,)


def _row_signs(senses):
    sign = {"<=": 1.0, ">=": -1.0}
    try:
        return np.array([sign[s] for s in senses])
    except KeyError as exc:
        raise ValueError(f"unsupported row sense {exc.args[0]!r}") from None


def _recourse_blocks(a: TwoStageArrays, with_x: bool):
    """Sparse ``<=`` rows of every scenario block, x columns first when asked."""
    S, r, m = a.h.shape[0], a.W.shape[0], a.W.shape[1]
    n = a.c.size if with_x else 0
    sign = _row_signs(a.senses)
    blocks_y = sp.block_diag([sp.csr_matrix(sign[:, None] * a.W)] * S, format="csr")
    if with_x:
        tx = sp.csr_matrix((sign[None, :, None] * a.T).reshape(S * r, n))
        rows = sp.hstack([tx, blocks_y], format="csr")
    else:
        rows = blocks_y
    rhs = (sign[None, :] * a.h).reshape(S * r)
    cost = (a.p[:, None] * a.q).reshape(S * m)
    return rows, rhs, cost


def _solve(cost, A_ub, b_ub, lb):
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub,
                  bounds=np.column_stack([lb, np.full(lb.size, np.inf)]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return res


def dep_optimum(a: TwoStageArrays):
    """Optimal value and first-stage decision of the deterministic equivalent."""
    n, S, m = a.c.size, a.h.shape[0], a.W.shape[1]
    rows, rhs, cost_y = _recourse_blocks(a, with_x=True)
    first = sp.hstack([sp.csr_matrix(a.A1), sp.csr_matrix((a.A1.shape[0], S * m))])
    A_ub = sp.vstack([first, rows], format="csr")
    b_ub = np.concatenate([a.b1, rhs])
    cost = np.concatenate([a.c, cost_y])
    lb = np.concatenate([a.lb1, np.zeros(S * m)])
    res = _solve(cost, A_ub, b_ub, lb)
    return float(res.fun), res.x[:n]


def evaluate(a: TwoStageArrays, x):
    """c^T x + sum_s p_s Q_s(x); the scenario LPs decouple, so one solve holds all."""
    x = np.asarray(x, dtype=float)
    rows, rhs, cost = _recourse_blocks(a, with_x=False)
    S, r = a.h.shape
    sign = _row_signs(a.senses)
    shift = (sign[None, :] * np.einsum("srn,n->sr", a.T, x)).reshape(S * r)
    res = _solve(cost, rows, rhs - shift, np.zeros(cost.size))
    return float(a.c @ x) + float(res.fun)


def first_stage_violation(a: TwoStageArrays, x):
    """Largest violation of A1 x <= b1 and x >= lb1, relative to 1 + |rhs|."""
    x = np.asarray(x, dtype=float)
    rows = (a.A1 @ x - a.b1) / (1.0 + np.abs(a.b1)) if a.b1.size else np.zeros(0)
    bounds = (a.lb1 - x) / (1.0 + np.abs(a.lb1))
    return float(max(np.max(rows, initial=0.0), np.max(bounds, initial=0.0)))


# The 'simple' production model (two products, two machines, demand caps),
# written out here from its textbook statement rather than imported.
SIMPLE_C = np.array([100.0, 150.0])
SIMPLE_A1 = np.array([[1.0, 1.0]])
SIMPLE_B1 = np.array([120.0])
SIMPLE_LB1 = np.array([40.0, 20.0])
SIMPLE_W = np.array([[6.0, 10.0], [8.0, 5.0], [1.0, 0.0], [0.0, 1.0]])
SIMPLE_T = np.array([[-60.0, 0.0], [0.0, -80.0], [0.0, 0.0], [0.0, 0.0]])
SIMPLE_MU = np.array([24.0, 32.0, 400.0, 200.0])          # (q1, q2, d1, d2)
SIMPLE_COV = np.array([[2.0, 0.5, 0.0, 0.0],
                       [0.5, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 50.0, 20.0],
                       [0.0, 0.0, 20.0, 30.0]])


def simple_sample_optimum(n, seed):
    """DEP optimum of an n-scenario normal sample of the 'simple' model.

    The second stage maximizes revenue, so it enters as negated cost: the
    value is min 100 x1 + 150 x2 - E[q^T y], in the model's declared form.
    """
    draws = np.random.default_rng(seed).multivariate_normal(SIMPLE_MU, SIMPLE_COV, n)
    h = np.zeros((n, 4))
    h[:, 2:] = draws[:, 2:]
    a = TwoStageArrays(c=SIMPLE_C, A1=SIMPLE_A1, b1=SIMPLE_B1, lb1=SIMPLE_LB1,
                       W=SIMPLE_W, senses=("<=",) * 4, q=-draws[:, :2],
                       T=np.broadcast_to(SIMPLE_T, (n, 4, 2)), h=h,
                       p=np.full(n, 1.0 / n))
    return dep_optimum(a)[0]
