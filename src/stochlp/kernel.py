"""Self-contained LP and diagonal-QP solver.

The LP method is a bounded-variable revised simplex with a composite
(infeasibility-minimizing) phase 1 and Bland's rule engaged after a
degeneracy stall.  A warm start whose basis is still dual feasible (an
L-shaped subproblem whose rhs moved, a master with violated cuts appended)
is re-solved by a bounded dual simplex with a two-pass Harris ratio test
instead; it hands its basis to the primal method on a dual ray (so an
infeasible LP still gets the phase-1 Farkas certificate), a degeneracy stall
or a tiny pivot.  Cold starts, and warm tokens that are not a valid basis of
the instance, use the primal method from the slack basis.  Both methods keep
their own pricing and ratio test and pivot one ``_WorkingBasis``: an explicit
basis inverse updated in place by BLAS ``dger`` and refactorized every
``_REFACTOR_EVERY`` pivots.  ``LPSolution.iterations`` is the total pivot
count and ``extras["pivots"]`` splits it into dual, phase-1 and phase-2
pivots.
The QP method is a primal-dual interior point specialized to diagonal
Hessians.

Dual sign convention, used unchanged by every consumer in this package:
for a minimization instance the row multipliers ``y`` satisfy

    reduced costs  z = c - A^T y,   z_j >= 0 at lower bounds, <= 0 at upper,

so the dual of an active ``>=`` row is ``>= 0`` and of an active ``<=`` row
is ``<= 0``.  The dual objective is ``y^T rhs + sum_j z_j * (bound of j)``
over nonbasic variables.  For maximization instances the kernel negates the
objective internally and negates ``y`` and ``z`` on the way out, so the
reported multipliers are shadow prices of the declared objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse as sp

from .errors import NumericalBreakdown, UnsupportedQuadratic
from .model import LPInstance

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

# nonbasic-at-lower, nonbasic-at-upper, basic, nonbasic-free-at-zero
_AT_LB, _AT_UB, _BASIC, _FREE = 0, 1, 2, 3

_REFACTOR_EVERY = 60    # pivots between refactorizations of the basis inverse
_STALL_LIMIT = 50       # degenerate pivots before the primal method takes Bland's
                        # rule and the dual method hands its basis to the primal


@dataclass
class KernelConfig:
    feas_tol: float = 1e-8
    opt_tol: float = 1e-8
    max_iterations: int = 50000
    ipm_max_iterations: int = 100

    def __post_init__(self):
        if self.feas_tol <= 0 or self.opt_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = KernelConfig()


@dataclass
class Basis:
    """Opaque warm-start token: basic column indices and nonbasic statuses."""

    basic: np.ndarray
    vstat: np.ndarray


@dataclass
class LPSolution:
    status: str
    x: np.ndarray = None
    objective: float = np.nan
    duals: np.ndarray = None
    reduced_costs: np.ndarray = None
    farkas: np.ndarray = None      # row certificate when infeasible
    basis: Basis = None
    iterations: int = 0
    extras: dict = field(default_factory=dict)


def _dense(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)


def _slack_bounds(sense):
    # a_i x + s_i = rhs_i
    if sense == "<=":
        return 0.0, np.inf
    if sense == ">=":
        return -np.inf, 0.0
    return 0.0, 0.0


class _Tableau:
    """Equality-form working problem: [A | I] z = b with bounds on z."""

    def __init__(self, lp: LPInstance):
        A = _dense(lp.A)
        m, n = A.shape
        self.m, self.n = m, n
        self.N = n + m
        self.A = np.hstack([A, np.eye(m)])
        self.b = lp.rhs.astype(float).copy()
        self.lb = np.concatenate([lp.lb, np.zeros(m)])
        self.ub = np.concatenate([lp.ub, np.zeros(m)])
        for i, s in enumerate(lp.row_senses):
            lo, hi = _slack_bounds(s)
            self.lb[n + i] = lo
            self.ub[n + i] = hi
        self.c = np.concatenate([lp.c, np.zeros(m)])

    def row(self, v):
        """``v @ self.A``, using that the slack block is the identity."""
        return np.concatenate([v @ self.A[:, :self.n], v])


class _WorkingBasis:
    """The basis that both simplex methods pivot.

    It holds the basic columns ``basic``, the statuses ``vstat``, the
    nonbasic values ``xv``, the explicit inverse ``Binv``, the basic values
    ``x_B`` and the pivot counters.  It starts from the warm token when that
    is a valid nonsingular basis of ``tab`` (``warm`` is then True), else
    from the slack basis with each structural column at its bound nearest
    zero.
    """

    def __init__(self, tab, token):
        self.tab = tab
        self.pivots = {"dual": 0, "phase1": 0, "phase2": 0}
        self.since_refactor = 0
        self.warm = self._adopt(token)
        if not self.warm:
            lo, hi = tab.lb[:tab.n], tab.ub[:tab.n]
            self.basic = np.arange(tab.n, tab.N)
            self.vstat = np.full(tab.N, _BASIC, dtype=np.int8)
            self.vstat[:tab.n] = np.where(np.abs(lo) <= np.abs(hi), _AT_LB, _AT_UB)
            self.vstat[:tab.n][np.isinf(lo) & np.isinf(hi)] = _FREE
            self.Binv = np.eye(tab.m)
        self.recompute()

    def _adopt(self, token):
        """Start from ``token`` if it is a usable basis; report whether it was.

        Usable: ``vstat`` holds valid codes, is basic on exactly the distinct
        in-range ``basic`` columns and puts each nonbasic column at a finite
        bound (a free column at zero), and the basis matrix is nonsingular.
        """
        tab = self.tab
        if not isinstance(token, Basis) or token.basic.size != tab.m \
                or token.vstat.size != tab.N:
            return False
        vstat = np.asarray(token.vstat)
        try:
            counts = np.bincount(vstat, minlength=4)     # raises on a negative code
        except (TypeError, ValueError):
            return False
        if counts.size > 4 or counts[_BASIC] != tab.m \
                or (np.sort(token.basic) != np.flatnonzero(vstat == _BASIC)).any() \
                or np.isinf(np.where(vstat == _AT_UB, tab.ub, tab.lb)[vstat < _BASIC]).any():
            return False
        if counts[_FREE]:
            free = vstat == _FREE
            if np.isfinite(tab.lb[free]).any() or np.isfinite(tab.ub[free]).any():
                return False
        basic = token.basic.astype(int)
        try:
            self.Binv = np.linalg.inv(tab.A[:, basic])
        except np.linalg.LinAlgError:
            return False
        self.basic, self.vstat = basic, vstat.astype(np.int8)
        return True

    @property
    def count(self):
        return sum(self.pivots.values())

    def recompute(self):
        """Put the nonbasic columns at their bounds and solve for ``x_B``."""
        tab, vstat = self.tab, self.vstat
        self.xv = np.zeros(tab.N)
        at_lb = vstat == _AT_LB
        at_ub = vstat == _AT_UB
        self.xv[at_lb] = tab.lb[at_lb]
        self.xv[at_ub] = tab.ub[at_ub]
        self.x_B = self.Binv @ (tab.b - tab.A @ self.xv)     # xv is zero on basic columns

    def refactor(self):
        try:
            self.Binv = np.linalg.inv(self.tab.A[:, self.basic])
        except np.linalg.LinAlgError:
            raise NumericalBreakdown("singular basis during refactorization") from None
        self.since_refactor = 0
        self.recompute()

    def pivot(self, r, q, col, leave_to, value):
        """Column ``q`` enters at row ``r`` with basic value ``value``.

        ``col`` is ``Binv @ A[:, q]``; the leaving column goes to the bound
        ``leave_to``.  Refactorizes every ``_REFACTOR_EVERY`` pivots and
        returns whether it did.
        """
        tab = self.tab
        out = self.basic[r]
        self.vstat[out] = leave_to
        self.xv[out] = tab.lb[out] if leave_to == _AT_LB else tab.ub[out]
        self.basic[r] = q
        self.vstat[q] = _BASIC
        self.x_B[r] = value
        row = self.Binv[r] / col[r]
        # Binv -= outer(col, row), in place through BLAS ger on the transpose
        self.Binv = scipy.linalg.blas.dger(-1.0, row, col, a=self.Binv.T, overwrite_a=True).T
        self.Binv[r] = row
        self.since_refactor += 1
        if self.since_refactor < _REFACTOR_EVERY:
            return False
        self.refactor()
        return True

    def result(self, status, **extra):
        """The end state that ``_assemble`` reads."""
        return {"status": status, "basic": self.basic, "vstat": self.vstat,
                "x_B": self.x_B, "xv": self.xv, "pivots": self.pivots, **extra}


def _simplex(wb, cfg):
    """Bounded primal simplex on the working basis ``wb``, whose ``x_B`` is current.

    Pivots already counted on ``wb`` (by the dual simplex on this solve)
    count toward ``cfg.max_iterations``.  Returns ``wb.result``.
    """
    feas, dtol = cfg.feas_tol, cfg.opt_tol
    tab = wb.tab
    A, lb, ub, c = tab.A, tab.lb, tab.ub, tab.c
    N = tab.N
    fixed = lb == ub
    bland = False
    stall = 0
    last_obj = np.inf

    while wb.count < cfg.max_iterations:
        basic, vstat, xv, x_B, Binv = wb.basic, wb.vstat, wb.xv, wb.x_B, wb.Binv
        lo_B, hi_B = lb[basic], ub[basic]
        below = x_B < lo_B - feas
        above = x_B > hi_B + feas
        phase1 = bool(below.any() or above.any())

        if phase1:
            w = above.astype(float) - below.astype(float)
            y = w @ Binv
            z = -(y @ A)
            obj = np.sum(x_B[above] - hi_B[above]) + np.sum(lo_B[below] - x_B[below])
        else:
            y = c[basic] @ Binv
            z = c - y @ A
            obj = c[basic] @ x_B + c[vstat == _AT_LB] @ xv[vstat == _AT_LB] \
                + c[vstat == _AT_UB] @ xv[vstat == _AT_UB]

        # pricing
        viol = np.zeros(N)
        sel = (vstat == _AT_LB) & ~fixed
        viol[sel] = np.maximum(0.0, -z[sel])
        sel = vstat == _AT_UB
        viol[sel] = np.maximum(0.0, z[sel])
        sel = vstat == _FREE
        viol[sel] = np.abs(z[sel])
        viol[viol <= dtol] = 0.0

        if not viol.any():
            if phase1:
                return wb.result(INFEASIBLE, farkas=y.copy(), infeasibility=obj)
            return wb.result(OPTIMAL, y=y, z=z)

        if bland:
            j = int(np.flatnonzero(viol)[0])
        else:
            j = int(np.argmax(viol))
        if vstat[j] == _AT_LB or (vstat[j] == _FREE and z[j] < 0):
            direction = 1.0
        else:
            direction = -1.0

        d = Binv @ A[:, j]
        rate = -direction * d

        # ratio test: each basic variable blocks where it reaches the bound it
        # moves toward; one already past the bound it moves away from never
        # does, and an infinite bound gives an infinite step
        t_best = np.inf
        if vstat[j] != _FREE and np.isfinite(lb[j]) and np.isfinite(ub[j]):
            t_best = ub[j] - lb[j]
        leave = -1
        rising, falling = rate > 1e-11, rate < -1e-11
        blocks = (rising & ~above) | (falling & ~below)
        to_upper = np.where(rising, ~below, above)
        t_row = np.divide(np.where(to_upper, hi_B, lo_B) - x_B, rate,
                          out=np.full(tab.m, np.inf), where=blocks)
        np.maximum(t_row, 0.0, out=t_row)
        t_min = t_row.min(initial=np.inf)
        if t_min < t_best - 1e-12:
            near = np.flatnonzero(t_row <= t_min + 1e-10)
            if bland:
                leave = int(near[np.argmin(basic[near])])
            else:
                leave = int(near[np.argmax(np.abs(d[near]))])
            leave_to = _AT_UB if to_upper[leave] else _AT_LB
            t_best = t_row[leave]

        if not np.isfinite(t_best):
            if phase1:
                raise NumericalBreakdown("phase-1 reported an unbounded improving ray")
            return wb.result(UNBOUNDED)
        wb.pivots["phase1" if phase1 else "phase2"] += 1

        # stall / anti-cycling bookkeeping
        if obj >= last_obj - 1e-12 * (1.0 + abs(last_obj)):
            stall += 1
            if stall > _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        last_obj = obj

        wb.x_B = x_B + t_best * rate
        if leave < 0:
            # bound flip, basis unchanged
            vstat[j] = _AT_UB if vstat[j] == _AT_LB else _AT_LB
            xv[j] = ub[j] if vstat[j] == _AT_UB else lb[j]
        elif abs(d[leave]) < 1e-11:
            wb.refactor()
        else:
            wb.pivot(leave, j, d, leave_to, xv[j] + direction * t_best)

    return wb.result(ITERATION_LIMIT)


def _dual_simplex(wb, cfg):
    """Bounded dual simplex from the warm working basis ``wb``.

    Runs when the start basis is dual feasible, which is what an rhs change
    or appended rows with basic slacks leave behind; a boxed column counts as
    feasible and moves to the bound its reduced cost asks for.  The leaving
    row is the largest bound violation and leaves at the bound it violates;
    the entering column comes from a two-pass Harris ratio test on the
    reduced costs.  A start that is not dual feasible goes to the primal
    ``_simplex`` unchanged; a dual ray (the LP is infeasible, and phase 1
    then builds the Farkas certificate), a degeneracy stall past
    ``_STALL_LIMIT`` and a tiny pivot hand it the current basis.
    """
    tab = wb.tab
    A, lb, ub, c = tab.A, tab.lb, tab.ub, tab.c
    feas, dtol = cfg.feas_tol, cfg.opt_tol
    movable = lb < ub
    boxed = movable & np.isfinite(lb) & np.isfinite(ub)

    def prices():
        y = c[wb.basic] @ wb.Binv
        d = c - tab.row(y)
        d[wb.basic] = 0.0
        return y, d

    def wrong_sign(d):
        """Nonbasic columns whose reduced cost has the wrong sign for their status.

        ``d`` is zero on basic columns, so only a column at its lower bound or
        free can be wrong below zero, and only one at its upper bound or free
        above zero.
        """
        vstat = wb.vstat
        return movable & (((d < -dtol) & (vstat != _AT_UB)) | ((d > dtol) & (vstat != _AT_LB)))

    def flip_to_sign(flip):
        wb.vstat[flip] = np.where(wb.vstat[flip] == _AT_LB, _AT_UB, _AT_LB)
        wb.recompute()

    y, d = prices()
    flip = wrong_sign(d)
    if flip.any():
        if (flip & ~boxed).any():
            return _simplex(wb, cfg)
        flip_to_sign(flip)
    checked = True              # d is fresh and its signs are verified
    stall = 0
    while True:
        basic, vstat, x_B = wb.basic, wb.vstat, wb.x_B
        lo_B, hi_B = lb[basic], ub[basic]
        infeas = np.maximum(lo_B - x_B, 0.0) + np.maximum(x_B - hi_B, 0.0)
        infeas[infeas <= feas] = 0.0
        if not infeas.any():
            if not checked:
                y, d = prices()
                checked = True
                flip = wrong_sign(d)
                if flip.any():
                    if (flip & ~boxed).any():
                        break
                    flip_to_sign(flip)
                    continue
            return wb.result(OPTIMAL, y=y, z=d)
        if wb.count >= cfg.max_iterations:
            return wb.result(ITERATION_LIMIT)

        r = int(np.argmax(infeas))
        to_lower = x_B[r] < lo_B[r]
        alpha = tab.row(wb.Binv[r])
        a = alpha if to_lower else -alpha
        # entering candidates: columns whose reduced cost d_j + t a_j runs
        # toward the wrong sign for their status as the dual step t grows
        cand = np.flatnonzero(movable & (((vstat == _AT_LB) & (a < -1e-9))
                                         | ((vstat == _AT_UB) & (a > 1e-9))
                                         | ((vstat == _FREE) & (np.abs(a) > 1e-9))))
        if cand.size == 0:
            break               # dual ray
        abs_a = np.abs(a[cand])
        room = -d[cand] * np.sign(a[cand])     # >= -dtol on a dual feasible basis
        t_max = np.min((room + dtol) / abs_a)
        near = np.flatnonzero(room / abs_a <= t_max)
        k = near[int(np.argmax(abs_a[near]))]
        q = int(cand[k])
        t = max(room[k], 0.0) / abs_a[k]

        col = wb.Binv @ A[:, q]
        pivot = col[r]
        if abs(pivot) < 1e-7 * max(1.0, np.abs(col).max()):
            break               # tiny pivot
        if t * infeas[r] <= 1e-12:
            stall += 1
            if stall > _STALL_LIMIT:
                break
        else:
            stall = 0

        d += t * a
        step = (x_B[r] - (lo_B[r] if to_lower else hi_B[r])) / pivot
        wb.x_B = x_B - step * col
        wb.pivots["dual"] += 1
        checked = False
        if wb.pivot(r, q, col, _AT_LB if to_lower else _AT_UB, wb.xv[q] + step):
            y, d = prices()
        else:
            d[wb.basic] = 0.0
    wb.recompute()
    return _simplex(wb, cfg)


def _assemble(tab, res, lp, flip):
    """Build the user-facing solution from the simplex end state."""
    basic, vstat, x_B, xv = res["basic"], res["vstat"], res["x_B"], res["xv"]
    x_full = xv.copy()
    x_full[basic] = x_B
    x = x_full[:tab.n]
    sol = LPSolution(status=res["status"], x=x,
                     basis=Basis(basic.copy(), vstat.copy()),
                     iterations=sum(res["pivots"].values()))
    sol.extras["pivots"] = res["pivots"]
    sgn = -1.0 if flip else 1.0
    if res["status"] == OPTIMAL:
        y = res["y"]
        z = res["z"]
        sol.objective = sgn * (tab.c @ x_full) + lp.c0
        sol.duals = sgn * y
        sol.reduced_costs = sgn * z[:tab.n]
    elif res["status"] == INFEASIBLE:
        sol.farkas = res["farkas"]
        sol.extras["infeasibility"] = res["infeasibility"]
    elif res["status"] == ITERATION_LIMIT:
        sol.objective = sgn * (tab.c @ x_full) + lp.c0
    return sol


def solve_lp(lp: LPInstance, cfg: KernelConfig = None, warm_start: Basis = None) -> LPSolution:
    """Solve a linear instance; quadratic terms are rejected."""
    if lp.is_quadratic:
        raise ValueError("solve_lp requires a linear instance; use solve_qp_diagonal")
    cfg = cfg or DEFAULT_CONFIG
    flip = lp.sense == "max"
    work = lp if not flip else LPInstance(
        c=-lp.c, A=lp.A, rhs=lp.rhs, row_senses=lp.row_senses, lb=lp.lb, ub=lp.ub,
        c0=0.0, sense="min")
    tab = _Tableau(work)
    wb = _WorkingBasis(tab, warm_start)
    res = _dual_simplex(wb, cfg) if wb.warm else _simplex(wb, cfg)
    return _assemble(tab, res, lp, flip)


def certificate_gap(lp: LPInstance, y: np.ndarray, tol: float = 1e-7) -> float:
    """Certified infeasibility margin of a Farkas row certificate.

    Positive means ``y`` proves that no point within the bounds satisfies
    the rows: y^T rhs exceeds the supremum of y^T A x over the bound box
    (slack senses included).  Coefficients within ``tol`` of the cone are
    treated as exactly on it.
    """
    A = _dense(lp.A)
    coef = y @ A
    scale = max(1.0, np.abs(y).max(initial=0.0))
    sup = 0.0
    for j in range(lp.nvars):
        a = coef[j]
        if abs(a) <= tol * scale:
            continue
        if a > 0:
            hi = lp.ub[j]
            if np.isinf(hi):
                return -np.inf
            sup += a * hi
        else:
            lo = lp.lb[j]
            if np.isinf(lo):
                return -np.inf
            sup += a * lo
    for i, s in enumerate(lp.row_senses):
        lo, hi = _slack_bounds(s)
        a = y[i]
        if abs(a) <= tol * scale:
            continue
        if a > 0 and np.isinf(hi):
            return -np.inf
        if a < 0 and np.isinf(lo):
            return -np.inf
        # finite slack bounds contribute 0 (both bounds are 0)
    return float(y @ lp.rhs - sup)


def primal_violation(lp: LPInstance, x: np.ndarray) -> float:
    """Largest bound or row violation of a candidate point."""
    A = _dense(lp.A)
    ax = A @ x
    v = max(np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0))
    for i, s in enumerate(lp.row_senses):
        if s == "<=":
            v = max(v, ax[i] - lp.rhs[i])
        elif s == ">=":
            v = max(v, lp.rhs[i] - ax[i])
        else:
            v = max(v, abs(ax[i] - lp.rhs[i]))
    return float(v)


# ---------------------------------------------------------------------------
# diagonal QP: primal-dual interior point


def _qp_parts(lp: LPInstance):
    """Split into equality rows (A_E, b_E) and inequality rows (G x <= g)."""
    A = _dense(lp.A)
    n = lp.nvars
    eq_rows, eq_rhs, g_rows, g_rhs = [], [], [], []
    for i, s in enumerate(lp.row_senses):
        if s == "=":
            eq_rows.append(A[i])
            eq_rhs.append(lp.rhs[i])
        elif s == "<=":
            g_rows.append((A[i], 1.0))
            g_rhs.append(lp.rhs[i])
        else:
            g_rows.append((-A[i], -1.0))
            g_rhs.append(-lp.rhs[i])
    fixed = lp.lb == lp.ub
    for j in np.flatnonzero(fixed):
        e = np.zeros(n)
        e[j] = 1.0
        eq_rows.append(e)
        eq_rhs.append(lp.lb[j])
    for j in range(n):
        if fixed[j]:
            continue
        if np.isfinite(lp.ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            g_rows.append((e, 1.0))
            g_rhs.append(lp.ub[j])
        if np.isfinite(lp.lb[j]):
            e = np.zeros(n)
            e[j] = -1.0
            g_rows.append((e, 1.0))
            g_rhs.append(-lp.lb[j])
    AE = np.array(eq_rows) if eq_rows else np.zeros((0, n))
    bE = np.array(eq_rhs) if eq_rhs else np.zeros(0)
    G = np.array([r for r, _ in g_rows]) if g_rows else np.zeros((0, n))
    g = np.array(g_rhs) if g_rhs else np.zeros(0)
    return AE, bE, G, g


def _qp_start(lp, G, g):
    n = lp.nvars
    if lp.qcenter is not None:
        x0 = lp.qcenter.copy()
    else:
        x0 = np.zeros(n)
    lo, hi = lp.lb, lp.ub
    both = np.isfinite(lo) & np.isfinite(hi)
    x0[both] = np.clip(x0[both], lo[both], hi[both])
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    x0[only_lo] = np.maximum(x0[only_lo], lo[only_lo] + 1.0)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x0[only_hi] = np.minimum(x0[only_hi], hi[only_hi] - 1.0)
    s0 = np.maximum(g - G @ x0, 1.0) if g.size else np.zeros(0)
    lam0 = np.ones_like(s0)
    return x0, s0, lam0


def solve_qp_diagonal(lp: LPInstance, cfg: KernelConfig = None,
                      warm_start=None) -> LPSolution:
    """Solve min c^T x + c0 + 1/2 sum qdiag (x - qcenter)^2 over the LP region.

    Mehrotra predictor-corrector on the inequality form; equality rows and
    fixed variables enter the KKT system directly.  Also accepts purely
    linear instances (qdiag of zeros).
    """
    cfg = cfg or DEFAULT_CONFIG
    if lp.sense == "max":
        raise UnsupportedQuadratic("maximization with quadratic terms is not supported")
    n = lp.nvars
    D = lp.qdiag if lp.qdiag is not None else np.zeros(n)
    z0 = lp.qcenter if lp.qcenter is not None else np.zeros(n)
    AE, bE, G, g = _qp_parts(lp)
    mE, mI = AE.shape[0], G.shape[0]
    scale = max(1.0, np.abs(lp.c).max(initial=0.0), np.abs(lp.rhs).max(initial=0.0),
                np.abs(bE).max(initial=0.0))
    tol = cfg.opt_tol * (1.0 + scale)

    if warm_start is not None and isinstance(warm_start, dict) and "x" in warm_start:
        x = np.asarray(warm_start["x"], dtype=float).copy()
        s = np.maximum(g - G @ x, 1e-2) if mI else np.zeros(0)
        lam = np.maximum(np.asarray(warm_start.get("lam", np.ones(mI))), 1e-2) \
            if mI else np.zeros(0)
        y = np.asarray(warm_start.get("y", np.zeros(mE)), dtype=float).copy() \
            if mE else np.zeros(0)
        if lam.size != mI:
            lam = np.ones(mI)
        if y.size != mE:
            y = np.zeros(mE)
    else:
        x, s, lam = _qp_start(lp, G, g)
        y = np.zeros(mE)

    delta = 1e-10
    best = None
    for it in range(cfg.ipm_max_iterations):
        rd = D * (x - z0) + lp.c + (AE.T @ y if mE else 0.0) + (G.T @ lam if mI else 0.0)
        rE = AE @ x - bE if mE else np.zeros(0)
        rI = G @ x + s - g if mI else np.zeros(0)
        mu = (s @ lam) / mI if mI else 0.0
        err = max(np.abs(rd).max(initial=0.0), np.abs(rE).max(initial=0.0),
                  np.abs(rI).max(initial=0.0), mu)
        if best is None or err < best[0]:
            best = (err, x.copy(), y.copy(), lam.copy(), s.copy())
        if err <= tol:
            return _qp_solution(lp, x, y, lam, D, z0, OPTIMAL, it)
        if not np.isfinite(err) or np.abs(x).max(initial=0.0) > 1e13:
            return LPSolution(status=UNBOUNDED, x=x, iterations=it)

        lu = None
        reg = delta
        while lu is None and reg <= 1e-4:
            if mI:
                with np.errstate(all="ignore"):
                    w = np.clip(lam / np.maximum(s, 1e-300), 0.0, 1e14)
                M = np.diag(D + reg) + (G.T * w) @ G
            else:
                M = np.diag(D + reg)
            if mE:
                K = np.block([[M, AE.T], [AE, -reg * np.eye(mE)]])
            else:
                K = M
            if not np.all(np.isfinite(K)):
                return LPSolution(status=ITERATION_LIMIT, x=best[1], iterations=it)
            try:
                import warnings as _warnings
                with np.errstate(all="ignore"), _warnings.catch_warnings():
                    _warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                    lu = scipy.linalg.lu_factor(K)
                    probe = scipy.linalg.lu_solve(lu, np.ones(K.shape[0]))
                if not np.all(np.isfinite(probe)):
                    lu = None
            except (ValueError, np.linalg.LinAlgError, scipy.linalg.LinAlgWarning):
                lu = None
            if lu is None:
                reg = max(reg * 100.0, 1e-9)
        if lu is None:
            return LPSolution(status=ITERATION_LIMIT, x=best[1], iterations=it)

        def newton(rc):
            rhs_x = -rd
            if mI:
                rhs_x = rhs_x - G.T @ ((-rc + lam * rI) / s)
            rhs = np.concatenate([rhs_x, -rE]) if mE else rhs_x
            d = scipy.linalg.lu_solve(lu, rhs)
            dx = d[:n]
            dy = d[n:] if mE else np.zeros(0)
            if mI:
                ds = -rI - G @ dx
                dlam = (-rc - lam * ds) / s
            else:
                ds = np.zeros(0)
                dlam = np.zeros(0)
            return dx, dy, ds, dlam

        def steplen(v, dv):
            neg = dv < 0
            if not neg.any():
                return 1.0
            return min(1.0, 0.995 * np.min(-v[neg] / dv[neg]))

        if mI:
            rc_aff = s * lam
            dxa, dya, dsa, dla = newton(rc_aff)
            ap = steplen(s, dsa)
            ad = steplen(lam, dla)
            mu_aff = ((s + ap * dsa) @ (lam + ad * dla)) / mI
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.1
            rc = s * lam - sigma * mu + dsa * dla
            dx, dy, ds, dlam = newton(rc)
            ap = steplen(s, ds)
            ad = steplen(lam, dlam)
        else:
            dx, dy, ds, dlam = newton(np.zeros(0))
            ap = ad = 1.0
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(ds))
                and np.all(np.isfinite(dlam))):
            return LPSolution(status=ITERATION_LIMIT, x=best[1], iterations=it)
        x = x + ap * dx
        s = s + ap * ds
        y = y + ad * dy
        lam = lam + ad * dlam

    return _qp_solution(lp, best[1], best[2], best[3], D, z0, ITERATION_LIMIT,
                        cfg.ipm_max_iterations)


def _qp_solution(lp, x, y, lam, D, z0, status, iters):
    obj = float(lp.c @ x + lp.c0 + 0.5 * np.sum(D * (x - z0) ** 2))
    # fold the IPM multipliers back into the package's row-dual convention
    duals = np.zeros(lp.nrows)
    ie = 0
    ii = 0
    for i, sns in enumerate(lp.row_senses):
        if sns == "=":
            duals[i] = -y[ie]
            ie += 1
        elif sns == "<=":
            duals[i] = -lam[ii]
            ii += 1
        else:
            duals[i] = lam[ii]
            ii += 1
    A = _dense(lp.A)
    grad = lp.c + D * (x - z0)
    red = grad - A.T @ duals
    sol = LPSolution(status=status, x=x, objective=obj, duals=duals,
                     reduced_costs=red, iterations=iters)
    sol.extras["ipm_state"] = {"x": x.copy(), "lam": lam.copy(), "y": y.copy()}
    return sol


def linearize_penalty(lp: LPInstance, norm: str = "one") -> LPInstance:
    """Replace a proximal term r/2 ||x - center||^2 by r ||x - center||_1 or _inf.

    The quadratic coefficient must be one value r shared by every penalized
    coordinate.  The returned instance appends auxiliary columns after the
    original variables; slice the primal solution to ``lp.nvars`` to recover x.
    """
    if lp.qdiag is None or not np.any(lp.qdiag > 0):
        raise UnsupportedQuadratic("instance has no quadratic term to linearize")
    idx = np.flatnonzero(lp.qdiag > 0)
    r_vals = lp.qdiag[idx]
    if np.max(r_vals) - np.min(r_vals) > 1e-12 * max(1.0, np.max(r_vals)):
        raise UnsupportedQuadratic("quadratic term is not a uniform proximal penalty")
    r = float(r_vals[0])
    center = lp.qcenter[idx]
    A = _dense(lp.A)
    n, m = lp.nvars, lp.nrows
    k = idx.size
    if norm == "one":
        # x_i - p_i + n_i = center_i, objective += r (p_i + n_i)
        nv = n + 2 * k
        A2 = np.zeros((m + k, nv))
        A2[:m, :n] = A
        rhs2 = np.concatenate([lp.rhs, center])
        senses2 = lp.row_senses + ("=",) * k
        for t, j in enumerate(idx):
            A2[m + t, j] = 1.0
            A2[m + t, n + t] = -1.0
            A2[m + t, n + k + t] = 1.0
        c2 = np.concatenate([lp.c, np.full(2 * k, r)])
        lb2 = np.concatenate([lp.lb, np.zeros(2 * k)])
        ub2 = np.concatenate([lp.ub, np.full(2 * k, np.inf)])
    elif norm == "inf":
        # x_i - t <= center_i and -x_i - t <= -center_i, objective += r t
        nv = n + 1
        A2 = np.zeros((m + 2 * k, nv))
        A2[:m, :n] = A
        rhs2 = np.concatenate([lp.rhs, center, -center])
        senses2 = lp.row_senses + ("<=",) * (2 * k)
        for t, j in enumerate(idx):
            A2[m + t, j] = 1.0
            A2[m + t, n] = -1.0
            A2[m + k + t, j] = -1.0
            A2[m + k + t, n] = -1.0
        c2 = np.concatenate([lp.c, [r]])
        lb2 = np.concatenate([lp.lb, [0.0]])
        ub2 = np.concatenate([lp.ub, [np.inf]])
    else:
        raise ValueError(f"norm must be 'one' or 'inf', got {norm!r}")
    return LPInstance(c=c2, A=A2, rhs=rhs2, row_senses=senses2, lb=lb2, ub=ub2,
                      c0=lp.c0, sense=lp.sense)


# ---------------------------------------------------------------------------
# diagnostics


def write_mps(lp: LPInstance, name: str = "STOCHLP") -> str:
    """Free-format MPS text for a linear instance (diagnostic dump)."""
    A = _dense(lp.A)
    cols = lp.col_names or tuple(f"C{j + 1}" for j in range(lp.nvars))
    rows = lp.row_names or tuple(f"R{i + 1}" for i in range(lp.nrows))
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    out = [f"NAME {name}", "ROWS", " N OBJ"]
    for i, s in enumerate(lp.row_senses):
        out.append(f" {sense_code[s]} {rows[i]}")
    out.append("COLUMNS")
    for j in range(lp.nvars):
        if lp.c[j] != 0.0:
            out.append(f" {cols[j]} OBJ {lp.c[j]:.17g}")
        for i in np.flatnonzero(A[:, j]):
            out.append(f" {cols[j]} {rows[i]} {A[i, j]:.17g}")
    out.append("RHS")
    for i in np.flatnonzero(lp.rhs):
        out.append(f" RHS {rows[i]} {lp.rhs[i]:.17g}")
    out.append("BOUNDS")
    for j in range(lp.nvars):
        lo, hi = lp.lb[j], lp.ub[j]
        if lo == hi:
            out.append(f" FX BND {cols[j]} {lo:.17g}")
            continue
        if np.isinf(lo) and np.isinf(hi):
            out.append(f" FR BND {cols[j]}")
            continue
        if np.isinf(lo):
            out.append(f" MI BND {cols[j]}")
        elif lo != 0.0:
            out.append(f" LO BND {cols[j]} {lo:.17g}")
        if np.isfinite(hi):
            out.append(f" UP BND {cols[j]} {hi:.17g}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
