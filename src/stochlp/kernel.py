"""Self-contained LP and diagonal-QP solver.

Entry points: ``solve_lp`` for one LP, ``solve_family`` for a family of LPs
that share a constraint matrix, and ``solve_qp_diagonal`` for a ``QPStack``
of QPs.  An LP is an ``LPInstance``: dense and a minimization.

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
``_REFACTOR_EVERY`` pivots.  ``_basis_inverse`` factors every basis through
its slack block, so a master grown by cut rows with basic slacks costs a k×k
inverse, k at most its structural column count, instead of an m×m one.
``LPSolution.iterations`` is the total pivot count and ``extras["pivots"]``
splits it into dual, phase-1 and phase-2 pivots.
Bunching lives in ``solve_family``: the members of an ``LPFamily`` differ
only in rhs, costs and bounds, so an optimal basis is one set of columns of
``[A | I]`` for all of them.  Pooled bases solve by matmul the members the
simplex's own stopping tests accept, and ``solve_family`` returns their
solutions as arrays by position; the rest go to a fallback the caller
supplies (a ``solve_lp`` call that records its own result), whose optimal
bases join the pool.
The QP method, ``solve_qp_diagonal``, is a Mehrotra predictor-corrector
interior point for diagonal Hessians: it runs a ``QPStack`` of programs that
share one row pattern (row senses and which bounds are finite) in one loop,
with per-member step lengths, convergence, best iterate, regularization and
status, and solves the members' KKT systems as one stacked
``np.linalg.solve``.  A warm start first tries each member at its warm
iterate's active set, where the solution is affine in the costs and the
center (the QP form of bunching): one stacked equality-constrained KKT
solve, accepted by the interior point's own stopping test, and only the
members it does not settle enter the interior point.  Progressive hedging
passes the stacks it builds once per run, one per wave, warm from the last
wave's iterates; the regularized L-shaped masters are stacks of one,
solved cold.

Both methods return a status; a caller that needs an optimum passes the
solution through ``require_optimal``, so an infeasible, unbounded or
unfinished solve fails the same way whichever layer ran it.

Dual sign convention, used unchanged by every consumer in this package:
for a minimization instance the row multipliers ``y`` satisfy

    reduced costs  z = c - A^T y,   z_j >= 0 at lower bounds, <= 0 at upper,

so the dual of an active ``>=`` row is ``>= 0`` and of an active ``<=`` row
is ``<= 0``.  The dual objective is ``y^T rhs + sum_j z_j * (bound of j)``
over nonbasic variables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg.blas

from .errors import (
    InfeasibleProblem,
    InfeasibleScenario,
    NumericalBreakdown,
    UnboundedProblem,
    UnboundedSubproblem,
)
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
_POOL_SIZE = 8          # recent optimal bases an LPFamily keeps for bunching


# Read at each call, so setting a module attribute takes effect on the next solve.
FEAS_TOL = 1e-8             # primal feasibility tolerance of the simplex methods and bunching
OPT_TOL = 1e-8              # reduced-cost tolerance; also scales the interior point's stop
MAX_PIVOTS = 50000          # simplex pivots per LP solve
IPM_MAX_ITERATIONS = 100    # interior-point iterations per QP stack member


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


def require_optimal(sol: LPSolution, what: str, scenario: int = None) -> LPSolution:
    """``sol`` itself when it is optimal; otherwise the error its status names.

    An infeasible or unbounded program raises ``InfeasibleProblem`` or
    ``UnboundedProblem``, and ``InfeasibleScenario`` or ``UnboundedSubproblem``
    when ``scenario`` is given.  Any other status (an iteration limit) leaves
    no solution to use and raises ``NumericalBreakdown``.  Messages read
    "{what}[ of scenario s] ended {status}", except ``InfeasibleScenario``'s.
    """
    if sol.status == OPTIMAL:
        return sol
    where = what if scenario is None else f"{what} of scenario {scenario}"
    if sol.status == INFEASIBLE:
        raise InfeasibleProblem(f"{where} ended infeasible") if scenario is None \
            else InfeasibleScenario(scenario)
    if sol.status == UNBOUNDED:
        raise UnboundedProblem(f"{where} ended unbounded") if scenario is None \
            else UnboundedSubproblem(scenario, f"{where} ended unbounded")
    raise NumericalBreakdown(f"{where} ended {sol.status}")


def _slack_bounds(senses):
    """Lower and upper bounds of the slacks ``s`` in ``A x + s = rhs``, one per row sense."""
    of = {"<=": (0.0, np.inf), ">=": (-np.inf, 0.0), "=": (0.0, 0.0)}
    bounds = np.array([of[s] for s in senses], dtype=float).reshape(-1, 2)
    return bounds[:, 0], bounds[:, 1]


def _equality_form(A, row_senses, c, lb, ub):
    """``[A | I]`` and the costs and bounds of its columns, the slacks of
    ``A x + s = rhs`` last; ``c``, ``lb`` and ``ub`` may stack programs on a
    leading axis."""
    m = A.shape[0]
    c, lb, ub = (np.concatenate([v, np.broadcast_to(w, v.shape[:-1] + (m,))], axis=-1)
                 for v, w in zip((c, lb, ub), (np.zeros(m), *_slack_bounds(row_senses))))
    return np.hstack([A, np.eye(m)]), c, lb, ub


class _Tableau:
    """Equality-form working problem: [A | I] z = b with bounds on z."""

    def __init__(self, lp: LPInstance):
        self.A, self.c, self.lb, self.ub = _equality_form(lp.A, lp.row_senses, lp.c, lp.lb, lp.ub)
        self.m, self.N = self.A.shape
        self.n = self.N - self.m
        self.b = lp.rhs.astype(float).copy()

    def row(self, v):
        """``v @ self.A``, using that the slack block is the identity."""
        return np.concatenate([v @ self.A[:, :self.n], v])


def _basis_inverse(A, basic, n):
    """Inverse of the basis ``A[:, basic]`` of ``A = [A_x | I]``, ``A_x`` with ``n`` columns.

    Only A_RC is inverted: the k basic structural columns C on the k rows R
    whose slack is not basic.  The row of the inverse for a column of C is its
    row of A_RC^-1 on the columns R, and the row for the slack of row i is
    e_i - A_iC A_RC^-1: O(k^3 + m k^2) work instead of O(m^3).  Raises
    ``np.linalg.LinAlgError`` when A_RC, and so the basis, is singular.
    """
    m = A.shape[0]
    slack = basic >= n
    S = basic[slack] - n
    in_s = np.zeros(m, dtype=bool)
    in_s[S] = True
    A_C = A[:, basic[~slack]]
    inv = np.linalg.inv(A_C[~in_s])
    block = np.empty((m, inv.shape[0]))
    block[~slack] = inv
    block[slack] = -(A_C[S] @ inv)
    Binv = np.zeros((m, m))
    Binv[:, ~in_s] = block
    Binv[slack, S] = 1.0
    return Binv


def _usable_basis(token, A, lb, ub):
    """``token`` as a start of the columns ``A = [A_x | I]`` with bounds ``lb`` and ``ub``.

    Returns its basic columns, statuses and basis inverse, factored through
    its slack block by ``_basis_inverse``, or None unless it is usable:
    ``vstat`` holds valid codes, is basic on exactly the distinct in-range
    ``basic`` columns and puts each nonbasic column at a finite bound (a free
    column at zero), and the basis matrix is nonsingular.
    """
    m, N = A.shape
    if not isinstance(token, Basis) or token.basic.size != m or token.vstat.size != N:
        return None
    vstat = np.asarray(token.vstat)
    try:
        counts = np.bincount(vstat, minlength=4)     # raises on a negative code
    except (TypeError, ValueError):
        return None
    if counts.size > 4 or counts[_BASIC] != m \
            or (np.sort(token.basic) != np.flatnonzero(vstat == _BASIC)).any() \
            or np.isinf(np.where(vstat == _AT_UB, ub, lb)[vstat < _BASIC]).any():
        return None
    if counts[_FREE]:
        free = vstat == _FREE
        if np.isfinite(lb[free]).any() or np.isfinite(ub[free]).any():
            return None
    basic = token.basic.astype(int)
    try:
        Binv = _basis_inverse(A, basic, N - m)
    except np.linalg.LinAlgError:
        return None
    return basic, vstat.astype(np.int8), Binv


def _outside(x_B, lo_B, hi_B, feas):
    """Which basic values lie below and which above their bounds, beyond ``feas``."""
    return x_B < lo_B - feas, x_B > hi_B + feas


def _wrong_sign(d, movable, not_lb, not_ub, dtol):
    """Nonbasic columns whose reduced cost has the wrong sign for their status.

    ``not_lb`` and ``not_ub`` mark the columns not at their lower and not at
    their upper bound.  ``d`` is zero on basic columns, so only a column at
    its lower bound or free can be wrong below zero, and only one at its
    upper bound or free above zero; a column that cannot move (``movable``
    False) never is.
    """
    return movable & (((d < -dtol) & not_ub) | ((d > dtol) & not_lb))


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
        usable = _usable_basis(token, tab.A, tab.lb, tab.ub)
        self.warm = usable is not None
        if self.warm:
            self.basic, self.vstat, self.Binv = usable
        else:
            lo, hi = tab.lb[:tab.n], tab.ub[:tab.n]
            self.basic = np.arange(tab.n, tab.N)
            self.vstat = np.full(tab.N, _BASIC, dtype=np.int8)
            self.vstat[:tab.n] = np.where(np.abs(lo) <= np.abs(hi), _AT_LB, _AT_UB)
            self.vstat[:tab.n][np.isinf(lo) & np.isinf(hi)] = _FREE
            self.Binv = np.eye(tab.m)
        self.recompute()

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
            self.Binv = _basis_inverse(self.tab.A, self.basic, self.tab.n)
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


def _simplex(wb):
    """Bounded primal simplex on the working basis ``wb``, whose ``x_B`` is current.

    Pivots already counted on ``wb`` (by the dual simplex on this solve)
    count toward ``MAX_PIVOTS``.  Returns ``wb.result``.
    """
    feas, dtol = FEAS_TOL, OPT_TOL
    tab = wb.tab
    A, lb, ub, c = tab.A, tab.lb, tab.ub, tab.c
    N = tab.N
    fixed = lb == ub
    bland = False
    stall = 0
    last_obj = np.inf

    while wb.count < MAX_PIVOTS:
        basic, vstat, xv, x_B, Binv = wb.basic, wb.vstat, wb.xv, wb.x_B, wb.Binv
        lo_B, hi_B = lb[basic], ub[basic]
        below, above = _outside(x_B, lo_B, hi_B, feas)
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


def _dual_simplex(wb):
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
    feas, dtol = FEAS_TOL, OPT_TOL
    movable = lb < ub
    boxed = movable & np.isfinite(lb) & np.isfinite(ub)

    def prices():
        y = c[wb.basic] @ wb.Binv
        d = c - tab.row(y)
        d[wb.basic] = 0.0
        return y, d

    def flip_to_sign(flip):
        wb.vstat[flip] = np.where(wb.vstat[flip] == _AT_LB, _AT_UB, _AT_LB)
        wb.recompute()

    y, d = prices()
    flip = _wrong_sign(d, movable, wb.vstat != _AT_LB, wb.vstat != _AT_UB, dtol)
    if flip.any():
        if (flip & ~boxed).any():
            return _simplex(wb)
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
                flip = _wrong_sign(d, movable, wb.vstat != _AT_LB, wb.vstat != _AT_UB, dtol)
                if flip.any():
                    if (flip & ~boxed).any():
                        break
                    flip_to_sign(flip)
                    continue
            return wb.result(OPTIMAL, y=y, z=d)
        if wb.count >= MAX_PIVOTS:
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
    return _simplex(wb)


def _assemble(tab, res):
    """Build the user-facing solution from the simplex end state."""
    basic, vstat, x_B, xv = res["basic"], res["vstat"], res["x_B"], res["xv"]
    x_full = xv.copy()
    x_full[basic] = x_B
    x = x_full[:tab.n]
    sol = LPSolution(status=res["status"], x=x,
                     basis=Basis(basic.copy(), vstat.copy()),
                     iterations=sum(res["pivots"].values()))
    sol.extras["pivots"] = res["pivots"]
    if res["status"] == OPTIMAL:
        sol.objective = tab.c @ x_full
        sol.duals = res["y"]
        sol.reduced_costs = res["z"][:tab.n]
    elif res["status"] == INFEASIBLE:
        sol.farkas = res["farkas"]
        sol.extras["infeasibility"] = res["infeasibility"]
    elif res["status"] == ITERATION_LIMIT:
        sol.objective = tab.c @ x_full
    return sol


def solve_lp(lp: LPInstance, warm_start: Basis = None) -> LPSolution:
    """Solve ``lp``, warm from ``warm_start`` when that is a usable basis of it."""
    tab = _Tableau(lp)
    wb = _WorkingBasis(tab, warm_start)
    return _assemble(tab, _dual_simplex(wb) if wb.warm else _simplex(wb))


# ---------------------------------------------------------------------------
# LP families: bunching over a pool of optimal bases


class _PoolEntry:
    """A pooled optimal basis with its inverse (``_basis_inverse``) and its status masks."""

    def __init__(self, basis, basic, vstat, Binv):
        self.basis, self.basic, self.vstat, self.Binv = basis, basic, vstat, Binv
        self.at_lb, self.at_ub, self.free = vstat == _AT_LB, vstat == _AT_UB, vstat == _FREE
        self.not_lb, self.not_ub = ~self.at_lb, ~self.at_ub


class LPFamily:
    """Minimization LPs that share the matrix ``A`` and its row senses.

    Member s has the costs ``c[s]`` and bounds ``lb[s]``, ``ub[s]``; its rhs
    comes with each solve.  The family holds them over ``[A | I]``, stacked,
    and ``entries``: at most ``_POOL_SIZE`` recent optimal bases with their
    inverses, factored through their slack block by ``_usable_basis``, newest
    first.  Members marked ``excluded`` are LPs of their own (another matrix
    or other row senses), left to the fallback and kept out of the pool.
    Entries are replaced whole, so a reader that takes ``entries`` once sees
    a consistent pool while other threads add to it.
    """

    def __init__(self, A, row_senses, c, lb, ub, excluded):
        self.n = c.shape[1]
        self.A, self.cost, self.lo, self.hi = _equality_form(A, row_senses, c, lb, ub)
        self.excluded = np.asarray(excluded, dtype=bool)
        self.entries = ()
        self._lock = threading.Lock()

    def add(self, basis, member):
        """Put ``basis``, optimal for ``member``, first; None unless it passes the
        checks of a warm start against that member's data."""
        usable = _usable_basis(basis, self.A, self.lo[member], self.hi[member])
        if usable is None:
            return None
        entry = _PoolEntry(basis, *usable)
        with self._lock:
            rest = tuple(e for e in self.entries if not (np.array_equal(e.basic, entry.basic)
                                                         and np.array_equal(e.vstat, entry.vstat)))
            self.entries = (entry,) + rest[:_POOL_SIZE - 1]
        return entry

    def touch(self, entry):
        """Move ``entry`` to the front, unless ``add`` has dropped it since it was read."""
        with self._lock:
            if entry in self.entries[1:]:
                self.entries = (entry,) + tuple(e for e in self.entries if e is not entry)


def solve_family(family: LPFamily, members, rhs, fallback):
    """Solve the members ``members`` of ``family``, with one rhs row each.

    Each pooled basis, newest first, computes the basic values of the open
    members in one matmul (their reduced costs in one more when the costs
    vary) and solves those at which the simplex would stop: no basic value
    ``_outside`` its bounds, no reduced cost of the ``_wrong_sign``, nonbasic
    columns at finite bounds and free ones at zero.  The rest, every
    infeasible and excluded member among them, go in index order to
    ``fallback(k, warm)``, which records its own result and returns the
    member's optimal basis or None.  ``warm`` is the newest pooled basis,
    and for an excluded member the basis the fallback last returned for an
    excluded member, once there is one.  Each basis the fallback returns for
    a member that is not excluded joins the pool and is tried on the members
    still open.  Only the fallback's solves are LP solves.

    Returns (pooled, x, duals, objective), by position in ``members``:
    ``pooled`` marks the members a pooled basis solved, and x, the row duals
    B^-T c_B and the value c x hold their structural solutions, a row each
    (NaN in the fallback's rows).
    """
    members = np.asarray(members, dtype=int)
    lo, hi, cost = family.lo[members], family.hi[members], family.cost[members]
    c_varies = bool((cost != cost[:1]).any())
    excluded = family.excluded[members]
    open_ = ~excluded
    pooled = np.zeros(members.size, dtype=bool)
    xs = np.full((members.size, family.n), np.nan)
    duals = np.full((members.size, family.A.shape[0]), np.nan)
    objective = np.full(members.size, np.nan)

    def bunch(entry):
        A, basic, Binv = family.A, entry.basic, entry.Binv
        pos = np.flatnonzero(open_)
        lo_, hi_ = lo[pos], hi[pos]
        xv = np.where(entry.at_ub, hi_, np.where(entry.at_lb, lo_, 0.0))
        ok = np.isfinite(xv).all(axis=1)
        if entry.free.any():
            ok &= (np.isinf(lo_[:, entry.free]) & np.isinf(hi_[:, entry.free])).all(axis=1)
        xv[~ok] = 0.0
        x_B = (rhs[pos] - xv @ A.T) @ Binv.T
        below, above = _outside(x_B, lo_[:, basic], hi_[:, basic], FEAS_TOL)
        ok &= ~(below | above).any(axis=1)
        if c_varies:
            y = cost[pos][:, basic] @ Binv
            d = cost[pos] - y @ A
        else:
            y = np.broadcast_to(cost[0, basic] @ Binv, (pos.size, basic.size))
            d = cost[:1] - y[:1] @ A
        d[:, basic] = 0.0
        ok &= ~_wrong_sign(d, lo_ < hi_, entry.not_lb, entry.not_ub, OPT_TOL).any(axis=1)
        if not ok.any():
            return False
        pos, xv = pos[ok], xv[ok]
        xv[:, basic] = x_B[ok]
        open_[pos] = False
        pooled[pos] = True
        xs[pos] = xv[:, :family.n]
        duals[pos] = y[ok]
        objective[pos] = np.einsum("ij,ij->i", cost[pos, :family.n], xs[pos])
        return True

    for entry in family.entries:
        if not open_.any():
            break
        if bunch(entry):
            family.touch(entry)
    warm_excluded = None
    for k in range(members.size):
        if not (open_[k] or excluded[k]):
            continue            # pooled
        entries = family.entries
        warm = entries[0].basis if entries else None
        if excluded[k] and warm_excluded is not None:
            warm = warm_excluded
        basis = fallback(k, warm)
        open_[k] = False
        if basis is not None and excluded[k]:
            warm_excluded = basis
        elif basis is not None:
            entry = family.add(basis, members[k])
            if entry is not None and open_.any():
                bunch(entry)
    return pooled, xs, duals, objective


def primal_violation(lp: LPInstance, x: np.ndarray) -> float:
    """Largest bound or row violation of a candidate point: a row holds when
    its slack ``rhs - A x`` lies in its ``_slack_bounds``."""
    s = lp.rhs - lp.A @ x
    lo, hi = _slack_bounds(lp.row_senses)
    return float(max(np.max(lp.lb - x, initial=0.0), np.max(x - lp.ub, initial=0.0),
                     np.max(lo - s, initial=0.0), np.max(s - hi, initial=0.0)))


# ---------------------------------------------------------------------------
# diagonal QP: primal-dual interior point over a stack of programs

_REG_START, _REG_MAX = 1e-10, 1e-4   # rungs of the KKT regularization ladder, x100 apart


@dataclass
class QPStack:
    """S diagonal QPs that share one row pattern, in the interior point's form.

        minimize    c_s^T x + 1/2 sum_j D_sj (x_j - z_sj)^2
        subject to  AE_s x = bE_s,   G_s x <= g_s

    Every array has the member axis first: ``c``, ``D``, ``z``, ``lb`` and
    ``ub`` are (S, n), ``AE`` (S, mE, n), ``bE`` (S, mE), ``G`` (S, mI, n)
    and ``g`` (S, mI).  The equality rows and the fixed variables form
    ``AE``; the other rows (a ``>=`` row negated) and the finite bounds
    form ``G``.  ``rhs_scale`` (S,) is max(1, |rhs|, |bE|), the data part of
    the convergence scale.
    """

    c: np.ndarray
    D: np.ndarray
    z: np.ndarray
    AE: np.ndarray
    bE: np.ndarray
    G: np.ndarray
    g: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    rhs_scale: np.ndarray

    @property
    def size(self):
        return self.c.shape[0]

    def take(self, pos):
        """The members ``pos`` as a stack of their own."""
        return QPStack(**{f.name: getattr(self, f.name)[pos] for f in fields(self)})


def qp_pattern(row_senses, lb, ub):
    """Hashable image of what fixes a program's stack layout: its row senses
    and which variables are fixed or have a finite lower or upper bound."""
    lb, ub = np.asarray(lb), np.asarray(ub)
    return (tuple(row_senses), (lb == ub).tobytes(), np.isfinite(lb).tobytes(),
            np.isfinite(ub).tobytes())


def qp_stack(c, A, rhs, row_senses, lb, ub, D, z) -> QPStack:
    """The :class:`QPStack` of S programs that share ``row_senses`` and one
    ``qp_pattern``; every other argument is stacked on a leading axis."""
    c, A, rhs, lb, ub, D, z = (np.asarray(a, dtype=float) for a in (c, A, rhs, lb, ub, D, z))
    S, _, n = A.shape
    if len({qp_pattern(row_senses, lo, hi) for lo, hi in zip(lb, ub)}) > 1:
        raise ValueError("stacked programs must share their row senses and bound pattern")
    senses = np.array(row_senses, dtype=object)
    eq = senses == "="
    fixed = lb[0] == ub[0]
    eye = np.eye(n)
    AE = np.concatenate([A[:, eq], np.broadcast_to(eye[fixed], (S, int(fixed.sum()), n))],
                        axis=1)
    bE = np.concatenate([rhs[:, eq], lb[:, fixed]], axis=1)
    # inequality rows: the source rows in order, then each unfixed
    # variable's finite upper bound followed by its finite lower bound
    sign = np.where(senses[~eq] == ">=", -1.0, 1.0)
    keep = (np.stack([np.isfinite(ub[0]), np.isfinite(lb[0])], axis=1) & ~fixed[:, None]).ravel()
    bound_rows = np.stack([eye, -eye], axis=1).reshape(2 * n, n)[keep]
    G = np.concatenate([A[:, ~eq] * sign[:, None],
                        np.broadcast_to(bound_rows, (S,) + bound_rows.shape)], axis=1)
    g = np.concatenate([rhs[:, ~eq] * sign, np.stack([ub, -lb], axis=2).reshape(S, 2 * n)[:, keep]],
                       axis=1)
    rhs_scale = np.maximum(1.0, np.abs(np.concatenate([rhs, bE], axis=1)).max(axis=1, initial=0.0))
    return QPStack(c=c, D=D, z=z, AE=AE, bE=bE, G=G, g=g, lb=lb, ub=ub, rhs_scale=rhs_scale)


@dataclass
class QPIterate:
    """Interior-point iterates of a stack: ``x`` (S, n), ``lam`` (S, mI) and
    ``y`` (S, mE).  As a warm start, ``valid`` (S,) marks the members that
    use it; the others start cold.  None means all of them."""

    x: np.ndarray
    lam: np.ndarray
    y: np.ndarray
    valid: np.ndarray = None

    def take(self, pos):
        """The iterates of the members ``pos``."""
        return QPIterate(x=self.x[pos], lam=self.lam[pos], y=self.y[pos],
                         valid=None if self.valid is None else self.valid[pos])


@dataclass
class QPStackResult:
    """Per-member outcome of a stacked solve: status, interior-point
    iterations, objective, the iterate, which is the best one seen when the
    member stopped short of optimal, and ``accepted``, the members settled
    at their warm start's active set (optimal after 0 iterations)."""

    status: np.ndarray
    member_iterations: np.ndarray
    objective: np.ndarray
    iterate: QPIterate
    accepted: np.ndarray

    @property
    def iterations(self):
        """Interior-point iterations of all members together."""
        return int(self.member_iterations.sum())

    def member(self, i) -> LPSolution:
        """Member i as a solution."""
        return LPSolution(status=self.status[i], x=self.iterate.x[i],
                          objective=float(self.objective[i]),
                          iterations=int(self.member_iterations[i]))


def _mv(A, v):
    """Stacked matrix-vector products ``A[i] @ v[i]``."""
    return np.matmul(A, v[..., None])[..., 0]


def _qp_start(qp: QPStack, warm: QPIterate = None):
    """Starting (x, s, lam, y): the center moved into the bounds, or a warm
    iterate with its slacks and multipliers kept off zero."""
    lo, hi = qp.lb, qp.ub
    flo, fhi = np.isfinite(lo), np.isfinite(hi)
    x = np.where(flo & fhi, np.clip(qp.z, lo, hi), qp.z)
    x = np.where(flo & ~fhi, np.maximum(x, lo + 1.0), x)
    x = np.where(~flo & fhi, np.minimum(x, hi - 1.0), x)
    s = np.maximum(qp.g - _mv(qp.G, x), 1.0)
    lam = np.ones_like(s)
    y = np.zeros(qp.bE.shape)
    if warm is not None:
        use = slice(None) if warm.valid is None else warm.valid
        x[use] = warm.x[use]
        s[use] = np.maximum(qp.g[use] - _mv(qp.G[use], x[use]), 1e-2)
        lam[use] = np.maximum(warm.lam[use], 1e-2)
        y[use] = warm.y[use]
    return x, s, lam, y


def _step_length(v, dv):
    """Per member, the fraction-to-boundary step that keeps ``v + a dv > 0``, at most 1."""
    ratio = np.where(dv < 0, -v / dv, np.inf)
    return np.minimum(1.0, 0.995 * ratio.min(axis=1, initial=np.inf))


def _solve_each(K, rhs):
    """``K[i] d[i] = rhs[i]`` for every member, and which members got a
    finite ``d``; a singular member fails alone."""
    try:
        d = np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        d = np.full(rhs.shape, np.nan)
        for i in range(K.shape[0]):
            try:
                d[i] = np.linalg.solve(K[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return d, np.isfinite(d).all(axis=1)


def _qp_tolerance(qp: QPStack):
    """Per member, the error at which the interior point stops."""
    return OPT_TOL * (1.0 + np.maximum(qp.rhs_scale, np.abs(qp.c).max(axis=1, initial=0.0)))


def _residuals(c, D, z, AE, bE, G, g, x, s, lam, y):
    """The KKT residuals (rd, rE, rI) and complementarity ``mu`` of iterates
    (x, s, lam, y) of the programs (c, D, z, AE, bE, G, g), and their
    stopping error, the largest of |rd|, |rE|, |rI| and mu."""
    rd = D * (x - z) + c + _mv(AE.transpose(0, 2, 1), y) + _mv(G.transpose(0, 2, 1), lam)
    rE = _mv(AE, x) - bE
    rI = _mv(G, x) + s - g
    mI = g.shape[1]
    mu = np.einsum("si,si->s", s, lam) / mI if mI else np.zeros(x.shape[0])
    err = np.maximum(np.abs(np.concatenate([rd, rE, rI], axis=1)).max(axis=1, initial=0.0), mu)
    return rd, rE, rI, mu, err


def _active_set_step(qp: QPStack, warm: QPIterate):
    """The members of ``qp`` settled at their warm iterate's active set, as
    (positions, iterate).

    A valid member is tried when its warm point, with slacks
    max(g - G x, 0), passes every part of the interior point's stopping
    test that its costs and center do not enter: the row residuals and
    the complementarity mu.  Such a point solves a program that differs
    only in c, D and z, while a far-off or central start names no active
    set.  A row of ``G x <= g`` is active where the warm
    multiplier exceeds the warm slack.  Each tried member's
    equality-constrained KKT system holds its active rows at equality and
    pins its other multipliers to zero; the systems are solved as one
    stack.  A member is settled when its point, with slacks
    max(g - G x, 0) and multipliers max(lam, 0), passes the interior
    point's stopping test.  A singular or non-finite system settles
    nothing and is not regularized: the y block has no curvature, so a
    singular system is an active set that leaves y undetermined.
    """
    n, mE, mI = qp.c.shape[1], qp.bE.shape[1], qp.g.shape[1]
    tol = _qp_tolerance(qp)
    slack = qp.g - _mv(qp.G, warm.x)
    with np.errstate(all="ignore"):
        _, rE, rI, mu, _ = _residuals(qp.c, qp.D, qp.z, qp.AE, qp.bE, qp.G, qp.g, warm.x,
                                      np.maximum(slack, 0.0), np.maximum(warm.lam, 0.0), warm.y)
        near = np.maximum(np.abs(np.concatenate([rE, rI], axis=1)).max(axis=1, initial=0.0),
                          mu) <= tol
    if warm.valid is not None:
        near &= warm.valid
    pos = np.flatnonzero(near)
    sub = qp if pos.size == qp.size else qp.take(pos)
    k = pos.size
    active = warm.lam[pos] > slack[pos]
    # unknowns (x, y, lam): stationarity, the equality rows, then per
    # inequality row either G_i x = g_i (active) or lam_i = 0
    N, e = n + mE + mI, n + mE
    K = np.zeros((k, N, N))
    K[:, np.arange(n), np.arange(n)] = sub.D
    K[:, :n, n:e] = sub.AE.transpose(0, 2, 1)
    K[:, :n, e:] = sub.G.transpose(0, 2, 1)
    K[:, n:e, :n] = sub.AE
    K[:, e:, :n] = sub.G * active[:, :, None]
    K[:, np.arange(e, N), np.arange(e, N)] = ~active
    rhs = np.concatenate([sub.D * sub.z - sub.c, sub.bE, np.where(active, sub.g, 0.0)], axis=1)
    with np.errstate(all="ignore"):
        d, ok = _solve_each(K, rhs)
        x, y, lam = d[:, :n], d[:, n:e], np.maximum(d[:, e:], 0.0)
        s = np.maximum(sub.g - _mv(sub.G, x), 0.0)
        err = _residuals(sub.c, sub.D, sub.z, sub.AE, sub.bE, sub.G, sub.g, x, s, lam, y)[-1]
        ok &= err <= tol[pos]
    return pos[ok], QPIterate(x=x[ok], lam=lam[ok], y=y[ok])


def solve_qp_diagonal(qp: QPStack, warm_start: QPIterate = None) -> QPStackResult:
    """Every member of ``qp``, warm from the members of ``warm_start`` that
    it marks valid.

    A warm-started member is first tried at its warm iterate's active set
    (``_active_set_step``): a PH wave moves only the linear term, the
    center and the penalty, and for a fixed active set the solution is
    affine in them, so one stacked KKT solve settles most members.  Those
    are optimal after 0 iterations and marked ``accepted``.  The rest run
    the interior point as one stack, warm from their iterates.  A program
    without inequality rows has no active set to keep; the interior
    point's first Newton step is the same solve.
    """
    S = qp.size
    accepted = np.zeros(S, dtype=bool)
    if warm_start is not None and qp.g.shape[1]:
        at, settled = _active_set_step(qp, warm_start)
        accepted[at] = True
    if not accepted.any():
        status, iterations, iterate = _interior_point(qp, warm_start)
    else:
        status = np.full(S, OPTIMAL, dtype=object)
        iterations = np.zeros(S, dtype=int)
        iterate = QPIterate(*(np.empty(a.shape) for a in (qp.c, qp.g, qp.bE)))
        parts = [(at, settled)]
        rest = np.flatnonzero(~accepted)
        if rest.size:
            status[rest], iterations[rest], again = _interior_point(qp.take(rest),
                                                                    warm_start.take(rest))
            parts.append((rest, again))
        for pos, part in parts:
            iterate.x[pos], iterate.lam[pos], iterate.y[pos] = part.x, part.lam, part.y
    x = iterate.x
    with np.errstate(all="ignore"):     # an unbounded member's objective may overflow
        objective = np.einsum("si,si->s", qp.c, x) + 0.5 * np.sum(qp.D * (x - qp.z) ** 2, axis=1)
    return QPStackResult(status=status, member_iterations=iterations, objective=objective,
                         iterate=iterate, accepted=accepted)


def _interior_point(qp: QPStack, warm_start: QPIterate = None):
    """Mehrotra predictor-corrector on every member of ``qp`` in one loop:
    each member's (status, iterations) and its best iterate.

    Each member keeps its own step lengths, convergence test, best iterate,
    regularization and status.  A member leaves the loop when it converges
    (optimal), diverges (unbounded) or cannot take a step (iteration limit,
    with its best iterate); the others go on as if it were not there.  The
    KKT systems of the members still running are solved as one stack.  A
    member whose system is singular or gives a non-finite step climbs the
    regularization ladder (x100 from 1e-10 up to 1e-4) alone.
    """
    limit = IPM_MAX_ITERATIONS
    S, n, mE, mI = qp.size, qp.c.shape[1], qp.bE.shape[1], qp.g.shape[1]
    x, s, lam, y = _qp_start(qp, warm_start)
    best = QPIterate(x=x.copy(), lam=lam.copy(), y=y.copy())
    best_err = np.full(S, np.inf)
    status = np.full(S, ITERATION_LIMIT, dtype=object)
    iterations = np.full(S, limit)
    tol = _qp_tolerance(qp)
    # the KKT matrices without their G^T W G block, and the diagonal that
    # the regularization r adds to: D + r on x, -r on y
    K0 = np.zeros((S, n + mE, n + mE))
    K0[:, :n, n:] = qp.AE.transpose(0, 2, 1)
    K0[:, n:, :n] = qp.AE
    Dpad = np.concatenate([qp.D, np.zeros((S, mE))], axis=1)
    reg_sign = np.concatenate([np.ones(n), -np.ones(mE)])
    diag = np.arange(n + mE)
    run = np.arange(S)          # the members still iterating
    data = (qp.c, qp.D, qp.z, qp.AE, qp.bE, qp.G, qp.g, tol, K0, Dpad)

    with np.errstate(all="ignore"):     # a diverging member must not warn for the rest
        for it in range(limit):
            rd, rE, rI, mu, err = _residuals(*data[:7], x, s, lam, y)
            G, tol_run, K0, Dpad = data[5], data[7], data[8], data[9]
            better = err < best_err[run]
            at = run[better]
            best_err[at] = err[better]
            best.x[at], best.lam[at], best.y[at] = x[better], lam[better], y[better]

            def settle(mask, what, current):
                """Stop the members ``mask`` with status ``what``."""
                at = run[mask]
                status[at] = what
                iterations[at] = it
                if current:
                    best.x[at], best.lam[at], best.y[at] = x[mask], lam[mask], y[mask]

            optimal = err <= tol_run
            unbounded = ~optimal & (~np.isfinite(err) | (np.abs(x).max(axis=1, initial=0.0) > 1e13))
            stop = optimal | unbounded
            if stop.any():
                settle(optimal, OPTIMAL, True)
                settle(unbounded, UNBOUNDED, True)
                go = ~stop
                run, x, s, lam, y, rd, rE, rI, mu = (
                    a[go] for a in (run, x, s, lam, y, rd, rE, rI, mu))
                if not run.size:
                    break
                data = tuple(a[go] for a in data)
                G, K0, Dpad = data[5], data[8], data[9]
            GT = G.transpose(0, 2, 1)
            M = (GT * np.clip(lam / np.maximum(s, 1e-300), 0.0, 1e14)[:, None, :]) @ G
            reg = np.full(run.size, _REG_START)

            def kkt(rows):
                """The regularized KKT matrices of the members ``rows``."""
                K = K0[rows].copy()
                K[:, :n, :n] = M[rows]
                K[:, diag, diag] += Dpad[rows] + reg[rows, None] * reg_sign
                return K

            def rhs_for(rc):
                rhs_x = -rd - _mv(GT, (-rc + lam * rI) / s) if mI else -rd
                return np.concatenate([rhs_x, -rE], axis=1)

            def directions(d, rc):
                dx = d[:, :n]
                ds = -rI - _mv(G, dx)
                return dx, d[:, n:], ds, (-rc - lam * ds) / s

            # predictor; a member whose system does not solve climbs the ladder alone
            K = kkt(slice(None))
            rc = s * lam
            rhs = rhs_for(rc)
            d, ok = _solve_each(K, rhs)
            while not ok.all():
                retry = np.flatnonzero(~ok)
                reg[retry] = np.maximum(reg[retry] * 100.0, 1e-9)
                retry = retry[reg[retry] <= _REG_MAX]
                if not retry.size:
                    break
                K[retry] = kkt(retry)
                d[retry], ok[retry] = _solve_each(K[retry], rhs[retry])
            dx, dy, ds, dlam = directions(d, rc)
            ap = ad = np.ones(run.size)
            if mI:
                # corrector, on the same regularized systems
                ap, ad = _step_length(s, ds), _step_length(lam, dlam)
                mu_aff = np.einsum("si,si->s", s + ap[:, None] * ds,
                                   lam + ad[:, None] * dlam) / mI
                sigma = np.where(mu > 0, (mu_aff / np.where(mu > 0, mu, 1.0)) ** 3, 0.1)
                rc = s * lam - (sigma * mu)[:, None] + ds * dlam
                d, _ = _solve_each(K, rhs_for(rc))
                dx, dy, ds, dlam = directions(d, rc)
                ap, ad = _step_length(s, ds), _step_length(lam, dlam)
            ok &= np.isfinite(np.concatenate([dx, ds, dlam], axis=1)).all(axis=1)

            x = x + ap[:, None] * dx
            s = s + ap[:, None] * ds
            y = y + ad[:, None] * dy
            lam = lam + ad[:, None] * dlam
            if not ok.all():
                settle(~ok, ITERATION_LIMIT, False)
                run, x, s, lam, y = (a[ok] for a in (run, x, s, lam, y))
                data = tuple(a[ok] for a in data)
                if not run.size:
                    break
    return status, iterations, best


def linearize_penalty(lp: LPInstance, r: float, center, norm: str = "one") -> LPInstance:
    """``lp`` with the proximal term r ||x - center||_1 or r ||x - center||_inf.

    The penalty covers the first ``center.size`` variables.  The returned
    instance appends auxiliary columns after the original variables; slice
    the primal solution to ``lp.nvars`` to recover x.
    """
    center = np.asarray(center, dtype=float)
    n, m, k = lp.nvars, lp.nrows, center.size
    eye = np.eye(k)
    if norm == "one":
        # x_i - p_i + n_i = center_i, objective += r (p_i + n_i)
        A2 = np.zeros((m + k, n + 2 * k))
        A2[m:, n:n + k] = -eye
        A2[m:, n + k:] = eye
        rhs2 = np.concatenate([lp.rhs, center])
        senses2 = lp.row_senses + ("=",) * k
        c2 = np.concatenate([lp.c, np.full(2 * k, r)])
        lb2 = np.concatenate([lp.lb, np.zeros(2 * k)])
        ub2 = np.concatenate([lp.ub, np.full(2 * k, np.inf)])
    elif norm == "inf":
        # x_i - t <= center_i and -x_i - t <= -center_i, objective += r t
        A2 = np.zeros((m + 2 * k, n + 1))
        A2[m + k:, :k] = -eye
        A2[m:, n] = -1.0
        rhs2 = np.concatenate([lp.rhs, center, -center])
        senses2 = lp.row_senses + ("<=",) * (2 * k)
        c2 = np.concatenate([lp.c, [r]])
        lb2 = np.concatenate([lp.lb, [0.0]])
        ub2 = np.concatenate([lp.ub, [np.inf]])
    else:
        raise ValueError(f"norm must be 'one' or 'inf', got {norm!r}")
    A2[:m, :n] = lp.A
    A2[m:m + k, :k] = eye
    return LPInstance(c=c2, A=A2, rhs=rhs2, row_senses=senses2, lb=lb2, ub=ub2)


# ---------------------------------------------------------------------------
# diagnostics


def write_mps(lp: LPInstance, name: str = "STOCHLP") -> str:
    """Free-format MPS text for a linear instance (diagnostic dump)."""
    A = lp.A
    cols = lp.col_names or tuple(f"C{j + 1}" for j in range(lp.nvars))
    rows = tuple(f"R{i + 1}" for i in range(lp.nrows))
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
