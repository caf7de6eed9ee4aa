"""L-shaped decomposition: master with optimality and feasibility cuts.

Scenario subproblems are solved at each candidate x; feasible subproblems
yield support-function (optimality) cuts from their duals, infeasible ones
yield feasibility cuts from the phase-1 certificate.  Cut aggregation
(single / multi / partial bundles), cut consolidation, and trust-region /
regularized-decomposition / level-set master policies are all composable
with serial, synchronous, and asynchronous execution.

Bounds on second-stage variables are supported directly: each cut's rhs is
the subproblem value plus gradient . x at the generating candidate, which
absorbs the dual bound terms, so the cut is tight there and remains a valid
global under-estimator.

Recourse is fixed (W is shared), so a few optimal bases cover most
scenarios.  ``solve_recourse`` bunches them: each basis of a small pool of
recent optimal bases resolves, in one matmul over the problem's
``ScenarioBatch``, every pending scenario for which it is primal and dual
feasible, and only the rest (infeasible scenarios included) go through
``solve_subproblem``, the one LP solve and status mapping, whose optimal
bases then join the pool.  The L-shaped bundles and ``recourse_values``,
which scores a decision, share it; trace records count the ``bunched`` and
``lp_solved`` outcomes of each iteration.

In every execution mode the work item is one aggregation bundle, so
single-cut mode has one item per version; cut violation is checked against
the (x, theta) pair of the version that generated the cut.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import (
    ConfigError,
    MasterInfeasible,
    MixedOutcome,
    NotInfeasible,
    SecondStageInfeasible,
)
from .execution import ExecConfig, VersionedDecision, drive
from .execution import run_wave  # noqa: F401 - perfbench/tracing.py wraps it here by name
from .kernel import KernelConfig
from .model import LPInstance, TwoStageProblem, scenario_key
from .report import SolveReport


@dataclass
class LShapedConfig:
    cuts: str = "multi"                 # single | multi | partial
    bundle_size: int = 1                # partial aggregation bundle size
    regularization: str = "none"        # none | tr | rd | level
    tr_delta0: float = None             # default max(1, 0.1 * |x0|_inf)
    tr_delta_max: float = 1e6
    tr_gamma: float = 2.0
    tr_eta: float = 1e-4
    rd_sigma0: float = 1.0
    level_lambda: float = 0.5
    consolidation: bool = False
    consolidation_threshold: int = 5    # inactive master solves before removal
    consolidation_period: int = 5
    gap_tol: float = 1e-6
    max_iterations: int = 1000
    theta_min: float = -1e10
    execution: ExecConfig = field(default_factory=ExecConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.cuts not in ("single", "multi", "partial"):
            raise ConfigError(f"cut mode must be single, multi or partial, got {self.cuts!r}")
        if self.bundle_size < 1:
            raise ConfigError("bundle_size must be >= 1")
        if self.regularization not in ("none", "tr", "rd", "level"):
            raise ConfigError(f"unknown regularization {self.regularization!r}")
        if not 0.0 < self.level_lambda < 1.0:
            raise ConfigError("level parameter must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass
class Cut:
    kind: str                  # optimality | feasibility
    gradient: np.ndarray       # over x
    rhs: float
    source: frozenset
    iteration: int = 0
    aggregate: int = -1        # theta slot (optimality cuts only)

    def value_at(self, x):
        """Support value rhs - gradient . x (the lower bound this cut puts on theta)."""
        return self.rhs - float(self.gradient @ x)


@dataclass
class SubproblemOutcome:
    """Q_s(x) at one candidate x and the cut it yields.

    The cut is theta >= rhs - gradient . x' for every x', with
    gradient = lambda^T T_s and rhs = value + gradient . x, so it is tight at
    x.  When the subproblem is infeasible, the phase-1 certificate sigma and
    the infeasibility measure w_s > 0 take the places of lambda and Q_s(x).
    """

    scenario: int
    feasible: bool
    value: float               # Q_s(x) when feasible, w_s > 0 otherwise
    gradient: np.ndarray       # lambda^T T_s, or sigma^T T_s when infeasible
    rhs: float                 # value + gradient . x
    y: np.ndarray = None
    bunched: bool = False      # resolved from a pooled basis, not by an LP solve


def scenario_lp(shape, scenario, x) -> LPInstance:
    """Second-stage LP of one scenario at a fixed first-stage point."""
    lo, hi = scenario.bounds(shape)
    return LPInstance(c=scenario.q, A=shape.W, rhs=scenario.h - scenario.T @ x,
                      row_senses=scenario.senses(shape), lb=lo, ub=hi)


def solve_subproblem(shape, scenario, x, cfg: KernelConfig = None, warm=None,
                     scenario_index=0):
    """The one LP solve of Q_s(x): (outcome, optimal basis or None when infeasible).

    Every status other than optimal and infeasible raises, naming the scenario.
    """
    s = scenario_index
    sol = kernel.solve_lp(scenario_lp(shape, scenario, x), cfg, warm_start=warm)
    feasible = sol.status != kernel.INFEASIBLE
    if feasible:
        value, mult = kernel.require_optimal(sol, "recourse LP", s).objective, sol.duals
    else:
        value, mult = sol.extras.get("infeasibility", float(np.nan)), sol.farkas
    gradient = mult @ scenario.T
    out = SubproblemOutcome(scenario=s, feasible=feasible, value=value, gradient=gradient,
                            rhs=value + float(gradient @ x), y=sol.x if feasible else None)
    return out, sol.basis if feasible else None


# Evaluation calls the function by this name: perfbench/tracing.py wraps the
# module attribute solve_subproblem as the L-shaped subproblem layer only.
_solve_scenario = solve_subproblem


_POOL_SIZE = 8      # optimal recourse bases a BasisPool keeps for bunching


class _PooledBasis:
    """An optimal basis with the inverse of its columns and its status masks."""

    def __init__(self, basis, Binv):
        self.basis = basis
        self.basic = basis.basic
        self.Binv = Binv
        vstat = basis.vstat
        self.at_lb, self.at_ub = vstat == kernel._AT_LB, vstat == kernel._AT_UB
        self.free = vstat == kernel._FREE
        self.not_lb, self.not_ub = ~self.at_lb, ~self.at_ub

    def same(self, basis):
        return np.array_equal(self.basic, basis.basic) \
            and np.array_equal(self.basis.vstat, basis.vstat)


class BasisPool:
    """Recent optimal bases for the scenarios of one batch, most recent first.

    The scenarios that keep the shape's row senses share the equality form
    ``[W | I]``, so a basis is one set of columns for all of them.  The pool
    holds their bounds and costs in that form, stacked, and with each basis
    the inverse of its columns.  Entries are replaced whole, so a reader
    that takes ``entries`` once sees a consistent pool while other threads
    add to it.
    """

    def __init__(self, batch):
        S, r = batch.size, batch.shape.r
        slack_lo, slack_hi = kernel.slack_bounds(batch.shape.row_senses)
        self.batch = batch
        self.A = np.hstack([batch.shape.W, np.eye(r)])
        self.lo = np.hstack([batch.lb, np.broadcast_to(slack_lo, (S, r))])
        self.hi = np.hstack([batch.ub, np.broadcast_to(slack_hi, (S, r))])
        self.cost = np.hstack([batch.q, np.zeros((S, r))])
        self.entries = ()
        self._lock = threading.Lock()

    def add(self, lp, basis):
        """Put ``basis``, optimal for ``lp``, first; None unless it is a usable basis."""
        Binv = kernel.basis_inverse(lp, basis)
        if Binv is None:
            return None
        entry = _PooledBasis(basis, Binv)
        with self._lock:
            rest = tuple(e for e in self.entries if not e.same(basis))
            self.entries = (entry,) + rest[:_POOL_SIZE - 1]
        return entry

    def touch(self, entry):
        """Move ``entry`` to the front, unless ``add`` has dropped it since it was read."""
        with self._lock:
            if entry in self.entries[1:]:
                self.entries = (entry,) + tuple(e for e in self.entries if e is not entry)


class _Pending:
    """The scenarios ``idx`` of a pool's batch at x, and which are still open."""

    def __init__(self, pool, idx, x):
        batch = pool.batch
        self.pool = pool
        self.idx = idx
        self.x = x
        self.T = batch.T[idx]
        self.q = batch.q[idx]
        self.rhs = batch.h[idx] - self.T @ x
        self.lo, self.hi, self.cost = pool.lo[idx], pool.hi[idx], pool.cost[idx]
        self.q_varies = bool((self.q != self.q[:1]).any())
        self.open = ~batch.own_senses[idx]     # not yet resolved and bunchable

    def bunch(self, entry, cfg):
        """Outcomes of the open scenarios that ``entry``'s basis solves, by position.

        A scenario is accepted when, with its nonbasic columns at finite
        bounds (free ones at zero, with no finite bound), its basic values
        lie within their bounds to ``feas_tol`` and every movable nonbasic
        column's reduced cost has the sign its status needs to ``opt_tol``:
        the tests at which the simplex stops.
        """
        A, basic, Binv = self.pool.A, entry.basic, entry.Binv
        pos = np.flatnonzero(self.open)
        lo, hi = self.lo[pos], self.hi[pos]
        xv = np.where(entry.at_ub, hi, np.where(entry.at_lb, lo, 0.0))
        ok = np.isfinite(xv).all(axis=1)
        if entry.free.any():
            ok &= (np.isinf(lo[:, entry.free]) & np.isinf(hi[:, entry.free])).all(axis=1)
        xv[~ok] = 0.0
        x_B = (self.rhs[pos] - xv @ A.T) @ Binv.T
        ok &= ((x_B >= lo[:, basic] - cfg.feas_tol)
               & (x_B <= hi[:, basic] + cfg.feas_tol)).all(axis=1)
        if self.q_varies:
            cost = self.cost[pos]
            duals = cost[:, basic] @ Binv
            d = cost - duals @ A
        else:
            duals = np.broadcast_to(self.cost[0, basic] @ Binv, (pos.size, basic.size))
            d = self.cost[:1] - duals[:1] @ A
        d[:, basic] = 0.0
        wrong = ((d < -cfg.opt_tol) & entry.not_ub) | ((d > cfg.opt_tol) & entry.not_lb)
        ok &= ~(wrong & (lo < hi)).any(axis=1)
        if not ok.any():
            return {}
        pos, xv, x_B, duals = pos[ok], xv[ok], x_B[ok], duals[ok]
        self.open[pos] = False
        xv[:, basic] = x_B
        y = xv[:, :self.q.shape[1]]
        values = np.einsum("ij,ij->i", self.q[pos], y)
        gradients = np.einsum("ir,irn->in", duals, self.T[pos])
        rhs = values + gradients @ self.x
        return {int(k): SubproblemOutcome(
                    scenario=int(self.idx[k]), feasible=True, value=float(values[i]),
                    gradient=gradients[i], rhs=float(rhs[i]), y=y[i], bunched=True)
                for i, k in enumerate(pos)}


def solve_recourse(pool: BasisPool, x, idx, cfg: KernelConfig = None, solve=None):
    """Outcomes at x of the scenarios ``idx`` of ``pool.batch``, in the order of ``idx``.

    Bunching: each basis of ``pool``, most recent first, resolves every
    open scenario it is optimal for with one matmul for the basic values
    (and one for the reduced costs when q varies); such an outcome has
    ``bunched`` set, its duals are ``B^-T q_B`` and its cut gradient their
    product with T_s.  The scenarios no basis accepts, which include every
    infeasible one and every one with its own row senses, go in index order
    to ``solve`` (``solve_subproblem`` unless given), warm from the most
    recent pool basis; each optimal basis it returns joins the pool and is
    tried on the scenarios still open.
    """
    cfg = cfg or kernel.DEFAULT_CONFIG
    solve = solve or solve_subproblem
    batch = pool.batch
    x = np.asarray(x, dtype=float)
    idx = np.asarray(idx, dtype=int)
    pend = _Pending(pool, idx, x)
    outs = {}
    for entry in pool.entries:
        if not pend.open.any():
            break
        got = pend.bunch(entry, cfg)
        if got:
            pool.touch(entry)
            outs.update(got)
    for k, s in enumerate(idx):
        if k in outs:
            continue
        entries = pool.entries
        sc = batch.scenarios[s]
        outs[k], basis = solve(batch.shape, sc, x, cfg,
                               warm=entries[0].basis if entries else None,
                               scenario_index=int(s))
        pend.open[k] = False
        if basis is not None and not batch.own_senses[s]:
            entry = pool.add(scenario_lp(batch.shape, sc, x), basis)
            if entry is not None and pend.open.any():
                outs.update(pend.bunch(entry, cfg))
    return [outs[k] for k in range(idx.size)]


@dataclass
class RecourseCounts:
    """How many second-stage outcomes bunching resolved and how many an LP did."""

    bunched: int = 0
    lp_solved: int = 0

    def add(self, outcomes):
        n = sum(o.bunched for o in outcomes)
        self.bunched += n
        self.lp_solved += len(outcomes) - n

    @property
    def bunched_share(self):
        total = self.bunched + self.lp_solved
        return self.bunched / total if total else 0.0

    def as_dict(self):
        return {"bunched": self.bunched, "lp_solved": self.lp_solved,
                "bunched_share": self.bunched_share}


def recourse_values(batch, x, cfg: KernelConfig = None, counts: RecourseCounts = None):
    """Q_s(x) of every scenario of ``batch``, resolving each distinct recourse LP once.

    Raises ``SecondStageInfeasible`` naming the first scenario with no
    feasible recourse at x.  ``counts``, when given, adds up the split
    between bunched and LP-solved outcomes.
    """
    def solve(*args, **kwargs):
        out, basis = _solve_scenario(*args, **kwargs)
        if not out.feasible:
            raise SecondStageInfeasible(out.scenario)
        return out, basis

    first = {}
    owner = np.array([first.setdefault(scenario_key(sc), s)
                      for s, sc in enumerate(batch.scenarios)], dtype=int)
    idx = np.fromiter(first.values(), dtype=int, count=len(first))
    outs = solve_recourse(BasisPool(batch), x, idx, cfg, solve=solve)
    if counts is not None:
        counts.add(outs)
    vals = np.empty(batch.size)
    vals[idx] = [o.value for o in outs]
    return vals[owner]


def make_optimality_cut(outcomes, probabilities, aggregate=0, iteration=0) -> Cut:
    """Probability-weighted aggregate cut over the given feasible outcomes."""
    grad = None
    rhs = 0.0
    source = set()
    for out, pi in zip(outcomes, probabilities):
        if not out.feasible:
            raise MixedOutcome(f"scenario {out.scenario} outcome is a feasibility outcome")
        g = pi * out.gradient
        grad = g if grad is None else grad + g
        rhs += pi * out.rhs
        source.add(out.scenario)
    return Cut(kind="optimality", gradient=grad, rhs=rhs, source=frozenset(source),
               iteration=iteration, aggregate=aggregate)


def make_feasibility_cut(outcome, iteration=0) -> Cut:
    """Half-space sigma^T T x >= sigma^T T x_k + w_s excluding the infeasible candidate x_k."""
    if outcome.feasible:
        raise NotInfeasible(f"scenario {outcome.scenario} is feasible; no cut to build")
    return Cut(kind="feasibility", gradient=outcome.gradient, rhs=outcome.rhs,
               source=frozenset({outcome.scenario}), iteration=iteration)


def _bundle_width(nscen, policy, bundle_size):
    if policy == "single":
        return nscen
    if policy == "multi":
        return 1
    return min(bundle_size, nscen)


def make_bundles(nscen, policy, bundle_size):
    """Fixed contiguous aggregation groups, stable across iterations."""
    b = _bundle_width(nscen, policy, bundle_size)
    return [list(range(i, min(i + b, nscen))) for i in range(0, nscen, b)]


def aggregate_cuts(outcomes, probabilities, policy, bundle_size=1, nscen=None,
                   iteration=0):
    """One cut per aggregation group from per-scenario feasible outcomes.

    Only groups with at least one outcome get a cut, so the cost grows with
    the outcomes given, not with the number of groups.
    """
    nscen = nscen if nscen is not None else len(outcomes)
    b = _bundle_width(nscen, policy, bundle_size)
    by_scen = {o.scenario: o for o in outcomes}
    groups = {}
    for s in sorted(by_scen):
        groups.setdefault(s // b, []).append(by_scen[s])
    return [make_optimality_cut(outs, [probabilities[o.scenario] for o in outs],
                                aggregate=agg, iteration=iteration)
            for agg, outs in groups.items()]


class MasterState:
    """Master problem: first stage plus theta slots plus accumulated cuts."""

    def __init__(self, problem: TwoStageProblem, n_aggregates, theta_min, cfg=None):
        self.first = problem.first
        self.n = problem.n
        self.K = n_aggregates
        self.theta_min = theta_min
        self.kcfg = cfg or KernelConfig()
        self.cuts = []             # optimality and feasibility, in insertion order
        self.inactive = {}         # id(cut) -> consecutive slack master solves
        self.has_cut = np.zeros(n_aggregates, dtype=bool)
        self.x = None
        self.theta = None
        self.value = None
        self._warm = None          # last optimal basis of the plain master
        self._warm_tr = None       # and of the trust-region master

    def add_cut(self, cut: Cut):
        self.cuts.append(cut)
        self.inactive[id(cut)] = 0
        if cut.kind == "optimality":
            self.has_cut[cut.aggregate] = True

    @property
    def all_aggregates_cut(self):
        return bool(self.has_cut.all())

    def counts(self):
        opt = sum(1 for c in self.cuts if c.kind == "optimality")
        return {"optimality": opt, "feasibility": len(self.cuts) - opt}

    def _instance(self, tr_center=None, tr_delta=None, qdiag=None, qcenter=None,
                  extra_rows=None):
        n, K = self.n, self.K
        p = self.first.p
        extra_rows = extra_rows or []
        m = p + len(self.cuts) + len(extra_rows)
        A = np.zeros((m, n + K))
        A[:p, :n] = self.first.A
        rhs = np.empty(m)
        rhs[:p] = self.first.b
        senses = list(self.first.row_senses)
        for i, cut in enumerate(self.cuts):
            A[p + i, :n] = cut.gradient
            if cut.kind == "optimality":
                A[p + i, n + cut.aggregate] = 1.0
            rhs[p + i] = cut.rhs
            senses.append(">=")
        for j, (row, rv, sns) in enumerate(extra_rows):
            A[p + len(self.cuts) + j, :] = row
            rhs[p + len(self.cuts) + j] = rv
            senses.append(sns)
        c = np.concatenate([self.first.c, np.ones(K)])
        lb = np.concatenate([self.first.lb, np.full(K, self.theta_min)])
        ub = np.concatenate([self.first.ub, np.full(K, np.inf)])
        if tr_center is not None:
            lb[:n] = np.maximum(lb[:n], tr_center - tr_delta)
            ub[:n] = np.minimum(ub[:n], tr_center + tr_delta)
        qd = qc = None
        if qdiag is not None:
            qd = np.concatenate([qdiag, np.zeros(K)])
            qc = np.concatenate([qcenter, np.zeros(K)])
        return LPInstance(c=c, A=A, rhs=rhs, row_senses=tuple(senses), lb=lb, ub=ub,
                          qdiag=qd, qcenter=qc)

    def solve_plain(self, tr_center=None, tr_delta=None):
        lp = self._instance(tr_center=tr_center, tr_delta=tr_delta)
        warm = self._warm if tr_center is None else self._warm_tr
        if warm is not None:
            need = lp.nvars + lp.nrows
            if warm.vstat.size != need:
                extra = need - warm.vstat.size
                if extra > 0 and warm.vstat.size >= lp.nvars:
                    # cuts were appended: their slacks join the basis
                    new_cols = np.arange(warm.vstat.size, need)
                    warm = kernel.Basis(np.concatenate([warm.basic, new_cols]),
                                        np.concatenate([warm.vstat, np.full(extra, 2, np.int8)]))
                else:
                    warm = None
        sol = kernel.solve_lp(lp, self.kcfg, warm_start=warm)
        if sol.status == kernel.INFEASIBLE:
            raise MasterInfeasible(
                "first stage plus feasibility cuts has no feasible point")
        kernel.require_optimal(sol, "master LP")
        if tr_center is None:
            self._warm = sol.basis
        else:
            self._warm_tr = sol.basis
        self._record_activity(lp, sol)
        return sol.x[:self.n], sol.x[self.n:], sol.objective

    def solve_rd(self, center, sigma):
        lp = self._instance(qdiag=np.full(self.n, sigma), qcenter=center)
        sol = kernel.solve_qp_diagonal(lp, self.kcfg)
        if sol.status != kernel.OPTIMAL or sol.x is None:
            return self.solve_plain()   # proximal solve degraded; plain step is valid
        self._record_activity(lp, sol)
        theta = sol.x[self.n:]
        x = sol.x[:self.n]
        return x, theta, float(self.first.c @ x + theta.sum())

    def solve_level(self, center, level):
        row = np.concatenate([self.first.c, np.ones(self.K)])
        lp = self._instance(qdiag=np.ones(self.n), qcenter=center,
                            extra_rows=[(row, level, "<=")])
        lp = LPInstance(c=np.zeros(self.n + self.K), A=lp.A, rhs=lp.rhs,
                        row_senses=lp.row_senses, lb=lp.lb, ub=lp.ub,
                        qdiag=lp.qdiag, qcenter=lp.qcenter)
        sol = kernel.solve_qp_diagonal(lp, self.kcfg)
        if sol.status != kernel.OPTIMAL or sol.x is None:
            return self.solve_plain()   # projection degraded; plain step is valid
        theta = sol.x[self.n:]
        x = sol.x[:self.n]
        return x, theta, float(self.first.c @ x + theta.sum())

    def _record_activity(self, lp, sol):
        if sol.x is None:
            return
        p = self.first.p
        res = lp.A @ sol.x - lp.rhs
        for i, cut in enumerate(self.cuts):
            slack = res[p + i]          # >= rows: slack >= 0, 0 means binding
            if slack > 1e-7 * (1.0 + abs(lp.rhs[p + i])):
                self.inactive[id(cut)] += 1
            else:
                self.inactive[id(cut)] = 0

    def consolidate(self, threshold):
        """Drop optimality cuts that stayed slack for >= threshold master solves."""
        keep, dropped = [], []
        for i, cut in enumerate(self.cuts):
            if cut.kind == "optimality" and self.inactive.get(id(cut), 0) >= threshold:
                dropped.append(i)
                self.inactive.pop(id(cut), None)
            else:
                keep.append(cut)
        if dropped:
            self.cuts = keep
            self._warm = self._drop_rows(self._warm, dropped)
            self._warm_tr = self._drop_rows(self._warm_tr, dropped)
        return len(dropped)

    def _drop_rows(self, warm, dropped):
        """The warm basis without the given cut rows, or None if it cannot shrink.

        A dropped row leaves with its slack column, which must be basic; the
        later slack columns shift down to their rows' new indices.
        """
        if warm is None:
            return None
        slack0 = self.n + self.K + self.first.p
        cols = slack0 + np.asarray(dropped)
        cols = cols[cols < warm.vstat.size]       # cuts appended after the basis was taken
        if (warm.vstat[cols] != 2).any():          # a dropped slack is nonbasic
            return None
        basic = warm.basic[~np.isin(warm.basic, cols)]
        basic = basic - np.searchsorted(cols, basic)
        return kernel.Basis(basic, np.delete(warm.vstat, cols))


class _Run:
    """Shared state of one L-shaped run, used by every execution mode."""

    def __init__(self, problem, cfg):
        self.p = problem
        self.cfg = cfg
        self.probs = problem.probabilities
        self.bundles = make_bundles(problem.nscen, cfg.cuts, cfg.bundle_size)
        self.state = MasterState(problem, len(self.bundles), cfg.theta_min, cfg.kernel)
        self.pool = BasisPool(problem.batch)
        self.counts = RecourseCounts()
        self.U_best = np.inf
        self.x_best = None
        self.ys_best = None
        self.L = -np.inf
        self.trace = []
        self.iteration = 0
        self.cuts_added = 0
        # regularization state
        self.center = None
        self.U_center = np.inf
        self.delta = cfg.tr_delta0
        self.sigma = cfg.rd_sigma0
        self.prev_improved = False
        self.prev_model_value = None

    def solve_bundle(self, bundle, x):
        return solve_recourse(self.pool, x, bundle, self.cfg.kernel)

    def note_upper(self, U, x, outcomes):
        if U is not None and U < self.U_best - 1e-12:
            self.U_best = U
            self.x_best = x.copy()
            ys = [None] * self.p.nscen
            for o in outcomes:
                ys[o.scenario] = o.y
            self.ys_best = ys
            return True
        return False

    def next_candidate(self, x_k, U_k):
        """Apply the regularization policy and solve for the next candidate.

        Returns (x, theta, L_plain).  L_plain is the unregularized master
        value, the valid global lower bound used in the gap test.
        """
        cfg, st = self.cfg, self.state
        reg = cfg.regularization
        if reg == "none":
            x, theta, val = st.solve_plain()
            self.prev_model_value = val
            return x, theta, val

        if self.center is None:
            self.center = (self.x_best if self.x_best is not None else x_k).copy()
            self.U_center = self.U_best
            if self.delta is None:
                self.delta = max(1.0, 0.1 * float(np.max(np.abs(self.center))))
        elif U_k is not None:
            if reg == "tr":
                predicted = self.U_center - self.prev_model_value \
                    if self.prev_model_value is not None else np.inf
                actual = self.U_center - U_k
                if actual >= cfg.tr_eta * max(predicted, 0.0) and U_k < self.U_center:
                    self.center = x_k.copy()
                    self.U_center = U_k
                    self.delta = min(cfg.tr_gamma * self.delta, cfg.tr_delta_max)
                else:
                    self.delta = max(self.delta / cfg.tr_gamma, 1e-8)
            else:
                improved = U_k < self.U_center - 1e-12
                if improved:
                    self.center = x_k.copy()
                    self.U_center = U_k
                    if reg == "rd" and self.prev_improved:
                        self.sigma = max(self.sigma / 2.0, 1e-8)
                self.prev_improved = improved

        _, _, L_plain = st.solve_plain()
        if reg == "tr":
            x, theta, val = st.solve_plain(tr_center=self.center, tr_delta=self.delta)
            self.prev_model_value = val
        elif reg == "rd":
            x, theta, val = st.solve_rd(self.center, self.sigma)
            self.prev_model_value = val
        else:
            U = self.U_best if np.isfinite(self.U_best) else L_plain + 1.0 + abs(L_plain)
            level = L_plain + cfg.level_lambda * (U - L_plain)
            x, theta, val = st.solve_level(self.center, level + 1e-9 * (1 + abs(level)))
            self.prev_model_value = val
        return x, theta, L_plain

    def record(self, wall, added, counts):
        gap = self.gap()
        self.trace.append({"iteration": self.iteration, "lower": self.L,
                           "upper": self.U_best, "gap": gap,
                           "cuts_added": added, "bunched": counts.bunched,
                           "lp_solved": counts.lp_solved, "wall": wall})

    def gap(self):
        if not np.isfinite(self.U_best) or not np.isfinite(self.L):
            return np.inf
        return (self.U_best - self.L) / (1.0 + abs(self.U_best))

    def lower_valid(self):
        return self.state.all_aggregates_cut

    def report(self, status, wall, seed=None):
        p = self.p
        obj = p.report_value(self.U_best) if np.isfinite(self.U_best) else np.nan
        counts = self.state.counts()
        counts["added_total"] = self.cuts_added
        return SolveReport(
            method="lshaped", status=status, objective=obj,
            decision=self.x_best, recourse=self.ys_best,
            gaps={"lower": self.L, "upper": self.U_best, "gap": self.gap()},
            iterations=self.iteration, cut_counts=counts, trace=self.trace,
            seed=seed, wall_time=wall,
            extras={"internal_objective": self.U_best,
                    "recourse": self.counts.as_dict(),
                    "_cuts": list(self.state.cuts)},
        )


def solve_lshaped(problem: TwoStageProblem, cfg: LShapedConfig = None,
                  engine: ExecConfig = None, seed=None) -> SolveReport:
    """Run the L-shaped algorithm until (U - L) / (1 + |U|) <= gap_tol."""
    cfg = cfg or LShapedConfig()
    engine = engine or cfg.execution
    t0 = time.perf_counter()
    run = _Run(problem, cfg)
    coord = _Coordinator(run, cfg)
    stats = drive(coord, engine)
    rep = run.report(coord.status, time.perf_counter() - t0, seed)
    rep.config = {"cuts": cfg.cuts, "bundle_size": cfg.bundle_size,
                  "regularization": cfg.regularization, "gap_tol": cfg.gap_tol,
                  "execution": engine.label, "workers": engine.workers}
    if stats is not None:
        rep.extras["async"] = stats.summary()
    return rep


class _Coordinator:
    """Master-side state machine of the kappa protocol, for every execution mode.

    A version is one candidate (x, theta) and its work items are the
    aggregation bundles.  Cuts are built as each bundle's results arrive and
    tested against the (x, theta) of the version that generated them.  The
    upper bound comes only from versions whose results are all in, and the
    stopping tests run right after the master re-solve that follows such a
    version, so a converged run issues no further wave.
    """

    def __init__(self, run: _Run, cfg):
        self.run = run
        self.cfg = cfg
        self.n_items = len(run.bundles)
        self.finished = False
        self.status = "iteration_limit"
        self.partial = {}          # version -> outcomes received so far
        self.added = {}            # version -> cuts its results added
        self.payloads = {}         # version (= iteration that produced it) -> (x, theta)
        self.pending_eval = None   # last fully evaluated (x, U, added), consumed by advance
        self.unrecorded = 0        # cuts added since the last trace record
        self.solved = RecourseCounts()     # outcomes received since the last record
        self.t_mark = None

    def initial_decision(self):
        x, theta, _ = self.run.state.solve_plain()   # cold start: theta at theta_min
        self.payloads[0] = (x, theta)
        self.t_mark = time.perf_counter()
        return VersionedDecision(version=0, payload=(x, theta), iteration=0)

    def worker_payload(self, decision, index):
        x, _ = decision.payload
        return self.run.solve_bundle(self.run.bundles[index], x)

    def incorporate(self, env):
        if self.finished:
            return      # results drained after the stop leave the run as reported
        run = self.run
        outcomes = env.payload
        run.counts.add(outcomes)
        self.solved.add(outcomes)
        x, theta = self.payloads[env.version]
        self.partial.setdefault(env.version, []).extend(outcomes)
        infeasible = [o for o in outcomes if not o.feasible]
        if infeasible:
            cuts = [make_feasibility_cut(o, iteration=env.version) for o in infeasible]
            cuts = [c for c in cuts if c.rhs - c.gradient @ x > self.cfg.kernel.feas_tol]
        else:
            cuts = aggregate_cuts(outcomes, run.probs, self.cfg.cuts, self.cfg.bundle_size,
                                  run.p.nscen, env.version)
            cuts = [c for c in cuts if c.value_at(x) > theta[c.aggregate]
                    + 1e-9 * (1.0 + abs(c.value_at(x)))]
        for cut in cuts:
            run.state.add_cut(cut)
        self.added[env.version] = self.added.get(env.version, 0) + len(cuts)
        self.unrecorded += len(cuts)
        run.cuts_added += len(cuts)

    def complete(self, version, decision):
        if self.finished:
            return
        run = self.run
        outcomes = self.partial.pop(version)
        x, _ = decision.payload
        U = None
        if all(o.feasible for o in outcomes):
            U = float(run.p.first.c @ x
                      + sum(run.probs[o.scenario] * o.value for o in outcomes))
        run.note_upper(U, x, outcomes)
        # regularization centers move only on fully evaluated candidates
        self.pending_eval = (x, U, self.added.pop(version))

    def advance(self):
        run, cfg = self.run, self.cfg
        run.iteration += 1
        evaluated = self.pending_eval
        self.pending_eval = None
        x_eval, U, added = evaluated or (self.payloads[run.iteration - 1][0], None, None)
        x, theta, L_plain = run.next_candidate(x_eval, U)
        if run.lower_valid():
            run.L = L_plain
        run.record(time.perf_counter() - self.t_mark, self.unrecorded, self.solved)
        self.unrecorded = 0
        self.solved = RecourseCounts()
        # no cut added at a fully evaluated candidate: the model is exact there
        exact = added == 0 and U is not None and cfg.regularization == "none"
        if evaluated is not None and run.lower_valid() \
                and (run.gap() <= cfg.gap_tol or exact):
            self.status = "optimal"
            self.finished = True
            return None
        if cfg.consolidation and run.iteration % cfg.consolidation_period == 0:
            run.state.consolidate(cfg.consolidation_threshold)
        if run.iteration >= cfg.max_iterations:
            self.finished = True
            return None
        self.payloads[run.iteration] = (x, theta)
        self.t_mark = time.perf_counter()
        return VersionedDecision(version=run.iteration, payload=(x, theta),
                                 iteration=run.iteration)
