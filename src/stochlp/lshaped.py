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

Recourse is fixed (W is shared), so the recourse LPs of a ``ScenarioBatch``
are one kernel LP family (``BasisPool``).  ``solve_recourse`` bunches them
with ``kernel.solve_family`` and returns one ``Recourse`` record of stacked
arrays, a row per scenario: value, cut gradient lambda^T T_s and rhs, y;
the scenarios no pooled basis solves go to ``solve_subproblem``, the one LP
solve and status mapping.  The L-shaped bundles and ``recourse_values``,
which scores a decision, share it.  Trace records count each iteration's
``bunched`` and ``lp_solved`` rows and its ``master_fallbacks``
(regularized or trust-region masters that fell back to the plain master's
step).

Work items follow ``execution.work_items`` over the aggregation bundles: a
serial or sync wave is one item of every bundle, solved by one
``solve_recourse`` call, and async hands out one bundle per item.  Either
way a bundle's optimality cut is one probability-weighted sum over its rows
(``aggregate_cuts``), and cut violation is checked against the (x, theta)
pair of the version that generated the cut.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import kernel, model as _model
from .errors import (
    ConfigError,
    MasterInfeasible,
    NotInfeasible,
    NumericalBreakdown,
    SecondStageInfeasible,
)
from .execution import ExecConfig, VersionedDecision, drive, work_items
from .execution import run_wave  # noqa: F401 - perfbench/tracing.py wraps it here by name
from .model import LPInstance, TwoStageProblem, duplicate_owners
from .report import SolveReport


_TR_DELTA_MAX = 1e6     # largest trust-region radius
_TR_GAMMA = 2.0         # trust-region growth and shrink factor
_TR_ETA = 1e-4          # share of the predicted decrease that moves the center
_RD_SIGMA0 = 1.0        # initial regularized-decomposition weight
_LEVEL_LAMBDA = 0.5     # level-set position between the lower and upper bounds
_THETA_MIN = -1e10      # lower bound on each theta slot until its first cut
_CONSOLIDATE_AFTER = 5  # inactive master solves before consolidation drops a cut
_CONSOLIDATE_EVERY = 5  # iterations between consolidation passes
DEP_ROW_BUDGET = 128    # most DEP rows vrp solves whole; measured crossover 100-200


@dataclass
class LShapedConfig:
    cuts: str = "multi"                 # single | multi | partial
    bundle_size: int = 1                # partial aggregation bundle size
    regularization: str = "none"        # none | tr | rd | level
    consolidation: bool = False
    gap_tol: float = 1e-6
    max_iterations: int = 1000
    execution: ExecConfig = field(default_factory=ExecConfig)

    def __post_init__(self):
        if self.cuts not in ("single", "multi", "partial"):
            raise ConfigError(f"cut mode must be single, multi or partial, got {self.cuts!r}")
        if self.bundle_size < 1:
            raise ConfigError("bundle_size must be >= 1")
        if self.regularization not in ("none", "tr", "rd", "level"):
            raise ConfigError(f"unknown regularization {self.regularization!r}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.gap_tol < 0:
            raise ConfigError("gap_tol must be >= 0")


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
class Recourse:
    """Q_s(x) at one candidate x for the scenarios ``scenarios``, a row each, and their cuts.

    Row i's cut is theta >= rhs[i] - gradient[i] . x' for every x', with
    gradient = lambda^T T_s and rhs = value + gradient . x, so it is tight
    at x.  Where a scenario is infeasible, the phase-1 certificate sigma and
    the infeasibility measure w_s > 0 take the places of lambda and Q_s(x),
    and its row of ``y`` is NaN.
    """

    scenarios: np.ndarray      # (k,) scenario indices
    feasible: np.ndarray       # (k,)
    value: np.ndarray          # (k,) Q_s(x) when feasible, w_s > 0 otherwise
    gradient: np.ndarray       # (k, n) lambda^T T_s, or sigma^T T_s when infeasible
    rhs: np.ndarray            # (k,) value + gradient . x
    y: np.ndarray              # (k, m)
    bunched: np.ndarray        # (k,) resolved from a pooled basis, not by an LP solve


def _concat(records):
    """The rows of several ``Recourse`` records as one."""
    if len(records) == 1:
        return records[0]
    return Recourse(*(np.concatenate([getattr(r, f.name) for r in records])
                      for f in fields(Recourse)))


def solve_subproblem(batch, s, x, warm=None):
    """The one LP solve of Q_s(x) for scenario s of ``batch``: its ``LPSolution``.

    The solution is optimal or infeasible; every other status raises, naming
    the scenario.
    """
    lp = LPInstance(c=batch.q[s], A=batch.shape.W, rhs=batch.h[s] - batch.T[s] @ x,
                    row_senses=batch.senses[s], lb=batch.lb[s], ub=batch.ub[s])
    sol = kernel.solve_lp(lp, warm_start=warm)
    return sol if sol.status == kernel.INFEASIBLE else kernel.require_optimal(sol, "recourse LP", s)


# Evaluation calls the function by this name: perfbench/tracing.py wraps the
# module attribute solve_subproblem as the L-shaped subproblem layer only.
_solve_scenario = solve_subproblem


class BasisPool(kernel.LPFamily):
    """The recourse LPs of ``batch`` as one kernel LP family.

    They share W and the shape's row senses; each scenario has its own
    costs q_s and bounds, and the rhs h_s - T_s x at each candidate x.
    Scenarios with their own row senses are excluded from bunching.
    """

    def __init__(self, batch):
        super().__init__(batch.shape.W, batch.shape.row_senses, batch.q, batch.lb, batch.ub,
                         excluded=batch.own_senses)
        self.batch = batch


def solve_recourse(pool: BasisPool, x, idx, solve=None) -> Recourse:
    """The ``Recourse`` at x of the scenarios ``idx`` of ``pool.batch``, in the order of ``idx``.

    One ``kernel.solve_family`` call.  A scenario a pooled basis solves is
    ``bunched``, with duals ``B^-T q_B``.  The rest, every infeasible
    scenario and every one with its own row senses among them, go in index
    order to ``solve`` (``solve_subproblem`` unless given).
    """
    solve = solve or solve_subproblem
    batch = pool.batch
    x = np.asarray(x, dtype=float)
    idx = np.asarray(idx, dtype=int)
    T = batch.T[idx]
    feasible = np.ones(idx.size, dtype=bool)
    value = np.empty(idx.size)
    mult = np.empty((idx.size, batch.shape.r))
    y = np.full((idx.size, batch.shape.m), np.nan)

    def fallback(k, warm):
        sol = solve(batch, int(idx[k]), x, warm=warm)
        feasible[k] = sol.status != kernel.INFEASIBLE
        if feasible[k]:
            value[k], mult[k], y[k] = sol.objective, sol.duals, sol.x
            return sol.basis
        value[k], mult[k] = sol.extras.get("infeasibility", np.nan), sol.farkas
        return None

    bunched, ys, duals, values = kernel.solve_family(pool, idx, batch.h[idx] - T @ x, fallback)
    value[bunched], mult[bunched], y[bunched] = values[bunched], duals[bunched], ys[bunched]
    gradient = np.einsum("ir,irn->in", mult, T)
    return Recourse(scenarios=idx, feasible=feasible, value=value, gradient=gradient,
                    rhs=value + gradient @ x, y=y, bunched=bunched)


def recourse_values(batch, x):
    """Q_s(x) of every scenario of ``batch``, resolving each distinct recourse LP once.

    Raises ``SecondStageInfeasible`` naming the first scenario with no
    feasible recourse at x.
    """
    def solve(batch, s, x, warm=None):
        sol = _solve_scenario(batch, s, x, warm=warm)
        if sol.status == kernel.INFEASIBLE:
            raise SecondStageInfeasible(s)
        return sol

    idx, copy_of = np.unique(duplicate_owners(batch), return_inverse=True)
    return solve_recourse(BasisPool(batch), x, idx, solve=solve).value[copy_of]


def make_feasibility_cut(rec: Recourse, row, iteration=0) -> Cut:
    """Half-space sigma^T T x >= sigma^T T x_k + w_s excluding the infeasible
    candidate x_k, from row ``row`` of ``rec``."""
    if rec.feasible[row]:
        raise NotInfeasible(f"scenario {rec.scenarios[row]} is feasible; no cut to build")
    return Cut(kind="feasibility", gradient=rec.gradient[row], rhs=float(rec.rhs[row]),
               source=frozenset({int(rec.scenarios[row])}), iteration=iteration)


def make_bundles(nscen, policy, bundle_size):
    """Fixed contiguous aggregation groups, stable across iterations."""
    b = {"single": nscen, "multi": 1}.get(policy, min(bundle_size, nscen))
    return [list(range(i, min(i + b, nscen))) for i in range(0, nscen, b)]


def aggregate_cuts(rec: Recourse, probabilities, bundle_of, iteration=0):
    """One optimality cut per aggregation bundle among the rows of ``rec``, in
    row order: the probability-weighted sum of its rows' cuts.

    ``bundle_of[s]`` is scenario s's bundle, and the rows of a bundle are
    contiguous in ``rec``.  A bundle with an infeasible row gets no cut.
    """
    bundle = bundle_of[rec.scenarios]
    start = np.flatnonzero(np.r_[True, bundle[1:] != bundle[:-1]])
    w = probabilities[rec.scenarios]
    gradient = np.add.reduceat(w[:, None] * rec.gradient, start)
    rhs = np.add.reduceat(w * rec.rhs, start)
    sources = np.split(rec.scenarios, start[1:])
    return [Cut(kind="optimality", gradient=gradient[j], rhs=float(rhs[j]),
                source=frozenset(sources[j].tolist()), iteration=iteration,
                aggregate=int(bundle[start[j]]))
            for j in np.flatnonzero(np.logical_and.reduceat(rec.feasible, start))]


class MasterState:
    """Master problem: first stage plus theta slots plus accumulated cuts."""

    def __init__(self, problem: TwoStageProblem, n_aggregates):
        self.first = problem.first
        self.n = problem.n
        self.K = n_aggregates
        self.cuts = []             # optimality and feasibility, in insertion order
        self.inactive = {}         # id(cut) -> consecutive slack master solves
        self.has_cut = np.zeros(n_aggregates, dtype=bool)
        self.x = None
        self.theta = None
        self.value = None
        self._warm = None          # last optimal basis of the plain master
        self._warm_tr = None       # and of the trust-region master
        self.fallbacks = 0         # regularized solves that ended non-optimal

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

    def _instance(self, tr_center=None, tr_delta=None, level=None):
        """The master over (x, theta); ``level`` adds the row c x + sum(theta) <= level."""
        n, K, p, cuts = self.n, self.K, self.first.p, self.cuts
        c = np.concatenate([self.first.c, np.ones(K)])
        A = np.zeros((p + len(cuts), n + K))
        A[:p, :n] = self.first.A
        A[p:, :n] = np.reshape([cut.gradient for cut in cuts], (-1, n))
        for i, cut in enumerate(cuts):
            if cut.kind == "optimality":
                A[p + i, n + cut.aggregate] = 1.0
        rhs = np.concatenate([self.first.b, [cut.rhs for cut in cuts]])
        senses = self.first.row_senses + (">=",) * len(cuts)
        if level is not None:
            A, rhs, senses = np.vstack([A, c]), np.append(rhs, level), senses + ("<=",)
        lb = np.concatenate([self.first.lb, np.full(K, _THETA_MIN)])
        ub = np.concatenate([self.first.ub, np.full(K, np.inf)])
        if tr_center is not None:
            lb[:n] = np.maximum(lb[:n], tr_center - tr_delta)
            ub[:n] = np.minimum(ub[:n], tr_center + tr_delta)
        return LPInstance(c=c, A=A, rhs=rhs, row_senses=tuple(senses), lb=lb, ub=ub)

    def _proximal(self, lp, weight, center):
        """``lp`` plus weight/2 |x - center|^2 on its x columns, solved as a
        ``kernel.QPStack`` of one."""
        D = np.concatenate([np.full(self.n, weight), np.zeros(self.K)])
        z = np.concatenate([center, np.zeros(self.K)])
        qp = kernel.qp_stack(lp.c[None], lp.A[None], lp.rhs[None], lp.row_senses,
                             lp.lb[None], lp.ub[None], D[None], z[None])
        return kernel.solve_qp_diagonal(qp).member(0)

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
        sol = kernel.solve_lp(lp, warm_start=warm)
        if sol.status == kernel.INFEASIBLE and tr_center is not None:
            self.fallbacks += 1
            return self.solve_plain()   # the box misses the feasible region; plain step is valid
        if sol.status == kernel.INFEASIBLE:
            raise MasterInfeasible("master LP ended infeasible: first stage plus "
                                   "feasibility cuts has no feasible point")
        kernel.require_optimal(sol, "master LP")
        if tr_center is None:
            self._warm = sol.basis
        else:
            self._warm_tr = sol.basis
        self._record_activity(lp, sol)
        return sol.x[:self.n], sol.x[self.n:], sol.objective

    def solve_rd(self, center, sigma):
        lp = self._instance()
        sol = self._proximal(lp, sigma, center)
        if sol.status != kernel.OPTIMAL:
            self.fallbacks += 1
            return self.solve_plain()   # proximal solve degraded; plain step is valid
        self._record_activity(lp, sol)
        return self._step(sol.x)

    def solve_level(self, center, level):
        lp = self._instance(level=level)
        sol = self._proximal(replace(lp, c=np.zeros(lp.nvars)), 1.0, center)
        if sol.status != kernel.OPTIMAL:
            self.fallbacks += 1
            return self.solve_plain()   # projection degraded; plain step is valid
        return self._step(sol.x)

    def _step(self, z):
        """(x, theta, c x + sum(theta)) of the master point z = (x, theta)."""
        x, theta = z[:self.n], z[self.n:]
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


class _Coordinator:
    """One L-shaped run and the master side of the kappa protocol, in every mode.

    A version is one candidate (x, theta); its work items group the
    aggregation bundles by ``execution.work_items``.  Cuts are built bundle by
    bundle and tested against the (x, theta) of the version that generated
    them.  The upper bound comes only from versions whose results are all in,
    and the stopping tests run right after the master re-solve that follows
    such a version, so a converged run issues no further wave.
    """

    def __init__(self, problem: TwoStageProblem, cfg: LShapedConfig):
        self.p = problem
        self.cfg = cfg
        self.probs = problem.probabilities
        bundles = make_bundles(problem.nscen, cfg.cuts, cfg.bundle_size)
        self.bundle_of = np.repeat(np.arange(len(bundles)), [len(b) for b in bundles])
        self.items = work_items(bundles, cfg.execution)
        self.n_items = len(self.items)
        self.state = MasterState(problem, len(bundles))
        self.pool = BasisPool(problem.batch)
        self.U_best = np.inf
        self.x_best = self.ys_best = None
        self.L = -np.inf
        self.trace = []
        self.iteration = 0
        self.finished = False
        self.status = "iteration_limit"
        self.partial = {}          # version -> Recourse records received so far
        self.added = {}            # version -> cuts its results added
        self.payloads = {}         # version (= iteration that produced it) -> (x, theta)
        self.pending_eval = None   # last fully evaluated (x, U, added), consumed by advance
        self.unrecorded = 0        # cuts added since the last trace record
        self.bunched = self.lp_solved = 0  # recourse rows received since the last record
        self.t_mark = None
        # regularization state
        self.center = None
        self.U_center = np.inf
        self.delta = None          # trust-region radius, set with the first center
        self.sigma = _RD_SIGMA0
        self.prev_improved = False
        self.prev_model_value = None

    def initial_decision(self):
        x, theta, _ = self.state.solve_plain()   # cold start: theta at _THETA_MIN
        self.payloads[0] = (x, theta)
        self.t_mark = time.perf_counter()
        return VersionedDecision(version=0, payload=(x, theta), iteration=0)

    def worker_payload(self, decision, index):
        x, _ = decision.payload
        return solve_recourse(self.pool, x, self.items[index])

    def incorporate(self, env):
        if self.finished:
            return      # results drained after the stop leave the run as reported
        rec = env.payload
        bunched = int(rec.bunched.sum())
        self.bunched += bunched
        self.lp_solved += rec.bunched.size - bunched
        self.partial.setdefault(env.version, []).append(rec)
        cuts = self._cuts(rec, env.version)
        for cut in cuts:
            self.state.add_cut(cut)
        self.added[env.version] = self.added.get(env.version, 0) + len(cuts)
        self.unrecorded += len(cuts)

    def _cuts(self, rec, version):
        """The violated cuts of ``rec`` at ``version``'s (x, theta), bundle by
        bundle: a bundle's feasibility cuts in scenario order if a scenario of
        it is infeasible, else its optimality cut.  An item holds whole
        bundles, in bundle order."""
        x, theta = self.payloads[version]
        cuts = [c for c in (make_feasibility_cut(rec, i, iteration=version)
                            for i in np.flatnonzero(~rec.feasible))
                if c.rhs - c.gradient @ x > kernel.FEAS_TOL]
        cuts += [c for c in aggregate_cuts(rec, self.probs, self.bundle_of, version)
                 if c.value_at(x) > theta[c.aggregate] + 1e-9 * (1.0 + abs(c.value_at(x)))]
        return sorted(cuts, key=lambda c: self.bundle_of[min(c.source)])

    def complete(self, version, decision):
        if self.finished:
            return
        rec = _concat(self.partial.pop(version))
        x, _ = decision.payload
        U = None
        if rec.feasible.all():
            U = float(self.p.first.c @ x + self.probs[rec.scenarios] @ rec.value)
            if U < self.U_best - 1e-12:
                self.U_best, self.x_best = U, x.copy()
                self.ys_best = rec.y[np.argsort(rec.scenarios)]
        # regularization centers move only on fully evaluated candidates
        self.pending_eval = (x, U, self.added.pop(version))

    def advance(self):
        cfg, st = self.cfg, self.state
        self.iteration += 1
        evaluated = self.pending_eval
        self.pending_eval = None
        x_eval, U, added = evaluated or (self.payloads[self.iteration - 1][0], None, None)
        x, theta, L_plain = self._next_candidate(x_eval, U)
        if st.all_aggregates_cut:
            self.L = L_plain
        self.trace.append({"iteration": self.iteration, "lower": self.L,
                           "upper": self.U_best, "gap": self.gap(),
                           "cuts_added": self.unrecorded, "bunched": self.bunched,
                           "lp_solved": self.lp_solved,
                           "master_fallbacks": st.fallbacks,
                           "wall": time.perf_counter() - self.t_mark})
        st.fallbacks = self.unrecorded = self.bunched = self.lp_solved = 0
        # no cut added at a fully evaluated candidate: the model is exact there
        exact = added == 0 and U is not None and cfg.regularization == "none"
        if evaluated is not None and st.all_aggregates_cut \
                and (self.gap() <= cfg.gap_tol or exact):
            self.status = "optimal"
            self.finished = True
            return None
        if cfg.consolidation and self.iteration % _CONSOLIDATE_EVERY == 0:
            st.consolidate(_CONSOLIDATE_AFTER)
        if self.iteration >= cfg.max_iterations:
            self.finished = True
            return None
        self.payloads[self.iteration] = (x, theta)
        self.t_mark = time.perf_counter()
        return VersionedDecision(version=self.iteration, payload=(x, theta),
                                 iteration=self.iteration)

    def _next_candidate(self, x_k, U_k):
        """Apply the regularization policy and solve for the next candidate.

        Returns (x, theta, L_plain).  L_plain is the unregularized master
        value, the valid global lower bound used in the gap test.
        """
        cfg, st = self.cfg, self.state
        reg = cfg.regularization
        if reg == "none":
            return st.solve_plain()

        if self.center is None:
            self.center = (self.x_best if self.x_best is not None else x_k).copy()
            self.U_center = self.U_best
            self.delta = max(1.0, 0.1 * float(np.max(np.abs(self.center))))
        elif U_k is not None:
            if reg == "tr":
                predicted = self.U_center - self.prev_model_value \
                    if self.prev_model_value is not None else np.inf
                actual = self.U_center - U_k
                if actual >= _TR_ETA * max(predicted, 0.0) and U_k < self.U_center:
                    self.center = x_k.copy()
                    self.U_center = U_k
                    self.delta = min(_TR_GAMMA * self.delta, _TR_DELTA_MAX)
                else:
                    self.delta = max(self.delta / _TR_GAMMA, 1e-8)
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
        elif reg == "rd":
            x, theta, val = st.solve_rd(self.center, self.sigma)
        else:
            U = self.U_best if np.isfinite(self.U_best) else L_plain + 1.0 + abs(L_plain)
            level = L_plain + _LEVEL_LAMBDA * (U - L_plain)
            x, theta, val = st.solve_level(self.center, level + 1e-9 * (1 + abs(level)))
        self.prev_model_value = val
        return x, theta, L_plain

    def gap(self):
        if not np.isfinite(self.U_best) or not np.isfinite(self.L):
            return np.inf
        return (self.U_best - self.L) / (1.0 + abs(self.U_best))

    def report(self, wall, seed=None):
        cfg, counts = self.cfg, self.state.counts()
        counts["added_total"] = sum(rec["cuts_added"] for rec in self.trace)
        bunched = sum(rec["bunched"] for rec in self.trace)
        total = bunched + sum(rec["lp_solved"] for rec in self.trace)
        recourse = {"bunched": bunched, "lp_solved": total - bunched,
                    "bunched_share": bunched / total if total else 0.0}
        obj = self.p.report_value(self.U_best) if np.isfinite(self.U_best) else np.nan
        rep = SolveReport(
            method="lshaped", status=self.status, objective=obj,
            decision=self.x_best, recourse=self.ys_best,
            gaps={"lower": self.L, "upper": self.U_best, "gap": self.gap()},
            iterations=self.iteration, cut_counts=counts, trace=self.trace,
            seed=seed, wall_time=wall,
            extras={"internal_objective": self.U_best, "recourse": recourse,
                    "_cuts": list(self.state.cuts)},
        )
        rep.config = {"cuts": cfg.cuts, "bundle_size": cfg.bundle_size,
                      "regularization": cfg.regularization, "gap_tol": cfg.gap_tol,
                      "execution": cfg.execution.label, "workers": cfg.execution.workers}
        return rep


def solve_lshaped(problem: TwoStageProblem, cfg: LShapedConfig = None, *,
                  seed=None) -> SolveReport:
    """Run the L-shaped algorithm until (U - L) / (1 + |U|) <= gap_tol."""
    cfg = cfg or LShapedConfig()
    t0 = time.perf_counter()
    coord = _Coordinator(problem, cfg)
    stats = drive(coord, cfg.execution)
    rep = coord.report(time.perf_counter() - t0, seed)
    if stats is not None:
        rep.extras["async"] = stats.summary()
    return rep


def vrp(p: TwoStageProblem):
    """Optimal value and first-stage decision of the recourse problem (minimization form).

    The DEP is solved whole when its p + S r rows are at most ``DEP_ROW_BUDGET``.
    Beyond, single-cut L-shaped runs until an evaluated candidate adds no violated
    cut, and its lower bound L is the value: L meets U to round-off there and never
    exceeds the optimum, so SAA lower estimates stay valid.  Non-optimal ends raise.
    """
    if p.first.p + p.nscen * p.r <= DEP_ROW_BUDGET:
        lp = _model.build_deterministic_equivalent(p)   # looked up per call, so wrappers see it
        sol = kernel.require_optimal(kernel.solve_lp(lp), "DEP solve")
        return sol.objective, sol.x[:p.n]
    rep = solve_lshaped(p, LShapedConfig(cuts="single", gap_tol=0.0))
    if rep.status != "optimal":
        raise NumericalBreakdown(f"L-shaped run ended {rep.status}")
    return rep.gaps["lower"], rep.decision
