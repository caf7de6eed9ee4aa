"""Progressive hedging: scenario decomposition with proximal consensus.

Every scenario s carries its own first-stage copy x_s; the implementable
point is the probability-weighted aggregate xi = sum_s pi_s x_s, and the
multipliers rho_s move by r (x_s - xi) each round.  Termination is on the
squared primal gap |xi_k - xi_{k-1}|^2 and squared dual gap
sum_s pi_s |x_s - xi_k|^2, compared directly against the tolerances.

A round is a fixed-point map u = (xi, rho) -> G(u), affine while the
scenarios' active sets hold.  Each advance takes the plain step, whose gaps
alone drive the stop, and then, unless stopping, a safeguarded type-II
Anderson acceleration (``_Anderson``: memory 5, in the norm with sqrt(r) xi
and sqrt(pi_s / r) rho_s) may replace G(u) by a point extrapolated from the
last waves.  The point is taken only when finite and within 10 plain
residuals; a rise in the residual drops the memory for the plain step, a
penalty change clears it, and the extrapolated rho is re-centred so that
sum_s pi_s rho_s stays 0.  There is no option: every execution mode and
the linearized penalty run the same rule.

The reported objective is sum_s pi_s (c^T x_s + q_s^T y_s), evaluated at the
per-scenario solutions (xi itself may be second-stage infeasible before
consensus); when xi is feasible its expected value is reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, kernel
from .errors import ConfigError, FirstStageInfeasible
from .execution import ExecConfig, VersionedDecision, drive, work_items
from .execution import run_wave  # noqa: F401 - perfbench/tracing.py wraps it here by name
from .model import TwoStageProblem, build_wait_and_see
from .report import SolveReport


_ADAPT_FREEZE = 100.0   # the adaptive penalty stops once gaps <= this * tolerance
_ADAPT_HORIZON = 200    # and changes no more after this round, which keeps the
                        # fixed-penalty convergence guarantee
_ADAPT_PERIOD = 10      # rounds between penalty updates (averaged gaps)
_ZETA = 10.0            # residual-balancing ratio threshold
_THETA_INC = 2.0        # penalty growth factor
_THETA_DEC = 0.5        # penalty shrink factor
_AA_MEMORY = 5          # Anderson acceleration: residual differences kept
_AA_MAX_MOVE = 10.0     # an extrapolated step moves at most this many plain residuals


@dataclass
class PhConfig:
    penalty: str = "adaptive"      # adaptive | fixed
    r: float = 1.0
    primal_tol: float = 1e-5       # on the squared primal gap
    dual_tol: float = 1e-5         # on the squared dual gap
    max_iterations: int = 5000
    linearize: str = None          # None | 'one' | 'inf'
    execution: ExecConfig = field(default_factory=ExecConfig)

    def __post_init__(self):
        if self.penalty not in ("fixed", "adaptive"):
            raise ConfigError(f"penalty must be 'fixed' or 'adaptive', got {self.penalty!r}")
        if self.r <= 0:
            raise ConfigError("penalty parameter r must be > 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.primal_tol < 0 or self.dual_tol < 0:
            raise ConfigError("primal_tol and dual_tol must be >= 0")
        if self.linearize not in (None, "one", "inf"):
            raise ConfigError(f"linearize must be None, 'one' or 'inf', got {self.linearize!r}")
        if self.linearize and self.penalty == "adaptive":
            raise ConfigError("linearize needs penalty=\"fixed\": the adaptive rule is "
                              "tuned for the quadratic proximal term")


@dataclass
class PhState:
    xs: np.ndarray          # (S, n) per-scenario first-stage copies
    ys: np.ndarray          # (S, m) recourse decisions
    xi: np.ndarray          # implementable aggregate
    rho: np.ndarray         # (S, n) multipliers
    r: float
    primal_gap: float = np.inf
    dual_gap: float = np.inf
    iteration: int = 0
    gap_window: list = field(default_factory=list)   # (primal, dual) since last adapt

    def multiplier_drift(self, probs):
        return float(np.max(np.abs(probs @ self.rho)))


def _maybe_adapt(state: PhState, cfg: PhConfig):
    """Damped residual balancing: act on window-averaged gaps, freeze near
    convergence and after the adaptation horizon so the endgame runs with a
    constant penalty (plain progressive hedging converges for any fixed r)."""
    if state.iteration > _ADAPT_HORIZON:
        state.gap_window.clear()
        return
    state.gap_window.append((state.primal_gap, state.dual_gap))
    if state.iteration % _ADAPT_PERIOD != 0:
        return
    if state.primal_gap <= _ADAPT_FREEZE * cfg.primal_tol \
            and state.dual_gap <= _ADAPT_FREEZE * cfg.dual_tol:
        state.gap_window.clear()
        return
    window = np.asarray(state.gap_window)
    state.gap_window.clear()
    state.r = update_penalty(float(window[:, 0].mean()), float(window[:, 1].mean()), state.r)


class _Anderson:
    """Safeguarded type-II Anderson acceleration of PH's map u = (xi, rho) -> G(u).

    A point is the flat vector (xi, rho_1, ..., rho_S).  The fit and the
    step cap use the norm PH contracts in, |sqrt(r) xi|^2 + sum_s pi_s/r
    |rho_s|^2, where the plain residual |G(u) - u|^2 is r (primal_gap +
    dual_gap).  From the last ``_AA_MEMORY`` + 1 waves at one penalty,
    gamma minimizes |f_k - dF gamma| over the residual differences and the
    extrapolated point is g_k - dG gamma (Walker & Ni 2011).  It is taken
    only when finite and at most ``_AA_MAX_MOVE`` plain residuals from u_k.
    A wave whose residual exceeds the previous wave's drops the older
    memory and takes the plain step: plain PH at a fixed penalty never
    raises the residual, so the run keeps plain PH's convergence.
    """

    def __init__(self, probs, n):
        self.sqrt_p = np.repeat(np.sqrt(probs), n)
        self.clear()

    def clear(self):
        self.g, self.f = [], []      # G(u) and G(u) - u of the waves kept
        self.residual = np.inf       # the last wave's squared plain residual

    def step(self, u, g, r, residual):
        """The next point after the wave at u gave g = G(u), or None for the plain step."""
        rising = residual > self.residual
        if rising:
            self.clear()
        self.residual = residual
        self.g.append(g)
        self.f.append(g - u)
        del self.g[:-_AA_MEMORY - 1], self.f[:-_AA_MEMORY - 1]
        if rising or len(self.f) < 2:
            return None
        w = np.concatenate([np.full(u.size - self.sqrt_p.size, np.sqrt(r)),
                            self.sqrt_p / np.sqrt(r)])
        dF, dG = np.diff(self.f, axis=0).T, np.diff(self.g, axis=0).T
        gamma = np.linalg.lstsq(w[:, None] * dF, w * self.f[-1], rcond=None)[0]
        nxt = g - dG @ gamma
        if not np.all(np.isfinite(nxt)) \
                or np.linalg.norm(w * (nxt - u)) > _AA_MAX_MOVE * np.sqrt(residual):
            return None
        return nxt


class ProximalStacks:
    """Every scenario's proximal QP, grouped once per run.

    Scenario s's QP is member s of the problem's ``wait_and_see`` form, its
    LP over (x, y_s), plus the proximal terms rho_s^T x + r/2 |x - xi|^2.
    Scenarios that share a row pattern (``kernel.qp_pattern``: row senses
    and which bounds are finite or fixed) share one ``kernel.QPStack``; a
    scenario with its own row senses gets a stack of its own pattern.  A
    wave writes only the first-stage costs ``c + rho_s``, the penalty and
    the center ``xi``.
    """

    def __init__(self, problem: TwoStageProblem):
        self.problem, form = problem, problem.wait_and_see
        self.n, self.m = problem.n, problem.m
        groups = {}
        for s in range(problem.nscen):
            groups.setdefault(kernel.qp_pattern(form.row_senses[s], form.lb[s], form.ub[s]),
                              []).append(s)
        zero = np.zeros_like(form.c)
        self.groups = [(np.array(idx), kernel.qp_stack(form.c[idx], form.A[idx], form.rhs[idx],
                                                       form.row_senses[idx[0]], form.lb[idx],
                                                       form.ub[idx], zero[idx], zero[idx]))
                       for idx in groups.values()]
        self.group_of = np.empty(problem.nscen, dtype=int)
        self.position = np.empty(problem.nscen, dtype=int)
        for k, (idx, _) in enumerate(self.groups):
            self.group_of[idx] = k
            self.position[idx] = np.arange(idx.size)

    def wave_stack(self, group, pos, xi, rho, r):
        """The proximal QPs of members ``pos`` of ``group`` at (xi, rho, r)."""
        n = self.n
        idx, stack = self.groups[group]
        if pos.size != idx.size:
            stack = stack.take(pos)
        rows = idx[pos]
        c = self.problem.wait_and_see.c[rows]
        c[:, :n] += rho[rows]
        D = np.zeros_like(c)
        D[:, :n] = r
        z = np.zeros_like(c)
        z[:, :n] = xi
        return replace(stack, c=c, D=D, z=z)

    def lp(self, s, rho):
        """Scenario s's wait-and-see LP with the costs rho_s^T x added, for the
        linearized penalty."""
        lp = build_wait_and_see(self.problem, s)
        return replace(lp, c=lp.c + np.pad(rho[s], (0, self.m)))


@dataclass
class BundleSolution:
    """Proximal solutions of a scenario bundle, in the bundle's order.

    ``warm`` holds each scenario's QP iterate (x, lam, y), or None after a
    linearized solve; ``qp_accepted`` counts the scenarios settled at their
    last active set, ``ipm_iterations`` sums the others' interior-point
    iterations, cold retries included, ``qp_retries`` counts the cold
    retries and ``qp_s`` is the time spent in the kernel.
    """

    scenarios: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    warm: list
    qp_accepted: int = 0
    ipm_iterations: int = 0
    qp_retries: int = 0
    qp_s: float = 0.0


def solve_ph_subproblem(data: ProximalStacks, bundle, xi, rho, r,
                        warm=None, linearize=None) -> BundleSolution:
    """Proximal subproblems of the scenarios ``bundle``: each one's WS
    objective + rho_s^T x + r/2 |x - xi|^2, with ``rho`` the (S, n)
    multipliers and ``warm[s]`` scenario s's last iterate (or None).

    The scenarios of one row pattern are solved as one ``kernel.QPStack``,
    warm from their last iterates: the kernel settles most of them at
    their last active set and runs its interior point on the rest.  A warm
    start can leave a QP that solves cold stalled far off the central
    path, so the warm-started members that end non-optimal are solved
    again, cold, once, as one stack of their own.
    With ``linearize`` ('one' or 'inf') each scenario is one LP instead.
    A scenario that does not end optimal raises the error
    ``kernel.require_optimal`` names for it, the lowest such scenario first.
    """
    bundle = np.asarray(bundle, dtype=int)
    n = data.n
    xs = np.empty((bundle.size, n + data.m))
    iterates = [None] * bundle.size
    accepted = ipm_iterations = retries = 0
    failed = {}
    t0 = time.perf_counter()
    if linearize:
        for k, s in enumerate(bundle):
            sol = kernel.solve_lp(kernel.linearize_penalty(data.lp(s, rho), r, xi, linearize))
            xs[k] = sol.x[:xs.shape[1]] if sol.x is not None else np.nan
            if sol.status != kernel.OPTIMAL:
                failed[int(s)] = sol
    else:
        groups = data.group_of[bundle]
        for g in np.unique(groups):
            at = np.flatnonzero(groups == g)
            members = bundle[at]
            qp = data.wave_stack(g, data.position[members], xi, rho, r)
            start = _stacked_warm(warm, members, qp)
            res = kernel.solve_qp_diagonal(qp, start)
            accepted += int(res.accepted.sum())
            ipm_iterations += res.iterations
            if start is not None:
                warmed = True if start.valid is None else start.valid
                retry = np.flatnonzero((res.status != kernel.OPTIMAL) & warmed)
                if retry.size:
                    _merge(res, retry, kernel.solve_qp_diagonal(qp.take(retry)))
                    ipm_iterations += int(res.member_iterations[retry].sum())
                    retries += retry.size
            it = res.iterate
            xs[at] = it.x
            for j, (k, s) in enumerate(zip(at, members)):
                iterates[k] = (it.x[j], it.lam[j], it.y[j])
                if res.status[j] != kernel.OPTIMAL:
                    failed[int(s)] = res.member(j)
    qp_s = time.perf_counter() - t0
    if failed:
        s = min(failed)
        kernel.require_optimal(failed[s], "proximal subproblem", s)
    return BundleSolution(scenarios=bundle, xs=xs[:, :n], ys=xs[:, n:], warm=iterates,
                          qp_accepted=accepted, ipm_iterations=ipm_iterations,
                          qp_retries=retries, qp_s=qp_s)


def _merge(res, pos, again):
    """Put ``again``, the re-solve of the members ``pos`` of ``res``, in their place."""
    res.status[pos] = again.status
    res.member_iterations[pos] = again.member_iterations
    res.objective[pos] = again.objective
    for name in ("x", "lam", "y"):
        getattr(res.iterate, name)[pos] = getattr(again.iterate, name)


def _stacked_warm(warm, members, qp):
    """The members' last iterates as a ``kernel.QPIterate``; None if none has one."""
    if warm is None:
        return None
    have = [warm[s] is not None for s in members]
    if not any(have):
        return None
    x, lam, y = (np.zeros((members.size, a.shape[1])) for a in (qp.c, qp.g, qp.bE))
    for j, s in enumerate(members):
        if have[j]:
            x[j], lam[j], y[j] = warm[s]
    return kernel.QPIterate(x=x, lam=lam, y=y, valid=None if all(have) else np.array(have))


def aggregate_implementable(xs, probs):
    """xi = sum_s pi_s x_s, componentwise."""
    return np.asarray(probs) @ np.asarray(xs)


def update_multipliers(rho, xs, xi, r):
    """rho_s <- rho_s + r (x_s - xi); preserves sum_s pi_s rho_s up to rounding."""
    return rho + r * (np.asarray(xs) - xi)


def update_penalty(primal_gap, dual_gap, r):
    """Residual balancing: grow r while consensus violation (the dual gap)
    dominates the movement of xi (the primal gap), shrink in the opposite
    case, and hold otherwise."""
    if dual_gap > _ZETA * primal_gap:
        r = _THETA_INC * r
    elif primal_gap > _ZETA * dual_gap:
        r = _THETA_DEC * r
    return float(np.clip(r, 1e-6, 1e8))


def _initial_state(problem: TwoStageProblem, cfg: PhConfig) -> PhState:
    """Unpenalized wait-and-see solves seed the scenario copies."""
    ws, _ = analysis.wait_and_see_solutions(problem)
    xs, ys = ws[:, :problem.n].copy(), ws[:, problem.n:].copy()
    xi = aggregate_implementable(xs, problem.probabilities)
    return PhState(xs=xs, ys=ys, xi=xi, rho=np.zeros_like(xs), r=cfg.r)


def solve_ph(problem: TwoStageProblem, cfg: PhConfig = None, *, seed=None) -> SolveReport:
    """Run progressive hedging until both squared gaps fall below tolerance."""
    cfg = cfg or PhConfig()
    t0 = time.perf_counter()
    state = _initial_state(problem, cfg)
    coord = _PhCoordinator(problem, cfg, state)
    stats = drive(coord, cfg.execution)
    rep = _report(problem, cfg, state, coord.trace, coord.status,
                  time.perf_counter() - t0, seed)
    if stats is not None:
        rep.extras["async"] = stats.summary()
    return rep


def _objective(problem, state):
    vals = state.xs @ problem.first.c + np.einsum("sm,sm->s", problem.batch.q, state.ys)
    return float(problem.probabilities @ vals)


def _report(problem, cfg, state, trace, status, wall, seed):
    obj = _objective(problem, state)
    # expected value of the implementable point itself, when it is feasible
    # (pre-consensus it may not be second-stage feasible); looked up per
    # call, so wrappers of analysis.evaluate_decision see it
    try:
        xi_value = analysis.evaluate_decision(problem, state.xi)
    except FirstStageInfeasible:
        xi_value = np.inf
    rep = SolveReport(
        method="ph", status=status,
        objective=problem.report_value(obj),
        decision=state.xi,
        recourse=state.ys,
        gaps={"primal_gap": state.primal_gap, "dual_gap": state.dual_gap},
        iterations=state.iteration, trace=trace, seed=seed, wall_time=wall,
        extras={"internal_objective": obj,
                "penalty": state.r,
                "implementable_value": problem.report_value(xi_value)
                if np.isfinite(xi_value) else np.inf,
                "scenario_decisions": state.xs.copy(),
                "multipliers": state.rho.copy(),
                "multiplier_drift": state.multiplier_drift(problem.probabilities),
                "proximal": {k: sum(rec[k] for rec in trace) for k in
                             ("qp_solved", "qp_accepted", "ipm_iterations", "qp_retries",
                              "accelerated")} | {"steps": len(trace)}},
    )
    rep.config = {"penalty": cfg.penalty, "r": cfg.r,
                  "primal_tol": cfg.primal_tol, "dual_tol": cfg.dual_tol,
                  "execution": cfg.execution.label, "workers": cfg.execution.workers}
    return rep


class _PhCoordinator:
    """Scenario-side state machine of the kappa protocol, for every execution mode.

    A version is one (xi, rho, r) snapshot and its work items group the
    scenarios by ``execution.work_items``: every scenario in one item in waves
    (serial and sync), one scenario per item under async, so kappa counts
    scenarios there.
    Aggregation and the multiplier update touch every scenario at once
    using each scenario's latest available solution, so multiplier
    conservation is preserved.  The convergence test runs right after an
    aggregation that follows the completion of some version, so every
    scenario's solution in it is at least as new as that version.
    """

    def __init__(self, problem, cfg, state: PhState):
        self.p = problem
        self.cfg = cfg
        self.state = state
        self.probs = problem.probabilities
        S = problem.nscen
        self.bundles = work_items([[s] for s in range(S)], cfg.execution)
        self.n_items = len(self.bundles)
        self.data = ProximalStacks(problem)
        self.finished = False
        self.status = "iteration_limit"
        self.stamp = np.zeros(S, dtype=int)
        self.resolved = False      # some version completed since the last aggregation
        self.trace = []
        self.warm = [None] * S
        self.anderson = _Anderson(self.probs, problem.n)
        self.qp_solved = 0         # proximal QPs solved since the last trace record
        self.qp_accepted = 0       # and those settled at their active set
        self.ipm_iterations = 0    # interior-point iterations since that record
        self.qp_s = 0.0            # and the seconds they took
        self.qp_retries = 0        # cold re-solves of warm-started QPs since that record

    def initial_decision(self):
        return self._decision()

    def _decision(self):
        snap = (self.state.xi.copy(), self.state.rho.copy(), self.state.r)
        return VersionedDecision(version=self.state.iteration, payload=snap)

    def worker_payload(self, decision, index):
        xi, rho, r = decision.payload
        return solve_ph_subproblem(self.data, self.bundles[index], xi, rho, r,
                                   warm=self.warm, linearize=self.cfg.linearize)

    def incorporate(self, env):
        if self.finished:
            return      # results drained after the stop leave the run as reported
        sol = env.payload
        self.qp_solved += 0 if self.cfg.linearize else sol.scenarios.size
        self.qp_accepted += sol.qp_accepted
        self.ipm_iterations += sol.ipm_iterations
        self.qp_retries += sol.qp_retries
        self.qp_s += sol.qp_s
        for k, s in enumerate(sol.scenarios):
            self.warm[s] = sol.warm[k]
            if env.version >= self.stamp[s]:
                self.stamp[s] = env.version
                self.state.xs[s] = sol.xs[k]
                self.state.ys[s] = sol.ys[k]

    def complete(self, version, decision):
        self.resolved = True

    def advance(self):
        """Aggregate, update the multipliers and test for the stop, all on the
        plain PH step; then, unless stopping, let ``_Anderson`` extrapolate
        the next (xi, rho) from the plain step and the last waves."""
        st, cfg = self.state, self.cfg
        st.iteration += 1
        u, r = np.concatenate([st.xi, st.rho.ravel()]), st.r
        xi_new = aggregate_implementable(st.xs, self.probs)
        st.primal_gap = float(np.sum((xi_new - st.xi) ** 2))
        st.xi = xi_new
        diffs = st.xs - xi_new
        st.dual_gap = float(self.probs @ np.sum(diffs * diffs, axis=1))
        st.rho = update_multipliers(st.rho, st.xs, xi_new, st.r)
        if cfg.penalty == "adaptive":
            _maybe_adapt(st, cfg)
        resolved, self.resolved = self.resolved, False
        if resolved and st.primal_gap <= cfg.primal_tol and st.dual_gap <= cfg.dual_tol:
            self.status = "optimal"
            self.finished = True
        elif st.iteration >= cfg.max_iterations:
            self.finished = True
        nxt = None
        if st.r != r:
            self.anderson.clear()
        elif not self.finished:
            nxt = self.anderson.step(u, np.concatenate([st.xi, st.rho.ravel()]), r,
                                     r * (st.primal_gap + st.dual_gap))
        if nxt is not None:
            st.xi, rho = nxt[:self.p.n], nxt[self.p.n:].reshape(st.rho.shape)
            st.rho = rho - self.probs @ rho      # sum_s pi_s rho_s = 0 to rounding
        self.trace.append({"iteration": st.iteration, "primal_gap": st.primal_gap,
                           "dual_gap": st.dual_gap, "penalty": st.r,
                           "objective": _objective(self.p, st),
                           "multiplier_drift": st.multiplier_drift(self.probs),
                           "accelerated": nxt is not None,
                           "qp_solved": self.qp_solved, "qp_accepted": self.qp_accepted,
                           "ipm_iterations": self.ipm_iterations,
                           "qp_retries": self.qp_retries, "qp_s": self.qp_s})
        self.qp_solved = self.qp_accepted = self.ipm_iterations = self.qp_retries = 0
        self.qp_s = 0.0
        return None if self.finished else self._decision()
