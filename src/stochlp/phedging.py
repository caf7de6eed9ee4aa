"""Progressive hedging: scenario decomposition with proximal consensus.

Every scenario s carries its own first-stage copy x_s; the implementable
point is the probability-weighted aggregate xi = sum_s pi_s x_s, and the
multipliers rho_s move by r (x_s - xi) each round.  Termination is on the
squared primal gap |xi_k - xi_{k-1}|^2 and squared dual gap
sum_s pi_s |x_s - xi_k|^2, compared directly against the tolerances.

The reported objective is sum_s pi_s (c^T x_s + q_s^T y_s), evaluated at the
per-scenario solutions (xi itself may be second-stage infeasible before
consensus); when xi is feasible its expected value is reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import ConfigError, InfeasibleScenario, UnboundedSubproblem
from .execution import ExecConfig, VersionedDecision, drive
from .execution import run_wave  # noqa: F401 - perfbench/tracing.py wraps it here by name
from .kernel import KernelConfig
from .model import LPInstance, TwoStageProblem, _ws_instance
from .report import SolveReport


@dataclass
class PhConfig:
    penalty: str = "fixed"         # fixed | adaptive
    r: float = 1.0
    zeta: float = 10.0             # residual-balancing ratio threshold
    theta_inc: float = 2.0
    theta_dec: float = 0.5
    primal_tol: float = 1e-5       # on the squared primal gap
    dual_tol: float = 1e-5         # on the squared dual gap
    adapt_period: int = 10         # rounds between penalty updates (averaged gaps)
    adapt_freeze: float = 100.0    # stop adapting once gaps <= freeze * tolerance
    adapt_horizon: int = 200       # no penalty changes after this round; keeps
                                   # the fixed-penalty convergence guarantee
    max_iterations: int = 5000
    linearize: str = None          # None | 'one' | 'inf'
    execution: ExecConfig = field(default_factory=ExecConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if self.penalty not in ("fixed", "adaptive"):
            raise ConfigError(f"penalty must be 'fixed' or 'adaptive', got {self.penalty!r}")
        if self.r <= 0:
            raise ConfigError("penalty parameter r must be > 0")
        if not (self.theta_inc > 1.0 > self.theta_dec > 0.0):
            raise ConfigError("adaptive factors need theta_inc > 1 > theta_dec > 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


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
    if state.iteration > cfg.adapt_horizon:
        state.gap_window.clear()
        return
    state.gap_window.append((state.primal_gap, state.dual_gap))
    if state.iteration % cfg.adapt_period != 0:
        return
    if state.primal_gap <= cfg.adapt_freeze * cfg.primal_tol \
            and state.dual_gap <= cfg.adapt_freeze * cfg.dual_tol:
        state.gap_window.clear()
        return
    window = np.asarray(state.gap_window)
    state.gap_window.clear()
    state.r = update_penalty(float(window[:, 0].mean()), float(window[:, 1].mean()),
                             cfg, state.r)


def solve_ph_subproblem(first, shape, scenario, xi, rho_s, r,
                        cfg: KernelConfig = None, warm=None, linearize=None,
                        scenario_index=0):
    """Proximal scenario subproblem: WS objective + rho_s^T x + r/2 |x - xi|^2."""
    ws = _ws_instance(first, shape, scenario)
    n = first.n
    c = ws.c.copy()
    c[:n] += rho_s
    qd = np.zeros(ws.nvars)
    qd[:n] = r
    qc = np.zeros(ws.nvars)
    qc[:n] = xi
    qp = LPInstance(c=c, A=ws.A, rhs=ws.rhs, row_senses=ws.row_senses,
                    lb=ws.lb, ub=ws.ub, qdiag=qd, qcenter=qc)
    if linearize:
        lin = kernel.linearize_penalty(qp, norm=linearize)
        sol = kernel.solve_lp(lin, cfg)
    else:
        sol = kernel.solve_qp_diagonal(qp, cfg, warm_start=warm)
    if sol.status == kernel.INFEASIBLE:
        raise InfeasibleScenario(scenario_index)
    if sol.status == kernel.UNBOUNDED:
        raise UnboundedSubproblem(scenario_index)
    x_s = sol.x[:n]
    y_s = sol.x[n:n + shape.m]
    obj = float(first.c @ x_s + scenario.q @ y_s)
    return x_s, y_s, obj, sol.extras.get("ipm_state")


def aggregate_implementable(xs, probs):
    """xi = sum_s pi_s x_s, componentwise."""
    return np.asarray(probs) @ np.asarray(xs)


def update_multipliers(rho, xs, xi, r):
    """rho_s <- rho_s + r (x_s - xi); preserves sum_s pi_s rho_s up to rounding."""
    return rho + r * (np.asarray(xs) - xi)


def update_penalty(primal_gap, dual_gap, cfg: PhConfig, r):
    """Residual balancing: grow r while consensus violation (the dual gap)
    dominates the movement of xi (the primal gap), shrink in the opposite
    case, and hold otherwise."""
    if dual_gap > cfg.zeta * primal_gap:
        r = cfg.theta_inc * r
    elif primal_gap > cfg.zeta * dual_gap:
        r = cfg.theta_dec * r
    return float(np.clip(r, 1e-6, 1e8))


def _initial_state(problem: TwoStageProblem, cfg: PhConfig) -> PhState:
    """Unpenalized wait-and-see solves seed the scenario copies."""
    S, n, m = problem.nscen, problem.n, problem.m
    xs = np.zeros((S, n))
    ys = np.zeros((S, m))
    for s, sc in enumerate(problem.scenarios):
        ws = _ws_instance(problem.first, problem.shape, sc)
        sol = kernel.solve_lp(ws, cfg.kernel)
        if sol.status == kernel.INFEASIBLE:
            raise InfeasibleScenario(s)
        if sol.status == kernel.UNBOUNDED:
            raise UnboundedSubproblem(s)
        xs[s] = sol.x[:n]
        ys[s] = sol.x[n:n + m]
    probs = problem.probabilities
    xi = aggregate_implementable(xs, probs)
    return PhState(xs=xs, ys=ys, xi=xi, rho=np.zeros((S, n)), r=cfg.r)


def solve_ph(problem: TwoStageProblem, cfg: PhConfig = None,
             engine: ExecConfig = None, seed=None) -> SolveReport:
    """Run progressive hedging until both squared gaps fall below tolerance."""
    cfg = cfg or PhConfig()
    engine = engine or cfg.execution
    t0 = time.perf_counter()
    state = _initial_state(problem, cfg)
    coord = _PhCoordinator(problem, cfg, state)
    stats = drive(coord, engine)
    rep = _report(problem, cfg, engine, state, coord.trace, coord.status,
                  time.perf_counter() - t0, seed)
    if stats is not None:
        rep.extras["async"] = stats.summary()
    return rep


def _objective(problem, state):
    probs = problem.probabilities
    vals = [problem.first.c @ state.xs[s] + problem.scenarios[s].q @ state.ys[s]
            for s in range(problem.nscen)]
    return float(probs @ np.asarray(vals))


def _report(problem, cfg, engine, state, trace, status, wall, seed):
    obj = _objective(problem, state)
    # expected value of the implementable point itself, when it is feasible
    # (pre-consensus it may not be second-stage feasible)
    from .analysis import evaluate_decision
    from .errors import FirstStageInfeasible
    try:
        xi_value = evaluate_decision(problem, state.xi, cfg.kernel)
    except FirstStageInfeasible:
        xi_value = np.inf
    rep = SolveReport(
        method="ph", status=status,
        objective=problem.report_value(obj),
        decision=state.xi,
        recourse=[state.ys[s] for s in range(problem.nscen)],
        gaps={"primal_gap": state.primal_gap, "dual_gap": state.dual_gap},
        iterations=state.iteration, trace=trace, seed=seed, wall_time=wall,
        extras={"internal_objective": obj,
                "penalty": state.r,
                "implementable_value": problem.report_value(xi_value)
                if np.isfinite(xi_value) else np.inf,
                "scenario_decisions": state.xs.copy(),
                "multipliers": state.rho.copy(),
                "multiplier_drift": state.multiplier_drift(problem.probabilities)},
    )
    rep.config = {"penalty": cfg.penalty, "r": cfg.r,
                  "primal_tol": cfg.primal_tol, "dual_tol": cfg.dual_tol,
                  "execution": engine.label, "workers": engine.workers}
    return rep


class _PhCoordinator:
    """Scenario-side state machine of the kappa protocol, for every execution mode.

    A version is one (xi, rho, r) snapshot and its work items are the
    scenarios.  Aggregation and the multiplier update touch every scenario at
    once using each scenario's latest available solution, so multiplier
    conservation is preserved.  The convergence test runs right after an
    aggregation that follows the completion of some version, so every
    scenario's solution in it is at least as new as that version.
    """

    def __init__(self, problem, cfg, state: PhState):
        self.p = problem
        self.cfg = cfg
        self.state = state
        self.probs = problem.probabilities
        self.n_items = problem.nscen
        self.finished = False
        self.status = "iteration_limit"
        self.stamp = np.zeros(problem.nscen, dtype=int)
        self.resolved = False      # some version completed since the last aggregation
        self.trace = []
        self.warm = [None] * problem.nscen

    def initial_decision(self):
        return self._decision()

    def _decision(self):
        snap = (self.state.xi.copy(), self.state.rho.copy(), self.state.r)
        return VersionedDecision(version=self.state.iteration, payload=snap,
                                 iteration=self.state.iteration)

    def worker_payload(self, decision, index):
        xi, rho, r = decision.payload
        return solve_ph_subproblem(self.p.first, self.p.shape,
                                   self.p.scenarios[index], xi, rho[index], r,
                                   self.cfg.kernel, warm=self.warm[index],
                                   linearize=self.cfg.linearize,
                                   scenario_index=index)

    def incorporate(self, env):
        if self.finished:
            return      # results drained after the stop leave the run as reported
        s = env.index
        x_s, y_s, _, ipm = env.payload
        self.warm[s] = ipm
        if env.version >= self.stamp[s]:
            self.stamp[s] = env.version
            self.state.xs[s] = x_s
            self.state.ys[s] = y_s

    def complete(self, version, decision):
        self.resolved = True

    def advance(self):
        st, cfg = self.state, self.cfg
        st.iteration += 1
        xi_new = aggregate_implementable(st.xs, self.probs)
        st.primal_gap = float(np.sum((xi_new - st.xi) ** 2))
        st.xi = xi_new
        diffs = st.xs - xi_new
        st.dual_gap = float(self.probs @ np.sum(diffs * diffs, axis=1))
        st.rho = update_multipliers(st.rho, st.xs, xi_new, st.r)
        if cfg.penalty == "adaptive":
            _maybe_adapt(st, cfg)
        self.trace.append({"iteration": st.iteration, "primal_gap": st.primal_gap,
                           "dual_gap": st.dual_gap, "penalty": st.r,
                           "objective": _objective(self.p, st),
                           "multiplier_drift": st.multiplier_drift(self.probs)})
        resolved, self.resolved = self.resolved, False
        if resolved and st.primal_gap <= cfg.primal_tol and st.dual_gap <= cfg.dual_tol:
            self.status = "optimal"
            self.finished = True
            return None
        if st.iteration >= cfg.max_iterations:
            self.finished = True
            return None
        return self._decision()
