"""Stochastic-programming measures: EWS, EVPI, EEV, VSS, decision evaluation.

The VRP is ``lshaped.vrp``: the DEP up to ``lshaped.DEP_ROW_BUDGET`` rows, L-shaped beyond.
All measures are computed on the internal minimization form, where
EWS <= VRP <= EEV, so EVPI = VRP - EWS and VSS = EEV - VRP are nonnegative
up to solver tolerance; reported values are orientation-independent.
Tiny negatives are clamped to zero (the raw value is kept in the
components); larger negatives indicate a solver bug and raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import FirstStageInfeasible, SecondStageInfeasible, StochLPError
from .lshaped import recourse_values, vrp
from .model import build_deterministic_equivalent  # noqa: F401 - perfbench/tracing.py wraps it here
from .model import (
    LPInstance,
    StochasticModel,
    TwoStageProblem,
    build_expected_value_problem,
    build_wait_and_see,
)
from .sampling import (
    ConfidenceReport,
    SaaConfig,
    _batch_instance,
    confidence_interval,
    derive_seed,
    evaluate_on_samples,
    saa_solve,
)

MEASURE_TOL = 1e-6


class InternalConsistencyError(StochLPError):
    """A theorem-level inequality failed beyond tolerance; indicates a solver bug."""


@dataclass
class MeasureResult:
    measure: str
    mode: str                      # exact | sampled
    value: float = None
    interval: ConfidenceReport = None
    components: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def to_dict(self):
        d = {"measure": self.measure, "mode": self.mode, "flags": list(self.flags),
             "components": {k: (v if np.isscalar(v) else np.asarray(v).tolist())
                            for k, v in self.components.items()}}
        if self.value is not None:
            d["value"] = self.value
        if self.interval is not None:
            d["interval"] = self.interval.to_dict()
        return d


def evaluate_decision(p: TwoStageProblem, x):
    """Expected result c^T x + sum_s pi_s Q_s(x) of a first-stage decision.

    Returns +inf when some scenario is second-stage infeasible at x.  The
    candidate must satisfy the first-stage constraints.
    """
    x = np.asarray(x, dtype=float)
    first = p.first
    probe = LPInstance(c=np.zeros(first.n), A=first.A, rhs=first.b,
                       row_senses=first.row_senses, lb=first.lb, ub=first.ub)
    viol = kernel.primal_violation(probe, x)
    if viol > 1e-6:
        raise FirstStageInfeasible(f"candidate violates the first stage by {viol:.3g}")
    try:
        values = recourse_values(p.batch, x)
    except SecondStageInfeasible:
        return np.inf
    return float(first.c @ x + p.probabilities @ values)


def wait_and_see_solutions(p: TwoStageProblem):
    """Optimal (x, y) and value of each scenario's wait-and-see LP, as arrays
    (S, n + m) and (S,); the lowest scenario whose LP is not optimal raises.

    The LPs are the members of the problem's ``wait_and_see`` form, one
    kernel LP family when they share its matrix and row senses.  Otherwise
    every member is excluded, so each LP is solved alone, warm from the
    optimal basis of the one before.
    """
    form, S = p.wait_and_see, p.nscen
    xs, values = np.empty((S, form.c.shape[1])), np.empty(S)

    def solve(s, warm):
        sol = kernel.solve_lp(build_wait_and_see(p, s), warm_start=warm)
        kernel.require_optimal(sol, "wait-and-see LP", s)
        xs[s], values[s] = sol.x, sol.objective
        return sol.basis

    family = kernel.LPFamily(form.A[0], form.row_senses[0], form.c, form.lb, form.ub,
                             excluded=np.full(S, not form.shared))
    pooled, x, _, objective = kernel.solve_family(family, np.arange(S), form.rhs, solve)
    xs[pooled], values[pooled] = x[pooled], objective[pooled]
    return xs, values


def ews(p: TwoStageProblem):
    """Probability-weighted sum of wait-and-see optima."""
    _, values = wait_and_see_solutions(p)
    return float(p.probabilities @ values)


def _clamp(name, value, scale):
    if value < -MEASURE_TOL * (1.0 + abs(scale)):
        raise InternalConsistencyError(
            f"{name} = {value:.6g} is negative beyond tolerance")
    return max(value, 0.0), value


def _evpi_result(v, w):
    val, raw = _clamp("EVPI", v - w, v)
    return MeasureResult(measure="evpi", mode="exact", value=val,
                         components={"ews": w, "vrp": v, "raw": raw})


def evpi(p: TwoStageProblem) -> MeasureResult:
    """Expected value of perfect information: VRP - EWS >= 0 (minimization)."""
    v, _ = vrp(p)
    return _evpi_result(v, ews(p))


def expected_value_decision(p: TwoStageProblem):
    lp = build_expected_value_problem(p)
    sol = kernel.require_optimal(kernel.solve_lp(lp), "expected-value problem")
    return sol.x[:p.n]


def eev(p: TwoStageProblem):
    """Expected result of the expected-value decision (+inf if infeasible)."""
    x_bar = expected_value_decision(p)
    return evaluate_decision(p, x_bar), x_bar


def _vss_result(v, e, x_bar):
    if np.isinf(e):
        return MeasureResult(measure="vss", mode="exact", value=np.inf,
                             components={"eev": np.inf, "vrp": v, "x_bar": x_bar},
                             flags=["eev_infinite"])
    val, raw = _clamp("VSS", e - v, v)
    return MeasureResult(measure="vss", mode="exact", value=val,
                         components={"eev": e, "vrp": v, "raw": raw, "x_bar": x_bar})


def vss(p: TwoStageProblem) -> MeasureResult:
    """Value of the stochastic solution: EEV - VRP >= 0 (minimization)."""
    v, _ = vrp(p)
    return _vss_result(v, *eev(p))


MEASURES = ("vrp", "ews", "eev", "evpi", "vss")     # the names all_measures returns


def all_measures(p: TwoStageProblem) -> dict:
    v, x = vrp(p)
    w = ews(p)
    e, x_bar = eev(p)
    return {
        "vrp": MeasureResult("vrp", "exact", value=v, components={"x": x}),
        "ews": MeasureResult("ews", "exact", value=w),
        "eev": MeasureResult("eev", "exact", value=e, components={"x_bar": x_bar}),
        "evpi": _evpi_result(v, w),
        "vss": _vss_result(v, e, x_bar),
    }


def sampled_measures(model: StochasticModel, sampler, cfg: SaaConfig = None, seed=0) -> dict:
    """Interval estimates of VRP, EVPI and VSS from independent SAA batches.

    Each measure uses its own independent batches; difference intervals add
    widths conservatively.  A VSS interval that straddles zero is flagged as
    statistically insignificant.  The EWS and EEV batches use the sample
    size the SAA run settles on, which starts from ``cfg.n0``.
    """
    cfg = cfg or SaaConfig()
    saa = saa_solve(model, sampler, cfg, seed=seed)
    vrp_iv = saa.report

    ews_vals = np.empty(cfg.batches)
    eev_vals = np.empty(cfg.batches)
    for j in range(cfg.batches):
        inst_e = _batch_instance(model, sampler, saa.n, derive_seed(seed, 7001, j))
        ews_vals[j] = ews(inst_e)
        inst_v = _batch_instance(model, sampler, saa.n, derive_seed(seed, 7002, j))
        x_bar = expected_value_decision(inst_v)
        evals = evaluate_on_samples(model, sampler, x_bar, max(cfg.eval_samples // 4, 32),
                                    derive_seed(seed, 7003, j))
        eev_vals[j] = float(evals.mean())
    ews_iv = confidence_interval(ews_vals, cfg.confidence)
    eev_iv = confidence_interval(eev_vals, cfg.confidence)

    evpi_lo = max(0.0, vrp_iv.lo - ews_iv.hi)
    evpi_hi = max(0.0, vrp_iv.hi - ews_iv.lo)
    evpi_iv = ConfidenceReport(point=0.5 * (evpi_lo + evpi_hi), lo=evpi_lo,
                               hi=evpi_hi, level=cfg.confidence, n=saa.n,
                               batches=cfg.batches, seed=seed)
    vss_lo = eev_iv.lo - vrp_iv.hi
    vss_hi = eev_iv.hi - vrp_iv.lo
    vss_iv = ConfidenceReport(point=0.5 * (vss_lo + vss_hi), lo=vss_lo, hi=vss_hi,
                              level=cfg.confidence, n=saa.n,
                              batches=cfg.batches, seed=seed)
    vss_flags = []
    if vss_lo <= 0.0 <= vss_hi:
        vss_flags.append("not_statistically_significant")

    return {
        "vrp": MeasureResult("vrp", "sampled", interval=vrp_iv,
                             components={"decision": saa.decision}),
        "evpi": MeasureResult("evpi", "sampled", interval=evpi_iv,
                              components={"ews": ews_iv.to_dict()}),
        "vss": MeasureResult("vss", "sampled", interval=vss_iv,
                             components={"eev": eev_iv.to_dict()}, flags=vss_flags),
    }
