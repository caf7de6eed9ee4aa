"""Samplers, sampled-instance construction, and the SAA driver.

Samplers are deterministic maps (seed, index) -> Scenario backed by the
counter-based Philox generator, so identical inputs reproduce identical
scenarios on any platform and samples can be drawn concurrently.

The SAA driver follows the multiple-replication layout: M lower-bound
batches of n scenarios each, an upper estimate from evaluating the
incumbent decision on fresh scenarios, and a combined gap interval whose
relative width drives the sample-size growth loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.stats

from . import kernel, model as _model
from .errors import TooFewBatches
from .lshaped import recourse_values
from .model import (
    Scenario,
    StochasticModel,
    TwoStageProblem,
    build_problem,
    minimization_form,
    scenario_key,
)


def scenario_rng(seed, index) -> np.random.Generator:
    """Independent stream for one (seed, index) pair via Philox keying."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*parts) -> int:
    """Stable scalar sub-seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class DiscreteSampler:
    """Empirical sampler over a fixed scenario list with given weights."""

    scenarios: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size != len(self.scenarios):
            raise ValueError("one weight per scenario required")
        object.__setattr__(self, "weights", tuple(w / w.sum()))

    def sample(self, seed, index) -> Scenario:
        rng = scenario_rng(seed, index)
        k = int(rng.choice(len(self.scenarios), p=np.asarray(self.weights)))
        return self.scenarios[k]


@dataclass(frozen=True)
class NormalSampler:
    """Multivariate normal over designated (q, T, h) entries of a template.

    ``targets`` names where each sampled component lands: ("q", j),
    ("h", i), or ("T", i, j).
    """

    mean: np.ndarray
    cov: np.ndarray
    template: Scenario
    targets: tuple

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean vector")
        if len(self.targets) != mean.size:
            raise ValueError("one target per sampled component required")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def sample(self, seed, index) -> Scenario:
        rng = scenario_rng(seed, index)
        draw = rng.multivariate_normal(self.mean, self.cov, method="cholesky")
        q = self.template.q.copy()
        h = self.template.h.copy()
        T = self.template.T.copy()
        for value, target in zip(draw, self.targets):
            kind = target[0]
            if kind == "q":
                q[target[1]] = value
            elif kind == "h":
                h[target[1]] = value
            elif kind == "T":
                T[target[1], target[2]] = value
            else:
                raise ValueError(f"unknown sample target {target!r}")
        return replace(self.template, q=q, T=T, h=h, probability=1.0)


def sample_instance(model: StochasticModel, sampler, n, seed) -> TwoStageProblem:
    """Finite instance of n sampled scenarios, each with probability 1/n."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    scenarios = [replace(sampler.sample(seed, i), probability=1.0 / n)
                 for i in range(n)]
    return build_problem(model.first, model.shape, scenarios)


def _collapse_duplicates(scenarios):
    """Merge identical sampled scenarios into weighted ones (exact for the DEP)."""
    merged = {}
    order = []
    for s in scenarios:
        key = scenario_key(s)
        if key in merged:
            merged[key] = replace(merged[key],
                                  probability=merged[key].probability + s.probability)
        else:
            merged[key] = s
            order.append(key)
    return [merged[k] for k in order]


@dataclass
class ConfidenceReport:
    point: float
    lo: float
    hi: float
    level: float
    n: int = 0
    batches: int = 0
    relative_error: float = np.nan
    seed: int = None
    flags: list = field(default_factory=list)

    def to_dict(self):
        return {"point": self.point, "lo": self.lo, "hi": self.hi,
                "level": self.level, "n": self.n, "batches": self.batches,
                "relative_error": self.relative_error, "seed": self.seed,
                "flags": list(self.flags)}


def confidence_interval(values, level=0.95) -> ConfidenceReport:
    """Student-t interval around the mean of independent batch estimates."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise TooFewBatches("need at least 2 batch values for an interval")
    m = values.size
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    t = float(scipy.stats.t.ppf(0.5 * (1.0 + level), m - 1))
    half = t * sd / np.sqrt(m)
    rel = (2 * half) / (2 * max(abs(mean), 1e-12))
    return ConfidenceReport(point=mean, lo=mean - half, hi=mean + half,
                            level=level, batches=m, relative_error=rel)


@dataclass
class SaaConfig:
    confidence: float = 0.95
    rel_tol: float = 5e-2
    n0: int = 16
    batches: int = 10          # lower-bound replications per round
    eval_samples: int = 1000
    growth: float = 2.0
    max_n: int = 8192

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.batches < 2:
            raise TooFewBatches("need at least 2 batches")


@dataclass
class SaaResult:
    report: ConfidenceReport
    decision: np.ndarray
    n: int
    rounds: int
    budget_exceeded: bool = False
    lower: ConfidenceReport = None
    upper: ConfidenceReport = None


def _solve_dep_value(problem, kcfg=None):
    lp = _model.build_deterministic_equivalent(problem)   # looked up per call, so wrappers see it
    sol = kernel.solve_lp(lp, kcfg)
    if sol.status != kernel.OPTIMAL:
        raise kernel.NumericalBreakdown(f"sampled instance ended {sol.status}")
    return sol.objective, sol.x[:problem.n]


def _batch_instance(model, sampler, n, seed):
    """Sampled instance of n scenarios, identical draws merged into one."""
    scenarios = [replace(sampler.sample(seed, i), probability=1.0 / n)
                 for i in range(n)]
    return build_problem(model.first, model.shape, _collapse_duplicates(scenarios))


def evaluate_on_samples(model, sampler, x, n_eval, seed, kcfg=None):
    """Per-sample value c^T x + Q_s(x) of a fixed decision, internal orientation.

    The orientation is the one :func:`build_problem` gives the sampled
    instances, so the estimates of an SAA run score the same objective.
    Identical sampled scenarios are solved once (exact for the returned
    sample statistics), which makes discrete samplers cheap to evaluate.
    """
    first, shape, scenarios = minimization_form(
        model.first, model.shape, [sampler.sample(seed, i) for i in range(n_eval)])
    return float(first.c @ x) + recourse_values(shape, scenarios, x, kcfg)


def saa_solve(model: StochasticModel, sampler, cfg: SaaConfig = None,
              seed=0, kcfg=None) -> SaaResult:
    """Grow the per-batch sample size until the gap interval is relatively tight.

    Each round solves ``batches`` sampled instances of size n (lower-bound
    estimates), evaluates the median batch decision on fresh scenarios
    (upper estimate), and forms the conservative interval
    [lower CI low, upper CI high].
    """
    cfg = cfg or SaaConfig()
    n = cfg.n0
    rounds = 0
    result = None
    while True:
        rounds += 1
        vals = np.empty(cfg.batches)
        decisions = []
        for j in range(cfg.batches):
            inst = _batch_instance(model, sampler, n, derive_seed(seed, rounds, j))
            v, x = _solve_dep_value(inst, kcfg)
            vals[j] = v
            decisions.append(x)
        lower = confidence_interval(vals, cfg.confidence)
        x_hat = decisions[int(np.argsort(vals)[vals.size // 2])]
        evals = evaluate_on_samples(model, sampler, x_hat, cfg.eval_samples,
                                    derive_seed(seed, rounds, 10009), kcfg)
        u_mean = float(evals.mean())
        u_sd = float(evals.std(ddof=1))
        t = float(scipy.stats.t.ppf(0.5 * (1.0 + cfg.confidence), evals.size - 1))
        u_half = t * u_sd / np.sqrt(evals.size)
        upper = ConfidenceReport(point=u_mean, lo=u_mean - u_half, hi=u_mean + u_half,
                                 level=cfg.confidence, n=evals.size, batches=1)
        # union of the two interval estimates: equals [lower.lo, upper.hi]
        # normally, and stays ordered when sampling noise crosses them
        lo = min(lower.lo, upper.lo)
        hi = max(lower.hi, upper.hi)
        if model.first.sense == "max":   # report in the declared orientation
            lo, hi = -hi, -lo
        point = 0.5 * (lo + hi)
        rel = (hi - lo) / (2 * max(abs(point), 1e-12))
        rep = ConfidenceReport(point=point, lo=lo, hi=hi, level=cfg.confidence,
                               n=n, batches=cfg.batches, relative_error=rel,
                               seed=seed)
        result = SaaResult(report=rep, decision=x_hat, n=n, rounds=rounds,
                           lower=lower, upper=upper)
        if rel <= cfg.rel_tol:
            return result
        nxt = int(np.ceil(n * cfg.growth))
        if nxt > cfg.max_n:
            rep.flags.append("budget_exceeded")
            result.budget_exceeded = True
            return result
        n = nxt
