"""Samplers, sampled-instance construction, and the SAA driver.

A sampler's ``sample(seed, index)`` is one draw (a normal vector or a record's
index) on a counter-based Philox generator keyed by the pair, so draws repeat on
any platform; ``batch(shape, n, seed)`` stacks draws 0..n-1 into one batch.
Each thread keeps one ``Generator(Philox)``, made on its first draw; a draw
resets it to key (seed, index) at counter 0, the state ``Philox(key=...)``
starts in, instead of building a generator.  A discrete draw is one uniform
searched in the cumulative weights, which are kept at construction.

The SAA driver follows the multiple-replication layout (Mak, Morton and
Wood 1999): M lower-bound batches of n scenarios each, solved by
``lshaped.vrp``, an upper estimate from evaluating the incumbent decision
on fresh scenarios, and a combined gap interval whose relative width
drives the sample-size growth loop.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.stats

from .errors import ConfigError, EmptyScenarioSet, TooFewBatches
from .lshaped import recourse_values, vrp
from .model import (
    Scenario,
    ScenarioBatch,
    StochasticModel,
    TwoStageProblem,
    _store,
    check_targets,
    duplicate_owners,
    minimization_form,
    problem_from_batch,
    stack_arrays,
    stack_scenarios,
    write_targets,
)


_MASK = 0xFFFFFFFFFFFFFFFF
_thread = threading.local()      # .rng: this thread's generator, made on its first draw


def _keyed_rng(seed, index) -> np.random.Generator:
    """This thread's generator, reset to Philox key (seed, index) and counter 0.

    It draws the bits of ``Generator(Philox(key=[seed, index]))``, both
    masked to 64 bits, until the next call on this thread resets it: take
    the draw before calling again.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox())
    # plain ints: the setter reads each entry as a uint64, and builds no arrays
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(seed) & _MASK, int(index) & _MASK)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def derive_seed(*parts) -> int:
    """Stable scalar sub-seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class DiscreteSampler:
    """Empirical sampler over a fixed scenario list with given weights."""

    scenarios: tuple
    weights: tuple
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        ok = np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0   # False if empty
        if w.size != len(self.scenarios) or not ok:
            raise ValueError(f"need one finite, non-negative weight per scenario, of positive "
                             f"sum: {len(self.scenarios)} scenarios, weights {self.weights!r}")
        w = w / w.sum()
        cdf = w.cumsum()
        _store(self, weights=tuple(w), cdf=cdf / cdf[-1])

    def sample(self, seed, index) -> int:
        """The index of the drawn record: what ``Generator.choice(p=weights)`` draws."""
        u = _keyed_rng(seed, index).random()
        return int(self.cdf.searchsorted(u, side="right"))

    def batch(self, shape, n, seed) -> ScenarioBatch:
        """The records of n draws, each with probability 1/n."""
        drawn = [self.sample(seed, i) for i in range(n)]
        return stack_scenarios(shape, self.scenarios).rows(drawn, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class NormalSampler:
    """Multivariate normal over designated (q, T, h) entries of a template.

    ``targets`` names where each sampled component lands, in the format of
    :func:`stochlp.model.write_targets`.  The covariance must be positive
    definite: its Cholesky factor is taken once, here, and each draw is
    ``mean + z @ factor.T`` for a standard normal ``z``, the same numbers as
    ``Generator.multivariate_normal(mean, cov, method="cholesky")``.
    """

    mean: np.ndarray
    cov: np.ndarray
    template: Scenario
    targets: tuple
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean vector")
        if len(self.targets) != mean.size:
            raise ValueError("one target per sampled component required")
        t = self.template     # a target outside it fails here, not at the first draw
        check_targets(self.targets, t.q, t.T, t.h)
        try:
            factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        _store(self, mean=mean, cov=cov, factor=factor)

    def sample(self, seed, index) -> np.ndarray:
        """The sampled components of draw ``index``, one per target."""
        return self.mean + _keyed_rng(seed, index).standard_normal(self.mean.size) @ self.factor.T

    def batch(self, shape, n, seed) -> ScenarioBatch:
        """The template with n draws written in, each with probability 1/n."""
        t = self.template
        q, T, h = write_targets(t.q, t.T, t.h, self.targets,
                                [self.sample(seed, i) for i in range(n)])
        return stack_arrays(shape, np.full(n, 1.0 / n), q, T, h,
                            [t.lb] * n, [t.ub] * n, [t.row_senses] * n)


def _draws(sampler, shape, n, seed) -> ScenarioBatch:
    """The n scenarios ``sampler`` draws for ``seed``, stacked, each with probability 1/n."""
    if n < 1:
        raise EmptyScenarioSet("a problem needs at least one scenario")
    return sampler.batch(shape, n, seed)


def sample_instance(model: StochasticModel, sampler, n, seed) -> TwoStageProblem:
    """Finite instance of n sampled scenarios, each with probability 1/n."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return problem_from_batch(model.first, _draws(sampler, model.shape, n, seed))


def _collapse_duplicates(batch: ScenarioBatch) -> ScenarioBatch:
    """Merge identical sampled scenarios into weighted ones (exact for the
    recourse problem); first occurrences keep their place."""
    keep, copy_of = np.unique(duplicate_owners(batch), return_inverse=True)
    return batch.rows(keep, np.bincount(copy_of, weights=batch.probability))


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
        return asdict(self)


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


_GROWTH = 2.0       # factor by which each SAA round grows the sample size


@dataclass
class SaaConfig:
    confidence: float = 0.95
    rel_tol: float = 5e-2
    n0: int = 16
    batches: int = 10          # lower-bound replications per round
    eval_samples: int = 1000
    max_n: int = 8192

    def __post_init__(self):
        if not 0 < self.confidence < 1:
            raise ConfigError("confidence must be in (0, 1)")
        if self.rel_tol <= 0:
            raise ConfigError("rel_tol must be > 0")
        if self.n0 < 1:
            raise ConfigError("n0 must be >= 1")
        if self.batches < 2:
            raise TooFewBatches("need at least 2 batches")
        if self.eval_samples < 1:
            raise ConfigError("eval_samples must be >= 1")
        if self.max_n < self.n0:
            raise ConfigError("max_n must be >= n0")


@dataclass
class SaaResult:
    report: ConfidenceReport
    decision: np.ndarray
    n: int
    rounds: int
    budget_exceeded: bool = False
    lower: ConfidenceReport = None
    upper: ConfidenceReport = None


def _batch_instance(model, sampler, n, seed):
    """Sampled instance of n scenarios, identical draws merged into one."""
    return problem_from_batch(model.first,
                              _collapse_duplicates(_draws(sampler, model.shape, n, seed)))


def evaluate_on_samples(model, sampler, x, n_eval, seed):
    """Per-sample value c^T x + Q_s(x) of a fixed decision, internal orientation.

    The orientation is the one :func:`build_problem` gives the sampled
    instances, so the estimates of an SAA run score the same objective.
    Identical sampled scenarios are solved once (exact for the returned
    sample statistics), which makes discrete samplers cheap to evaluate,
    and the recourse values are bunched (``lshaped.solve_recourse``).
    """
    first, batch = minimization_form(model.first, _draws(sampler, model.shape, n_eval, seed))
    return float(first.c @ x) + recourse_values(batch, x)


def saa_solve(model: StochasticModel, sampler, cfg: SaaConfig = None, seed=0) -> SaaResult:
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
        solved = [vrp(_batch_instance(model, sampler, n, derive_seed(seed, rounds, j)))
                  for j in range(cfg.batches)]
        vals = np.array([v for v, _ in solved])
        lower = confidence_interval(vals, cfg.confidence)
        x_hat = solved[int(np.argsort(vals)[vals.size // 2])][1]
        evals = evaluate_on_samples(model, sampler, x_hat, cfg.eval_samples,
                                    derive_seed(seed, rounds, 10009))
        upper = replace(confidence_interval(evals, cfg.confidence), n=evals.size, batches=1)
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
        nxt = int(np.ceil(n * _GROWTH))
        if nxt > cfg.max_n:
            rep.flags.append("budget_exceeded")
            result.budget_exceeded = True
            return result
        n = nxt
