"""Two-stage stochastic LP data model and derived deterministic programs.

A problem is a first-stage LP plus a finite list of weighted scenarios that
share one recourse shape (fixed W).  This module alone decides how that data
is held: every matrix is stored dense (sparse input is converted once, at
construction), the scenarios are kept once, as one read-only
:class:`ScenarioBatch`, and all data is normalized to minimization by
:func:`minimization_form`; reported objective values are un-negated for
problems that were declared as maximization.

Row senses are the strings "<=", ">=", "=".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    EmptyScenarioSet,
    IndexOutOfRange,
    NonPositiveProbability,
    ProbabilityMassError,
    ProblemTooLarge,
)

ROW_SENSES = ("<=", ">=", "=")

PROB_NORMALIZE_TOL = 1e-6   # drift below this is silently normalized
PROB_ERROR_TOL = 0.1        # drift beyond this is a modeling mistake
DEP_MAX_BYTES = 2**31       # largest [A | I] tableau of the DEP the kernel may build


def _as_vector(v, name, n=None):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(name, f"({n if n is not None else 'k'},)", a.shape)
    if n is not None and a.shape != (n,):
        raise DimensionMismatch(name, (n,), a.shape)
    return a


def _as_matrix(m, name):
    """A 2-D float matrix.  Every matrix is stored dense, so sparse input is
    converted here, once."""
    a = np.asarray(m.toarray() if sp.issparse(m) else m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(name, "(rows, cols)", a.shape)
    return a


def _check_senses(senses, m, name):
    out = tuple(senses)
    if len(out) != m:
        raise DimensionMismatch(name, (m,), (len(out),))
    for s in out:
        if s not in ROW_SENSES:
            raise ValueError(f"{name}: unknown row sense {s!r}, expected one of {ROW_SENSES}")
    return out


def _store(obj, **fields):
    """Set the normalized ``fields`` of the frozen dataclass ``obj``."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _default_bounds(n, lb, ub):
    lo = np.zeros(n) if lb is None else _as_vector(lb, "lb", n)
    hi = np.full(n, np.inf) if ub is None else _as_vector(ub, "ub", n)
    if (lo > hi).any():
        bad = int(np.argmax(lo > hi))
        raise ValueError(f"variable {bad}: lower bound {lo[bad]} exceeds upper bound {hi[bad]}")
    if (lo == np.inf).any() or (hi == -np.inf).any() or np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("bounds must satisfy lb < +inf and ub > -inf")
    return lo, hi


@dataclass(frozen=True)
class FirstStage:
    """First-stage LP data: min/max c^T x s.t. A x (senses) b, lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray      # (p, n)
    b: np.ndarray
    row_senses: tuple = None
    lb: np.ndarray = None
    ub: np.ndarray = None
    sense: str = "min"

    def __post_init__(self):
        c = _as_vector(self.c, "first-stage c")
        n = c.size
        A = _as_matrix(self.A, "first-stage A")
        if A.shape[1] != n:
            raise DimensionMismatch("first-stage A", (A.shape[0], n), A.shape)
        b = _as_vector(self.b, "first-stage b", A.shape[0])
        senses = _check_senses(
            self.row_senses if self.row_senses is not None else ("<=",) * A.shape[0],
            A.shape[0], "first-stage row_senses")
        lo, hi = _default_bounds(n, self.lb, self.ub)
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        _store(self, c=c, A=A, b=b, row_senses=senses, lb=lo, ub=hi)

    @property
    def n(self):
        return self.c.size

    @property
    def p(self):
        return self.b.size


@dataclass(frozen=True)
class RecourseShape:
    """Recourse matrix W shared by every scenario, plus second-stage defaults."""

    W: np.ndarray      # (r, m)
    sense: str = "min"
    row_senses: tuple = None
    lb: np.ndarray = None
    ub: np.ndarray = None

    def __post_init__(self):
        W = _as_matrix(self.W, "recourse W")
        r, m = W.shape
        senses = _check_senses(
            self.row_senses if self.row_senses is not None else ("=",) * r,
            r, "second-stage row_senses")
        lo, hi = _default_bounds(m, self.lb, self.ub)
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        _store(self, W=W, row_senses=senses, lb=lo, ub=hi)

    @property
    def m(self):
        return self.W.shape[1]

    @property
    def r(self):
        return self.W.shape[0]


@dataclass(frozen=True)
class Scenario:
    """One realization as an input or output record: probability plus the
    scenario-dependent (q, T, h); :func:`stack_scenarios` stacks records.

    Bounds and row senses default to the recourse shape's; pass them only
    when a scenario overrides the defaults.
    """

    probability: float
    q: np.ndarray
    T: np.ndarray      # (r, n)
    h: np.ndarray
    lb: np.ndarray = None
    ub: np.ndarray = None
    row_senses: tuple = None

    def __post_init__(self):
        if not np.isfinite(self.probability) or self.probability <= 0:
            raise NonPositiveProbability(f"scenario probability must be > 0, got {self.probability}")
        _store(self, q=_as_vector(self.q, "scenario q"), T=_as_matrix(self.T, "scenario T"),
               h=_as_vector(self.h, "scenario h"))


def check_targets(targets, q, T, h):
    """Raise ``ValueError`` unless each target, ("q", j), ("h", i) or ("T", i, j),
    names an entry of (q, T, h) by non-negative indices."""
    shapes = {"q": np.shape(q), "T": np.shape(T), "h": np.shape(h)}
    for target in targets:
        size = shapes.get(target[0], (0,))
        if len(target) != len(size) + 1 or not all(0 <= i < k for i, k in zip(target[1:], size)):
            raise ValueError(f"unknown scenario data target {target!r}: q, T and h have "
                             f"shapes {shapes['q']}, {shapes['T']} and {shapes['h']}")


def write_targets(q, T, h, targets, values):
    """The template (q, T, h) stacked once per row of the (S, k) ``values``,
    with column j written at ``targets[j]``, in order (a repeated target
    takes its last column); :func:`check_targets` checks the targets first.
    """
    check_targets(targets, q, T, h)
    values = np.asarray(values, dtype=float)
    out = {name: np.repeat(np.asarray(a, dtype=float)[None], values.shape[0], axis=0)
           for name, a in (("q", q), ("T", T), ("h", h))}
    for target, column in zip(targets, values.T):
        out[target[0]][(slice(None), *target[1:])] = column
    return out["q"], out["T"], out["h"]


@dataclass(frozen=True)
class ScenarioBatch:
    """A problem's scenario data, stacked along a leading scenario axis.

    ``probability`` is (S,), ``q`` (S, m), ``T`` (S, r, n), ``h`` (S, r),
    and ``lb``/``ub`` (S, m) and ``senses`` (S,) are the effective bounds
    and row senses (a scenario's override, else the shape's).
    ``own_senses`` (S,), derived from them, marks the scenarios whose row
    senses differ from the shape's.  Every array is read-only.
    """

    shape: RecourseShape
    probability: np.ndarray
    q: np.ndarray
    T: np.ndarray
    h: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    senses: tuple
    own_senses: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.probability.size == 0:
            raise EmptyScenarioSet("a problem needs at least one scenario")
        _store(self, own_senses=np.array([x != self.shape.row_senses for x in self.senses]))
        for a in (self.probability, self.q, self.T, self.h, self.lb, self.ub, self.own_senses):
            a.flags.writeable = False

    @property
    def size(self):
        return self.probability.size

    def rows(self, idx, probability):
        """The scenarios ``idx`` of this batch, in that order, with new probabilities."""
        return ScenarioBatch(shape=self.shape, probability=np.asarray(probability, dtype=float),
                             q=self.q[idx], T=self.T[idx], h=self.h[idx], lb=self.lb[idx],
                             ub=self.ub[idx], senses=tuple(self.senses[k] for k in idx))


def _stacked(rows, name, size):
    """``rows`` stacked along a new leading axis; the first not of shape ``size`` is named."""
    try:
        a = np.array(rows, dtype=float)
        if a.shape[1:] == size:
            return a
    except ValueError:       # ragged rows, or rows that are not numbers
        pass
    for k, row in enumerate(rows):
        if np.shape(row) != size:
            raise DimensionMismatch(f"scenario {k} {name}", size, np.shape(row))
    return np.array(rows, dtype=float)


def stack_arrays(shape: RecourseShape, probability, q, T, h, lb, ub, senses) -> ScenarioBatch:
    """The checked :class:`ScenarioBatch` of per-scenario data, with ``shape``'s defaults resolved.

    Each argument holds one entry per scenario: a positive probability, its
    (m,) q, (r, n) T and (r,) h (n is the first scenario's), and its bounds
    and row senses, None where it takes the shape's.
    """
    probability = np.array(probability, dtype=float)
    if probability.size == 0:
        raise EmptyScenarioSet("a problem needs at least one scenario")
    bad = np.flatnonzero(~(np.isfinite(probability) & (probability > 0)))
    if bad.size:
        raise NonPositiveProbability(
            f"scenario {bad[0]} probability must be > 0, got {probability[bad[0]]}")
    senses = tuple(shape.row_senses if x is None
                   else _check_senses(x, shape.r, f"scenario {k} row_senses")
                   for k, x in enumerate(senses))
    return ScenarioBatch(
        shape=shape, probability=probability,
        q=_stacked(q, "q", (shape.m,)),
        T=_stacked(T, "T", (shape.r, np.shape(T[0])[-1])),
        h=_stacked(h, "h", (shape.r,)),
        lb=_stacked([shape.lb if x is None else x for x in lb], "lb", (shape.m,)),
        ub=_stacked([shape.ub if x is None else x for x in ub], "ub", (shape.m,)),
        senses=senses)


def stack_scenarios(shape: RecourseShape, scenarios) -> ScenarioBatch:
    """The :class:`ScenarioBatch` of the :class:`Scenario` records ``scenarios``."""
    scenarios = tuple(scenarios)
    return stack_arrays(shape, *([getattr(s, name) for s in scenarios] for name in
                                 ("probability", "q", "T", "h", "lb", "ub", "row_senses")))


def duplicate_owners(batch: ScenarioBatch):
    """For each scenario of ``batch``, the first one with the same data (q, T, h, bounds
    and row senses): their recourse LPs are identical, and a merge keeps that one."""
    rows = np.hstack([batch.q, batch.T.reshape(batch.size, -1), batch.h, batch.lb, batch.ub])
    first = {}
    return np.array([first.setdefault((row.tobytes(), senses), k)
                     for k, (row, senses) in enumerate(zip(rows, batch.senses))])


@dataclass(frozen=True)
class StochasticModel:
    """A first stage plus a recourse shape, without any scenario set yet.

    Combine with explicit scenarios via :func:`build_problem` or with a
    sampler via :func:`stochlp.sampling.sample_instance`.
    """

    first: FirstStage
    shape: RecourseShape


@dataclass(frozen=True)
class TwoStageProblem:
    """A finite two-stage stochastic LP, normalized to minimization.

    Construct via :func:`problem_from_batch` or :func:`build_problem`; the
    constructor arguments here are assumed already normalized.
    """

    first: FirstStage
    batch: ScenarioBatch
    declared_first_sense: str = "min"
    declared_second_sense: str = "min"

    @property
    def shape(self) -> RecourseShape:
        return self.batch.shape

    @property
    def n(self):
        return self.first.n

    @property
    def m(self):
        return self.shape.m

    @property
    def r(self):
        return self.shape.r

    @property
    def nscen(self):
        return self.batch.size

    @property
    def probabilities(self):
        return self.batch.probability

    @cached_property
    def wait_and_see(self) -> WaitAndSeeForm:
        """Every scenario's wait-and-see LP, stacked, built on first use and then kept."""
        return stack_wait_and_see(self.first, self.batch)

    def report_value(self, internal_value):
        """Map an internal (minimization) objective back to the declared sense."""
        return -internal_value if self.declared_first_sense == "max" else internal_value


@dataclass(frozen=True)
class LPInstance:
    """Canonical solver input, a dense minimization LP:

    minimize    c^T x
    subject to  A x (row_senses) rhs,  lb <= x <= ub
    """

    c: np.ndarray
    A: np.ndarray
    rhs: np.ndarray
    row_senses: tuple
    lb: np.ndarray
    ub: np.ndarray
    col_names: tuple = None

    def __post_init__(self):
        c = _as_vector(self.c, "objective c")
        n = c.size
        A = _as_matrix(self.A, "constraint matrix")
        if A.shape[1] != n:
            raise DimensionMismatch("constraint matrix", (A.shape[0], n), A.shape)
        rhs = _as_vector(self.rhs, "rhs", A.shape[0])
        senses = _check_senses(self.row_senses, A.shape[0], "row_senses")
        lo, hi = _default_bounds(n, self.lb, self.ub)
        _store(self, c=c, A=A, rhs=rhs, row_senses=senses, lb=lo, ub=hi)

    @property
    def nvars(self):
        return self.c.size

    @property
    def nrows(self):
        return self.rhs.size


def problem_from_batch(first: FirstStage, batch: ScenarioBatch) -> TwoStageProblem:
    """Assemble and normalize a two-stage problem from its scenario data.

    ``batch``'s T must have ``first.n`` columns.  Probabilities are
    normalized to sum to one (drift beyond 0.1 is an error); maximization
    senses are converted to internal minimization with negated costs.
    """
    _, r, n = batch.T.shape
    if n != first.n:
        raise DimensionMismatch("scenario 0 T", (r, first.n), (r, n))
    total = sum(batch.probability.tolist())     # left to right, as records were summed
    if not np.isfinite(total) or total <= 0:
        raise ProbabilityMassError(f"scenario probabilities sum to {total}")
    # sums near 1 that are off by more than float noise smell like a typo and
    # warn; sums far from 1 are taken as intentional weights
    if PROB_NORMALIZE_TOL < abs(total - 1.0) <= PROB_ERROR_TOL:
        warnings.warn(f"scenario probabilities sum to {total:.9g}; normalizing", stacklevel=3)
    first_norm, batch_norm = minimization_form(
        first, replace(batch, probability=batch.probability / total))
    return TwoStageProblem(first=first_norm, batch=batch_norm,
                           declared_first_sense=first.sense,
                           declared_second_sense=batch.shape.sense)


def build_problem(first: FirstStage, shape: RecourseShape, scenarios) -> TwoStageProblem:
    """The problem of :class:`Scenario` records: :func:`problem_from_batch` of their stack."""
    return problem_from_batch(first, stack_scenarios(shape, scenarios))


def minimization_form(first: FirstStage, batch: ScenarioBatch):
    """Internal minimization data of a declared model: (first, batch).

    This is the one place where declared senses become minimization, for
    built problems and for sampled evaluation alike.  A max first stage
    negates c.  A max second stage negates q: it enters the fold as
    negated revenue, so its optimal value contributes with opposite sign to
    the declared first-stage objective.
    """
    if first.sense == "max":
        first = replace(first, c=-first.c, sense="min")
    if batch.shape.sense == "max":
        batch = replace(batch, shape=replace(batch.shape, sense="min"), q=-batch.q)
    return first, batch


def build_deterministic_equivalent(p: TwoStageProblem) -> LPInstance:
    """Extensive form over x and one y-block per scenario.

    Raises ``ProblemTooLarge`` before allocating anything when the kernel's
    ``[A | I]`` tableau of it would exceed ``DEP_MAX_BYTES``.
    """
    first, batch = p.first, p.batch
    n, m, r, S = p.n, p.m, p.r, p.nscen
    nv = n + S * m
    nr = first.p + S * r
    size = 8 * nr * (nv + nr)
    if size > DEP_MAX_BYTES:
        raise ProblemTooLarge(
            f"the deterministic equivalent ({nr} rows, {nv} columns) needs a {size} byte "
            f"tableau, over the limit of {DEP_MAX_BYTES} bytes; use --method lshaped")

    A = np.zeros((nr, nv))
    A[:first.p, :n] = first.A
    A[first.p:, :n] = batch.T.reshape(S * r, n)
    for s in range(S):
        A[first.p + s * r:first.p + (s + 1) * r, n + s * m:n + (s + 1) * m] = batch.shape.W
    return LPInstance(
        c=np.concatenate([first.c, (p.probabilities[:, None] * batch.q).ravel()]),
        A=A,
        rhs=np.concatenate([first.b, batch.h.ravel()]),
        row_senses=first.row_senses + tuple(x for senses in batch.senses for x in senses),
        lb=np.concatenate([first.lb, batch.lb.ravel()]),
        ub=np.concatenate([first.ub, batch.ub.ravel()]),
        col_names=tuple([f"x{j + 1}" for j in range(n)]
                        + [f"y{j + 1}_{s + 1}" for s in range(S) for j in range(m)]))


@dataclass(frozen=True)
class WaitAndSeeForm:
    """Every scenario's wait-and-see LP, stacked along a leading scenario axis.

    Member s is the LP over (x, y_s) with costs (c, q_s), matrix [[A1, 0],
    [T_s, W]], rhs (b, h_s), the scenario's bounds, and the first stage's row
    senses followed by the scenario's.  When ``shared``, every member has
    member 0's matrix and row senses, and ``A`` broadcasts that one matrix.
    Every array is read-only.
    """

    c: np.ndarray           # (S, n + m)
    A: np.ndarray           # (S, p + r, n + m)
    rhs: np.ndarray         # (S, p + r)
    lb: np.ndarray          # (S, n + m)
    ub: np.ndarray          # (S, n + m)
    row_senses: tuple       # (S,)
    shared: bool
    col_names: tuple


def stack_wait_and_see(first: FirstStage, batch: ScenarioBatch) -> WaitAndSeeForm:
    """The :class:`WaitAndSeeForm` of the scenarios of ``batch``."""
    S, n, p, shape = batch.size, first.n, first.p, batch.shape
    shared = not (batch.own_senses.any() or (batch.T != batch.T[0]).any())
    A = np.zeros((1 if shared else S, p + shape.r, n + shape.m))
    A[:, :p, :n] = first.A
    A[:, p:, :n] = batch.T[:A.shape[0]]
    A[:, p:, n:] = shape.W
    c, rhs, lb, ub = (np.hstack([np.broadcast_to(head, (S, head.size)), rest])
                      for head, rest in [(first.c, batch.q), (first.b, batch.h),
                                         (first.lb, batch.lb), (first.ub, batch.ub)])
    for a in (c, rhs, lb, ub):
        a.flags.writeable = False
    return WaitAndSeeForm(
        c=c, A=np.broadcast_to(A, (S,) + A.shape[1:]), rhs=rhs, lb=lb, ub=ub,
        row_senses=tuple(first.row_senses + senses for senses in batch.senses),
        shared=shared,
        col_names=tuple([f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(shape.m)]))


def build_wait_and_see(p: TwoStageProblem, s: int) -> LPInstance:
    """Single LP over (x, y) with full knowledge of scenario s: ``p.wait_and_see``'s member s."""
    if not 0 <= s < p.nscen:
        raise IndexOutOfRange(f"scenario index {s} out of range [0, {p.nscen})")
    form = p.wait_and_see
    return LPInstance(c=form.c[s], A=form.A[s], rhs=form.rhs[s], row_senses=form.row_senses[s],
                      lb=form.lb[s], ub=form.ub[s], col_names=form.col_names)


def expected_scenario(batch: ScenarioBatch) -> ScenarioBatch:
    """The probability-weighted componentwise mean of ``batch``'s scenarios,
    as a batch of one scenario with probability 1.

    q, T and h are averaged.  A bound that every scenario shares is kept as
    it is; one that varies is averaged.
    """
    if any(senses != batch.senses[0] for senses in batch.senses):
        raise ValueError("scenarios disagree on row senses; the mean scenario is undefined")
    w = batch.probability / sum(batch.probability.tolist())

    def mean(stack, shared=False):
        return stack[:1] if shared and (stack == stack[0]).all() \
            else sum(wi * a for wi, a in zip(w, stack))[None]

    return ScenarioBatch(shape=batch.shape, probability=np.ones(1), q=mean(batch.q),
                         T=mean(batch.T), h=mean(batch.h), lb=mean(batch.lb, shared=True),
                         ub=mean(batch.ub, shared=True), senses=batch.senses[:1])


def build_expected_value_problem(p: TwoStageProblem) -> LPInstance:
    """Wait-and-see LP on the expected scenario."""
    return build_wait_and_see(replace(p, batch=expected_scenario(p.batch)), 0)


def validate(p: TwoStageProblem) -> list:
    """Non-fatal diagnostics; an empty list means the problem looks clean."""
    out = []
    total = float(np.sum(p.probabilities))
    if abs(total - 1.0) > 1e-9:
        out.append(f"probabilities sum to {total:.12g}, drift {total - 1.0:+.3g} from 1")
    W = p.shape.W
    zero_rows = np.where(~np.any(W != 0.0, axis=1))[0]
    for i in zero_rows:
        out.append(f"recourse matrix W has an all-zero row {int(i)}")
    zero_cols = np.where(~np.any(W != 0.0, axis=0))[0]
    for j in zero_cols:
        out.append(f"recourse matrix W has an all-zero column {int(j)}")
    free_first = np.where(np.isinf(p.first.lb) & np.isinf(p.first.ub))[0]
    for j in free_first:
        out.append(f"first-stage variable {int(j)} is free in both directions")
    free = np.isinf(p.batch.lb) & np.isinf(p.batch.ub)
    for s in np.flatnonzero(free.any(axis=1)):
        out.append(f"scenario {s}: second-stage variable {int(np.argmax(free[s]))} "
                   "is free in both directions")
    return out
