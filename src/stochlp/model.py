"""Two-stage stochastic LP data model and derived deterministic programs.

A problem is a first-stage LP plus a finite list of weighted scenarios that
share one recourse shape (fixed W).  This module alone decides how that data
is held: matrices are stored dense (sparse input is converted once, at
construction; only an LPInstance such as the DEP keeps a sparse matrix), and
all data is normalized to minimization by :func:`minimization_form`;
reported objective values are un-negated for problems that were declared as
maximization.

Row senses are the strings "<=", ">=", "=".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatch,
    EmptyScenarioSet,
    IndexOutOfRange,
    NonPositiveProbability,
    ProbabilityMassError,
)

ROW_SENSES = ("<=", ">=", "=")

PROB_NORMALIZE_TOL = 1e-6   # drift below this is silently normalized
PROB_ERROR_TOL = 0.1        # drift beyond this is a modeling mistake


def _as_vector(v, name, n=None):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(name, f"({n if n is not None else 'k'},)", a.shape)
    if n is not None and a.shape != (n,):
        raise DimensionMismatch(name, (n,), a.shape)
    return a


def _as_matrix(m, name, keep_sparse=False):
    """A 2-D float matrix.  Problem data is stored dense, so sparse input is
    converted here, once; only an LPInstance (such as the DEP) keeps it sparse."""
    if sp.issparse(m):
        if keep_sparse:
            return m.tocsc()
        m = m.toarray()
    a = np.asarray(m, dtype=float)
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


def _default_bounds(n, lb, ub):
    lo = np.zeros(n) if lb is None else _as_vector(lb, "lb", n)
    hi = np.full(n, np.inf) if ub is None else _as_vector(ub, "ub", n)
    if np.any(lo > hi):
        bad = int(np.argmax(lo > hi))
        raise ValueError(f"variable {bad}: lower bound {lo[bad]} exceeds upper bound {hi[bad]}")
    if np.any(lo == np.inf) or np.any(hi == -np.inf) or np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
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
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "row_senses", senses)
        object.__setattr__(self, "lb", lo)
        object.__setattr__(self, "ub", hi)

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
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "row_senses", senses)
        object.__setattr__(self, "lb", lo)
        object.__setattr__(self, "ub", hi)

    @property
    def m(self):
        return self.W.shape[1]

    @property
    def r(self):
        return self.W.shape[0]


@dataclass(frozen=True)
class Scenario:
    """One realization: probability plus the scenario-dependent (q, T, h).

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
        q = _as_vector(self.q, "scenario q")
        T = _as_matrix(self.T, "scenario T")
        h = _as_vector(self.h, "scenario h", T.shape[0])
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "h", h)
        if self.lb is not None:
            object.__setattr__(self, "lb", _as_vector(self.lb, "scenario lb", q.size))
        if self.ub is not None:
            object.__setattr__(self, "ub", _as_vector(self.ub, "scenario ub", q.size))
        if self.row_senses is not None:
            object.__setattr__(self, "row_senses",
                               _check_senses(self.row_senses, h.size, "scenario row_senses"))

    def bounds(self, shape: RecourseShape):
        lo = self.lb if self.lb is not None else shape.lb
        hi = self.ub if self.ub is not None else shape.ub
        return lo, hi

    def senses(self, shape: RecourseShape):
        return self.row_senses if self.row_senses is not None else shape.row_senses


def scenario_key(s: Scenario):
    """Hashable image of a scenario's data: equal keys mean identical recourse LPs."""
    arrays = (s.q, s.T, s.h, s.lb, s.ub)
    return tuple(None if a is None else a.tobytes() for a in arrays) + (s.row_senses,)


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

    Construct via :func:`build_problem`; the constructor arguments here are
    assumed already normalized.
    """

    first: FirstStage
    shape: RecourseShape
    scenarios: tuple
    declared_first_sense: str = "min"
    declared_second_sense: str = "min"

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
        return len(self.scenarios)

    @property
    def probabilities(self):
        return np.array([s.probability for s in self.scenarios])

    def report_value(self, internal_value):
        """Map an internal (minimization) objective back to the declared sense."""
        return -internal_value if self.declared_first_sense == "max" else internal_value

    @property
    def model(self):
        return StochasticModel(self.first, self.shape)


@dataclass(frozen=True)
class LPInstance:
    """Canonical solver input: a linear or diagonal-quadratic convex program.

    minimize (or maximize)  c^T x + c0 + 1/2 * sum_j qdiag[j] * (x[j] - qcenter[j])^2
    subject to              A x (row_senses) rhs,  lb <= x <= ub
    """

    c: np.ndarray
    A: object          # dense ndarray or scipy.sparse (kept as CSC)
    rhs: np.ndarray
    row_senses: tuple
    lb: np.ndarray
    ub: np.ndarray
    c0: float = 0.0
    sense: str = "min"
    qdiag: np.ndarray = None
    qcenter: np.ndarray = None
    col_names: tuple = None
    row_names: tuple = None

    def __post_init__(self):
        c = _as_vector(self.c, "objective c")
        n = c.size
        A = _as_matrix(self.A, "constraint matrix", keep_sparse=True)
        if A.shape[1] != n:
            raise DimensionMismatch("constraint matrix", (A.shape[0], n), A.shape)
        rhs = _as_vector(self.rhs, "rhs", A.shape[0])
        senses = _check_senses(self.row_senses, A.shape[0], "row_senses")
        lo, hi = _default_bounds(n, self.lb, self.ub)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "row_senses", senses)
        object.__setattr__(self, "lb", lo)
        object.__setattr__(self, "ub", hi)
        if self.qdiag is not None:
            qd = _as_vector(self.qdiag, "qdiag", n)
            if np.any(qd < 0):
                raise ValueError("quadratic diagonal must be nonnegative (convexity)")
            qc = np.zeros(n) if self.qcenter is None else _as_vector(self.qcenter, "qcenter", n)
            object.__setattr__(self, "qdiag", qd)
            object.__setattr__(self, "qcenter", qc)

    @property
    def nvars(self):
        return self.c.size

    @property
    def nrows(self):
        return self.rhs.size

    @property
    def is_quadratic(self):
        return self.qdiag is not None and np.any(self.qdiag > 0)


def build_problem(first: FirstStage, shape: RecourseShape, scenarios) -> TwoStageProblem:
    """Assemble and normalize a two-stage problem.

    Probabilities are normalized to sum to one (drift beyond 0.1 is an
    error); maximization senses are converted to internal minimization with
    negated costs.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise EmptyScenarioSet("a problem needs at least one scenario")
    m, r, n = shape.m, shape.r, first.n
    for i, s in enumerate(scenarios):
        if s.q.size != m:
            raise DimensionMismatch(f"scenario {i} q", (m,), s.q.shape)
        if s.T.shape != (r, n):
            raise DimensionMismatch(f"scenario {i} T", (r, n), s.T.shape)
        if s.h.size != r:
            raise DimensionMismatch(f"scenario {i} h", (r,), s.h.shape)

    total = sum(s.probability for s in scenarios)
    if not np.isfinite(total) or total <= 0:
        raise ProbabilityMassError(f"scenario probabilities sum to {total}")
    # sums near 1 that are off by more than float noise smell like a typo and
    # warn; sums far from 1 are taken as intentional weights
    if PROB_NORMALIZE_TOL < abs(total - 1.0) <= PROB_ERROR_TOL:
        warnings.warn(f"scenario probabilities sum to {total:.9g}; normalizing",
                      stacklevel=2)
    scenarios = [replace(s, probability=s.probability / total) for s in scenarios]
    first_norm, shape_norm, scenarios = minimization_form(first, shape, scenarios)
    return TwoStageProblem(
        first=first_norm,
        shape=shape_norm,
        scenarios=tuple(scenarios),
        declared_first_sense=first.sense,
        declared_second_sense=shape.sense,
    )


def minimization_form(first: FirstStage, shape: RecourseShape, scenarios):
    """Internal minimization data of a declared model: (first, shape, scenarios).

    This is the one place where declared senses become minimization, for
    built problems and for sampled evaluation alike.  A max first stage
    negates c.  A max second stage negates every q: it enters the fold as
    negated revenue, so its optimal value contributes with opposite sign to
    the declared first-stage objective.
    """
    if first.sense == "max":
        first = replace(first, c=-first.c, sense="min")
    if shape.sense == "max":
        scenarios = [replace(s, q=-s.q) for s in scenarios]
    return first, replace(shape, sense="min"), list(scenarios)


def _to_triplets(M, row_off, col_off, rows, cols, vals):
    r, c = np.nonzero(M)
    rows.append(r + row_off)
    cols.append(c + col_off)
    vals.append(M[r, c])


def build_deterministic_equivalent(p: TwoStageProblem) -> LPInstance:
    """Extensive form over x and one y-block per scenario.

    Second-stage blocks stay sparse: the matrix is assembled from triplets
    into compressed-column form.
    """
    first, shape = p.first, p.shape
    n, m, r, S = p.n, p.m, p.r, p.nscen
    nv = n + S * m
    nr = first.p + S * r

    rows, cols, vals = [], [], []
    _to_triplets(first.A, 0, 0, rows, cols, vals)
    for s, sc in enumerate(p.scenarios):
        row0 = first.p + s * r
        _to_triplets(sc.T, row0, 0, rows, cols, vals)
        _to_triplets(shape.W, row0, n + s * m, rows, cols, vals)
    A = sp.csc_matrix(
        (np.concatenate(vals) if vals else [],
         (np.concatenate(rows) if rows else [], np.concatenate(cols) if cols else [])),
        shape=(nr, nv))

    c = np.zeros(nv)
    c[:n] = first.c
    rhs = np.zeros(nr)
    rhs[:first.p] = first.b
    lb = np.empty(nv)
    ub = np.empty(nv)
    lb[:n] = first.lb
    ub[:n] = first.ub
    senses = list(first.row_senses)
    col_names = [f"x{j + 1}" for j in range(n)]
    for s, sc in enumerate(p.scenarios):
        c[n + s * m:n + (s + 1) * m] = sc.probability * sc.q
        rhs[first.p + s * r:first.p + (s + 1) * r] = sc.h
        lo, hi = sc.bounds(shape)
        lb[n + s * m:n + (s + 1) * m] = lo
        ub[n + s * m:n + (s + 1) * m] = hi
        senses.extend(sc.senses(shape))
        col_names.extend(f"y{j + 1}_{s + 1}" for j in range(m))

    return LPInstance(c=c, A=A, rhs=rhs, row_senses=tuple(senses), lb=lb, ub=ub,
                      col_names=tuple(col_names))


def build_wait_and_see(p: TwoStageProblem, s: int) -> LPInstance:
    """Single LP over (x, y) with full knowledge of scenario s."""
    if not 0 <= s < p.nscen:
        raise IndexOutOfRange(f"scenario index {s} out of range [0, {p.nscen})")
    return _ws_instance(p.first, p.shape, p.scenarios[s])


def _ws_instance(first: FirstStage, shape: RecourseShape, sc: Scenario) -> LPInstance:
    n, m, r = first.n, shape.m, shape.r
    A = np.zeros((first.p + r, n + m))
    A[:first.p, :n] = first.A
    A[first.p:, :n] = sc.T
    A[first.p:, n:] = shape.W
    lo, hi = sc.bounds(shape)
    return LPInstance(
        c=np.concatenate([first.c, sc.q]),
        A=A,
        rhs=np.concatenate([first.b, sc.h]),
        row_senses=first.row_senses + sc.senses(shape),
        lb=np.concatenate([first.lb, lo]),
        ub=np.concatenate([first.ub, hi]),
        col_names=tuple([f"x{j + 1}" for j in range(n)] + [f"y{j + 1}" for j in range(m)]),
    )


def expected_scenario(scenarios, shape: RecourseShape) -> Scenario:
    """Probability-weighted componentwise mean of (q, T, h) and bounds.

    A bound is averaged when some scenario overrides it; a scenario without
    the override counts with ``shape``'s bound.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise EmptyScenarioSet("cannot average an empty scenario set")
    total = sum(s.probability for s in scenarios)
    w = [s.probability / total for s in scenarios]
    q = sum(wi * s.q for wi, s in zip(w, scenarios))
    T = sum(wi * s.T for wi, s in zip(w, scenarios))
    h = sum(wi * s.h for wi, s in zip(w, scenarios))
    kwargs = {}
    for k, name in enumerate(("lb", "ub")):
        if any(getattr(s, name) is not None for s in scenarios):
            kwargs[name] = sum(wi * s.bounds(shape)[k] for wi, s in zip(w, scenarios))
    senses = scenarios[0].row_senses
    if any(s.row_senses != senses for s in scenarios):
        raise ValueError("scenarios disagree on row senses; the mean scenario is undefined")
    if senses is not None:
        kwargs["row_senses"] = senses
    return Scenario(probability=1.0, q=q, T=T, h=h, **kwargs)


def build_expected_value_problem(p: TwoStageProblem) -> LPInstance:
    """Wait-and-see LP on the expected scenario."""
    return _ws_instance(p.first, p.shape, expected_scenario(p.scenarios, p.shape))


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
    for s, sc in enumerate(p.scenarios):
        lo, hi = sc.bounds(p.shape)
        free = np.where(np.isinf(lo) & np.isinf(hi))[0]
        for j in free:
            out.append(f"scenario {s}: second-stage variable {int(j)} is free in both directions")
            break
    return out
