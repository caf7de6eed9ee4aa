"""Built-in regression fixtures used by the CLI and the test suite.

``simple`` is the classic two-variable production problem with a
maximization second stage and two demand scenarios; ``farmer`` is the
three-crop land-allocation problem with three yield scenarios.  Both carry
known optimal values that anchor the regression tests.  ``norrc-1`` lacks
relatively complete recourse and exercises feasibility cuts.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import (
    FirstStage,
    RecourseShape,
    Scenario,
    StochasticModel,
    TwoStageProblem,
    build_problem,
)
from .sampling import DiscreteSampler, NormalSampler


def simple_model() -> StochasticModel:
    """First stage and recourse shape of the two-variable textbook problem.

    min 100 x1 + 150 x2 + E[Q], x1 >= 40, x2 >= 20, x1 + x2 <= 120 with
    Q = max q1 y1 + q2 y2 s.t. 6 y1 + 10 y2 <= 60 x1, 8 y1 + 5 y2 <= 80 x2,
    0 <= y1 <= d1, 0 <= y2 <= d2.  The demand caps enter as rows so that
    sampled (q1, q2, d1, d2) map onto (q, h) entries.
    """
    first = FirstStage(
        c=[100.0, 150.0],
        A=[[1.0, 1.0]],
        b=[120.0],
        row_senses=("<=",),
        lb=[40.0, 20.0],
    )
    shape = RecourseShape(
        W=[[6.0, 10.0],
           [8.0, 5.0],
           [1.0, 0.0],
           [0.0, 1.0]],
        sense="max",
        row_senses=("<=",) * 4,
    )
    return StochasticModel(first, shape)


def _simple_scenario(prob, q1, q2, d1, d2):
    T = [[-60.0, 0.0],
         [0.0, -80.0],
         [0.0, 0.0],
         [0.0, 0.0]]
    return Scenario(probability=prob, q=[q1, q2], T=T, h=[0.0, 0.0, d1, d2])


def simple_problem() -> TwoStageProblem:
    """Discrete two-scenario instance; DEP optimum -855.833333333333."""
    model = simple_model()
    return build_problem(model.first, model.shape, simple_problem_declared_scenarios())


SIMPLE_MU = np.array([24.0, 32.0, 400.0, 200.0])
SIMPLE_SIGMA = np.array([
    [2.0, 0.5, 0.0, 0.0],
    [0.5, 1.0, 0.0, 0.0],
    [0.0, 0.0, 50.0, 20.0],
    [0.0, 0.0, 20.0, 30.0],
])


def simple_sampler() -> NormalSampler:
    """Multivariate normal over (q1, q2, d1, d2) with the documented mean/covariance."""
    template = _simple_scenario(1.0, *SIMPLE_MU)
    return NormalSampler(
        mean=SIMPLE_MU,
        cov=SIMPLE_SIGMA,
        template=template,
        targets=(("q", 0), ("q", 1), ("h", 2), ("h", 3)),
    )


def simple_discrete_sampler() -> DiscreteSampler:
    """Resamples the two discrete textbook scenarios with weights 0.4 / 0.6."""
    return DiscreteSampler(scenarios=simple_problem_declared_scenarios(),
                           weights=(0.4, 0.6))


def simple_problem_declared_scenarios():
    return (
        _simple_scenario(0.4, 24.0, 28.0, 500.0, 100.0),
        _simple_scenario(0.6, 28.0, 32.0, 300.0, 300.0),
    )


def farmer_model() -> StochasticModel:
    """Three-crop planting problem: 500 acres, yield uncertainty.

    x = acres of (wheat, corn, beets); second stage buys shortfalls of wheat
    and corn and sells surpluses, with the beet quota at 6000 tons.
    Second-stage variables: (buy_wheat, buy_corn, sell_wheat, sell_corn,
    sell_beets, sell_beets_extra).
    """
    first = FirstStage(
        c=[150.0, 230.0, 260.0],
        A=[[1.0, 1.0, 1.0]],
        b=[500.0],
        row_senses=("<=",),
    )
    W = [
        [1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0, -1.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    ]
    shape = RecourseShape(W=W, sense="min", row_senses=(">=", ">=", ">=", "<="))
    return StochasticModel(first, shape)


FARMER_YIELDS = ((3.0, 3.6, 24.0), (2.5, 3.0, 20.0), (2.0, 2.4, 16.0))


def farmer_scenario(prob, yields) -> Scenario:
    yw, yc, yb = yields
    T = [[yw, 0.0, 0.0],
         [0.0, yc, 0.0],
         [0.0, 0.0, yb],
         [0.0, 0.0, 0.0]]
    q = [238.0, 210.0, -170.0, -150.0, -36.0, -10.0]
    return Scenario(probability=prob, q=q, T=T, h=[200.0, 240.0, 0.0, 6000.0])


def farmer_problem() -> TwoStageProblem:
    """Three equiprobable yield scenarios; optimum -108390 at x = (170, 80, 250)."""
    model = farmer_model()
    scenarios = [farmer_scenario(1.0 / 3.0, y) for y in FARMER_YIELDS]
    return build_problem(model.first, model.shape, scenarios)


def norrc1_problem() -> TwoStageProblem:
    """Small instance without relatively complete recourse.

    The first stage wants x as large as possible, but scenario s only has a
    feasible second stage when x <= cap + h_s (the recourse variable that
    absorbs demand is capacity-bounded), so feasibility cuts must discover
    x <= min_s (cap + h_s) = 7.
    """
    first = FirstStage(c=[-1.0, 0.5], A=np.zeros((0, 2)), b=[],
                       row_senses=(), lb=[0.0, 0.0], ub=[10.0, 10.0])
    # rows: x1 <= y1 + cap_slack, y2 tracks x2 for cost
    W = [[1.0, 0.0],
         [0.0, 1.0]]
    shape = RecourseShape(W=W, sense="min", row_senses=(">=", ">="),
                          lb=[0.0, 0.0], ub=[4.0, np.inf])
    scenarios = [
        Scenario(probability=0.5, q=[1.0, 0.2],
                 T=[[-1.0, 0.0], [0.0, -1.0]], h=[-3.0, 0.0]),
        Scenario(probability=0.5, q=[1.5, 0.2],
                 T=[[-1.0, 0.0], [0.0, -1.0]], h=[-4.0, 0.0]),
    ]
    # row 1: y1 >= x1 + h_s with y1 <= 4  =>  feasible iff x1 <= 4 - h_s (7 and 8)
    return build_problem(first, shape, scenarios)


_FIXTURES = {
    "simple": simple_problem,
    "farmer": farmer_problem,
    "norrc-1": norrc1_problem,
}

_SAMPLERS = {
    "simple-normal": simple_sampler,
    "simple-discrete": simple_discrete_sampler,
}


def fixture_names():
    return sorted(_FIXTURES)


def get_fixture(name) -> TwoStageProblem:
    if name not in _FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; available: {fixture_names()}")
    return _FIXTURES[name]()


def get_sampler(name):
    if name not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {name!r}; available: {sorted(_SAMPLERS)}")
    return _SAMPLERS[name]()
