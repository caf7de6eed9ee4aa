"""Two-stage stochastic linear programming toolkit.

Builds finite two-stage stochastic LPs from first-stage data plus weighted
scenarios, solves them via the deterministic equivalent, L-shaped
decomposition, or progressive hedging (serially or in parallel), and
computes the classical measures (EWS, EVPI, EEV, VSS) and SAA confidence
intervals.  SMPS triplets and a native JSON problem format are supported
for I/O.
"""

from .analysis import (
    MeasureResult,
    all_measures,
    eev,
    evaluate_decision,
    evpi,
    ews,
    sampled_measures,
    vrp,
    vss,
)
from .execution import ExecConfig, run_async, run_wave
from .kernel import (
    Basis,
    LPSolution,
    linearize_penalty,
    solve_lp,
    solve_qp_diagonal,
    write_mps,
)
from .lshaped import Cuts, LShapedConfig, solve_lshaped, solve_subproblem
from .model import (
    FirstStage,
    LPInstance,
    RecourseShape,
    Scenario,
    ScenarioBatch,
    StochasticModel,
    TwoStageProblem,
    build_deterministic_equivalent,
    build_expected_value_problem,
    build_problem,
    build_wait_and_see,
    expected_scenario,
    validate,
)
from .phedging import PhConfig, solve_ph
from .report import SolveReport
from .sampling import (
    ConfidenceReport,
    DiscreteSampler,
    NormalSampler,
    SaaConfig,
    confidence_interval,
    saa_solve,
    sample_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Basis", "ConfidenceReport", "Cuts", "DiscreteSampler", "ExecConfig",
    "FirstStage", "LPInstance", "LPSolution", "LShapedConfig",
    "MeasureResult", "NormalSampler", "PhConfig", "RecourseShape", "SaaConfig",
    "Scenario", "ScenarioBatch", "SolveReport", "StochasticModel", "TwoStageProblem",
    "all_measures", "build_deterministic_equivalent",
    "build_expected_value_problem", "build_problem", "build_wait_and_see",
    "confidence_interval", "eev", "evaluate_decision", "evpi", "ews",
    "expected_scenario", "linearize_penalty", "run_async", "run_wave",
    "saa_solve", "sample_instance", "sampled_measures", "solve_lp",
    "solve_lshaped", "solve_ph", "solve_qp_diagonal", "solve_subproblem",
    "validate", "vrp", "vss", "write_mps",
]
