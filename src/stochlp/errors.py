"""Exception types raised across the package."""


class StochLPError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(StochLPError):
    """A matrix or vector does not have the expected shape."""

    def __init__(self, what, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected shape {expected}, got {got}")


class EmptyScenarioSet(StochLPError):
    pass


class NonPositiveProbability(StochLPError):
    pass


class ProbabilityMassError(StochLPError):
    """Scenario probabilities drift too far from 1 to be float noise."""


class IndexOutOfRange(StochLPError, IndexError):
    pass


class NumericalBreakdown(StochLPError):
    pass


class InfeasibleProblem(StochLPError):
    """The program, or a relaxation of it, has no feasible point."""


class UnboundedProblem(StochLPError):
    """The program's objective is unbounded in its optimizing direction."""


class UnboundedSubproblem(UnboundedProblem):
    def __init__(self, scenario, message=""):
        self.scenario = scenario
        super().__init__(message or f"second-stage problem of scenario {scenario} is unbounded")


class ProblemTooLarge(StochLPError):
    """A program would need more memory than the package allows it."""


class ParseError(StochLPError):
    def __init__(self, filename, line_no, message):
        self.filename = filename
        self.line_no = line_no
        super().__init__(f"{filename}:{line_no}: {message}")


class UnsupportedSection(StochLPError):
    def __init__(self, section, filename=""):
        self.section = section
        where = f" in {filename}" if filename else ""
        super().__init__(f"unsupported section {section!r}{where}")


class TwoPeriodOnly(StochLPError):
    pass


class ScenarioExplosion(StochLPError):
    def __init__(self, count, cap):
        self.count = count
        self.cap = cap
        super().__init__(
            f"scenario cross-product has {count} scenarios, exceeding the cap of {cap}; "
            "sample the distribution instead of expanding it"
        )


class MasterInfeasible(InfeasibleProblem):
    """First stage plus feasibility cuts has no feasible point."""


class InfeasibleScenario(InfeasibleProblem):
    def __init__(self, scenario):
        self.scenario = scenario
        super().__init__(
            f"scenario {scenario} has an infeasible wait-and-see problem, so the whole "
            "problem is infeasible"
        )


class FirstStageInfeasible(StochLPError):
    pass


class SecondStageInfeasible(StochLPError):
    def __init__(self, scenario):
        self.scenario = scenario
        super().__init__(f"second-stage problem of scenario {scenario} is infeasible")


class TooFewBatches(StochLPError):
    pass


class WorkerPanic(StochLPError):
    def __init__(self, item, cause):
        self.item = item
        self.cause = cause
        super().__init__(f"worker failed on item {item!r}: {cause!r}")


class DeadlockError(StochLPError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(f"no result within watchdog interval; queue state: {diagnostics}")


class ConfigError(StochLPError):
    pass
