"""Solve reports: one structure shared by the solvers, analysis and the CLI.

The machine-readable form is a single self-describing JSON document whose
field names are part of the stable interface.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger("stochlp")

REPORT_FORMAT = "stochlp-report/1"


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, float) and not np.isfinite(v):
        return {np.inf: "inf", -np.inf: "-inf"}.get(v, "nan")
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class SolveReport:
    method: str
    status: str
    objective: float
    decision: np.ndarray
    recourse: list = None          # per-scenario y at the reported decision
    gaps: dict = field(default_factory=dict)
    iterations: int = 0
    cut_counts: dict = None
    trace: list = field(default_factory=list)
    seed: int = None
    config: dict = field(default_factory=dict)
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return _jsonable({
            "format": REPORT_FORMAT,
            "method": self.method,
            "status": self.status,
            "objective": self.objective,
            "decision": self.decision,
            "recourse": self.recourse,
            "gaps": self.gaps,
            "iterations": self.iterations,
            "cut_counts": self.cut_counts,
            "trace": self.trace,
            "seed": self.seed,
            "config": self.config,
            "wall_time": self.wall_time,
            "extras": {k: v for k, v in self.extras.items()
                       if not k.startswith("_")},
        })

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self):
        lines = [f"method:      {self.method}",
                 f"status:      {self.status}",
                 f"objective:   {self.objective:.12g}"]
        if self.decision is not None:
            vals = ", ".join(f"{v:.6g}" for v in np.atleast_1d(self.decision))
            lines.append(f"decision:    ({vals})")
        for k, v in self.gaps.items():
            lines.append(f"{k + ':':<12} {v:.6g}")
        lines.append(f"iterations:  {self.iterations}")
        if self.cut_counts:
            total = sum(self.cut_counts.values())
            lines.append(f"cuts:        {total} ({self.cut_counts})")
        if self.seed is not None:
            lines.append(f"seed:        {self.seed}")
        lines.append(f"wall time:   {self.wall_time:.3f} s")
        return "\n".join(lines) + "\n"

    def log_trace(self):
        """One INFO line per trace record, then the resolved configuration at DEBUG."""
        for rec in self.trace:
            logger.info("%s %s", self.method, " ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in rec.items()))
        logger.debug("%s config %s", self.method, self.config)
