"""Versioned native problem format: one self-describing JSON file.

Numeric fields round-trip exactly (shortest-repr floats); infinite bounds
are encoded as null.  The stored data is the internally normalized
(minimization) problem together with the declared senses.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .model import FirstStage, RecourseShape, Scenario, TwoStageProblem

FORMAT = "stochlp-problem"
VERSION = 1


def _vec(v):
    return [x if np.isfinite(x) else None for x in np.asarray(v, dtype=float).tolist()]


def _unvec(v, neg_inf=False):
    fill = -np.inf if neg_inf else np.inf
    return np.array([fill if x is None else float(x) for x in v])


def _mat(M):
    r, c = np.nonzero(M)
    return {"shape": list(M.shape), "rows": r.tolist(), "cols": c.tolist(),
            "vals": M[r, c].tolist()}


def _unmat(d):
    shape = tuple(d["shape"])
    M = np.zeros(shape)
    M[np.array(d["rows"], dtype=int), np.array(d["cols"], dtype=int)] = d["vals"]
    return M


def problem_to_dict(p: TwoStageProblem) -> dict:
    return {
        "format": FORMAT,
        "version": VERSION,
        "declared_first_sense": p.declared_first_sense,
        "declared_second_sense": p.declared_second_sense,
        "first": {
            "c": p.first.c.tolist(),
            "A": _mat(p.first.A),
            "b": p.first.b.tolist(),
            "row_senses": list(p.first.row_senses),
            "lb": _vec(p.first.lb),
            "ub": _vec(p.first.ub),
        },
        "shape": {
            "W": _mat(p.shape.W),
            "row_senses": list(p.shape.row_senses),
            "lb": _vec(p.shape.lb),
            "ub": _vec(p.shape.ub),
        },
        "scenarios": [
            {
                "probability": s.probability,
                "q": s.q.tolist(),
                "T": _mat(s.T),
                "h": s.h.tolist(),
                **({"lb": _vec(s.lb)} if s.lb is not None else {}),
                **({"ub": _vec(s.ub)} if s.ub is not None else {}),
                **({"row_senses": list(s.row_senses)} if s.row_senses is not None else {}),
            }
            for s in p.scenarios
        ],
    }


def problem_from_dict(d: dict) -> TwoStageProblem:
    if d.get("format") != FORMAT:
        raise ParseError("<native>", 0, f"not a {FORMAT} document")
    if d.get("version") != VERSION:
        raise ParseError("<native>", 0,
                         f"unsupported format version {d.get('version')!r}")
    f = d["first"]
    first = FirstStage(c=f["c"], A=_unmat(f["A"]), b=f["b"],
                       row_senses=tuple(f["row_senses"]),
                       lb=_unvec(f["lb"], neg_inf=True), ub=_unvec(f["ub"]),
                       sense="min")
    s = d["shape"]
    shape = RecourseShape(W=_unmat(s["W"]), sense="min",
                          row_senses=tuple(s["row_senses"]),
                          lb=_unvec(s["lb"], neg_inf=True), ub=_unvec(s["ub"]))
    scenarios = []
    for sc in d["scenarios"]:
        kw = {}
        if "lb" in sc:
            kw["lb"] = _unvec(sc["lb"], neg_inf=True)
        if "ub" in sc:
            kw["ub"] = _unvec(sc["ub"])
        if "row_senses" in sc:
            kw["row_senses"] = tuple(sc["row_senses"])
        scenarios.append(Scenario(probability=sc["probability"], q=sc["q"],
                                  T=_unmat(sc["T"]), h=sc["h"], **kw))
    return TwoStageProblem(first=first, shape=shape, scenarios=tuple(scenarios),
                           declared_first_sense=d["declared_first_sense"],
                           declared_second_sense=d["declared_second_sense"])


def save_problem(p: TwoStageProblem, path):
    with open(path, "w") as f:
        json.dump(problem_to_dict(p), f)
        f.write("\n")


def load_problem(path) -> TwoStageProblem:
    with open(path) as f:
        return problem_from_dict(json.load(f))
