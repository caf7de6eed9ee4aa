"""Versioned native problem format: one self-describing JSON file.

Numeric fields round-trip exactly (shortest-repr floats); infinite bounds
are encoded as null.  The stored data is the internally normalized
(minimization) problem together with the declared senses.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from .errors import ParseError
from .model import FirstStage, RecourseShape, TwoStageProblem, problem_from_batch, stack_arrays

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
    batch = p.batch
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
                "probability": float(batch.probability[k]),
                "q": batch.q[k].tolist(),
                "T": _mat(batch.T[k]),
                "h": batch.h[k].tolist(),
                **({"lb": _vec(batch.lb[k])} if (batch.lb[k] != p.shape.lb).any() else {}),
                **({"ub": _vec(batch.ub[k])} if (batch.ub[k] != p.shape.ub).any() else {}),
                **({"row_senses": list(batch.senses[k])} if batch.own_senses[k] else {}),
            }
            for k in range(batch.size)
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
    scs = d["scenarios"]

    def per_scenario(key, read):
        return [read(sc[key]) if key in sc else None for sc in scs]

    batch = stack_arrays(
        shape, [sc["probability"] for sc in scs], [sc["q"] for sc in scs],
        [_unmat(sc["T"]) for sc in scs], [sc["h"] for sc in scs],
        per_scenario("lb", lambda v: _unvec(v, neg_inf=True)), per_scenario("ub", _unvec),
        per_scenario("row_senses", tuple))
    problem = problem_from_batch(first, batch)
    # a saved problem was normalized when it was built: probabilities that sum
    # to one up to rounding are kept as stored, so that the round trip is exact
    exact = abs(sum(batch.probability.tolist()) - 1.0) <= batch.size * np.finfo(float).eps
    return replace(problem, batch=batch if exact else problem.batch,
                   declared_first_sense=d["declared_first_sense"],
                   declared_second_sense=d["declared_second_sense"])


def save_problem(p: TwoStageProblem, path):
    with open(path, "w") as f:
        json.dump(problem_to_dict(p), f)
        f.write("\n")


def load_problem(path) -> TwoStageProblem:
    with open(path) as f:
        return problem_from_dict(json.load(f))
