"""The benchmark's workloads: inputs made from the seed, set-up, solve, check.

Each workload provides:

- ``prepare(seed, workdir, toy)``: the instances, with their inputs on disk;
- ``warmup()``: one untimed solve of a toy instance;
- ``setup(inst)``: the timed step that turns the input into a problem;
- ``solve(inst, problem)``: the timed operation;
- ``fingerprint(result)``: equal for equal results, so each distinct result
  is checked once;
- ``check(inst, result)``: None, or ``(outcome, message)`` where outcome is
  ``"non-optimal"`` (the method reported that it did not finish) or
  ``"wrong"`` (the result disagrees with the independent computation).

Every stochlp entry point is looked up on its module at call time
(``stochlp.lshaped.solve_lshaped``, not a name bound at import), so the
traced run's wrappers see each call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import oracle

# Farmer model (Birge & Louveaux, ch. 1.1): acres of wheat, corn and beets;
# the second stage buys shortfalls and sells surpluses under a beet quota.
FARMER_C = np.array([150.0, 230.0, 260.0])
FARMER_A1 = np.array([[1.0, 1.0, 1.0]])
FARMER_B1 = np.array([500.0])
FARMER_W = np.array([[1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, -1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, -1.0, -1.0],
                     [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
FARMER_SENSES = (">=", ">=", ">=", "<=")
FARMER_Q = np.array([238.0, 210.0, -170.0, -150.0, -36.0, -10.0])
FARMER_H = np.array([200.0, 240.0, 0.0, 6000.0])
MEAN_YIELDS = np.array([2.5, 3.0, 20.0])

# L-shaped tolerance of both L-shaped workloads; the check uses it too.
GAP_TOL = 1e-6


def farmer_factors(S, seed, index):
    """S yield factors, each U(0.8, 1.2), by systematic sampling.

    One uniform offset places a factor in each of S equal slices, and a
    random permutation assigns them to scenarios.  The instance changes with
    the seed while the spread of yields does not, so the work a solve does
    (pivots, iteration counts) changes little from seed to seed.  With an
    independent draw per scenario, PH iteration counts on farmer-10 ranged
    over 179-266, against 233-259 this way (seeds 0-9, three instances each).
    """
    rng = np.random.default_rng([seed, index])
    return 0.8 + 0.4 * (rng.permutation(S) + rng.uniform(0.0, 1.0)) / S


def farmer_arrays(factors):
    S = factors.size
    T = np.zeros((S, 4, 3))
    idx = np.arange(3)
    T[:, idx, idx] = factors[:, None] * MEAN_YIELDS[None, :]
    return oracle.TwoStageArrays(
        c=FARMER_C, A1=FARMER_A1, b1=FARMER_B1, lb1=np.zeros(3), W=FARMER_W,
        senses=FARMER_SENSES, q=np.tile(FARMER_Q, (S, 1)), T=T,
        h=np.tile(FARMER_H, (S, 1)), p=np.full(S, 1.0 / S))


def stochlp_problem(a: oracle.TwoStageArrays):
    from stochlp.model import FirstStage, RecourseShape, Scenario, build_problem
    first = FirstStage(c=a.c, A=a.A1, b=a.b1, row_senses=("<=",) * a.b1.size, lb=a.lb1)
    shape = RecourseShape(W=a.W, sense="min", row_senses=a.senses)
    scenarios = [Scenario(probability=a.p[s], q=a.q[s], T=a.T[s], h=a.h[s])
                 for s in range(a.p.size)]
    return build_problem(first, shape, scenarios)


FARMER_COLS1 = ("XWHEAT", "XCORN", "XBEETS")
FARMER_COLS2 = ("BUYW", "BUYC", "SELLW", "SELLC", "SELLB", "SELLX")
FARMER_ROWS2 = ("WHEAT", "CORN", "BEETS", "QUOTA")


def _num(x):
    return repr(float(x))


def write_farmer_smps(a: oracle.TwoStageArrays, stem):
    """CORE/TIME/STOCH triplet with one BLOCKS DISCRETE outcome per scenario."""
    code = {"<=": "L", ">=": "G"}
    core = ["NAME FARMER", "ROWS", " N OBJ", " L LAND"]
    core += [f" {code[s]} {r}" for r, s in zip(FARMER_ROWS2, a.senses)]
    core.append("COLUMNS")
    T0 = a.T[0]
    for j, col in enumerate(FARMER_COLS1):
        core.append(f" {col} OBJ {_num(a.c[j])} LAND {_num(a.A1[0, j])}")
        core += [f" {col} {FARMER_ROWS2[i]} {_num(T0[i, j])}" for i in range(4) if T0[i, j]]
    for j, col in enumerate(FARMER_COLS2):
        core.append(f" {col} OBJ {_num(a.q[0, j])}")
        core += [f" {col} {FARMER_ROWS2[i]} {_num(a.W[i, j])}" for i in range(4) if a.W[i, j]]
    core.append("RHS")
    core.append(f" RHS LAND {_num(a.b1[0])}")
    core += [f" RHS {r} {_num(a.h[0, i])}" for i, r in enumerate(FARMER_ROWS2) if a.h[0, i]]
    core.append("ENDATA")
    time_ = ["TIME FARMER", "PERIODS LP", f" {FARMER_COLS1[0]} LAND PER1",
             f" {FARMER_COLS2[0]} {FARMER_ROWS2[0]} PER2", "ENDATA"]
    stoch = ["STOCH FARMER", "BLOCKS DISCRETE"]
    for s in range(a.p.size):
        stoch.append(f" BL YIELD PER2 {_num(a.p[s])}")
        stoch += [f" {FARMER_COLS1[j]} {FARMER_ROWS2[j]} {_num(a.T[s, j, j])}" for j in range(3)]
    stoch.append("ENDATA")
    paths = []
    for ext, lines in (("cor", core), ("tim", time_), ("sto", stoch)):
        path = f"{stem}.{ext}"
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        paths.append(path)
    return paths


@dataclass
class Instance:
    """One input of a workload: its files on disk and its independent reference."""

    label: str
    paths: list
    arrays: oracle.TwoStageArrays = None
    seed: int = 0
    params: tuple = ()
    _reference: float = None

    def reference(self, compute):
        if self._reference is None:
            self._reference = compute(self)
        return self._reference


def _dep_optimum(inst):
    return oracle.dep_optimum(inst.arrays)[0]


class FarmerWorkload:
    """Farmer-S instances read from disk and solved by one stochlp method."""

    def __init__(self, name, scenarios, toy_scenarios, instances, fmt):
        self.name = name
        self.scenarios = scenarios
        self.toy_scenarios = toy_scenarios
        self.instances = instances
        self.fmt = fmt

    def describe(self, toy):
        S = self.toy_scenarios if toy else self.scenarios
        return {"scenarios": S, "instances": self.instances, "input": self.fmt}

    def prepare(self, seed, workdir, toy):
        S = self.toy_scenarios if toy else self.scenarios
        out = []
        for i in range(self.instances):
            arrays = farmer_arrays(farmer_factors(S, seed, i))
            stem = os.path.join(workdir, f"{self.name}-{i}")
            if self.fmt == "json":
                from stochlp import serialize
                paths = [stem + ".json"]
                serialize.save_problem(stochlp_problem(arrays), paths[0])
            else:
                paths = write_farmer_smps(arrays, stem)
            out.append(Instance(label=f"farmer-{S} #{i}", paths=paths, arrays=arrays))
        return out

    def warmup(self):
        toy = farmer_arrays(farmer_factors(self.toy_scenarios, 0, 0))
        self.solve(None, stochlp_problem(toy))

    def fingerprint(self, rep):
        extra = rep.extras.get("multipliers")
        return (rep.status, rep.objective, rep.decision.tobytes(),
                None if extra is None else extra.tobytes())

    def setup(self, inst):
        import stochlp.serialize
        import stochlp.smps
        if self.fmt == "json":
            return stochlp.serialize.load_problem(inst.paths[0])
        return stochlp.smps.read_smps_files(*inst.paths)


class LShapedWorkload(FarmerWorkload):
    def __init__(self, name, scenarios, toy_scenarios, instances, fmt, cuts,
                 bundles=None, workers=1):
        super().__init__(name, scenarios, toy_scenarios, instances, fmt)
        self.cuts = cuts
        self.bundles = bundles
        self.workers = workers

    def describe(self, toy):
        d = super().describe(toy)
        d.update(cuts=self.cuts, bundles=self.bundles, workers=self.workers,
                 gap_tol=GAP_TOL)
        return d

    def solve(self, inst, problem):
        import stochlp.lshaped
        from stochlp.execution import ExecConfig
        from stochlp.lshaped import LShapedConfig
        engine = ExecConfig(mode="sync", workers=self.workers) if self.workers > 1 \
            else ExecConfig(mode="serial")
        bundle = -(-problem.nscen // self.bundles) if self.bundles else 1
        cfg = LShapedConfig(cuts=self.cuts, bundle_size=bundle, gap_tol=GAP_TOL,
                            execution=engine)
        return stochlp.lshaped.solve_lshaped(problem, cfg)

    def check(self, inst, rep):
        if rep.status != "optimal":
            return "non-optimal", f"status {rep.status}"
        opt = inst.reference(_dep_optimum)
        diff = rep.objective - opt
        slack = 1e-9 * (1.0 + abs(opt))
        if not -slack <= diff <= GAP_TOL * (1.0 + abs(rep.objective)) + slack:
            return "wrong", f"objective {_num(rep.objective)} vs HiGHS DEP {_num(opt)}"
        viol = oracle.first_stage_violation(inst.arrays, rep.decision)
        if viol > 1e-9:
            return "wrong", f"decision violates the first stage by {viol:.3g}"
        value = oracle.evaluate(inst.arrays, rep.decision)
        if abs(value - rep.objective) > 1e-7 * (1.0 + abs(value)):
            return "wrong", f"objective {_num(rep.objective)} vs HiGHS evaluation {_num(value)}"
        return None


class PhWorkload(FarmerWorkload):
    def describe(self, toy):
        d = super().describe(toy)
        d.update(penalty="adaptive", execution="serial")
        return d

    def solve(self, inst, problem):
        import stochlp.phedging
        from stochlp.phedging import PhConfig
        return stochlp.phedging.solve_ph(problem, PhConfig(penalty="adaptive"))

    def check(self, inst, rep):
        if rep.status != "optimal":
            return "non-optimal", f"status {rep.status}"
        opt = inst.reference(_dep_optimum)
        if abs(rep.objective - opt) > 1e-3 * (1.0 + abs(opt)):
            return "wrong", f"objective {_num(rep.objective)} vs HiGHS DEP {_num(opt)}"
        drift = float(np.max(np.abs(inst.arrays.p @ rep.extras["multipliers"])))
        if drift > 1e-6:
            return "wrong", f"sum_s p_s rho_s = {drift:.3g}"
        return None


class SaaWorkload:
    """Sampled VRP, EVPI and VSS intervals on the 'simple' model."""

    name = "simple-saa"
    instances = 1

    def __init__(self, n, eval_samples, rel_tol, toy_n, toy_eval, toy_rel_tol,
                 oracle_n, toy_oracle_n):
        self.full = (n, eval_samples, rel_tol, oracle_n)
        self.toy = (toy_n, toy_eval, toy_rel_tol, toy_oracle_n)

    def describe(self, toy):
        n, ev, tol, on = self.toy if toy else self.full
        return {"n": n, "eval_samples": ev, "rel_tol": tol, "oracle_sample": on,
                "sampler": "simple-normal", "instances": self.instances}

    def prepare(self, seed, workdir, toy):
        saa_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
        return [Instance(label=f"saa seed {saa_seed}", paths=[], seed=saa_seed,
                         params=self.toy if toy else self.full)]

    def setup(self, inst):
        from stochlp import fixtures
        return fixtures.simple_model(), fixtures.simple_sampler()

    def _config(self, n, eval_samples, rel_tol):
        from stochlp.sampling import SaaConfig
        # One round: n0 = max_n, so every seed does the same amount of work.
        return SaaConfig(rel_tol=rel_tol, n0=n, max_n=n, eval_samples=eval_samples)

    def solve(self, inst, problem):
        import stochlp.analysis
        n, eval_samples, rel_tol, _ = inst.params
        model, sampler = problem
        return stochlp.analysis.sampled_measures(
            model, sampler, self._config(n, eval_samples, rel_tol), seed=inst.seed)

    def warmup(self):
        import stochlp.analysis
        n, eval_samples, rel_tol, _ = self.toy
        model, sampler = self.setup(None)
        stochlp.analysis.sampled_measures(model, sampler,
                                          self._config(n, eval_samples, 1.0), seed=1)

    def fingerprint(self, res):
        return tuple((k, m.interval.lo, m.interval.hi, tuple(m.flags), tuple(m.interval.flags))
                     for k, m in sorted(res.items()))

    def check(self, inst, res):
        _, _, rel_tol, oracle_n = inst.params
        vrp, evpi = res["vrp"].interval, res["evpi"].interval
        if not vrp.lo <= vrp.hi:
            return "wrong", f"VRP interval [{vrp.lo}, {vrp.hi}] is not ordered"
        if "budget_exceeded" in vrp.flags:
            return "non-optimal", "VRP interval flagged budget_exceeded"
        if not vrp.relative_error <= rel_tol:
            return "wrong", f"VRP relative width {vrp.relative_error:.4g} > {rel_tol}"
        if not 0.0 <= evpi.lo <= evpi.hi:
            return "wrong", f"EVPI interval [{evpi.lo}, {evpi.hi}] is not ordered and >= 0"
        value = inst.reference(
            lambda i: oracle.simple_sample_optimum(oracle_n, [i.seed, 1]))
        width = vrp.hi - vrp.lo
        if not vrp.lo - width <= value <= vrp.hi + width:
            return "wrong", f"HiGHS sample optimum {_num(value)} outside [{vrp.lo}, {vrp.hi}] widened"
        return None


WORKLOADS = {
    w.name: w for w in (
        LShapedWorkload("farmer-multicut", 150, 12, 1, "json", "multi"),
        LShapedWorkload("farmer-partial-sync2", 1000, 40, 1, "smps", "partial",
                        bundles=8, workers=2),
        PhWorkload("farmer-ph", 10, 3, 3, "json"),
        SaaWorkload(n=64, eval_samples=1000, rel_tol=0.05, toy_n=16, toy_eval=100,
                    toy_rel_tol=0.5, oracle_n=2000, toy_oracle_n=200),
    )
}
