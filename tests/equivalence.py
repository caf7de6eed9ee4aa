"""Solve a fixed grid of problems and print one line per solve, to compare two checkouts.

Each line is ``label | status | iterations | cut totals | repr(objective)``;
L-shaped lines also carry the bunched / LP-solved recourse counts.  Run it
in each checkout, with BLAS on one thread so that round-off is repeatable,
and compare the outputs with ``diff``:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/equivalence.py > equivalence.txt

The grid: {DEP; L-shaped none/tr/rd/level x single/multi; PH fixed and
adaptive x no/one/inf linearization, at most 200 iterations; ``vrp``;
EWS; EEV} on simple, farmer, norrc-1 and farmer-40; farmer-1000 with 8
partial-aggregation bundles of 125 on the sync engine; farmer-150 multi-cut;
random relatively complete (rcr) and not relatively complete (norrc)
instances, seeds 0-19 x single/multi x none/tr/rd/level; and the sampled
VRP/EVPI/VSS intervals on the simple model with n = 64, seeds 0-2, under the
normal and the discrete sampler (the discrete one draws repeats, which
``sampling._collapse_duplicates`` merges); and progressive hedging, fixed
and adaptive, to convergence (at most 5000 iterations) on the sampled
simple-model instances
``sampling._batch_instance(simple_model(), simple_sampler(), n, seed)``
with n = 16 and 64, seeds 0-2; and the DEP and single-cut L-shaped solves
of each small-grid instance after an in-memory ``serialize`` round trip;
and, on the small and the random instances, L-shaped single/multi x
none/tr/rd/level once with cut consolidation and once on the async engine
with kappa 0.5 and one worker (one worker keeps the order of results, so
the async lines repeat from run to run).  Last come the generated scenario
sets, one ``label | sha256`` line each over the batch arrays' dtype, shape
and bytes and its row senses: SMPS reads of the toy triplets, of an INDEP
plus BLOCKS triplet whose second block outcome leaves a target to the
INDEP entry, and of the benchmark's farmer-1000 BLOCKS triplet (written by
``perfbench/workloads.write_farmer_smps``); and ``sampling._draws`` and
``sampling._batch_instance`` of the simple model's normal and discrete
samplers at seeds {0, 1, 12345} x n in {1, 16, 64}, plus n = 1000 draws.
pytest does not collect this file.
"""

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from stochlp import analysis, fixtures, kernel, lshaped, sampling, serialize, smps
from stochlp.errors import StochLPError
from stochlp.execution import ExecConfig
from stochlp.lshaped import LShapedConfig, solve_lshaped
from stochlp.model import build_deterministic_equivalent
from stochlp.phedging import PhConfig, solve_ph
from stochlp.sampling import SaaConfig

from _problems import farmer_instance, random_norrc_problem, random_rcr_problem
from test_smps import CORE, STOCH_1, STOCH_2, TIME

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (perfbench imports its modules by bare name)

REGULARIZATIONS = ("none", "tr", "rd", "level")


def line(label, run):
    """One output line for ``run()``; a package error is a status too."""
    try:
        fields = run()
    except StochLPError as exc:
        fields = (f"{type(exc).__name__}: {exc}",)
    print(" | ".join([label, *map(str, fields)]), flush=True)


def lshaped_fields(problem, cfg):
    rep = solve_lshaped(problem, cfg)
    rec = rep.extras["recourse"]
    return (rep.status, rep.iterations, rep.cut_counts,
            f"bunched {rec['bunched']} lp {rec['lp_solved']}", repr(rep.objective))


def dep_fields(problem):
    sol = kernel.solve_lp(build_deterministic_equivalent(problem))
    return sol.status, sol.iterations, "-", repr(float(sol.objective))


def ph_fields(problem, penalty, linearize, max_iterations=200):
    rep = solve_ph(problem, PhConfig(penalty=penalty, linearize=linearize,
                                     max_iterations=max_iterations))
    return rep.status, rep.iterations, "-", repr(rep.objective)


def small_instances():
    return {"simple": fixtures.simple_problem(), "farmer": fixtures.farmer_problem(),
            "norrc-1": fixtures.norrc1_problem(), "farmer-40": farmer_instance(40, 1)}


def small_grid():
    for name, p in small_instances().items():
        line(f"{name} dep", lambda: dep_fields(p))
        for cuts in ("single", "multi"):
            for reg in REGULARIZATIONS:
                line(f"{name} lshaped {cuts} {reg}",
                     lambda: lshaped_fields(p, LShapedConfig(cuts=cuts, regularization=reg)))
        for penalty in ("fixed", "adaptive"):
            for linearize in (None, "one", "inf"):
                line(f"{name} ph {penalty} {linearize}",
                     lambda: ph_fields(p, penalty, linearize))
        line(f"{name} vrp", lambda: ("-", "-", "-", repr(float(lshaped.vrp(p)[0]))))
        line(f"{name} ews", lambda: ("-", "-", "-", repr(analysis.ews(p))))
        line(f"{name} eev", lambda: ("-", "-", "-", repr(analysis.eev(p)[0])))


def large_grid():
    sync2 = ExecConfig(mode="sync", workers=2)
    line("farmer-1000 partial:125 sync2", lambda: lshaped_fields(
        farmer_instance(1000, 1), LShapedConfig(cuts="partial", bundle_size=125,
                                                execution=sync2)))
    line("farmer-150 multi", lambda: lshaped_fields(farmer_instance(150, 1),
                                                    LShapedConfig(cuts="multi")))


def random_instances():
    for kind, make in (("rcr", random_rcr_problem), ("norrc", random_norrc_problem)):
        for seed in range(20):
            yield f"{kind}{seed}", make(seed)


def random_grid():
    for name, p in random_instances():
        for cuts in ("single", "multi"):
            for reg in REGULARIZATIONS:
                line(f"{name} {cuts} {reg}",
                     lambda: lshaped_fields(p, LShapedConfig(cuts=cuts, regularization=reg)))


def sampled_grid():
    cfg = SaaConfig(rel_tol=0.05, n0=64, max_n=64, eval_samples=1000)
    for label, sampler in (("simple", fixtures.simple_sampler()),
                           ("simple-discrete", fixtures.simple_discrete_sampler())):
        for seed in range(3):
            def run():
                res = analysis.sampled_measures(fixtures.simple_model(), sampler, cfg,
                                                seed=seed)
                return ("-", "-", "-", " ".join(
                    f"{k} [{float(m.interval.lo)!r}, {float(m.interval.hi)!r}]"
                    for k, m in sorted(res.items())))
            line(f"{label} sampled n=64 seed {seed}", run)


def ph_probe_grid():
    for n in (16, 64):
        for seed in range(3):
            p = sampling._batch_instance(fixtures.simple_model(), fixtures.simple_sampler(),
                                         n, seed)
            for penalty in ("fixed", "adaptive"):
                line(f"simple probe n={n} seed {seed} ph {penalty}",
                     lambda: ph_fields(p, penalty, None, max_iterations=5000))


def round_trip_grid():
    for name, p in small_instances().items():
        q = serialize.problem_from_dict(serialize.problem_to_dict(p))
        line(f"{name} round-trip dep", lambda: dep_fields(q))
        line(f"{name} round-trip lshaped single none",
             lambda: lshaped_fields(q, LShapedConfig(cuts="single")))


def master_grid():
    async1 = ExecConfig(mode="async", workers=1, kappa=0.5)
    for name, p in [*small_instances().items(), *random_instances()]:
        for cuts in ("single", "multi"):
            for reg in REGULARIZATIONS:
                cfg = LShapedConfig(cuts=cuts, regularization=reg)
                line(f"{name} lshaped {cuts} {reg} consolidation",
                     lambda: lshaped_fields(p, replace(cfg, consolidation=True)))
                line(f"{name} lshaped {cuts} {reg} {async1.label} workers 1",
                     lambda: lshaped_fields(p, replace(cfg, execution=async1)))


def batch_digest(batch):
    """sha256 of a scenario batch: each array's dtype, shape and bytes, then its row senses."""
    h = hashlib.sha256()
    for a in (batch.probability, batch.q, batch.T, batch.h, batch.lb, batch.ub):
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(batch.senses).encode())
    return h.hexdigest()


# ROW2's rhs and Y1's cost are INDEP entries; block B1's second outcome sets
# Y1's cost only, so ROW2 keeps the INDEP value there
STOCH_MIXED = """\
STOCH TOY
INDEP DISCRETE
 RHS ROW2 4.0 0.3
 RHS ROW2 10.0 0.7
 X1 ROW2 1.0 0.25
 X1 ROW2 0.5 0.75
BLOCKS DISCRETE
 BL B1 PER2 0.6
 RHS ROW2 7.0
 Y1 OBJ 3.0
 BL B1 PER2 0.4
 Y1 OBJ 5.0
ENDATA
"""


def batch_grid():
    for name, stoch in (("toy-1", STOCH_1), ("toy-2", STOCH_2), ("toy-mixed", STOCH_MIXED)):
        line(f"smps {name} batch", lambda: (batch_digest(smps.read_smps(
            smps.SmpsTriplet(core=CORE, time=TIME, stoch=stoch)).batch),))
    with tempfile.TemporaryDirectory() as tmp:
        arrays = workloads.farmer_arrays(workloads.farmer_factors(1000, 1, 0))
        paths = workloads.write_farmer_smps(arrays, str(Path(tmp) / "farmer-1000"))
        line("smps farmer-1000 batch",
             lambda: (batch_digest(smps.read_smps_files(*paths).batch),))
    model = fixtures.simple_model()
    for label, sampler in (("normal", fixtures.simple_sampler()),
                           ("discrete", fixtures.simple_discrete_sampler())):
        for seed in (0, 1, 12345):
            for n in (1, 16, 64):
                line(f"{label} draws n={n} seed {seed}",
                     lambda: (batch_digest(sampling._draws(sampler, model.shape, n, seed)),))
                line(f"{label} instance n={n} seed {seed}",
                     lambda: (batch_digest(sampling._batch_instance(model, sampler, n,
                                                                    seed).batch),))
        line(f"{label} draws n=1000 seed 0",
             lambda: (batch_digest(sampling._draws(sampler, model.shape, 1000, 0)),))


if __name__ == "__main__":
    for grid in (small_grid, large_grid, random_grid, sampled_grid, ph_probe_grid,
                 round_trip_grid, master_grid, batch_grid):
        grid()
