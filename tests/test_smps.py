"""SMPS parsing: CORE/TIME/STOCH triplets, cross products, error paths."""

import itertools

import numpy as np
import pytest

from stochlp import kernel
from stochlp.errors import (
    ParseError,
    ScenarioExplosion,
    TwoPeriodOnly,
    UnsupportedSection,
)
from stochlp.model import build_deterministic_equivalent, build_expected_value_problem
from stochlp.smps import (
    RandomPosition,
    SmpsTriplet,
    cross_product_scenarios,
    parse_mps,
    read_smps,
)

# min x1 + 2 y1, x1 <= 8 (ROW1), y1 >= d - x1 (ROW2: x1 + y1 >= d), x1,y1 >= 0
CORE = """\
* hand-written two-stage core
NAME TOY
ROWS
 N OBJ
 L ROW1
 G ROW2
COLUMNS
 X1 OBJ 1.0 ROW1 1.0
 X1 ROW2 1.0
 Y1 OBJ 2.0 ROW2 1.0
RHS
 RHS ROW1 8.0 ROW2 4.0
BOUNDS
ENDATA
"""

TIME = """\
TIME TOY
PERIODS LP
 X1 ROW1 PER1
 Y1 ROW2 PER2
ENDATA
"""

STOCH_2 = """\
STOCH TOY
INDEP DISCRETE
 RHS ROW2 4.0 0.3
 RHS ROW2 10.0 0.7
ENDATA
"""

STOCH_1 = """\
STOCH TOY
INDEP DISCRETE
 RHS ROW2 5.0 1.0
ENDATA
"""


def _dep_value(problem):
    sol = kernel.solve_lp(build_deterministic_equivalent(problem))
    assert sol.status == kernel.OPTIMAL
    return sol.objective


class TestReadSmps:
    def test_two_outcome_rhs(self):
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=STOCH_2))
        assert p.nscen == 2
        np.testing.assert_allclose(sorted(p.batch.probability),
                                   [0.3, 0.7])
        # hand-solved: min x + 2 E[max(d - x, 0)]; E-d branch: x*=8 when the
        # expensive recourse dominates; check against enumerated optimum
        val = _dep_value(p)
        xs = np.linspace(0, 8, 1601)
        hand = min(x + 0.3 * 2 * max(4 - x, 0) + 0.7 * 2 * max(10 - x, 0)
                   for x in xs)
        assert val == pytest.approx(hand, abs=1e-6)

    def test_single_outcome_equals_core_lp(self):
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=STOCH_1))
        assert p.nscen == 1
        assert p.batch.probability[0] == 1.0
        assert p.batch.h[0][0] == 5.0

    def test_dimensions_and_split(self):
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=STOCH_1))
        assert p.n == 1 and p.m == 1 and p.r == 1
        assert p.first.row_senses == ("<=",)
        assert p.shape.row_senses == (">=",)
        np.testing.assert_allclose(np.asarray(p.batch.T[0]), [[1.0]])

    def test_validate_clean(self):
        from stochlp.model import validate
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=STOCH_2))
        assert validate(p) == []

    def test_three_periods_rejected(self):
        bad_time = TIME.replace("ENDATA", " Y1 ROW2 PER3\nENDATA")
        with pytest.raises(TwoPeriodOnly):
            read_smps(SmpsTriplet(core=CORE, time=bad_time, stoch=STOCH_1))

    def test_scenarios_section_rejected(self):
        sto = "STOCH TOY\nSCENARIOS DISCRETE\nENDATA\n"
        with pytest.raises(UnsupportedSection, match="SCENARIOS"):
            read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))

    def test_continuous_distribution_rejected(self):
        sto = "STOCH TOY\nINDEP NORMAL\n RHS ROW2 4.0 1.0\nENDATA\n"
        with pytest.raises(UnsupportedSection, match="INDEP NORMAL"):
            read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))

    def test_random_w_rejected(self):
        sto = "STOCH TOY\nINDEP DISCRETE\n Y1 ROW2 2.0 1.0\nENDATA\n"
        with pytest.raises(ParseError, match="W must be fixed"):
            read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))

    def test_random_q_and_t(self):
        sto = ("STOCH TOY\nINDEP DISCRETE\n"
               " Y1 OBJ 2.0 0.5\n Y1 OBJ 3.0 0.5\n"
               " X1 ROW2 1.0 0.25\n X1 ROW2 0.5 0.75\n"
               "ENDATA\n")
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))
        assert p.nscen == 4
        assert abs(sum(p.batch.probability) - 1.0) <= 1e-9

    def test_name_mismatch(self):
        with pytest.raises(ParseError, match="does not match"):
            read_smps(SmpsTriplet(core=CORE, time=TIME.replace("TOY", "OTHER"),
                                  stoch=STOCH_1))

    def test_explosion_cap(self):
        lines = ["STOCH TOY", "INDEP DISCRETE"]
        for k in range(20):
            lines.append(f" RHS ROW2 {k}.0 0.5")
            lines.append(f" RHS ROW2 {k}.5 0.5")
        # 20 entries on one position is a distribution with 40 outcomes, fine;
        # build explosion with many T positions instead
        sto = "STOCH TOY\nINDEP DISCRETE\n"
        sto += " RHS ROW2 1.0 0.5\n RHS ROW2 2.0 0.5\n"
        sto += " X1 ROW2 1.0 0.5\n X1 ROW2 2.0 0.5\n"
        sto += " Y1 OBJ 1.0 0.5\n Y1 OBJ 2.0 0.5\nENDATA\n"
        with pytest.raises(ScenarioExplosion):
            read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto), cap=7)

    def test_bad_probability_sum(self):
        sto = "STOCH TOY\nINDEP DISCRETE\n RHS ROW2 4.0 0.3\n RHS ROW2 9.0 0.6\nENDATA\n"
        with pytest.raises(ParseError, match="sum"):
            read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))

    def test_ranges_rejected(self):
        core = CORE.replace("BOUNDS\n", "RANGES\n R RHS ROW1 2.0\nBOUNDS\n")
        with pytest.raises(UnsupportedSection, match="RANGES"):
            read_smps(SmpsTriplet(core=core, time=TIME, stoch=STOCH_1))

    def test_parse_error_has_location(self):
        core = CORE.replace(" X1 OBJ 1.0 ROW1 1.0", " X1 OBJ junk ROW1 1.0")
        with pytest.raises(ParseError) as exc:
            read_smps(SmpsTriplet(core=core, time=TIME, stoch=STOCH_1))
        assert exc.value.line_no > 0


def _indep(target, outcomes):
    """The position of one INDEP entry with ``outcomes`` [(value, probability)]."""
    return RandomPosition(f"entry {target}", [({target: v}, pr) for v, pr in outcomes])


class TestCrossProduct:
    def test_two_by_three(self):
        pos = [_indep(("h", 0), [(1.0, 0.5), (2.0, 0.5)]),
               _indep(("q", 0), [(1.0, 0.2), (2.0, 0.3), (3.0, 0.5)])]
        prob, q, T, h = cross_product_scenarios(pos, np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        assert prob.shape == (6,) and q.shape == (6, 1) and T.shape == (6, 1, 1)
        assert abs(sum(prob) - 1.0) <= 1e-12
        assert prob[0] == pytest.approx(0.1)
        # the first position varies slowest
        np.testing.assert_array_equal(h[:, 0], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(q[:, 0], [1.0, 2.0, 3.0, 1.0, 2.0, 3.0])

    def test_single_position(self):
        pos = [_indep(("h", 0), [(1.0, 0.4), (2.0, 0.6)])]
        prob, _, _, _ = cross_product_scenarios(pos, np.zeros(1), np.zeros((1, 1)), np.zeros(1))
        assert prob.tolist() == [0.4, 0.6]

    def test_uniform_cube(self):
        pos = [_indep(("h", i), [(0.0, 0.5), (1.0, 0.5)]) for i in range(3)]
        prob, _, _, _ = cross_product_scenarios(pos, np.zeros(1), np.zeros((3, 1)),
                                                np.zeros(3))
        assert prob.size == 8
        assert all(pr == pytest.approx(0.125) for pr in prob)
        assert sum(prob) == pytest.approx(1.0, abs=1e-9)

    def test_explosion_raised_before_the_grid_is_built(self):
        # 2^40 scenarios: a grid allocated before the check could not be built
        pos = [_indep(("h", 0), [(0.0, 0.5), (1.0, 0.5)]) for _ in range(40)]
        with pytest.raises(ScenarioExplosion):
            cross_product_scenarios(pos, np.zeros(1), np.zeros((1, 1)), np.zeros(1), cap=7)

    def test_equals_the_per_combination_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        pos = [_indep(("h", 1), [(1.5, 0.3), (2.5, 0.7)]),
               RandomPosition("block", [({("T", 0, 1): 4.0, ("h", 1): 9.0}, 0.1),
                                        ({("q", 0): 7.0}, 0.9)]),
               _indep(("T", 0, 1), [(v, 1 / 3) for v in rng.normal(size=3)])]
        q0, T0, h0 = rng.normal(size=2), rng.normal(size=(2, 2)), rng.normal(size=2)
        prob, q, T, h = cross_product_scenarios(pos, q0, T0, h0)
        for s, combo in enumerate(itertools.product(*(position.outcomes for position in pos))):
            ref, pr = [q0.copy(), T0.copy(), h0.copy()], 1.0
            for assign, outcome_probability in combo:
                pr *= outcome_probability
                for (kind, *index), v in assign.items():
                    ref["qTh".index(kind)][tuple(index)] = v
            assert prob[s] == pr
            for a, b in zip((q[s], T[s], h[s]), ref):
                np.testing.assert_array_equal(a, b)

    def test_block_outcome_that_omits_a_target_keeps_the_indep_value(self):
        sto = ("STOCH TOY\nINDEP DISCRETE\n RHS ROW2 4.0 0.3\n RHS ROW2 10.0 0.7\n"
               "BLOCKS DISCRETE\n"
               " BL B1 PER2 0.6\n RHS ROW2 7.0\n Y1 OBJ 3.0\n"
               " BL B1 PER2 0.4\n Y1 OBJ 5.0\n"
               "ENDATA\n")
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))
        np.testing.assert_array_equal(p.batch.h[:, 0], [7.0, 4.0, 7.0, 10.0])
        np.testing.assert_array_equal(p.batch.q[:, 0], [3.0, 5.0, 3.0, 5.0])
        np.testing.assert_array_equal(p.batch.probability, [0.3 * 0.6, 0.3 * 0.4,
                                                            0.7 * 0.6, 0.7 * 0.4])


class TestBlocks:
    def test_joint_block(self):
        sto = ("STOCH TOY\nBLOCKS DISCRETE\n"
               " BL B1 PER2 0.5\n RHS ROW2 4.0\n Y1 OBJ 2.0\n"
               " BL B1 PER2 0.5\n RHS ROW2 9.0\n Y1 OBJ 5.0\n"
               "ENDATA\n")
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=sto))
        assert p.nscen == 2
        hs = sorted(h[0] for h in p.batch.h)
        assert hs == [4.0, 9.0]
        qs = sorted(q[0] for q in p.batch.q)
        assert qs == [2.0, 5.0]


class TestRoundTrip:
    def test_ev_problem_mps_round_trip(self):
        p = read_smps(SmpsTriplet(core=CORE, time=TIME, stoch=STOCH_2))
        ev = build_expected_value_problem(p)
        sol = kernel.solve_lp(ev)
        text = kernel.write_mps(ev, "EVPROB")
        mps = parse_mps(text)
        rows = mps.row_names()
        A = np.zeros((len(rows), len(mps.cols)))
        for (row, col), v in mps.entries.items():
            A[rows.index(row), mps.cols.index(col)] = v
        from stochlp.model import LPInstance
        lp2 = LPInstance(c=[mps.obj.get(cn, 0.0) for cn in mps.cols], A=A,
                         rhs=[mps.rhs.get(rn, 0.0) for rn in rows],
                         row_senses=tuple(s for _, s in mps.rows),
                         lb=[mps.lb.get(cn, 0.0) for cn in mps.cols],
                         ub=[mps.ub.get(cn, np.inf) for cn in mps.cols])
        sol2 = kernel.solve_lp(lp2)
        assert sol2.objective == pytest.approx(sol.objective, abs=1e-9)
