"""SMPS reader: CORE (MPS) + TIME (two periods) + STOCH (discrete sections).

Whitespace-tolerant parsing; comment lines start with ``*`` in column 1 and
names are case-sensitive.  Supported stochastic sections are INDEP DISCRETE
and BLOCKS DISCRETE; randomness may appear in second-stage costs q, in
technology-matrix entries T, and in the right-hand side h.  Random entries
in the recourse matrix W are rejected (fixed recourse), as is first-stage
randomness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParseError,
    ScenarioExplosion,
    TwoPeriodOnly,
    UnsupportedSection,
)
from .model import (
    FirstStage,
    RecourseShape,
    TwoStageProblem,
    problem_from_batch,
    stack_arrays,
    write_targets,
)

DEFAULT_SCENARIO_CAP = 100000


@dataclass
class SmpsTriplet:
    core: str
    time: str
    stoch: str
    name: str = ""      # filled from the files; must match across them


def _lines(text, filename):
    for no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("*"):
            continue
        yield no, raw


def _is_section(raw):
    return raw[:1] not in (" ", "\t")


@dataclass
class MpsData:
    name: str = ""
    obj_row: str = None
    rows: list = None          # (name, sense) in declaration order, N rows excluded
    cols: list = None          # declaration order
    obj: dict = None           # col -> objective coefficient
    entries: dict = None       # (row, col) -> value
    rhs: dict = None           # row -> value
    rhs_name: str = ""
    lb: dict = None
    ub: dict = None
    free_rows: set = None
    sense: str = "min"

    def row_names(self):
        return [r for r, _ in self.rows]


_SENSE_BY_CODE = {"L": "<=", "G": ">=", "E": "="}


def parse_mps(text, filename="<core>") -> MpsData:
    """Parse fixed- or free-format MPS by whitespace tokenization."""
    data = MpsData(rows=[], cols=[], obj={}, entries={}, rhs={}, lb={}, ub={},
                   free_rows=set())
    section = None
    seen_cols = set()
    for no, raw in _lines(text, filename):
        if _is_section(raw):
            tok = raw.split()
            section = tok[0].upper()
            if section == "NAME":
                data.name = tok[1] if len(tok) > 1 else ""
            elif section not in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
                raise UnsupportedSection(section, filename)
            if section == "ENDATA":
                break
            continue
        tok = raw.split()
        if section == "OBJSENSE":
            data.sense = "max" if tok[0].upper() in ("MAX", "MAXIMIZE") else "min"
        elif section == "ROWS":
            if len(tok) != 2:
                raise ParseError(filename, no, f"malformed row record: {raw.strip()!r}")
            code, name = tok[0].upper(), tok[1]
            if code == "N":
                if data.obj_row is None:
                    data.obj_row = name
                else:
                    data.free_rows.add(name)
            elif code in _SENSE_BY_CODE:
                data.rows.append((name, _SENSE_BY_CODE[code]))
            else:
                raise ParseError(filename, no, f"unknown row sense {code!r}")
        elif section == "COLUMNS":
            if len(tok) >= 3 and tok[1] == "'MARKER'":
                raise UnsupportedSection("COLUMNS MARKER (integer variables)", filename)
            if len(tok) not in (3, 5):
                raise ParseError(filename, no, f"malformed column record: {raw.strip()!r}")
            col = tok[0]
            if col not in seen_cols:
                seen_cols.add(col)
                data.cols.append(col)
            for row, val in zip(tok[1::2], tok[2::2]):
                v = _num(val, filename, no)
                if row == data.obj_row:
                    data.obj[col] = data.obj.get(col, 0.0) + v
                elif row in data.free_rows:
                    continue
                else:
                    data.entries[(row, col)] = data.entries.get((row, col), 0.0) + v
        elif section == "RHS":
            if len(tok) not in (3, 5):
                raise ParseError(filename, no, f"malformed rhs record: {raw.strip()!r}")
            for row, val in zip(tok[1::2], tok[2::2]):
                data.rhs_name = tok[0]
                if row == data.obj_row or row in data.free_rows:
                    continue
                data.rhs[row] = _num(val, filename, no)
        elif section == "BOUNDS":
            kind = tok[0].upper()
            if kind in ("BV", "LI", "UI", "SC"):
                raise UnsupportedSection(f"bound type {kind}", filename)
            if kind in ("FR", "MI", "PL"):
                if len(tok) != 3:
                    raise ParseError(filename, no, f"malformed bound record: {raw.strip()!r}")
                col = tok[2]
                if kind == "FR":
                    data.lb[col] = -np.inf
                    data.ub[col] = np.inf
                elif kind == "MI":
                    data.lb[col] = -np.inf
                else:
                    data.ub[col] = np.inf
            else:
                if len(tok) != 4:
                    raise ParseError(filename, no, f"malformed bound record: {raw.strip()!r}")
                col, v = tok[2], _num(tok[3], filename, no)
                if kind == "UP":
                    data.ub[col] = v
                elif kind == "LO":
                    data.lb[col] = v
                elif kind == "FX":
                    data.lb[col] = v
                    data.ub[col] = v
                else:
                    raise UnsupportedSection(f"bound type {kind}", filename)
        elif section is None:
            raise ParseError(filename, no, "data record before any section header")
    if data.obj_row is None:
        raise ParseError(filename, 0, "no objective (N) row declared")
    return data


def _num(tok, filename, no):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(filename, no, f"expected a number, got {tok!r}") from None


def parse_time(text, filename="<time>"):
    """Two-period TIME file, implicit format: (column, row, period) markers."""
    name = ""
    periods = []
    section = None
    for no, raw in _lines(text, filename):
        if _is_section(raw):
            tok = raw.split()
            section = tok[0].upper()
            if section == "TIME":
                name = tok[1] if len(tok) > 1 else ""
            elif section == "PERIODS":
                if len(tok) > 1 and tok[1].upper() == "EXPLICIT":
                    raise UnsupportedSection("PERIODS EXPLICIT", filename)
            elif section == "ENDATA":
                break
            else:
                raise UnsupportedSection(section, filename)
            continue
        if section == "PERIODS":
            tok = raw.split()
            if len(tok) < 3:
                raise ParseError(filename, no, f"malformed period record: {raw.strip()!r}")
            periods.append((tok[0], tok[1], tok[2]))
    if len(periods) != 2:
        raise TwoPeriodOnly(f"{filename}: {len(periods)} periods declared, exactly 2 supported")
    return name, periods


def parse_stoch(text, filename="<stoch>"):
    """INDEP DISCRETE and BLOCKS DISCRETE records: the name, then the INDEP
    entries and the blocks as dicts of position name -> list of outcomes."""
    name = ""
    indep = {}       # "entry (col, row)" -> [{"values": {(col, row): value}, "prob": p}]
    blocks = {}      # "block 'name'" -> [{"values": {(col, row): value, ...}, "prob": p}]
    section = None
    cur_block = None     # the outcome of the last BL record
    for no, raw in _lines(text, filename):
        if _is_section(raw):
            tok = raw.split()
            head = tok[0].upper()
            if head == "STOCH":
                name = tok[1] if len(tok) > 1 else ""
                continue
            if head == "ENDATA":
                break
            dist = tok[1].upper() if len(tok) > 1 else ""
            if head == "INDEP":
                if dist != "DISCRETE":
                    raise UnsupportedSection(f"INDEP {dist}", filename)
                section = "INDEP"
            elif head == "BLOCKS":
                if dist != "DISCRETE":
                    raise UnsupportedSection(f"BLOCKS {dist}", filename)
                section = "BLOCKS"
            else:
                raise UnsupportedSection(head, filename)
            continue
        tok = raw.split()
        if section == "INDEP":
            if len(tok) == 4:
                col, row, val, prob = tok[0], tok[1], tok[2], tok[3]
            elif len(tok) == 5:
                col, row, val, _, prob = tok
            else:
                raise ParseError(filename, no, f"malformed INDEP record: {raw.strip()!r}")
            indep.setdefault(f"entry ({col}, {row})", []).append(
                {"values": {(col, row): _num(val, filename, no)}, "prob": _num(prob, filename, no)})
        elif section == "BLOCKS":
            if tok[0] == "BL":
                if len(tok) not in (3, 4):
                    raise ParseError(filename, no, f"malformed BL record: {raw.strip()!r}")
                cur_block = {"values": {}, "prob": _num(tok[-1], filename, no)}
                blocks.setdefault(f"block {tok[1]!r}", []).append(cur_block)
            else:
                if cur_block is None:
                    raise ParseError(filename, no, "block data before any BL record")
                if len(tok) not in (3, 5):
                    raise ParseError(filename, no, f"malformed block record: {raw.strip()!r}")
                for row, val in zip(tok[1::2], tok[2::2]):
                    cur_block["values"][(tok[0], row)] = _num(val, filename, no)
        else:
            raise ParseError(filename, no, "data record before any section header")
    return name, indep, blocks


@dataclass
class RandomPosition:
    """An INDEP entry or a BLOCKS block: independent outcomes, each setting targets
    ("q", j), ("h", i) or ("T", i, j) (an INDEP outcome sets one)."""

    name: str                       # for messages: "entry (col, row)" | "block 'B'"
    outcomes: list                  # [({target: value}, probability)]


def cross_product_scenarios(positions, base_q, base_T, base_h, cap=DEFAULT_SCENARIO_CAP):
    """The full scenario set of independent discrete positions, as stacked
    ``(probability, q, T, h)`` in ``itertools.product`` order of the outcomes
    (the first position varies slowest).  Each probability is a product of
    outcome probabilities in position order; a target takes the value of the
    last position whose outcome sets it, else the base value.
    """
    positions = list(positions)
    total = 1
    for pos in positions:
        total *= len(pos.outcomes)
        if total > cap:
            raise ScenarioExplosion(total, cap)
        psum = sum(pr for _, pr in pos.outcomes)
        if abs(psum - 1.0) > 1e-6:
            raise ParseError("stoch", 0,
                             f"outcome probabilities of {pos.name} sum to {psum:.8g}")
    # grid[i] is position i's outcome in every scenario; C order: first slowest
    grid = np.indices([len(pos.outcomes) for pos in positions]).reshape(len(positions), total)
    base = {"q": base_q, "T": base_T, "h": base_h}
    probability = np.ones(total)
    column = {}          # target -> its value in every scenario, in order of first write
    for pos, outcome in zip(positions, grid):
        probability = probability * np.array([pr for _, pr in pos.outcomes])[outcome]
        for target in dict.fromkeys(t for assign, _ in pos.outcomes for t in assign):
            sets = np.array([target in assign for assign, _ in pos.outcomes])
            value = np.array([assign.get(target, 0.0) for assign, _ in pos.outcomes])
            before = column.get(target, np.asarray(base[target[0]], dtype=float)[target[1:]])
            column[target] = np.where(sets[outcome], value[outcome], before)
    values = np.array(list(column.values())).reshape(len(column), total).T
    return (probability, *write_targets(base_q, base_T, base_h, list(column), values))


def read_smps(triplet: SmpsTriplet, cap=DEFAULT_SCENARIO_CAP) -> TwoStageProblem:
    """Build a TwoStageProblem from CORE/TIME/STOCH text."""
    core = parse_mps(triplet.core, "core")
    tname, periods = parse_time(triplet.time, "time")
    sname, indep, blocks = parse_stoch(triplet.stoch, "stoch")
    for other, which in ((tname, "time"), (sname, "stoch")):
        if core.name and other and core.name != other:
            raise ParseError(which, 0,
                             f"problem name {other!r} does not match core {core.name!r}")

    col2, row2 = periods[1][0], periods[1][1]
    cols = core.cols
    row_names = core.row_names()
    if col2 not in cols:
        raise ParseError("time", 0, f"unknown column {col2!r} in period marker")
    if row2 not in row_names:
        raise ParseError("time", 0, f"unknown row {row2!r} in period marker")
    n = cols.index(col2)
    p = row_names.index(row2)
    stage1_cols = cols[:n]
    stage2_cols = cols[n:]
    stage1_rows = row_names[:p]
    stage2_rows = row_names[p:]
    m, r = len(stage2_cols), len(stage2_rows)
    if n == 0 or m == 0 or r == 0:
        raise ParseError("time", 0, "period split leaves an empty stage")
    c1 = {name: i for i, name in enumerate(stage1_cols)}
    c2 = {name: j for j, name in enumerate(stage2_cols)}
    r1 = {name: i for i, name in enumerate(stage1_rows)}
    r2 = {name: i for i, name in enumerate(stage2_rows)}

    A = np.zeros((p, n))
    T0 = np.zeros((r, n))
    W = np.zeros((r, m))
    for (row, col), v in core.entries.items():
        if row in r1:
            if col in c1:
                A[r1[row], c1[col]] = v
            else:
                raise ParseError("core", 0,
                                 f"first-period row {row!r} touches second-period column {col!r}")
        elif row in r2:
            if col in c1:
                T0[r2[row], c1[col]] = v
            else:
                W[r2[row], c2[col]] = v
        else:
            raise ParseError("core", 0, f"entry references unknown row {row!r}")

    def bounds_for(names):
        lo = np.array([core.lb.get(cn, 0.0) for cn in names])
        hi = np.array([core.ub.get(cn, np.inf) for cn in names])
        return lo, hi

    lb1, ub1 = bounds_for(stage1_cols)
    lb2, ub2 = bounds_for(stage2_cols)
    first = FirstStage(
        c=np.array([core.obj.get(cn, 0.0) for cn in stage1_cols]),
        A=A, b=np.array([core.rhs.get(rn, 0.0) for rn in stage1_rows]),
        row_senses=tuple(s for _, s in core.rows[:p]),
        lb=lb1, ub=ub1, sense=core.sense)
    shape = RecourseShape(W=W, sense=core.sense,
                          row_senses=tuple(s for _, s in core.rows[p:]),
                          lb=lb2, ub=ub2)
    q0 = np.array([core.obj.get(cn, 0.0) for cn in stage2_cols])
    h0 = np.array([core.rhs.get(rn, 0.0) for rn in stage2_rows])

    def classify(col, row, where):
        if col in (core.rhs_name, "RHS", "rhs"):
            if row not in r2:
                raise ParseError(where, 0, f"random rhs row {row!r} is not second-stage")
            return ("h", r2[row])
        if row == core.obj_row:
            if col not in c2:
                raise ParseError(where, 0,
                                 f"random objective column {col!r} is not second-stage")
            return ("q", c2[col])
        if row in r2 and col in c1:
            return ("T", r2[row], c1[col])
        if row in r2 and col in c2:
            raise ParseError(where, 0,
                             f"random recourse entry ({row!r}, {col!r}): W must be fixed")
        raise ParseError(where, 0,
                         f"random entry ({row!r}, {col!r}) is not second-stage data")

    positions = [RandomPosition(name, [({classify(col, row, "stoch"): v
                                         for (col, row), v in out["values"].items()}, out["prob"])
                                       for out in outcomes])
                 for name, outcomes in [*indep.items(), *blocks.items()]]
    probability, q, T, h = cross_product_scenarios(positions, q0, T0, h0, cap)
    defaults = [None] * probability.size
    return problem_from_batch(first, stack_arrays(shape, probability, q, T, h,
                                                  defaults, defaults, defaults))


def read_smps_files(core_path, time_path=None, stoch_path=None,
                    cap=DEFAULT_SCENARIO_CAP) -> TwoStageProblem:
    """Read a triplet from paths; with one argument the .cor/.tim/.sto siblings are used."""
    base = os.path.splitext(core_path)[0]
    texts = []
    for path in (core_path, time_path or base + ".tim", stoch_path or base + ".sto"):
        with open(path) as f:
            texts.append(f.read())
    return read_smps(SmpsTriplet(*texts), cap=cap)
