"""CLI: subcommands, exit codes, report files, config echo."""

import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "stochlp.cli"]

CORE = """\
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
ENDATA
"""
TIME = """\
TIME TOY
PERIODS LP
 X1 ROW1 PER1
 Y1 ROW2 PER2
ENDATA
"""
STOCH = """\
STOCH TOY
INDEP DISCRETE
 RHS ROW2 4.0 0.3
 RHS ROW2 10.0 0.7
ENDATA
"""


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


class TestSolve:
    def test_farmer_dep(self, tmp_path):
        out = tmp_path / "rep.json"
        r = run_cli("solve", "--fixture", "farmer", "--method", "dep",
                    "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["objective"] == pytest.approx(-108390.0, abs=1e-3)
        assert doc["decision"] == pytest.approx([170.0, 80.0, 250.0], abs=1e-4)

    def test_simple_lshaped_multi(self):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped",
                    "--cuts", "multi", "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["objective"] == pytest.approx(-855.8333, abs=1e-3)

    def test_simple_ph_adaptive(self):
        r = run_cli("solve", "--fixture", "simple", "--method", "ph",
                    "--penalty", "adaptive", "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert abs(doc["objective"] - (-855.8333)) <= 0.5

    def test_regularization_and_exec_flags(self):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped",
                    "--cuts", "partial:1", "--regularization", "tr",
                    "--exec", "async:0.5", "--workers", "2",
                    "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["objective"] == pytest.approx(-855.8333, abs=1e-3)
        assert doc["config"]["execution"] == "async:0.5"

    def test_config_echo_and_seed(self):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped",
                    "--seed", "17", "--format", "machine")
        doc = json.loads(r.stdout)
        assert doc["seed"] == 17
        assert doc["config"]["cuts"] == "multi"

    def test_exit_3_on_infeasible_ph(self, tmp_path):
        # PH on a norrc instance hits an infeasible wait-and-see region only
        # if a scenario is empty; use a hand-made native file instead
        from stochlp import serialize
        from stochlp.model import FirstStage, RecourseShape, Scenario, build_problem
        first = FirstStage(c=[1.0], A=np.zeros((0, 1)), b=[], row_senses=(),
                           lb=[0.0], ub=[1.0])
        shape = RecourseShape(W=[[1.0]], sense="min", row_senses=("=",), ub=[0.5])
        p = build_problem(first, shape,
                          [Scenario(probability=1.0, q=[1.0], T=[[0.0]], h=[2.0])])
        path = tmp_path / "bad.json"
        serialize.save_problem(p, path)
        r = run_cli("solve", "--input", str(path), "--method", "ph")
        assert r.returncode == 3

    def test_exit_2_on_iteration_limit(self, tmp_path):
        r = run_cli("solve", "--fixture", "simple", "--method", "ph",
                    "--penalty", "fixed:1", "--max-iterations", "3")
        assert r.returncode == 2

    def test_exit_1_on_bad_config(self):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped",
                    "--cuts", "partial")
        assert r.returncode == 1

    @pytest.mark.parametrize("flags, env", [
        (("--exec", "async:abc"), {}),
        (("--workers", "0"), {}),
        ((), {"STOCHLP_WORKERS": "abc"}),
    ], ids=["kappa", "workers", "env-workers"])
    def test_exit_1_on_bad_exec_input(self, flags, env):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped", *flags,
                    env={**os.environ, **env})
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_rerun_reproduces_report(self, tmp_path):
        a = run_cli("solve", "--fixture", "farmer", "--method", "lshaped",
                    "--seed", "3", "--format", "machine")
        b = run_cli("solve", "--fixture", "farmer", "--method", "lshaped",
                    "--seed", "3", "--format", "machine")
        da, db = json.loads(a.stdout), json.loads(b.stdout)
        for key in ("objective", "decision", "gaps", "iterations", "config"):
            assert da[key] == db[key]


class TestVerbose:
    """-v logs one INFO line per trace record on the stochlp logger; -vv adds DEBUG."""

    @pytest.fixture(autouse=True)
    def _restore_level(self):
        log = logging.getLogger("stochlp")
        level = log.level
        yield
        log.setLevel(level)

    def _solve(self, capsys, caplog, *flags):
        from stochlp import cli
        code = cli.main(["solve", "--fixture", "simple", "--method", "lshaped",
                         "--format", "machine", *flags])
        assert code == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        return trace, [r for r in caplog.records if r.name == "stochlp"]

    def test_quiet_by_default(self, capsys, caplog):
        _, records = self._solve(capsys, caplog)
        assert records == []

    def test_v_logs_each_trace_record(self, capsys, caplog):
        trace, records = self._solve(capsys, caplog, "-v")
        assert len(trace) > 1
        assert [r.levelno for r in records] == [logging.INFO] * len(trace)
        for rec, r in zip(trace, records):
            assert r.getMessage().startswith(f"lshaped iteration={rec['iteration']} ")

    def test_vv_adds_debug(self, capsys, caplog):
        trace, records = self._solve(capsys, caplog, "-vv")
        assert [r.levelno for r in records] == [logging.INFO] * len(trace) + [logging.DEBUG]


class TestAnalyze:
    def test_farmer_measures(self):
        r = run_cli("analyze", "--fixture", "farmer", "--measures", "evpi,vss",
                    "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["measures"]["evpi"]["value"] == pytest.approx(7015.6, abs=0.1)
        assert doc["measures"]["vss"]["value"] == pytest.approx(1150.0, abs=0.1)

    def test_simple_evpi(self):
        r = run_cli("analyze", "--fixture", "simple", "--measures", "evpi",
                    "--format", "machine")
        doc = json.loads(r.stdout)
        assert doc["measures"]["evpi"]["value"] == pytest.approx(662.9167, abs=1e-3)

    def test_evaluate_decision_file(self, tmp_path):
        xfile = tmp_path / "x.json"
        xfile.write_text("[170.0, 80.0, 250.0]")
        r = run_cli("analyze", "--fixture", "farmer", "--measures", "vrp",
                    "--evaluate", str(xfile), "--format", "machine")
        doc = json.loads(r.stdout)
        assert doc["measures"]["evaluate"]["value"] == pytest.approx(-108390.0,
                                                                     abs=1e-3)


class TestSaaCommand:
    def test_simple_normal_rel_tol(self):
        r = run_cli("saa", "--model", "simple", "--sampler", "simple-normal",
                    "--rel-tol", "5e-2", "--seed", "1", "--batches", "5",
                    "--eval-samples", "200", "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["confidence"]["relative_error"] <= 5e-2
        assert doc["seed"] == 1

    def test_budget_exit_code(self):
        r = run_cli("saa", "--model", "simple", "--sampler", "simple-discrete",
                    "--rel-tol", "1e-9", "--n0", "4", "--batches", "3",
                    "--eval-samples", "40")
        assert r.returncode == 2


class TestConvert:
    def test_round_trip(self, tmp_path):
        for name, text in (("t.cor", CORE), ("t.tim", TIME), ("t.sto", STOCH)):
            (tmp_path / name).write_text(text)
        out = tmp_path / "toy.json"
        r = run_cli("convert", str(tmp_path / "t.cor"), str(tmp_path / "t.tim"),
                    str(tmp_path / "t.sto"), str(out))
        assert r.returncode == 0
        r2 = run_cli("solve", "--input", str(out), "--method", "dep",
                     "--format", "machine")
        doc = json.loads(r2.stdout)
        r3 = run_cli("solve", "--input", str(tmp_path / "t.cor"),
                     str(tmp_path / "t.tim"), str(tmp_path / "t.sto"),
                     "--method", "dep", "--format", "machine")
        doc3 = json.loads(r3.stdout)
        assert doc["objective"] == pytest.approx(doc3["objective"], abs=1e-9)

    def test_unsupported_section_exit_1(self, tmp_path):
        (tmp_path / "t.cor").write_text(CORE)
        (tmp_path / "t.tim").write_text(TIME)
        (tmp_path / "t.sto").write_text("STOCH TOY\nSCENARIOS DISCRETE\nENDATA\n")
        r = run_cli("convert", str(tmp_path / "t.cor"), str(tmp_path / "t.tim"),
                    str(tmp_path / "t.sto"), str(tmp_path / "o.json"))
        assert r.returncode == 1
        assert "SCENARIOS" in r.stderr
