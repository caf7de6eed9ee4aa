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

    @pytest.mark.parametrize("args, copies", [
        pytest.param(("analyze",), 1, id="analyze"),
        pytest.param(("solve", "--method", "dep"), 1, id="dep"),
        pytest.param(("solve", "--method", "lshaped"), 1, id="lshaped"),
        pytest.param(("solve", "--method", "ph"), 1, id="ph"),
        pytest.param(("analyze",), 200, id="analyze-past-the-dep-budget"),
    ])
    def test_exit_3_on_infeasible_program(self, tmp_path, capsys, args, copies):
        from stochlp import cli, serialize
        from _problems import infeasible_problem
        path = tmp_path / "infeasible.json"
        serialize.save_problem(infeasible_problem(copies), path)
        assert cli.main([*args, "--input", str(path)]) == 3

    def test_a_document_with_a_long_q_row_exits_1_naming_the_scenario(self, tmp_path, capsys):
        from stochlp import cli, serialize
        from stochlp.fixtures import simple_problem
        doc = serialize.problem_to_dict(simple_problem())
        doc["scenarios"][1]["q"].append(1.0)
        path = tmp_path / "long-q.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--input", str(path)]) == 1
        assert capsys.readouterr().err == "error: scenario 1 q: expected shape (2,), got (3,)\n"

    def test_dep_over_the_size_limit_exits_1(self, monkeypatch, capsys):
        from stochlp import cli, model
        monkeypatch.setattr(model, "DEP_MAX_BYTES", 1024)
        assert cli.main(["solve", "--fixture", "farmer", "--method", "dep"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the deterministic equivalent (13 rows, 21 columns)")
        assert "use --method lshaped" in err

    def test_exit_3_on_unbounded_recourse_under_async(self, tmp_path, capsys):
        from stochlp import cli, serialize
        from _problems import unbounded_recourse_problem
        path = tmp_path / "unbounded.json"
        serialize.save_problem(unbounded_recourse_problem(), path)
        assert cli.main(["solve", "--input", str(path), "--method", "lshaped",
                         "--exec", "async:0.5"]) == 3
        assert "unbounded" in capsys.readouterr().err

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
        (("--cuts", "partial:abc"), {}),
        (("--method", "ph", "--penalty", "fixed:abc"), {}),
    ], ids=["kappa", "workers", "env-workers", "bundle-size", "penalty"])
    def test_exit_1_on_bad_exec_input(self, flags, env):
        r = run_cli("solve", "--fixture", "simple", "--method", "lshaped", *flags,
                    env={**os.environ, **env})
        assert r.returncode == 1
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    def test_text_report_counts_kept_cuts_once(self, capsys):
        from stochlp import cli
        args = ["solve", "--fixture", "farmer", "--method", "lshaped", "--cuts", "single"]
        assert cli.main(args + ["--format", "machine"]) == 0
        counts = json.loads(capsys.readouterr().out)["cut_counts"]
        assert cli.main(args) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("cuts:"))
        kept = counts["optimality"] + counts["feasibility"]
        assert line.split()[1:3] == [str(kept), "kept"]
        assert line.endswith(f", {counts['added_total']} added in total")

    def test_trust_region_without_complete_recourse_exits_0(self, capsys):
        from stochlp import cli
        solve = ["solve", "--fixture", "norrc-1", "--format", "machine", "--method"]
        assert cli.main(solve + ["dep"]) == 0
        dep = json.loads(capsys.readouterr().out)["objective"]
        assert cli.main(solve + ["lshaped", "--regularization", "tr"]) == 0
        assert json.loads(capsys.readouterr().out)["objective"] == pytest.approx(dep, abs=1e-5)

    def test_rerun_reproduces_report(self, tmp_path):
        a = run_cli("solve", "--fixture", "farmer", "--method", "lshaped",
                    "--seed", "3", "--format", "machine")
        b = run_cli("solve", "--fixture", "farmer", "--method", "lshaped",
                    "--seed", "3", "--format", "machine")
        da, db = json.loads(a.stdout), json.loads(b.stdout)
        for key in ("objective", "decision", "gaps", "iterations", "config"):
            assert da[key] == db[key]

    @pytest.mark.parametrize("method, flags, key, value", [
        ("lshaped", (), "gap_tol", 1e-6),
        ("lshaped", ("--gap", "1e-4"), "gap_tol", 1e-4),
        ("ph", (), "primal_tol", 1e-5),
        ("ph", ("--gap", "1e-6"), "primal_tol", 1e-6),
        ("ph", ("--gap", "1e-6"), "dual_tol", 1e-6),
        ("ph", (), "dual_tol", 1e-5),
    ])
    def test_gap_reaches_the_config(self, capsys, method, flags, key, value):
        from stochlp import cli
        cli.main(["solve", "--fixture", "simple", "--method", method,
                  "--max-iterations", "2", "--format", "machine", *flags])
        assert json.loads(capsys.readouterr().out)["config"][key] == value


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

    def test_unknown_measure_fails_before_any_solve(self, monkeypatch):
        from stochlp import analysis, cli

        def solved(*args, **kwargs):
            raise AssertionError("all_measures ran before --measures was checked")
        monkeypatch.setattr(analysis, "all_measures", solved)
        assert cli.main(["analyze", "--fixture", "farmer", "--measures", "bogus"]) == 1

    def test_measure_names_are_those_all_measures_returns(self):
        from stochlp import analysis
        from stochlp.fixtures import farmer_problem
        assert set(analysis.all_measures(farmer_problem())) == set(analysis.MEASURES)


def test_parser_defaults_are_the_configs_defaults():
    from stochlp import cli
    from stochlp.lshaped import LShapedConfig
    from stochlp.phedging import PhConfig
    from stochlp.sampling import SaaConfig
    solve = cli.build_parser().parse_args(["solve"])
    assert cli._parse_cuts(solve.cuts)[0] == LShapedConfig.cuts
    assert solve.regularization == LShapedConfig.regularization
    assert cli._parse_penalty(solve.penalty) == (PhConfig.penalty, PhConfig.r)
    assert cli._parse_penalty("fixed") == ("fixed", PhConfig.r)
    saa = vars(cli.build_parser().parse_args(["saa"]))
    for field in ("rel_tol", "confidence", "n0", "batches", "eval_samples"):
        assert saa[field] == getattr(SaaConfig, field)


class TestSaaCommand:
    def test_simple_normal_rel_tol(self):
        r = run_cli("saa", "--model", "simple", "--sampler", "simple-normal",
                    "--rel-tol", "5e-2", "--seed", "1", "--batches", "5",
                    "--eval-samples", "200", "--format", "machine")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["confidence"]["relative_error"] <= 5e-2
        assert doc["seed"] == 1

    @pytest.mark.parametrize("flags, message", [
        (("--rel-tol", "0"), "rel_tol must be > 0"),
        (("--confidence", "1"), "confidence must be in (0, 1)"),
        (("--confidence", "0"), "confidence must be in (0, 1)"),
        (("--n0", "0"), "n0 must be >= 1"),
        # refused before any batch is solved, not when the evaluation finds no sample
        (("--eval-samples", "0", "--batches", "2", "--n0", "2"), "eval_samples must be >= 1"),
    ], ids=["rel-tol", "confidence-1", "confidence-0", "n0", "eval-samples"])
    def test_exit_1_on_bad_saa_config(self, capsys, flags, message):
        from stochlp import cli
        assert cli.main(["saa", "--model", "simple", *flags]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exit_1_on_an_unknown_sampler(self, capsys):
        from stochlp import cli
        assert cli.main(["saa", "--sampler", "bogus"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == ("error: unknown sampler 'bogus'; "
                                           "available: ['simple-discrete', 'simple-normal']\n")
        from stochlp import fixtures
        from stochlp.errors import ConfigError
        with pytest.raises(ConfigError, match=r"^unknown fixture 'bogus'; available: \["):
            fixtures.get_fixture("bogus")

    def test_exit_1_on_a_model_without_a_sampler(self, capsys):
        from stochlp import cli
        assert cli.main(["saa", "--model", "farmer"]) == cli.EXIT_CONFIG
        assert "invalid choice: 'farmer' (choose from 'simple')" in capsys.readouterr().err

    @pytest.mark.parametrize("method, message", [
        ("lshaped", "gap_tol must be >= 0"),
        ("ph", "primal_tol and dual_tol must be >= 0"),
    ])
    def test_exit_1_on_a_negative_gap(self, capsys, method, message):
        from stochlp import cli
        assert cli.main(["solve", "--fixture", "farmer", "--method", method,
                         "--gap", "-1"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["lshaped", "ph"])
    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_exit_1_on_bad_max_iterations(self, capsys, method, limit):
        from stochlp import cli
        assert cli.main(["solve", "--fixture", "farmer", "--method", method,
                         "--max-iterations", limit]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: max_iterations must be >= 1\n"

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
