import json

import pytest

from tube_dissip.cli import main
from tube_dissip.cost_to_travel import CostToTravelResult
from tube_dissip.dissipativity import SeparabilityReport
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.qp_solver import QpStatus
from tube_dissip.tube_mpc import TubeSolution


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRci:
    def test_prints_invariant_box_and_value(self, capsys):
        code, out, _ = run_cli(capsys, "rci")
        assert code == 0
        obj = json.loads(out)
        assert obj["v_star"] == pytest.approx(-0.2, abs=1e-8)
        box = IntervalBox.from_json_obj(obj["box"])
        assert max(abs(a - b) for a, b in zip(box.corners(), (-1, -1, -4, 0))) <= 1e-6


class TestEvalV:
    def test_feasible_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "1"
        )
        assert code == 0
        res = CostToTravelResult.from_json_dict(json.loads(out))
        assert res.value == pytest.approx(-0.2, abs=1e-8)

    def test_infeasible_pair_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]"
        )
        assert code == 1
        res = CostToTravelResult.from_json_dict(json.loads(out))
        assert not res.feasible

    def test_zero_steps_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]", "--n", "0"
        )
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == ["error: --n must be >= 1, got 0"]

    def test_malformed_box_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval-v", "--a", "oops", "--b", "[[0,1],[0,1]]")
        assert code == 2
        assert "box" in err


class TestCheckStorage:
    def test_default_storage_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-storage")
        assert code == 0
        rep = SeparabilityReport.from_json_dict(json.loads(out))
        assert rep.passed and abs(rep.gap) <= 1e-8

    def test_bad_storage_fails_with_exit_one(self, capsys, tmp_path):
        path = tmp_path / "storage.json"
        path.write_text(json.dumps({"offset": 16.0, "linear": [0, -3.2, 3.2, 0]}))
        code, out, _ = run_cli(capsys, "check-storage", "--storage", str(path))
        assert code == 1
        rep = SeparabilityReport.from_json_dict(json.loads(out))
        assert not rep.passed

    def test_strictness_uses_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TUBE_DISSIP_SEED", "123")
        code, out1, _ = run_cli(capsys, "check-storage", "--strictness", "20")
        _, out2, _ = run_cli(capsys, "check-storage", "--strictness", "20")
        assert code == 0
        assert json.loads(out1)["strictness"] == json.loads(out2)["strictness"]
        monkeypatch.setenv("TUBE_DISSIP_SEED", "124")
        _, out3, _ = run_cli(capsys, "check-storage", "--strictness", "20")
        assert json.loads(out3)["strictness"] != json.loads(out1)["strictness"]


class TestControl:
    def test_solution_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--z=-1,-2")
        assert code == 0
        sol = TubeSolution.from_json_dict(json.loads(out))
        assert sol.u0 == pytest.approx(-1.0, abs=1e-8)

    def test_no_initial_cost_flag(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--z=-1,-2", "--no-initial-cost")
        assert code == 0
        assert json.loads(out)["u0"] == pytest.approx(-2.0, abs=1e-8)

    def test_infeasible_state_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--z=-6,0")
        assert code == 1
        assert json.loads(out)["status"] == "infeasible"

    def test_state_just_beyond_bounds_exits_one(self, capsys):
        # beyond the state bounds by twice feas_tol: decided without a solve
        code, out, err = run_cli(capsys, "control", "--z=-5.00000002,0")
        assert code == 1
        assert json.loads(out) == TubeSolution(status=QpStatus.INFEASIBLE).to_json_dict()
        assert err == ""

    @pytest.mark.parametrize("z", ["nan,0", "inf,0", "0,-inf", "a,0", "1,2,3"])
    def test_bad_state_usage_error(self, capsys, z):
        code, out, err = run_cli(capsys, "control", f"--z={z}")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
        assert "'x1,x2'" in err  # rejected while parsing, before any solve


class TestSweep:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z1,z2,u0,objective,status"
        assert len(lines) == 10
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["status"] == "optimal"


class TestSimulate:
    def test_trace_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--y0=-1,-2", "--steps", "3",
            "--policy", "extreme:-", "--no-initial-cost",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,y1,y2,u,w,Y_a1,Y_a2,Y_a3,Y_a4,dH,lyapunov"
        assert len(lines) == 5
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["u"]) == pytest.approx(-2.0, abs=1e-6)

    def test_demo_preset_runs_both_corners(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--fig2", "--steps", "6")
        assert code == 0
        lines = out.strip().splitlines()
        starts = {line.split(",")[0] for line in lines[1:]}
        assert starts == {"5;-5", "-5;5"}
        # absorbed by step 2: distance column is ~0 from there on
        for line in lines[1:]:
            fields = dict(zip(lines[0].split(","), line.split(",")))
            if int(fields["k"]) >= 2:
                assert abs(float(fields["dH"])) <= 1e-9

    def test_missing_y0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--steps", "2")
        assert code == 2
        assert "--y0" in err

    def test_random_policy_seeded(self, capsys):
        args = ("simulate", "--y0", "1,1", "--steps", "2", "--policy", "random:5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_unknown_policy_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--y0", "0,0", "--policy", "chaotic")
        assert code == 2
        assert "policy" in err


class TestConfig:
    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": {}, "mystery": 1}))
        code, _, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert "mystery" in err

    def test_unknown_problem_key_named(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": {"alhpa": 0.5}}))
        code, _, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert "alhpa" in err

    def test_config_problem_override(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": {"w_bounds": [0.0, 0.0]}}))
        code, out, _ = run_cli(capsys, "--config", str(path), "rci")
        assert code == 0
        assert json.loads(out)["v_star"] == pytest.approx(-5 / 3, abs=1e-8)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "rci", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["v_star"] == pytest.approx(-0.2, abs=1e-8)

    @pytest.mark.parametrize("fmt", ["csv", "JSON", None])
    def test_unsupported_output_format_rejected(self, capsys, tmp_path, fmt):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"output": {"format": fmt}}))
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert out == ""
        assert "output format" in err

    @pytest.mark.parametrize("section, key, value", [
        ("controller", "use_initial_cost", "no"),
        ("controller", "terminal_equality", 1),
        ("controller", "horizon", 2.5),
        ("controller", "horizon", "2"),
        ("controller", "horizon", True),
        (None, "seed", "abc"),
        (None, "seed", -5),
        ("problem", "u_bounds", 5),
        ("problem", "cost_quad", ["a", 1, 1, 1]),
        ("problem", "alpha", "0.5"),
        ("problem", "w_bounds", [True, 1]),
        ("tolerances", "feas_tol", -1),
        ("tolerances", "feas_tol", float("nan")),
        ("tolerances", "kkt_tol", 0),
        ("tolerances", "max_iter", 0),
        ("tolerances", "max_iter", "x"),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_wrong_config_value_rejected(self, capsys, tmp_path, section, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
        code, out, err = run_cli(capsys, "--config", str(path), "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and key in err

    def test_wrong_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TUBE_DISSIP_SEED", "abc")
        code, out, err = run_cli(capsys, "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert "TUBE_DISSIP_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("control", "--z=0,0", "--horizon", "0"),
        ("sweep", "--grid", "0"),
        ("sweep", "--grid", "-3"),
        ("check-storage", "--strictness", "-2"),
        ("simulate", "--y0=0,0", "--steps", "-1"),
    ], ids=" ".join)
    def test_out_of_range_flag_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("where, value", [
        ("storage", {"offset": 1, "linear": [0, 0, 0]}),
        ("storage", {"offset": 16, "linear": [0, -1.6, 1.6, 0], "mystery": 1}),
        ("storage", [16, [0, -1.6, 1.6, 0]]),
        ("storage", {"offset": "NaN", "linear": [0, -1.6, 1.6, 0]}),
        ("terminal_set", [[0, 1], [0]]),
        ("terminal_set", [[1, 0], [0, 1]]),
        ("terminal_set", [[0, 1, 2], [0, 1]]),
        ("eval-v", [[0, 1, 2], [0, 1]]),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_malformed_storage_or_box_rejected(self, capsys, tmp_path, where, value):
        # none of these may be read loosely into a plausible answer
        path = tmp_path / "input.json"
        if where == "storage":
            path.write_text(json.dumps(value))
            argv = ("check-storage", "--storage", str(path))
        elif where == "terminal_set":
            path.write_text(json.dumps({"controller": {"terminal_set": value}}))
            argv = ("--config", str(path), "control", "--z=0,0")
        else:
            argv = ("eval-v", "--a", json.dumps(value), "--b", "[[0,1],[0,1]]")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("env, argv", [
        (None, ("simulate", "--y0=0,0", "--policy", "random:abc")),
        (None, ("simulate", "--y0=0,0", "--policy", "random:-1")),
        ("-3", ("check-storage", "--strictness", "3")),
    ], ids=["policy-abc", "policy-negative", "env-negative"])
    def test_bad_seed_rejected(self, capsys, monkeypatch, env, argv):
        # seeds are non-negative integers, checked where they enter
        if env is not None:
            monkeypatch.setenv("TUBE_DISSIP_SEED", env)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "non-negative" in err

    def test_json_output_format_accepted(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"output": {"format": "json"}}))
        code, out, _ = run_cli(capsys, "--config", str(path), "rci")
        assert code == 0
        assert json.loads(out)["v_star"] == pytest.approx(-0.2, abs=1e-8)


class TestVerifyAll:
    def test_table_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "9/9 criteria passed"
