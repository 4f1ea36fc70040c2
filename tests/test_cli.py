import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tube_dissip import cli, qp_solver, tube_mpc
from tube_dissip.acceptance import CriterionResult
from tube_dissip.cli import MAX_GRID, main
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec, is_rci, transition_feasible
from tube_dissip.qp_solver import QpStatus
from tube_dissip.tube_mpc import TubeSolution


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors, such as an unrecognized flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def config_file(tmp_path, config) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return str(path)


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
        obj = json.loads(out)
        assert obj["feasible"] is True
        assert obj["value"] == pytest.approx(-0.2, abs=1e-8)
        a, b = (IntervalBox.from_json_obj(box) for box in obj["tube"])
        assert a == b == IntervalBox.from_json_obj([[-1, -1], [-4, 0]])

    def test_infeasible_pair_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]"
        )
        assert code == 1
        assert json.loads(out) == {"feasible": False, "value": None, "tube": None, "aux_controls": None}

    def test_zero_steps_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]", "--n", "0"
        )
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == ["error: --n must be >= 1, got 0"]

    def test_step_count_beyond_the_cap_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]", "--n", "100000"
        )
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == ["error: --n must be at most 64, got 100000"]

    def test_malformed_box_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval-v", "--a", "oops", "--b", "[[0,1],[0,1]]")
        assert code == 2
        assert "box" in err


class TestCheckStorage:
    def test_default_storage_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-storage")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True and abs(rep["gap"]) <= 1e-8
        assert rep["qp_min_value"] == pytest.approx(-0.2, abs=1e-8) and rep["strictness"] is None

    def test_bad_storage_fails_with_exit_one(self, capsys, tmp_path):
        # the candidate is the controller's storage, its initial cost
        config = config_file(tmp_path, {"controller": {"storage": {"offset": 16.0, "linear": [0, -3.2, 3.2, 0]}}})
        code, out, _ = run_cli(capsys, "--config", config, "check-storage")
        assert code == 1
        rep = json.loads(out)
        assert rep["passed"] is False and rep["gap"] == pytest.approx(-10.2, abs=1e-8)

    def test_strictness_uses_config_seed(self, capsys, tmp_path):
        seed123 = config_file(tmp_path, {"seed": 123})
        code, out1, _ = run_cli(capsys, "--config", seed123, "check-storage", "--strictness", "20")
        _, out2, _ = run_cli(capsys, "--config", seed123, "check-storage", "--strictness", "20")
        assert code == 0
        assert json.loads(out1)["strictness"] == json.loads(out2)["strictness"]
        seed124 = config_file(tmp_path, {"seed": 124})
        _, out3, _ = run_cli(capsys, "--config", seed124, "check-storage", "--strictness", "20")
        assert json.loads(out3)["strictness"] != json.loads(out1)["strictness"]


class TestControl:
    def test_solution_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--z=-1,-2")
        assert code == 0
        sol = json.loads(out)
        assert sol["status"] == "optimal"
        assert sol["u0"] == pytest.approx(-1.0, abs=1e-8)
        tube = [IntervalBox.from_json_obj(box) for box in sol["tube"]]
        assert len(tube) == 3 and len(sol["edge_controls"]) == 2

    def test_no_initial_cost(self, capsys, tmp_path):
        config = config_file(tmp_path, {"controller": {"use_initial_cost": False}})
        code, out, _ = run_cli(capsys, "--config", config, "control", "--z=-1,-2")
        assert code == 0
        assert json.loads(out)["u0"] == pytest.approx(-2.0, abs=1e-8)

    def test_infeasible_state_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "control", "--z=-6,0")
        assert code == 1
        assert json.loads(out)["status"] == "infeasible"

    def test_state_just_beyond_bounds_exits_one(self, capsys):
        # beyond the state bounds by twice the 1e-8 tolerance: decided without a solve
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

    @pytest.mark.parametrize("grid", [MAX_GRID + 1, 100_000_000])
    def test_grid_beyond_the_cap_rejected_before_it_is_built(self, capsys, monkeypatch, grid):
        # a 10**8-point axis would be a 10**16-state list before the first solve
        def forbidden(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", forbidden)
        code, out, err = run_cli(capsys, "sweep", "--grid", str(grid))
        assert code == 2
        assert out == ""
        assert err == f"error: --grid must be at most {MAX_GRID}, got {grid}\n"


class TestSimulate:
    def test_trace_csv(self, capsys, tmp_path):
        config = config_file(tmp_path, {"controller": {"use_initial_cost": False}})
        code, out, _ = run_cli(
            capsys, "--config", config, "simulate", "--y0=-1,-2", "--steps", "3", "--policy", "extreme:-",
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

    def test_demo_preset_with_no_feasible_start_is_a_negative_verdict(self, capsys, tmp_path):
        # both corner starts are infeasible at horizon 1: each trace fails at
        # step 0 with no rows, and the run exits 1 with the header alone on
        # stdout and nothing on stderr
        config = config_file(tmp_path, {"controller": {"horizon": 1}})
        code, out, err = run_cli(capsys, "--config", config, "simulate", "--fig2")
        assert code == 1
        assert out == "y0,k,y1,y2,u,w,Y_a1,Y_a2,Y_a3,Y_a4,dH,lyapunov\n"
        assert err == ""

    @pytest.mark.parametrize("flags", [
        ("--y0=1,2",),
        ("--policy", "random"),
        ("--policy", "adversarial"),
        ("--y0=1,2", "--policy", "random"),
    ])
    def test_demo_preset_refuses_a_start_or_a_policy(self, capsys, flags):
        # the preset fixes the starts and the policy, so neither is a flag of it
        code, out, err = run_cli(capsys, "simulate", "--fig2", *flags)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "--fig2" in err

    def test_missing_y0_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--steps", "2")
        assert code == 2
        assert "--y0" in err

    def test_random_policy_seeded(self, capsys, tmp_path):
        config = config_file(tmp_path, {"seed": 5})
        args = ("--config", config, "simulate", "--y0", "1,1", "--steps", "2", "--policy", "random")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_unknown_policy_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--y0", "0,0", "--policy", "chaotic")
        assert code == 2
        assert "policy" in err

    # the policy's seed is the config's seed, so random:SEED is no policy
    @pytest.mark.parametrize("policy", ["randomly", "random5", "random:", "random:5", "random:abc", "random:-1"])
    def test_only_random_accepted(self, capsys, policy):
        # a text that merely starts with "random" is not the random policy
        code, out, err = run_cli(capsys, "simulate", "--y0", "0,0", "--steps", "1", "--policy", policy)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "policy" in err

    def test_random_policy_without_seed(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--y0", "0,0", "--steps", "1", "--policy", "random")
        assert code == 0 and out


# every command, each with flags that keep one call short
EVERY_COMMAND = [
    ("rci",),
    ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "2"),
    ("check-storage", "--strictness", "2"),
    ("control", "--z=5,-5"),
    ("sweep", "--grid", "2"),
    ("simulate", "--y0=5,-5", "--steps", "1"),
    ("verify-all",),
]


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

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("output", [
        {},
        {"path": "out.json"},
        {"path": None},
        # every command has one fixed format, not even the one it writes is a setting
        {"format": "json"},
        {"format": "csv"},
        "out.json",
    ], ids=json.dumps)
    def test_output_section_rejected(self, capsys, tmp_path, monkeypatch, argv, output):
        # --output is the one route to an output path, so an output section,
        # even an empty one, is an unknown key and writes nothing
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "--config", config_file(tmp_path, {"output": output}), *argv)
        assert code == 2
        assert out == ""
        assert err == "error: unknown config keys: ['output']\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("controller", "use_initial_cost", "no"),
        ("controller", "terminal_equality", 1),
        ("controller", "horizon", 2.5),
        ("controller", "horizon", "2"),
        ("controller", "horizon", True),
        ("controller", "horizon", 0),
        ("controller", "horizon", 100000),
        (None, "seed", "abc"),
        (None, "seed", -5),
        ("problem", "u_bounds", 5),
        ("problem", "cost_quad", ["a", 1, 1, 1]),
        ("problem", "alpha", "0.5"),
        ("problem", "w_bounds", [True, 1]),
        # no tolerance is a setting: any tolerances section is an unknown key
        ("tolerances", "feas_tol", -1),
        ("tolerances", "feas_tol", float("nan")),
        ("tolerances", "kkt_tol", 0),
        ("tolerances", "kkt_tol", 1e-8),
        ("tolerances", "max_iter", 0),
        ("tolerances", "max_iter", "x"),
        ("tolerances", "rho", 1.0),
        ("tolerances", "polish_gate_prim", 0.1),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_wrong_config_value_rejected(self, capsys, tmp_path, section, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value} if section is None else {section: {key: value}}))
        code, out, err = run_cli(capsys, "--config", str(path), "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and (section if section == "tolerances" else key) in err

    def test_readme_run_configuration_runs(self, capsys, tmp_path):
        # the README's example config sets every section a config may hold,
        # each at its default, so rci gives the default box on it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Run configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.json"
        path.write_text(block)
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert (code, err) == (0, "")
        assert set(json.loads(block)) == cli.RunConfig.KNOWN_KEYS
        assert run_cli(capsys, "rci") == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ("check-storage", "--strictness", "20"),
        ("simulate", "--y0=1,1", "--steps", "2", "--policy", "random"),
    ], ids=lambda argv: argv[0])
    def test_seed_env_var_not_read(self, capsys, monkeypatch, argv):
        # the config's seed is the one route to a seed
        monkeypatch.delenv("TUBE_DISSIP_SEED", raising=False)
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        for value in ("124", "abc", "-3"):
            monkeypatch.setenv("TUBE_DISSIP_SEED", value)
            assert run_cli(capsys, *argv) == expected

    @pytest.mark.parametrize("argv", [
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

    @pytest.mark.parametrize("argv, flag", [
        (("control", "--z=0,0"), ("--horizon", "3")),
        (("control", "--z=0,0"), ("--no-initial-cost",)),
        (("sweep", "--grid", "2"), ("--horizon", "3")),
        (("sweep", "--grid", "2"), ("--no-initial-cost",)),
        (("simulate", "--y0=0,0"), ("--horizon", "3")),
        (("simulate", "--y0=0,0"), ("--no-initial-cost",)),
        (("check-storage",), ("--storage", "default")),
    ], ids=" ".join)
    def test_unrecognized_flag_rejected(self, capsys, argv, flag):
        # the controller's horizon, initial cost and storage are set by the
        # config alone; argparse refuses any other flag after its usage line
        code, out, err = run_cli(capsys, *argv, *flag)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(flag)}")

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
            path.write_text(json.dumps({"controller": {"storage": value}}))
            argv = ("--config", str(path), "check-storage")
        elif where == "terminal_set":
            path.write_text(json.dumps({"controller": {"terminal_set": value}}))
            argv = ("--config", str(path), "control", "--z=0,0")
        else:
            argv = ("eval-v", "--a", json.dumps(value), "--b", "[[0,1],[0,1]]")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("seed, argv", [
        ("abc", ("simulate", "--y0=0,0", "--policy", "random")),
        (-1, ("simulate", "--y0=0,0", "--policy", "random")),
        (-3, ("check-storage", "--strictness", "3")),
    ], ids=["random-abc", "random-negative", "strictness-negative"])
    def test_bad_seed_rejected(self, capsys, tmp_path, seed, argv):
        # seeds are non-negative integers, checked where they enter
        code, out, err = run_cli(capsys, "--config", config_file(tmp_path, {"seed": seed}), *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "non-negative" in err

    @pytest.mark.parametrize("config", [
        5,
        [],
        None,
        {"problem": 5},
        {"problem": [0.5]},
        {"problem": None},
        # the problem is the inline object, never a path to one
        {"problem": "problem.json"},
        {"controller": 3},
        {"controller": None},
        {"tolerances": []},
    ], ids=json.dumps)
    def test_config_of_the_wrong_shape_rejected(self, capsys, tmp_path, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("where", ["config", "output"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_file_rejected(self, capsys, tmp_path, where, kind):
        bad = str(tmp_path if kind == "directory" else tmp_path / "missing" / "file.json")
        if where == "config":
            argv = ("--config", bad, "rci")
        else:
            argv = ("rci", "--output", bad)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and bad in err

    def test_file_not_utf8_rejected(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\x80\x81")
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "invalid JSON" in err

    def test_solver_failure_is_a_domain_failure(self, capsys, monkeypatch):
        # a fresh controller program has no stored laws, so the kernel runs
        # and meets the step limit
        tube_mpc._controller.cache_clear()
        monkeypatch.setattr(qp_solver, "_STEP_LIMIT", 1)
        code, out, err = run_cli(capsys, "control", "--z=1,1")
        assert code == 1
        assert out == ""
        assert err.strip() == "error: dual active-set kernel exceeded 1 steps"

    @pytest.mark.parametrize("config, argv", [
        ({"problem": {"cost_linear": [1e308, 1e308, 1e308, 1e308]}}, ("rci",)),
        ({"problem": {"cost_linear": [1e308, 1e308, 1e308, 1e308]}}, ("control", "--z=5,-5")),
        ({"problem": {"cost_linear": [1e308, 1e308, 1e308, 1e308]}},
         ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "2")),
        ({"controller": {"storage": {"offset": 0, "linear": [0, -1e308, 1e308, 0]}}}, ("control", "--z=5,-5")),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else json.dumps(v))
    def test_data_that_overflows_the_kernel_start_is_a_domain_failure(self, capsys, tmp_path, config, argv):
        # the start -q/sqrt(2d) of the kernel overflows, from the problem's
        # cost or from the storage form added to it
        tube_mpc._controller.cache_clear()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 1
        assert out == ""
        assert err == "error: dual active-set kernel was given data whose start is not finite\n"

    def test_inconsistent_rows_without_a_ray_are_a_domain_failure(self, capsys, tmp_path):
        # at cost_quad 5e307 the kernel's scale 1/sqrt(2d) is about 1e-154, so
        # the scaled rows' squared norms sit near the bottom of the float
        # range, where rounding makes the rows look dependent; the ray found
        # there is no Farkas ray of the program, so no infeasible verdict
        tube_mpc._controller.cache_clear()
        config = config_file(tmp_path, {"problem": {"cost_quad": [5e307] * 4}})
        code, out, err = run_cli(capsys, "--config", config, "control", "--z=5,-5")
        assert code == 1
        assert out == ""
        assert err == "error: dual active-set kernel found inconsistent rows without a Farkas ray\n"

    @pytest.mark.parametrize("quad, argv", [
        (1e307, ("control", "--z=5,-5")),
        (8e307, ("rci",)),
        (1e308, ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "1")),
    ], ids=lambda v: v[0] if isinstance(v, tuple) else repr(v))
    def test_a_cost_that_overflows_is_a_domain_failure(self, capsys, tmp_path, quad, argv):
        # the stage costs along the minimising tube sum to inf: no infinite
        # value and no verdict of infeasibility in the output, at every N
        tube_mpc._controller.cache_clear()
        config = config_file(tmp_path, {"problem": {"cost_quad": [quad] * 4}})
        code, out, err = run_cli(capsys, "--config", config, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: the minimising tube's cost is not finite (inf)\n"

    def test_a_finite_cost_near_the_float_limit_is_reported(self, capsys, tmp_path):
        # the cost's bound over the state bounds overflows, the cost does not
        config = config_file(tmp_path, {"problem": {"cost_quad": [1e307] * 4}})
        code, out, err = run_cli(capsys, "--config", config, "rci")
        assert code == 0 and err == ""
        assert json.loads(out)["v_star"] == 2.5e307

    @pytest.mark.parametrize("argv", [
        ("rci",),
        ("control", "--z=0,0"),
        ("check-storage",),
        ("simulate", "--y0=0,0"),
        ("sweep",),
        ("verify-all",),
    ], ids=" ".join)
    def test_no_invariant_box_is_a_domain_failure(self, capsys, tmp_path, argv):
        # no box within the state bounds absorbs disturbances this wide
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": {"w_bounds": [-10, 10]}}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: no robust control invariant")

    @pytest.mark.parametrize("argv", [
        ("rci",),
        ("verify-all",),
        ("control", "--z=0,0"),
        ("simulate", "--y0=0,0", "--policy", "random"),
    ], ids=" ".join)
    @pytest.mark.parametrize("problem", [
        {"x_bounds": [[-1e308, 1e308], [-5, 5]]},
        {"w_bounds": [-1e308, 1e308]},
    ], ids=["x_bounds", "w_bounds"])
    def test_bounds_whose_width_overflows_rejected(self, capsys, tmp_path, problem, argv):
        # finite corners whose difference is inf: rejected with the config,
        # before any draw or solve spans them
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": problem}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "finite widths" in err

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    @pytest.mark.parametrize("tolerances", [
        {},
        {"feas_tol": 1e-8},
        # once a bounded setting, now refused like any other value
        {"feas_tol": 1e10},
        {"feas_tol": 1.1e-3},
        {"feas_tol": float("inf")},
    ], ids=json.dumps)
    def test_tolerances_section_rejected(self, capsys, tmp_path, argv, tolerances):
        # every transition is decided at one fixed tolerance, so a tolerances
        # section, even an empty one or the old default, is an unknown key
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tolerances": tolerances}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 2
        assert out == ""
        assert err == "error: unknown config keys: ['tolerances']\n"


class TestVerifyAll:
    def test_table_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "8/8 criteria passed"

    @pytest.mark.parametrize("config", [
        {"tolerances": {}},
        {"tolerances": {"feas_tol": 1e-3}},
        {"controller": {}},
        {"controller": {"use_initial_cost": False}, "tolerances": {}},
    ], ids=json.dumps)
    def test_sections_the_battery_does_not_read_rejected(self, capsys, tmp_path, config):
        # the battery runs its own controllers, so a controller section would
        # otherwise be ignored behind an 8/8 table; a tolerances section is an
        # unknown key on every command
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), "verify-all")
        assert code == 2
        assert out == ""
        named = "tolerances" if "tolerances" in config else "controller"
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and f"['{named}']" in err

    def test_truncated_witness_trace_fails(self, capsys, tmp_path):
        # the witness starts at (-1, -2), outside x1 in [0, 5]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": {"x_bounds": [[0, 5], [-5, 5]]}}))
        code, out, err = run_cli(capsys, "--config", str(path), "verify-all")
        assert code == 1
        assert err == ""
        lines = out.strip().splitlines()
        (witness,) = [line for line in lines if "instability-witness" in line]
        assert witness.startswith("[FAIL]")
        assert witness.endswith("trace from (-1, -2) ends at step 0: controller infeasible")
        assert lines[-1].endswith("/8 criteria passed")


INF, NAN = float("inf"), float("nan")
# values of the wrong type for any field
WRONG_TYPES = st.sampled_from(["1", None, True, [], {}])


def pair(lo, hi):
    return st.tuples(lo, hi).map(list)


def four(values):
    return st.lists(values, min_size=4, max_size=4)


# each field a config may set: (section, key or None for the section's own
# value) -> (values in range, extreme values); any field may also be wrongly typed
BOUNDARY_FIELDS = {
    ("problem", "alpha"): (st.floats(0.1, 0.9), st.sampled_from([1e-300, 1e300, 5e-324, 1.5, 0.0, -0.5, INF, NAN])),
    ("problem", "x_bounds"): (
        pair(pair(st.floats(-10, -2), st.floats(2, 10)), pair(st.floats(-10, -2), st.floats(2, 10))),
        st.sampled_from([
            [[0, 0], [0, 0]], [[1, 1], [-5, 5]], [[-5, 5], [0, 0]],
            [[-1e300, 1e300], [-5, 5]], [[-5, 5], [-1e300, 1e300]], [[-1e300, 1e300], [-1e300, 1e300]],
            [[-1e308, 1e308], [-5, 5]], [[5, -5], [-5, 5]], [[-INF, INF], [-5, 5]],
        ]),
    ),
    ("problem", "u_bounds"): (
        pair(st.floats(-10, -2), st.floats(2, 10)),
        st.sampled_from([[-INF, INF], [-5, INF], [-INF, 5], [0, 0], [5, -5], [INF, INF], [-1e308, 1e308]]),
    ),
    ("problem", "w_bounds"): (
        pair(st.floats(-1, 0), st.floats(0, 1)),
        st.sampled_from([[0, 0], [-10, 10], [1, -1], [-1e308, 1e308], [-INF, 1]]),
    ),
    ("problem", "cost_linear"): (
        four(st.floats(-3, 3)),
        four(st.sampled_from([0.0, 2.0, 1e308, -1e308, 1e300, -1e300, INF])),
    ),
    ("problem", "cost_quad"): (
        four(st.floats(0.01, 1.0)),
        four(st.sampled_from([0.05, 1e-300, 5e-324, 1e-16, 1e300, 1e308, INF, 0.0, -1.0])),
    ),
    ("controller", "horizon"): (st.integers(1, 4), st.sampled_from([0, 64, 65, -1, 2.5, 10**30])),
    ("controller", "use_initial_cost"): (st.booleans(), st.nothing()),
    ("controller", "terminal_set"): (
        pair(pair(st.floats(-2, 0), st.floats(0, 2)), pair(st.floats(-2, 0), st.floats(0, 2))),
        # the invariant box, boxes beyond X or partly so, huge and inverted ones
        st.sampled_from([[[-1, -1], [-4, 0]], [[6, 7], [0, 1]], [[-6, 0], [0, 1]], [[-1e300, 1e300], [0, 1]], [[1, 0], [0, 1]]]),
    ),
    ("controller", "storage"): (
        st.fixed_dictionaries({"offset": st.floats(-20, 20), "linear": four(st.floats(-3, 3))}),
        st.fixed_dictionaries({
            "offset": st.sampled_from([0.0, 16.0, 1e308, -1e308, INF]),
            "linear": four(st.sampled_from([0.0, -1.6, 1.6, 1e300, -1e300, 1e308, -1e308])),
        }),
    ),
    ("seed", None): (st.integers(0, 2**32), st.sampled_from([0, 2**64, -1, 2.5])),
    ("problem", None): (st.nothing(), st.sampled_from([5, [0.5], "problem.json"])),
    ("controller", None): (st.nothing(), st.sampled_from([3, [2]])),
    # removed sections: any content is an unknown key
    ("output", None): (st.nothing(), st.sampled_from([{}, {"path": None}, {"path": 3}, {"format": "json"}])),
    ("tolerances", None): (st.nothing(), st.sampled_from([{}, {"feas_tol": 1e-8}])),
}
SETTABLE = [field for field, (in_range, _) in BOUNDARY_FIELDS.items() if not in_range.is_empty]


def put(config, field, value):
    section, key = field
    if key is None:
        config[section] = value
    else:
        config.setdefault(section, {})[key] = value


@st.composite
def boundary_configs(draw):
    """A config whose fields are in range, with at most one extreme or wrongly typed field."""
    config = {}
    for field in draw(st.lists(st.sampled_from(SETTABLE), unique=True)):
        put(config, field, draw(BOUNDARY_FIELDS[field][0]))
    kind = draw(st.sampled_from(["in range", "extreme", "wrongly typed"]))
    if kind != "in range":
        field = draw(st.sampled_from(list(BOUNDARY_FIELDS)))
        _, extreme = BOUNDARY_FIELDS[field]
        put(config, field, draw(WRONG_TYPES if kind == "wrongly typed" or extreme.is_empty else extreme))
    return config


# the answer of an exit 1 that is a negative verdict, by command
NEGATIVE_VERDICTS = {
    "eval-v": lambda out: json.loads(out)["feasible"] is False and json.loads(out)["tube"] is None,
    "control": lambda out: json.loads(out)["status"] != "optimal",
    "check-storage": lambda out: json.loads(out)["passed"] is False,
    "simulate": lambda out: out.startswith("k,"),
    "verify-all": lambda out: "criteria passed" in out,
}


def stub_battery(seed, spec):
    return [CriterionResult("stub", "the battery is covered by TestVerifyAll", True, "")]


class TestConfigBoundary:
    @given(config=boundary_configs(), argv=st.sampled_from(EVERY_COMMAND))
    # a start -q/sqrt(2d) that overflows, from the problem's cost and from the storage form
    @example(config={"problem": {"cost_linear": [1e308, 1e308, 1e308, 1e308]}}, argv=("rci",))
    @example(config={"controller": {"storage": {"offset": 0, "linear": [0, -1e308, 1e308, 0]}}}, argv=("control", "--z=5,-5"))
    # a feasible step whose stage cost overflows: a domain failure, not a verdict of infeasibility
    @example(
        config={"problem": {"cost_quad": [1e308, 1e308, 1e308, 1e308]}},
        argv=("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "1"),
    )
    def test_every_config_gets_an_exit_code_and_one_error_line(self, tmp_path_factory, config, argv):
        # every field a config may hold, in range, extreme or wrongly typed;
        # the battery itself is stubbed, since its config
        # checks run before it and its run is covered by TestVerifyAll
        path = tmp_path_factory.mktemp("config") / "run.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            patch.setattr(cli, "run_acceptance", stub_battery)
            # an exception out of main, a traceback at the boundary, fails the
            # test, and so does any warning, which would print on stderr; the
            # one exception is the controller's documented terminal-box warning
            warnings.simplefilter("error")
            warnings.filterwarnings("always", message="terminal set is not a self-successor box")
            code = main(["--config", str(path), *argv])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, config)
        assert "Traceback" not in err
        if code == 2 or (code == 1 and not out):
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error:"), (argv, config, err)
            return
        if code == 1:
            assert err == "" and NEGATIVE_VERDICTS[argv[0]](out), (argv, config, out, err)
            return
        # an answer holds on the config's own problem
        spec = ProblemSpec.from_json_dict(config.get("problem", {}))
        if argv[0] == "rci":
            assert is_rci(spec, IntervalBox.from_json_obj(json.loads(out)["box"])), config
        elif argv[0] in ("eval-v", "control"):
            tube = [IntervalBox.from_json_obj(b) for b in json.loads(out)["tube"]]
            assert all(transition_feasible(spec, a, b) for a, b in zip(tube, tube[1:])), (argv, config)
