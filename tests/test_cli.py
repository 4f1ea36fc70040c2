import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tube_dissip import cli, qp_solver, tube_mpc
from tube_dissip.acceptance import CriterionResult
from tube_dissip.cli import MAX_GRID, main
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec, is_rci, transition_feasible
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
        path = tmp_path / "storage.json"
        path.write_text(json.dumps({"offset": 16.0, "linear": [0, -3.2, 3.2, 0]}))
        code, out, _ = run_cli(capsys, "check-storage", "--storage", str(path))
        assert code == 1
        rep = json.loads(out)
        assert rep["passed"] is False and rep["gap"] == pytest.approx(-10.2, abs=1e-8)

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
        sol = json.loads(out)
        assert sol["status"] == "optimal"
        assert sol["u0"] == pytest.approx(-1.0, abs=1e-8)
        tube = [IntervalBox.from_json_obj(box) for box in sol["tube"]]
        assert len(tube) == 3 and len(sol["edge_controls"]) == 2

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

    @pytest.mark.parametrize("policy", ["randomly", "random5", "random:"])
    def test_only_random_or_random_seed_accepted(self, capsys, policy):
        # a text that merely starts with "random" is not the random policy
        code, out, err = run_cli(capsys, "simulate", "--y0", "0,0", "--steps", "1", "--policy", policy)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "policy" in err

    def test_random_policy_without_seed(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--y0", "0,0", "--steps", "1", "--policy", "random")
        assert code == 0 and out


# the commands that read tolerances.feas_tol, one fast call of each
FEAS_TOL_COMMANDS = [
    ("rci",),
    ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "2"),
    ("control", "--z=5,-5"),
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

    @pytest.mark.parametrize("fmt", ["csv", "JSON", None, "json"])
    def test_unsupported_output_format_rejected(self, capsys, tmp_path, fmt):
        # every command has one fixed format, so there is no format key,
        # not even for the format that every command writes
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"output": {"format": fmt}}))
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert out == ""
        assert err == "error: unknown output config keys: ['format']\n"

    @pytest.mark.parametrize("section, key, value", [
        ("controller", "use_initial_cost", "no"),
        ("controller", "terminal_equality", 1),
        ("controller", "horizon", 2.5),
        ("controller", "horizon", "2"),
        ("controller", "horizon", True),
        ("controller", "horizon", 100000),
        (None, "seed", "abc"),
        (None, "seed", -5),
        ("problem", "u_bounds", 5),
        ("problem", "cost_quad", ["a", 1, 1, 1]),
        ("problem", "alpha", "0.5"),
        ("problem", "w_bounds", [True, 1]),
        ("tolerances", "feas_tol", -1),
        ("tolerances", "feas_tol", float("nan")),
        # kkt_tol and max_iter are not settings: any value is an unknown key
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
        assert len(err.strip().splitlines()) == 1 and key in err

    def test_wrong_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("TUBE_DISSIP_SEED", "abc")
        code, out, err = run_cli(capsys, "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert "TUBE_DISSIP_SEED" in err

    @pytest.mark.parametrize("argv", [
        ("control", "--z=0,0", "--horizon", "0"),
        ("control", "--z=0,0", "--horizon", "100000"),
        ("sweep", "--horizon", "100000"),
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

    @pytest.mark.parametrize("config", [
        5,
        [],
        None,
        {"problem": 5},
        {"problem": [0.5]},
        {"problem": None},
        {"controller": 3},
        {"controller": None},
        {"tolerances": []},
        {"output": "out.json"},
        {"output": {"path": 3}},
        {"output": {"path": ["out.json"]}},
    ], ids=json.dumps)
    def test_config_of_the_wrong_shape_rejected(self, capsys, tmp_path, config):
        # an integer output path would be opened as a file descriptor
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), "control", "--z=0,0")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    def test_problem_file_of_the_wrong_shape_rejected(self, capsys, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text("5")
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"problem": str(problem)}))
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")

    @pytest.mark.parametrize("where", ["config", "problem", "storage", "output"])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_file_rejected(self, capsys, tmp_path, where, kind):
        bad = str(tmp_path if kind == "directory" else tmp_path / "missing" / "file.json")
        if where == "config":
            argv = ("--config", bad, "rci")
        elif where == "problem":
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"problem": bad}))
            argv = ("--config", str(path), "rci")
        elif where == "storage":
            argv = ("check-storage", "--storage", bad)
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

    @pytest.mark.parametrize("argv", FEAS_TOL_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("feas_tol", [1e10, 1.1e-3, float("inf")])
    def test_feas_tol_above_the_bound_rejected(self, capsys, tmp_path, argv, feas_tol):
        # a tolerance this loose would turn boxes is_rci rejects into answers
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tolerances": {"feas_tol": feas_tol}}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: tolerances.feas_tol") and "<= 0.001" in err

    @pytest.mark.parametrize("argv", FEAS_TOL_COMMANDS, ids=" ".join)
    def test_feas_tol_at_the_bound_accepted(self, capsys, tmp_path, argv):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tolerances": {"feas_tol": 1e-3}}))
        code, out, err = run_cli(capsys, "--config", str(path), *argv)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *argv) == (0, out, "")


class TestVerifyAll:
    def test_table_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "9/9 criteria passed"

    @pytest.mark.parametrize("config", [
        {"tolerances": {}},
        {"tolerances": {"feas_tol": 1e-3}},
        {"controller": {}},
        {"controller": {"use_initial_cost": False}, "tolerances": {}},
    ], ids=json.dumps)
    def test_sections_the_battery_does_not_read_rejected(self, capsys, tmp_path, config):
        # the battery runs at pinned tolerances with its own controllers, so
        # these would otherwise be ignored behind a 9/9 table
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "--config", str(path), "verify-all")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: verify-all runs at pinned tolerances")

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
        assert lines[-1].endswith("/9 criteria passed")


# every command, each with flags that keep one call short
BOUNDARY_COMMANDS = [
    ("rci",),
    ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]", "--n", "2"),
    ("check-storage", "--strictness", "2"),
    ("control", "--z=5,-5"),
    ("sweep", "--grid", "2"),
    ("simulate", "--y0=5,-5", "--steps", "1"),
    ("verify-all",),
]
FEAS_TOLS = st.one_of(
    # in range
    st.floats(min_value=1e-12, max_value=1e-3),
    # extreme: above the bound up to inf, zero and below, subnormal, NaN
    st.floats(min_value=1e-3, exclude_min=True),
    st.floats(max_value=0.0),
    st.sampled_from([5e-324, 1e-300, float("nan")]),
    # wrongly typed
    st.sampled_from(["1e-8", None, True, [1e-8], {}]),
)
BOUNDARY_CONFIGS = st.one_of(
    st.sampled_from([{}, {"tolerances": {}}, {"output": {"path": None}}]),
    st.builds(lambda feas_tol: {"tolerances": {"feas_tol": feas_tol}}, FEAS_TOLS),
    # the removed keys
    st.sampled_from([
        {"tolerances": {"max_iter": 1}},
        {"tolerances": {"feas_tol": 1e-8, "max_iter": 10000}},
        {"output": {"format": "json"}},
        {"output": {"path": None, "format": "csv"}},
    ]),
    # sections of the wrong kind
    st.sampled_from([{"tolerances": None}, {"tolerances": [1e-8]}, {"output": "out.json"}, {"output": {"path": 3}}]),
)


def stub_battery(seed, spec):
    return [CriterionResult("stub", "the battery is covered by TestVerifyAll", True, "")]


class TestConfigBoundary:
    @given(config=BOUNDARY_CONFIGS, argv=st.sampled_from(BOUNDARY_COMMANDS))
    def test_every_config_gets_an_exit_code_and_one_error_line(self, tmp_path_factory, config, argv):
        # configs in range, extreme, wrongly typed or with the removed keys
        # max_iter and format; the battery itself is stubbed, since its
        # config checks run before it and its run is covered by TestVerifyAll
        path = tmp_path_factory.mktemp("config") / "run.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
            patch.setattr(cli, "run_acceptance", stub_battery)
            # an exception out of main, a traceback at the boundary, fails the test
            code = main(["--config", str(path), *argv])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, config)
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, config, err)
            return
        # an answer holds at the default tolerance, whatever the config's
        spec = ProblemSpec.default()
        if argv[0] == "rci":
            assert is_rci(spec, IntervalBox.from_json_obj(json.loads(out)["box"])), config
        elif argv[0] in ("eval-v", "control"):
            tube = [IntervalBox.from_json_obj(b) for b in json.loads(out)["tube"]]
            assert all(transition_feasible(spec, a, b) for a, b in zip(tube, tube[1:])), (argv, config)
