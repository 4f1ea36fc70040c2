import dataclasses
import io
import json
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tube_dissip import cli, cost_to_travel, qp_solver, tube_mpc
from tube_dissip.acceptance import CriterionResult
from tube_dissip.cli import MAX_GRID, main
from tube_dissip.closed_loop import MAX_TRACE_STEPS
from tube_dissip.dissipativity import StorageFunction
from tube_dissip.interval_sets import ConfigError, IntervalBox
from tube_dissip.problem import ProblemSpec, is_rci, transition_feasible
from tube_dissip.qp_solver import QpStatus
from tube_dissip.tube_mpc import TubeMpcConfig, TubeSolution


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


# The command line's contract as one table.  Each row is (config, argv,
# exit code, stdout check, stderr check).  The config is a JSON value
# written to the --config file, bytes written as they are, or None for no
# --config.  A stdout check is a str, the exact text ("" for none); an int,
# the number of lines; a Last, the last line; or a Fields, one JSON line
# whose named fields have these values.  A stderr check is a str, the exact
# text ("" for none), or an Error, one "error:" line that holds its text.


class Last(str):
    """The last line of stdout."""


class Fields(dict):
    """Fields of the one JSON object on stdout, with their values."""


class Error(str):
    """Text held by the one ``error:`` line on stderr."""


def stdout_holds(out: str, check) -> bool:
    if isinstance(check, Last):
        return out.splitlines()[-1:] == [check]
    if isinstance(check, Fields):
        answer = json.loads(out)  # one JSON value, or JSONDecodeError
        return out.count("\n") == 1 and all(answer[key] == value for key, value in check.items())
    if isinstance(check, int):
        return out.count("\n") == check
    return out == check


def stderr_holds(err: str, check) -> bool:
    if isinstance(check, Error):
        return err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1 and check in err
    return err == check


BIG = 10**400  # 401 digits; its float overflows
EVAL_V_N2 = ("eval-v", "--a", "[[-2,1],[-4,1]]", "--b", "[[-1,-1],[-4,0]]", "--n", "2")
# from the invariant box to itself; the tail sets N
EVAL_V_X_STAR = ("eval-v", "--a", "[[-1,-1],[-4,0]]", "--b", "[[-1,-1],[-4,0]]")
INFEASIBLE = json.dumps(TubeSolution(status=QpStatus.INFEASIBLE).to_json_dict()) + "\n"
NO_BOX = "error: no robust control invariant interval box exists within the state bounds (the self-transition problem is infeasible)\n"
START_OVERFLOWS = "error: dual active-set kernel was given data whose start is not finite\n"
COST_OVERFLOWS = "error: the minimising tube's cost is not finite (inf)\n"
MINIMISER_OVERFLOWS = "error: the two-step program's unconstrained minimiser is not finite\n"
# the largest float, whose sums with other corners overflow
MAX_FLOAT = "1.7976931348623157e308"
COST_LINEAR_1E308 = {"problem": {"cost_linear": [1e308] * 4}}
# so wide a disturbance leaves few boxes a successor within the state bounds
WIDE_W = {"problem": {"x_bounds": [[-5, 5], [-2.05, 2.05]], "w_bounds": [-2, 2]}}

CONTRACT = [
    # answers: each exits 0 with nothing on stderr
    ({"seed": 1}, ("verify-all",), 0, Last("8/8 criteria passed"), ""),
    (None, ("check-storage", "--strictness", "200"), 0, 1, ""),
    ({"seed": 1}, ("simulate", "--y0=4,-3", "--policy", "random"), 0, 12, ""),
    (None, ("simulate", "--y0", "0,0", "--steps", "1", "--policy", "random"), 0, 3, ""),
    # the 21 x 21 sweep under the default controller, without the initial
    # cost, at horizon 3 and on an X off the origin, whose law table's cells
    # are not symmetric about it: a header and 441 rows each
    (None, ("sweep",), 0, 442, ""),
    ({"controller": {"use_initial_cost": False}}, ("sweep",), 0, 442, ""),
    ({"controller": {"horizon": 3}}, ("sweep",), 0, 442, ""),
    ({"problem": {"x_bounds": [[-3, 7], [-6, 2]]}}, ("sweep",), 0, 442, ""),
    # the two Figure 2 episodes, a header and 22 rows
    (None, ("simulate", "--fig2"), 0, 23, ""),
    # an N=2 value, in closed form, an N=3 value, which the chain program's
    # table answers after the first solve, and a target whose corner sums
    # overflow to +inf: those rows always hold, so the value is feasible
    (None, EVAL_V_N2, 0, Fields(feasible=True), ""),
    (None, (*EVAL_V_N2[:-1], "3"), 0, Fields(feasible=True), ""),
    (None, ("eval-v", "--a", "[[-2,1],[-4,1]]", "--b", "[[-1e308,1e308],[-1e308,1e308]]", "--n", "2"), 0, Fields(feasible=True), ""),
    # the horizon-1 controller solves z = (-5, -2); the horizon-64 one z = (0, 0)
    ({"controller": {"horizon": 1}}, ("control", "--z=-5,-2"), 0, Fields(status="optimal"), ""),
    ({"controller": {"horizon": 64}}, ("control", "--z=0,0"), 0, Fields(status="optimal"), ""),
    # U unbounded on both sides: the rows that always hold are left out
    ({"problem": {"u_bounds": [-np.inf, np.inf]}}, ("rci",), 0, 1, ""),
    ({"problem": {"u_bounds": [-np.inf, np.inf]}}, EVAL_V_N2, 0, Fields(feasible=True), ""),
    ({"problem": {"u_bounds": [-np.inf, np.inf]}}, ("control", "--z=5,-5"), 0, Fields(status="optimal"), ""),
    # the cost's bound over the state bounds overflows, the cost does not
    ({"problem": {"cost_quad": [1e307] * 4}}, ("rci",), 0, Fields(v_star=2.5e307), ""),
    # an interval end of -0.0 reads as 0.0: each answer is the one of 0.0
    ({"problem": {"w_bounds": [0.0, -0.0]}}, ("simulate", "--y0=0,0", "--policy", "random"), 0, 12, ""),

    # negative verdicts: exit 1, the answer in full on stdout, nothing on stderr
    (None, ("eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]"), 1,
     '{"feasible": false, "value": null, "tube": null, "aux_controls": null}\n', ""),
    (None, ("control", "--z=-6,0"), 1, INFEASIBLE, ""),
    # beyond the state bounds by twice the 1e-8 tolerance: decided without a solve
    (None, ("control", "--z=-5.00000002,0"), 1, INFEASIBLE, ""),
    # a fixed row that the state enters refuses z = (5, 1) at horizon 1
    ({"controller": {"horizon": 1}}, ("control", "--z=5,1"), 1, INFEASIBLE, ""),
    # both corner starts are infeasible at horizon 1: the header alone
    ({"controller": {"horizon": 1}}, ("simulate", "--fig2"), 1, "y0,k,y1,y2,u,w,Y_a1,Y_a2,Y_a3,Y_a4,dH,lyapunov\n", ""),
    # a sampled criterion whose samples cannot be drawn fails in a full
    # table: X misses the cone of monotone boxes, or no chain or pair is found
    ({"problem": {"x_bounds": [[1, 5], [1, 5]]}}, ("verify-all",), 1, Last("2/8 criteria passed"), ""),
    (WIDE_W, ("verify-all",), 1, Last("1/8 criteria passed"), ""),
    # an interval end of -0.0 reads as 0.0: each answer is the one of 0.0
    ({"problem": {"x_bounds": [[-5, 5], [-5, -0.0]]}}, ("verify-all",), 1, Last("6/8 criteria passed"), ""),
    ({"problem": {"x_bounds": [[0.0, -0.0], [-5, 5]]}}, ("verify-all",), 1, Last("2/8 criteria passed"), ""),
    ({"problem": {"u_bounds": [0.0, -0.0]}}, ("check-storage", "--strictness", "20"), 1, 1, ""),
    # a target whose corner sums overflow to -inf: rows that never hold
    (None, ("eval-v", "--a", "[[-2,1],[-4,1]]", "--b", f"[[-{MAX_FLOAT},-5],[-{MAX_FLOAT},-1e308]]", "--n", "2"), 1,
     Fields(feasible=False), ""),

    # domain failures without an answer: exit 1 and one error: line.  No box
    # within the state bounds absorbs disturbances this wide
    *[({"problem": {"w_bounds": [-10, 10]}}, argv, 1, "", NO_BOX) for argv in [
        ("rci",), ("control", "--z=0,0"), ("check-storage",), ("simulate", "--y0=0,0"), ("sweep",), ("verify-all",),
    ]],
    # no transition pair is found to sample strictness on
    (WIDE_W, ("check-storage", "--strictness", "20"), 1, "", "error: failed to sample a feasible transition pair\n"),
    # the start -q/sqrt(2d) of the kernel overflows, from the problem's cost
    # or from the storage form added to it
    (COST_LINEAR_1E308, ("rci",), 1, "", START_OVERFLOWS),
    (COST_LINEAR_1E308, ("control", "--z=5,-5"), 1, "", START_OVERFLOWS),
    (COST_LINEAR_1E308, (*EVAL_V_X_STAR, "--n", "2"), 1, "", MINIMISER_OVERFLOWS),
    ({"controller": {"storage": {"offset": 0, "linear": [0, -1e308, 1e308, 0]}}}, ("control", "--z=5,-5"), 1, "", START_OVERFLOWS),
    # at cost_quad 5e307 the kernel's scale 1/sqrt(2d) is about 1e-154, so
    # the scaled rows' squared norms sit near the bottom of the float range,
    # where rounding makes the rows look dependent; the ray found there is no
    # Farkas ray of the program, so no infeasible verdict
    ({"problem": {"cost_quad": [5e307] * 4}}, ("control", "--z=5,-5"), 1, "",
     "error: dual active-set kernel found inconsistent rows without a Farkas ray\n"),
    # the stage costs along the minimising tube sum to inf, at every N
    ({"problem": {"cost_quad": [1e307] * 4}}, ("control", "--z=5,-5"), 1, "", COST_OVERFLOWS),
    ({"problem": {"cost_quad": [8e307] * 4}}, ("rci",), 1, "", COST_OVERFLOWS),
    ({"problem": {"cost_quad": [1e308] * 4}}, (*EVAL_V_X_STAR, "--n", "1"), 1, "", COST_OVERFLOWS),

    # usage and configuration errors: exit 2, one error: line and no output
    (None, ("eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]", "--n", "0"), 2, "",
     "error: n_steps must be an integer between 1 and 64, got 0\n"),
    (None, ("eval-v", "--a", "[[0,1],[0,1]]", "--b", "[[0,1],[0,1]]", "--n", "100000"), 2, "",
     "error: n_steps must be an integer between 1 and 64, got 100000\n"),
    (None, ("eval-v", "--a", "oops", "--b", "[[0,1],[0,1]]"), 2, "", Error("box")),
    (None, ("eval-v", "--a", "[[0,1,2],[0,1]]", "--b", "[[0,1],[0,1]]"), 2, "", Error("")),
    (None, ("eval-v", "--a", f"[[0,{BIG}],[0,1]]", "--b", "[[0,1],[0,1]]"), 2, "", Error("")),
    (None, ("eval-v", "--a", "[[0,1],[0,1]]", "--b", f"[[0,1],[-{BIG},1]]", "--n", "2"), 2, "", Error("")),
    # a state is rejected while parsing, before any solve
    *[(None, ("control", f"--z={z}"), 2, "", Error("'x1,x2'")) for z in ["nan,0", "inf,0", "0,-inf", "a,0", "1,2,3"]],
    # the Figure 2 preset fixes the starts and the policy, so neither is a flag of it
    *[(None, ("simulate", "--fig2", *flags), 2, "", Error("--fig2")) for flags in [
        ("--y0=1,2",), ("--policy", "random"), ("--policy", "adversarial"), ("--y0=1,2", "--policy", "random"),
    ]],
    (None, ("simulate", "--steps", "2"), 2, "", Error("--y0")),
    (None, ("simulate", "--y0", "0,0", "--policy", "chaotic"), 2, "", Error("policy")),
    # the policy's seed is the config's seed, so random:SEED is no policy, and
    # a text that merely starts with "random" is not the random policy
    *[(None, ("simulate", "--y0", "0,0", "--steps", "1", "--policy", policy), 2, "", Error("policy")) for policy in [
        "randomly", "random5", "random:", "random:5", "random:abc", "random:-1",
    ]],
    # the trace keeps every step, so a count beyond the cap is refused before the first solve
    *[(None, (*start, "--steps", str(steps)), 2, "",
       f"error: steps must be an integer between 0 and {MAX_TRACE_STEPS}, got {steps}\n")
      for start, steps in [(("simulate", "--y0=0,0"), MAX_TRACE_STEPS + 1), (("simulate", "--fig2"), 10**10)]],
    *[(None, ("sweep", "--grid", grid), 2, "", f"error: --grid must be an integer between 1 and {MAX_GRID}, got {grid}\n")
      for grid in ["0", "-3"]],
    *[(None, argv, 2, "", Error("")) for argv in [
        ("check-storage", "--strictness", "-2"), ("simulate", "--y0=0,0", "--steps", "-1"),
    ]],
    # a file that cannot be read or written: a directory, or one in a missing directory
    (None, ("--config", ".", "rci"), 2, "", Error("cannot read .: ")),
    (None, ("--config", "missing/file.json", "rci"), 2, "", Error("cannot read missing/file.json: ")),
    (None, ("rci", "--output", "."), 2, "", Error("cannot write .: ")),
    (None, ("rci", "--output", "missing/file.json"), 2, "", Error("cannot write missing/file.json: ")),
    (b"\x80\x81", ("rci",), 2, "", Error("invalid JSON")),
    # a config of the wrong shape; the problem is the inline object, never a path to one
    *[(config, ("control", "--z=0,0"), 2, "", Error("")) for config in [
        5, [], b"null", {"problem": 5}, {"problem": [0.5]}, {"problem": None}, {"problem": "problem.json"},
        {"controller": 3}, {"controller": None}, {"tolerances": []},
    ]],
    ({"problem": "problem.json"}, ("rci",), 2, "", Error("")),
    ({"problem": {}, "mystery": 1}, ("rci",), 2, "", Error("mystery")),
    ({"problem": {"alhpa": 0.5}}, ("rci",), 2, "", Error("alhpa")),
    # a wrong value of each key is named; no tolerance is a setting, so any
    # tolerances section is an unknown key
    *[({key: value} if section is None else {section: {key: value}}, ("control", "--z=0,0"), 2, "",
       Error("tolerances" if section == "tolerances" else key)) for section, key, value in [
        ("controller", "use_initial_cost", "no"), ("controller", "terminal_equality", 1),
        ("controller", "horizon", 2.5), ("controller", "horizon", "2"), ("controller", "horizon", True),
        ("controller", "horizon", 0), ("controller", "horizon", 100000),
        (None, "seed", "abc"), (None, "seed", -5),
        ("problem", "u_bounds", 5), ("problem", "cost_quad", ["a", 1, 1, 1]), ("problem", "alpha", "0.5"),
        ("problem", "w_bounds", [True, 1]),
        ("tolerances", "feas_tol", -1), ("tolerances", "feas_tol", float("nan")), ("tolerances", "kkt_tol", 0),
        ("tolerances", "kkt_tol", 1e-8), ("tolerances", "max_iter", 0), ("tolerances", "max_iter", "x"),
        ("tolerances", "rho", 1.0), ("tolerances", "polish_gate_prim", 0.1),
    ]],
    ({"tolerances": {"max_iter": 1}}, ("rci",), 2, "", Error("")),
    # seeds are non-negative integers, checked where they enter
    ({"seed": "abc"}, ("simulate", "--y0=0,0", "--policy", "random"), 2, "", Error("non-negative")),
    ({"seed": -1}, ("simulate", "--y0=0,0", "--policy", "random"), 2, "", Error("non-negative")),
    ({"seed": -3}, ("check-storage", "--strictness", "3"), 2, "", Error("non-negative")),
    # none of these may be read loosely into a plausible answer
    *[({"controller": {"storage": storage}}, ("check-storage",), 2, "", Error("")) for storage in [
        {"offset": 1, "linear": [0, 0, 0]},
        {"offset": 16, "linear": [0, -1.6, 1.6, 0], "mystery": 1},
        [16, [0, -1.6, 1.6, 0]],
        {"offset": "NaN", "linear": [0, -1.6, 1.6, 0]},
        {"offset": BIG, "linear": [0, -1.6, 1.6, 0]},
        {"offset": 16, "linear": [0, -BIG, 1.6, 0]},
    ]],
    # W is 0 beyond the state bounds, which no key sets
    ({"controller": {"storage": {"offset": 16, "linear": [0, -1.6, 1.6, 0], "outside_value": 1000}}}, ("check-storage",), 2, "",
     "error: controller.storage: unknown storage keys: ['outside_value']\n"),
    *[({"controller": {"terminal_set": box}}, ("control", "--z=0,0"), 2, "", Error("")) for box in [
        [[0, 1], [0]], [[1, 0], [0, 1]], [[0, 1, 2], [0, 1]],
    ]],
    # ints whose float overflows
    *[({"problem": problem}, ("rci",), 2, "", Error("")) for problem in [
        {"alpha": BIG}, {"u_bounds": [-BIG, 5]}, {"x_bounds": [[-BIG, 5], [-5, 5]]}, {"cost_quad": [0.15, 0.05, 0.1, BIG]},
    ]],
    # finite corners whose difference is inf: rejected with the config,
    # before any draw or solve spans them
    *[({"problem": problem}, argv, 2, "", Error("finite widths"))
      for problem in [{"x_bounds": [[-1e308, 1e308], [-5, 5]]}, {"w_bounds": [-1e308, 1e308]}]
      for argv in [("rci",), ("verify-all",), ("control", "--z=0,0"), ("simulate", "--y0=0,0", "--policy", "random")]],
    # the battery runs its own controllers, so a controller section would
    # otherwise be ignored behind an 8/8 table
    *[(config, ("verify-all",), 2, "", Error(f"['{named}']")) for config, named in [
        ({"tolerances": {}}, "tolerances"), ({"tolerances": {"feas_tol": 1e-3}}, "tolerances"),
        ({"controller": {}}, "controller"), ({"controller": {"use_initial_cost": False}, "tolerances": {}}, "tolerances"),
    ]],
    # --output is the one route to an output path, and every transition is
    # decided at one fixed tolerance, so an output or tolerances section,
    # even an empty one or the old default, is an unknown key on every command
    *[({"output": output}, argv, 2, "", "error: unknown config keys: ['output']\n")
      for argv in EVERY_COMMAND
      for output in [{}, {"path": "out.json"}, {"path": None}, {"format": "json"}, {"format": "csv"}, "out.json"]],
    *[({"tolerances": tolerances}, argv, 2, "", "error: unknown config keys: ['tolerances']\n")
      for argv in EVERY_COMMAND
      for tolerances in [{}, {"feas_tol": 1e-8}, {"feas_tol": 1e10}, {"feas_tol": 1.1e-3}, {"feas_tol": float("inf")}]],
]


def row_id(row) -> str:
    config, argv, code = row[:3]
    if config is not None:
        argv = (repr(config) if isinstance(config, bytes) else json.dumps(config), *argv)
    return f"{code} {' '.join(argv)}".replace(str(BIG), "BIG")


@pytest.mark.parametrize("config, argv, code, stdout, stderr", CONTRACT, ids=[row_id(row) for row in CONTRACT])
def test_the_command_line_contract(capsys, tmp_path, monkeypatch, config, argv, code, stdout, stderr):
    # fresh library caches, so that no answer depends on the rows run before
    for cache in (tube_mpc._controller, cost_to_travel._chain_stack, cost_to_travel.optimal_rci):
        cache.cache_clear()
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("run.json").write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = ("--config", "run.json", *argv)
    # an exception out of main fails the row: at the command line it is a
    # traceback, argparse's usage line (SystemExit) or a warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(list(argv))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert (got, stdout_holds(out, stdout), stderr_holds(err, stderr)) == (code, True, True), (out, err)
    # and no row leaves a file behind
    assert sorted(os.listdir()) == ([] if config is None else ["run.json"])


# the rows whose config errs in its controller section alone, with the stderr each pins
CONTROLLER_ROWS = [
    (config["controller"], stderr) for config, argv, code, _, stderr in CONTRACT
    if isinstance(config, dict) and set(config) == {"controller"} and code == 2 and argv != ("verify-all",)
]


@pytest.mark.parametrize("section, stderr", CONTROLLER_ROWS, ids=[json.dumps(row[0]).replace(str(BIG), "BIG") for row in CONTROLLER_ROWS])
def test_each_bad_controller_section_is_refused_by_its_reader(section, stderr):
    # the library's reader of a controller section raises what the command line prints
    assert len(CONTROLLER_ROWS) == 19
    with pytest.raises(ConfigError) as info:
        TubeMpcConfig.from_json_dict(section)
    assert stderr_holds(f"error: {info.value}\n", stderr)


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
        code, out, _ = run_cli(capsys, *EVAL_V_X_STAR, "--n", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["feasible"] is True
        assert obj["value"] == pytest.approx(-0.2, abs=1e-8)
        a, b = (IntervalBox.from_json_obj(box) for box in obj["tube"])
        assert a == b == IntervalBox.from_json_obj([[-1, -1], [-4, 0]])


class TestCheckStorage:
    def test_default_storage_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-storage")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True and abs(rep["gap"]) <= 1e-8
        assert rep["qp_min_value"] == pytest.approx(-0.2, abs=1e-8) and rep["strictness"] is None
        # the report's fields, then the sampled margins, with or without them
        keys = ["qp_min_value", "minimizer_a", "minimizer_b", "minimizer_v", "v_star", "gap", "passed", "unbounded", "strictness"]
        assert list(rep) == keys
        _, out, _ = run_cli(capsys, "check-storage", "--strictness", "2")
        assert list(json.loads(out)) == keys

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
        assert err == f"error: --grid must be an integer between 1 and {MAX_GRID}, got {grid}\n"


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

    def test_random_policy_seeded(self, capsys, tmp_path):
        config = config_file(tmp_path, {"seed": 5})
        args = ("--config", config, "simulate", "--y0", "1,1", "--steps", "2", "--policy", "random")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestConfig:
    def test_config_problem_override(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "--config", config_file(tmp_path, {"problem": {"w_bounds": [0.0, 0.0]}}), "rci")
        assert code == 0
        assert json.loads(out)["v_star"] == pytest.approx(-5 / 3, abs=1e-8)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "rci", "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["v_star"] == pytest.approx(-0.2, abs=1e-8)

    def test_readme_run_configuration_runs(self, capsys, tmp_path):
        # the README's example config sets every section a config may hold,
        # each at its default, so rci gives the default box on it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Run configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.json"
        path.write_text(block)
        code, out, err = run_cli(capsys, "--config", str(path), "rci")
        assert (code, err) == (0, "")
        assert run_cli(capsys, "rci") == (0, out, "")
        # and it names every key of every section, so it shows the whole schema
        config = json.loads(block)
        assert set(config) == cli.RunConfig.KNOWN_KEYS
        assert set(config["problem"]) == set(ProblemSpec().to_json_dict())
        assert set(config["controller"]) == {f.name for f in dataclasses.fields(TubeMpcConfig)}
        assert set(config["controller"]["storage"]) == set(StorageFunction.reference().to_json_dict())

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

    def test_solver_failure_is_a_domain_failure(self, capsys, monkeypatch):
        # a fresh controller program has no stored laws, so the kernel runs
        # and meets the step limit
        tube_mpc._controller.cache_clear()
        monkeypatch.setattr(qp_solver, "_STEP_LIMIT", 1)
        code, out, err = run_cli(capsys, "control", "--z=1,1")
        assert code == 1
        assert out == ""
        assert err.strip() == "error: dual active-set kernel exceeded 1 steps"


class TestVerifyAll:
    def test_table_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "8/8 criteria passed"

    def test_truncated_witness_trace_fails(self, capsys, tmp_path):
        # the witness starts at (-1, -2), outside x1 in [0, 5]
        code, out, err = run_cli(capsys, "--config", config_file(tmp_path, {"problem": {"x_bounds": [[0, 5], [-5, 5]]}}), "verify-all")
        assert code == 1
        assert err == ""
        lines = out.strip().splitlines()
        (witness,) = [line for line in lines if "instability-witness" in line]
        assert witness.startswith("[FAIL]")
        assert witness.endswith("trace from (-1, -2) ends at step 0: controller infeasible")
        assert lines[-1].endswith("/8 criteria passed")


INF, NAN = float("inf"), float("nan")
# values of the wrong type for any field; the float of 10**400 overflows
WRONG_TYPES = st.sampled_from(["1", None, True, [], {}, 10**400, -10**400])


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
    # ints whose float overflows, in a number, a pair, a box and the storage form
    @example(config={"problem": {"alpha": 10**400}}, argv=("rci",))
    @example(config={"problem": {"u_bounds": [-10**400, 5]}}, argv=("control", "--z=5,-5"))
    @example(config={"problem": {"x_bounds": [[-10**400, 5], [-5, 5]]}}, argv=("rci",))
    @example(config={"controller": {"storage": {"offset": 10**400, "linear": [0, -1.6, 1.6, 0]}}}, argv=("check-storage",))
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
