"""Command-line front end.

Subcommands: ``rci``, ``eval-v``, ``check-storage``, ``control``, ``sweep``,
``simulate``, ``verify-all``.  JSON outputs are the ``to_json_dict`` forms of
the result types, with boxes as ``[[lo1, hi1], [lo2, hi2]]``; CSV uses '.'
decimals and 12 significant digits.  Each setting has one route: the
problem, the controller and the seed come from the ``--config`` file, and
the output path from ``--output``.  ``check-storage`` certifies the
controller's storage, the initial cost of ``control``, ``sweep`` and
``simulate``.  ``verify-all`` runs the acceptance battery on the configured
problem and seed with its own controllers, so a config with a
``controller`` section is a configuration error there.  Exit codes: 0 on
success; 2 on usage or configuration errors, an unreadable config file and
an unwritable output path included, with one ``error:`` line on standard
error and no output (argparse's own usage errors, such as an unrecognized
flag, print its usage line first); 1 on a domain failure.  That is either
a negative verdict (an infeasible ``eval-v`` or ``control``, a failed
``check-storage``, a truncated or unstable ``simulate``, a failing
``verify-all``), written in full as the output with nothing on standard
error, or a command that stops without an answer (no invariant box, or a
solver that stops without one), with one ``error:`` line and no output.
The controller also warns on standard error of a terminal box that is not
its own successor.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .acceptance import run_acceptance
from .closed_loop import (
    AdversarialPolicy,
    ExtremePolicy,
    UniformRandomPolicy,
    check_enclosure_stability,
    simulate,
)
from .cost_to_travel import RciNotFound, eval_v, optimal_rci
from .dissipativity import check_strictness, verify_separability
from .interval_sets import IntervalBox, _count, _section, _seed
from .problem import ConfigError, ProblemSpec
from .qp_solver import SolverFailure
from .tube_mpc import TubeMpcConfig, _storage, solve_tmpc, sweep_feedback

DEFAULT_SEED = 0
# the most points per axis of a sweep grid: about a million states, and the
# grid is a list of grid**2 states built before the first of them
MAX_GRID = 1001


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


class RunConfig:
    """Problem, controller and seed shared by commands, each section read by the record it builds."""

    KNOWN_KEYS = {"problem", "controller", "seed"}

    def __init__(self, obj: dict):
        self.sections = set(_section(obj, self.KNOWN_KEYS, "a run configuration is a JSON object", "unknown config keys"))
        self.spec = ProblemSpec.from_json_dict(obj.get("problem", {}))
        self.controller = TubeMpcConfig.from_json_dict(obj.get("controller", {}))
        self.seed = _seed(obj.get("seed", DEFAULT_SEED))

    @classmethod
    def load(cls, path: Optional[str]) -> "RunConfig":
        return cls({} if path is None else _read_json(path))


def _read_json(path):
    """The JSON value in the file at path; a file that cannot be read or parsed raises ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _parse_point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    try:
        point = tuple(float(p) for p in parts)
    except ValueError:
        point = ()
    if len(point) != 2 or not all(math.isfinite(v) for v in point):
        raise ConfigError(f"expected two finite numbers 'x1,x2', got {text!r}")
    return point


def _parse_box(text: str) -> IntervalBox:
    try:
        return IntervalBox.from_json_obj(json.loads(text))
    except ValueError as exc:
        raise ConfigError(f"expected a box like [[lo1,hi1],[lo2,hi2]], got {text!r}: {exc}") from exc


def _parse_policy(text: str, seed: int):
    if text == "adversarial":
        return AdversarialPolicy()
    if text == "random":
        return UniformRandomPolicy(seed=seed)
    if text.startswith("extreme:"):
        pattern = text.split(":", 1)[1]
        if not pattern or any(c not in "+-" for c in pattern):
            raise ConfigError(f"extreme policy pattern must be +/- signs, got {text!r}")
        return ExtremePolicy(signs=tuple(1 if c == "+" else -1 for c in pattern))
    raise ConfigError(f"unknown policy {text!r} (adversarial | random | extreme:+-+)")


def _cmd_rci(run: RunConfig, args) -> int:
    box, v_star = optimal_rci(run.spec)
    _write_output(
        json.dumps({"corners": list(box.corners()), "box": box.to_json_obj(), "v_star": v_star}),
        args.output,
    )
    return 0


def _cmd_eval_v(run: RunConfig, args) -> int:
    result = eval_v(run.spec, _parse_box(args.a), _parse_box(args.b), args.n)
    _write_output(json.dumps(result.to_json_dict()), args.output)
    return 0 if result.feasible else 1


def _cmd_check_storage(run: RunConfig, args) -> int:
    sf = _storage(run.controller)
    report = verify_separability(run.spec, sf)
    strictness = None
    if args.strictness:
        strictness = check_strictness(run.spec, sf, args.strictness, seed=run.seed).to_json_dict()
    _write_output(json.dumps({**report.to_json_dict(), "strictness": strictness}), args.output)
    return 0 if report.passed else 1


def _cmd_control(run: RunConfig, args) -> int:
    sol = solve_tmpc(run.spec, run.controller, _parse_point(args.z))
    _write_output(json.dumps(sol.to_json_dict()), args.output)
    return 0 if sol.feasible else 1


def _cmd_sweep(run: RunConfig, args) -> int:
    n = _count(args.grid, "--grid", 1, MAX_GRID)
    xb = run.spec.x_bounds
    grid = [(z1, z2) for z1 in np.linspace(xb.lo[0], xb.hi[0], n) for z2 in np.linspace(xb.lo[1], xb.hi[1], n)]
    points = sweep_feedback(run.spec, run.controller, grid)
    rows = [
        {
            "z1": p.z[0],
            "z2": p.z[1],
            "u0": p.u0,
            "objective": p.objective,
            "status": p.status.value,
        }
        for p in points
    ]
    _write_output(_csv(rows, ["z1", "z2", "u0", "objective", "status"]), args.output)
    return 0


def _cmd_simulate(run: RunConfig, args) -> int:
    columns = ["k", "y1", "y2", "u", "w", "Y_a1", "Y_a2", "Y_a3", "Y_a4", "dH", "lyapunov"]
    if args.fig2:
        # bundled demonstration preset: the two corner starts under the
        # adversarial policy, which no flag may change
        for flag, value in (("--y0", args.y0), ("--policy", args.policy)):
            if value is not None:
                raise ConfigError(f"{flag} cannot be given with --fig2, which fixes the starts and the policy")
        rows = []
        ok = True
        for y0 in ((5.0, -5.0), (-5.0, 5.0)):
            trace = simulate(run.spec, run.controller, y0, args.steps, AdversarialPolicy())
            report = check_enclosure_stability(trace, run.spec)
            ok = ok and report.stable
            for row in trace.csv_rows():
                row = {"y0": _fmt(y0[0]) + ";" + _fmt(y0[1]), **row}
                rows.append(row)
        _write_output(_csv(rows, ["y0"] + columns), args.output)
        return 0 if ok else 1
    if args.y0 is None:
        raise ConfigError("--y0 is required without --fig2")
    policy = _parse_policy("adversarial" if args.policy is None else args.policy, run.seed)
    trace = simulate(run.spec, run.controller, _parse_point(args.y0), args.steps, policy)
    _write_output(_csv(trace.csv_rows(), columns), args.output)
    return 0 if trace.failure_step is None else 1


def _cmd_verify_all(run: RunConfig, args) -> int:
    if "controller" in run.sections:
        raise ConfigError("verify-all runs its own controllers; remove ['controller'] from the config")
    results = run_acceptance(seed=run.seed, spec=run.spec)
    width = max(len(r.key) for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.key.ljust(width)}  {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    _write_output("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tube-dissip",
        description="Set-valued cost-to-travel analysis, storage certificates, and tube MPC on interval boxes.",
    )
    parser.add_argument("--config", help="JSON run configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rci", help="compute the optimal robust control invariant box")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_rci)

    p = sub.add_parser("eval-v", help="evaluate the N-step cost-to-travel value between two boxes")
    p.add_argument("--a", required=True, help="source box [[lo1,hi1],[lo2,hi2]]")
    p.add_argument("--b", required=True, help="target box [[lo1,hi1],[lo2,hi2]]")
    p.add_argument("--n", type=int, default=1, help="number of steps (default 1)")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_eval_v)

    p = sub.add_parser("check-storage", help="certify the controller's storage by its closed-form relaxed minimum")
    p.add_argument("--strictness", type=int, default=0, help="also sample N strictness margins")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_check_storage)

    p = sub.add_parser("control", help="solve the controller at one state")
    p.add_argument("--z", required=True, help="state 'x1,x2'")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("sweep", help="controller sweep over an n-by-n state grid (CSV)")
    p.add_argument("--grid", type=int, default=21)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="closed-loop simulation (CSV trace)")
    p.add_argument("--y0", help="initial state 'x1,x2'")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--policy", help="adversarial (default) | random | extreme:+-+")
    p.add_argument("--fig2", action="store_true", help="run the two bundled corner-start demonstrations")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-all", help="run the acceptance battery and print a pass/fail table")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = RunConfig.load(args.config)
        return args.func(run, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RciNotFound, SolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
