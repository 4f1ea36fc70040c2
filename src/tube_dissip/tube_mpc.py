"""Receding-horizon controller over box tubes, with feedback extraction.

Each solve optimizes a horizon of boxes chained by the transition rows, the
measured state pinned into the first box and the last box fixed to a
terminal invariant box T.  The applied control ``u0`` must drive the
measured state into the second box for every disturbance; its window

    [max(b1, b3 - alpha*z2 - w_lo, u_lo), min(b2, b4 - alpha*z2 - w_hi, u_hi)]

on the second box b is nonempty exactly when b is a one-step successor of
the point box ``{z}``, so, like the edge controls of every step, it drops
out through :func:`~tube_dissip.problem.transition_rows`.  What remains is a
strictly convex QP in the corners of the first ``horizon`` boxes,
``min sum(d*x**2 + q*x)`` subject to ``G x <= h0 - P @ z``, built once per
problem and controller options and solved exactly by the dual active-set
kernel of ``qp_solver``, as multi-step cost-to-travel values are, each solve
starting from the cached optimum of the rows the state does not enter.
Rows with no free coefficient are checked against ``feas_tol``.  The answer
is read back into boxes and edge controls by the same helper as those
values (``cost_to_travel._solve_tube``).  A terminal box that is not its
own successor is accepted, with a warning at every solve.

The cost does not depend on ``u0``, so it is reported in closed form from
the optimal tube: the window ``[lo, hi]`` clamped towards zero as
``min(max(0, lo), hi)``.  The window is reported alongside so callers can
tell forced values from tie-broken ones.  Only states within the state
bounds have a tube: one beyond them by more than ``feas_tol`` is reported
infeasible without a solve, and one within ``feas_tol`` of them is solved
as the nearest state on them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .cost_to_travel import (
    _corner_program,
    _corner_qp,
    _CornerProgram,
    _solve_tube,
    _stacked_steps,
    optimal_rci,
)
from .dissipativity import StorageFunction
from .interval_sets import IntervalBox, contains, subset
from .problem import ConfigError, ProblemSpec, is_rci, transition_rows
from .qp_solver import DEFAULT_SETTINGS, QpStatus, SolverFailure, SolverSettings

__all__ = [
    "TubeMpcConfig",
    "TubeSolution",
    "SweepPoint",
    "ControllerInfeasible",
    "TubeStepInfeasible",
    "solve_tmpc",
    "feedback",
    "mu_feedback",
    "sweep_feedback",
]


class ControllerInfeasible(RuntimeError):
    """The controller problem has no feasible tube at the queried state."""


class TubeStepInfeasible(RuntimeError):
    """No admissible control drives the state into the next tube box."""


@dataclass(frozen=True)
class TubeMpcConfig:
    """Controller options.

    ``terminal_set`` and ``storage`` default to the optimal invariant box and
    the reference storage candidate when left as None.  The last box of
    every tube is the terminal box itself.  Requiring it only to lie inside
    the terminal box gives the same program: the last box carries no cost
    and reachability only grows with the target box, so a tube ending
    inside the terminal box exists exactly when one ending on it does, at
    the same cost.
    """

    horizon: int = 2
    use_initial_cost: bool = True
    terminal_set: Optional[IntervalBox] = None
    storage: Optional[StorageFunction] = None

    def __post_init__(self):
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)):
            raise ConfigError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not isinstance(self.use_initial_cost, bool):
            raise ConfigError(f"use_initial_cost must be true or false, got {self.use_initial_cost!r}")


@dataclass(frozen=True)
class TubeSolution:
    """One controller solve.

    When feasible, ``tube`` runs from the box holding the state to the
    terminal box, and ``edge_controls`` holds, for each step, the edge
    controls ``(v1, v2)`` that :func:`~tube_dissip.problem.transition_witness`
    returns for it.
    """

    status: QpStatus
    tube: Optional[tuple[IntervalBox, ...]] = None
    u0: Optional[float] = None
    objective: Optional[float] = None
    u0_interval: Optional[tuple[float, float]] = None
    edge_controls: Optional[tuple[tuple[float, float], ...]] = None

    @property
    def feasible(self) -> bool:
        return self.status is QpStatus.OPTIMAL

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "tube": None if self.tube is None else [b.to_json_obj() for b in self.tube],
            "u0": self.u0,
            "objective": self.objective,
            "u0_interval": None if self.u0_interval is None else list(self.u0_interval),
            "edge_controls": None
            if self.edge_controls is None
            else [list(v) for v in self.edge_controls],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TubeSolution":
        return cls(
            status=QpStatus(obj["status"]),
            tube=None if obj["tube"] is None else tuple(IntervalBox.from_json_obj(b) for b in obj["tube"]),
            u0=obj["u0"],
            objective=obj["objective"],
            u0_interval=None if obj["u0_interval"] is None else tuple(obj["u0_interval"]),
            edge_controls=None
            if obj["edge_controls"] is None
            else tuple((float(v[0]), float(v[1])) for v in obj["edge_controls"]),
        )


@dataclass(frozen=True)
class SweepPoint:
    z: tuple[float, float]
    status: QpStatus
    u0: Optional[float]
    objective: Optional[float]
    u0_interval: Optional[tuple[float, float]]


@lru_cache(maxsize=32)
def _resolved(spec: ProblemSpec, cfg: TubeMpcConfig) -> tuple[IntervalBox, Optional[StorageFunction], bool]:
    """The controller's terminal box T, its storage form or None, and whether T is its own successor."""
    terminal = cfg.terminal_set
    if terminal is None:
        terminal, _ = optimal_rci(spec)
    if not subset(terminal, spec.x_bounds):
        raise ConfigError("terminal_set must lie within the state bounds")
    storage = None
    if cfg.use_initial_cost:
        storage = cfg.storage if cfg.storage is not None else StorageFunction.reference()
    return terminal, storage, is_rci(spec, terminal)


def _window(spec: ProblemSpec, b: IntervalBox, z2: float) -> tuple[float, float]:
    """The window ``(lo, hi)`` of the module docstring: controls taking second coordinate z2 into b."""
    b1, b2, b3, b4 = b.corners()
    lo = max(b1, b3 - spec.alpha * z2 - spec.w_lo, spec.u_lo)
    hi = min(b2, b4 - spec.alpha * z2 - spec.w_hi, spec.u_hi)
    return lo, hi


# the point box {z} of a state z, as a map from z to its corner vector
_POINT = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
# a box contains a point when SIGNS * (corners - point corners) <= 0
_SIGNS = np.diag([1.0, -1.0, 1.0, -1.0])


@lru_cache(maxsize=32)
def _tube_program(spec: ProblemSpec, cfg: TubeMpcConfig) -> _CornerProgram:
    """The controller's corner program over the first ``horizon`` boxes; its parameter is the state.

    The rows are the transitions of every step with the last box fixed to
    the terminal box, the control window (a transition from the point box
    ``{z}`` into the second box), and the state inside the first box.  The
    cost is the stage cost of every free box plus the storage form on the
    first; the storage offset is added by the caller.

    Only the window and containment rows depend on the state.  The other
    rows are solved here, once, by the same kernel at ``DEFAULT_SETTINGS``;
    their multipliers are dual feasible for the whole program at every
    state and under every tolerance, so every solve starts from them.  If
    those rows alone are infeasible, the program keeps the cold start.
    """
    terminal, storage, _ = _resolved(spec, cfg)
    n = cfg.horizon
    steps, h_steps = _stacked_steps(spec, n)
    src, tgt, const = transition_rows(spec)
    finite = np.isfinite(const)
    window = np.zeros((int(finite.sum()), 4 * (n + 1)))
    window[:, 4:8] = tgt[finite]
    inside = np.zeros((4, 4 * (n + 1)))
    inside[:, :4] = _SIGNS
    rows = np.vstack([steps, window, inside])
    q = np.tile(spec.cost_linear, n)
    if storage is not None:
        q[:4] += storage.linear_coeffs
    prog = _corner_program(
        d=np.tile(spec.cost_quad, n),
        q=q,
        G=rows[:, :-4],
        P=np.vstack([np.zeros((h_steps.size, 2)), src[finite] @ _POINT, -_SIGNS @ _POINT]),
        h0=np.concatenate([h_steps, const[finite], np.zeros(4)]) - rows[:, -4:] @ terminal.corners(),
    )
    free = ~prog.fixed
    state_free = ~np.any(prog.P[free] != 0.0, axis=1)
    x, y = _corner_qp(prog.d, prog.q, prog.G_free[state_free], prog.h0[free][state_free], DEFAULT_SETTINGS)
    if x is None:
        return prog
    start = np.zeros(state_free.size)
    start[state_free] = y
    return prog._replace(start=start)


def solve_tmpc(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    z: Sequence[float],
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> TubeSolution:
    """Solve the horizon problem at measured state z and extract the control."""
    z1, z2 = float(z[0]), float(z[1])
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ConfigError(f"state must be finite, got {tuple(z)}")
    terminal, storage, self_successor = _resolved(spec, cfg)
    if not self_successor:
        warnings.warn(
            "terminal set is not a self-successor box; recursive feasibility "
            "is not guaranteed",
            stacklevel=2,
        )
    prog = _tube_program(spec, cfg)

    # the first box lies within the state bounds, so no tube holds a state
    # beyond them; one within feas_tol of them is read as on them
    xb = spec.x_bounds
    if max(xb.lo[0] - z1, z1 - xb.hi[0], xb.lo[1] - z2, z2 - xb.hi[1]) > settings.feas_tol:
        return TubeSolution(status=QpStatus.INFEASIBLE)
    z1 = min(max(z1, xb.lo[0]), xb.hi[0])
    z2 = min(max(z2, xb.lo[1]), xb.hi[1])

    solved = _solve_tube(spec, prog, np.array((z1, z2)), [], [terminal], settings)
    if solved is None:
        return TubeSolution(status=QpStatus.INFEASIBLE)
    objective, tube, edge_controls = solved
    if storage is not None:
        objective += storage.offset

    lo, hi = _window(spec, tube[1], z2)
    if lo > hi:
        if lo - hi > 1e-8:
            raise SolverFailure("empty control window for the optimal tube")
        lo = hi = 0.5 * (lo + hi)
    u0_val = min(max(0.0, lo), hi)

    return TubeSolution(
        status=QpStatus.OPTIMAL,
        tube=tube,
        u0=float(u0_val),
        objective=objective,
        u0_interval=(float(lo), float(hi)),
        edge_controls=edge_controls,
    )


def feedback(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    z: Sequence[float],
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """The applied control at state z; raises if the controller is infeasible there."""
    sol = solve_tmpc(spec, cfg, z, settings)
    if not sol.feasible:
        raise ControllerInfeasible(f"controller infeasible at z={tuple(z)}")
    return sol.u0


def mu_feedback(
    spec: ProblemSpec,
    tube: Sequence[IntervalBox],
    k: int,
    z: Sequence[float],
) -> float:
    """Tube-following control: drive z from tube[k] into tube[k+1] for all w.

    The robust feasibility problem reduces to one interval for the control;
    the midpoint is returned.  The admissible-control bounds are intersected
    in as well.
    """
    if not 0 <= k < len(tube) - 1:
        raise ValueError(f"k={k} out of range for tube of length {len(tube)}")
    if not contains(tube[k], z, tol=1e-9):
        raise ValueError(f"state {tuple(z)} not in tube[{k}]")
    lo, hi = _window(spec, tube[k + 1], float(z[1]))
    if lo > hi + 1e-12:
        raise TubeStepInfeasible(
            f"no control drives z={tuple(z)} into tube[{k + 1}] for every disturbance"
        )
    hi = max(hi, lo)
    return 0.5 * (lo + hi)


def sweep_feedback(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    grid: Sequence[Sequence[float]],
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> list[SweepPoint]:
    """Pointwise controller evaluation over a grid; never aborts on infeasible points."""
    points = []
    for z in grid:
        sol = solve_tmpc(spec, cfg, z, settings)
        points.append(
            SweepPoint(
                z=(float(z[0]), float(z[1])),
                status=sol.status,
                u0=sol.u0,
                objective=sol.objective,
                u0_interval=sol.u0_interval,
            )
        )
    return points
