"""Receding-horizon controller over box tubes, with feedback extraction.

Each solve optimizes a horizon of boxes chained by the transition rows, the
measured state pinned into the first box and the last box tied to a terminal
invariant box (corner equality by default).  The applied control ``u0`` is a
decision variable constrained to drive the measured state into the second box
for every disturbance.  The cost does not depend on it, so its value in the
QP solution is arbitrary; the reported ``u0`` is recomputed in closed form
from the optimal tube instead: the window ``[lo, hi]`` of controls that drive
the state into the second box, clamped towards zero as
``min(max(0, lo), hi)``.  The window is reported alongside so callers can
tell forced values from tie-broken ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cost_to_travel import optimal_rci
from .dissipativity import StorageFunction
from .interval_sets import IntervalBox, contains, subset
from .problem import ConfigError, ProblemSpec, build_g_block, install_slot_row, is_rci
from .qp_solver import (
    DEFAULT_SETTINGS,
    QpBuilder,
    QpStatus,
    SolverFailure,
    SolverSettings,
    solve,
)

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

_INF = float("inf")


class ControllerInfeasible(RuntimeError):
    """The controller problem has no feasible tube at the queried state."""


class TubeStepInfeasible(RuntimeError):
    """No admissible control drives the state into the next tube box."""


@dataclass(frozen=True)
class TubeMpcConfig:
    """Controller options.

    ``terminal_set`` and ``storage`` default to the optimal invariant box and
    the reference storage candidate when left as None.
    """

    horizon: int = 2
    use_initial_cost: bool = True
    terminal_set: Optional[IntervalBox] = None
    storage: Optional[StorageFunction] = None
    terminal_equality: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")


@dataclass(frozen=True)
class TubeSolution:
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
def _resolved(spec: ProblemSpec, cfg: TubeMpcConfig) -> tuple[IntervalBox, Optional[StorageFunction]]:
    terminal = cfg.terminal_set
    if terminal is None:
        terminal, _ = optimal_rci(spec)
    if not subset(terminal, spec.x_bounds):
        raise ConfigError("terminal_set must lie within the state bounds")
    if not is_rci(spec, terminal):
        warnings.warn(
            "terminal set is not a self-successor box; recursive feasibility "
            "is not guaranteed",
            stacklevel=3,
        )
    storage = None
    if cfg.use_initial_cost:
        storage = cfg.storage if cfg.storage is not None else StorageFunction.reference()
    return terminal, storage


def solve_tmpc(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    z: Sequence[float],
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> TubeSolution:
    """Solve the horizon problem at measured state z and extract the control."""
    terminal, storage = _resolved(spec, cfg)
    n = cfg.horizon
    z1, z2 = float(z[0]), float(z[1])
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ConfigError(f"state must be finite, got {tuple(z)}")

    builder = QpBuilder()
    corner_slots: list[Sequence] = []
    for _ in range(n):
        corner_slots.append(builder.new_vars(4))
    if cfg.terminal_equality:
        corner_slots.append(terminal.corners())
    else:
        tail = builder.new_vars(4)
        corner_slots.append(tail)
        t1, t2, t3, t4 = terminal.corners()
        builder.bound(tail[0], t1, _INF)
        builder.bound(tail[1], -_INF, t2)
        builder.bound(tail[2], t3, _INF)
        builder.bound(tail[3], -_INF, t4)
        builder.add_row({tail[0]: 1.0, tail[1]: -1.0}, -_INF, 0.0)
        builder.add_row({tail[2]: 1.0, tail[3]: -1.0}, -_INF, 0.0)

    v_slots = []
    for k in range(n):
        v = builder.new_vars(2)
        v_slots.append(v)
        build_g_block(spec, corner_slots[k], corner_slots[k + 1], v).install(builder)

    # measured state pinned into the first box
    a0 = corner_slots[0]
    builder.bound(a0[0], -_INF, z1)
    builder.bound(a0[1], z1, _INF)
    builder.bound(a0[2], -_INF, z2)
    builder.bound(a0[3], z2, _INF)

    # applied-control window against the second box
    u0 = builder.new_var(spec.u_lo, spec.u_hi)
    b = corner_slots[1]
    install_slot_row(builder, ((b[0], 1.0), (u0, -1.0)), -_INF, 0.0)
    install_slot_row(builder, ((u0, 1.0), (b[1], -1.0)), -_INF, 0.0)
    install_slot_row(builder, ((b[2], 1.0), (u0, -1.0)), -_INF, spec.alpha * z2 + spec.w_lo)
    install_slot_row(builder, ((u0, 1.0), (b[3], -1.0)), -_INF, -spec.alpha * z2 - spec.w_hi)

    for k in range(n):
        for i, ix in enumerate(corner_slots[k]):
            builder.add_lin(ix, spec.cost_linear[i])
            builder.add_quad(ix, spec.cost_quad[i])
    if storage is not None:
        builder.add_const(storage.offset)
        for i, ix in enumerate(corner_slots[0]):
            builder.add_lin(ix, storage.linear_coeffs[i])

    sol = solve(builder.build(), settings)
    if sol.status is QpStatus.INFEASIBLE:
        return TubeSolution(status=QpStatus.INFEASIBLE)
    if sol.status is not QpStatus.OPTIMAL:
        raise SolverFailure(f"tube solve did not converge: {sol.status}")

    tube = []
    for slots in corner_slots:
        corners = [sol.x[s] if isinstance(s, int) else s for s in slots]
        # the solver accepts rows violated by up to feas_tol, corner order included
        tube.append(IntervalBox.from_corners(corners, snap_tol=settings.feas_tol))

    b_box = tube[1].corners()
    lo = max(b_box[0], b_box[2] - spec.alpha * z2 - spec.w_lo, spec.u_lo)
    hi = min(b_box[1], b_box[3] - spec.alpha * z2 - spec.w_hi, spec.u_hi)
    if lo > hi:
        if lo - hi > 1e-8:
            raise SolverFailure("empty control window for the optimal tube")
        lo = hi = 0.5 * (lo + hi)
    u0_val = min(max(0.0, lo), hi)

    return TubeSolution(
        status=QpStatus.OPTIMAL,
        tube=tuple(tube),
        u0=float(u0_val),
        objective=float(sol.objective),
        u0_interval=(float(lo), float(hi)),
        edge_controls=tuple((float(sol.x[v[0]]), float(sol.x[v[1]])) for v in v_slots),
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
    b1, b2, b3, b4 = tube[k + 1].corners()
    z2 = float(z[1])
    lo = max(b1, b3 - spec.alpha * z2 - spec.w_lo, spec.u_lo)
    hi = min(b2, b4 - spec.alpha * z2 - spec.w_hi, spec.u_hi)
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
