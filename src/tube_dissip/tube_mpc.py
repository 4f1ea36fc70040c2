"""Receding-horizon controller over box tubes, and the control it applies.

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
kernel of ``qp_solver``, from a cold start, as multi-step cost-to-travel
values are.  On each optimal active set the answer is affine in z, so the
program keeps the affine law of every active set the kernel has returned
for it (up to 64), and a solve runs the kernel only when no stored law
gives a KKT point at z (``cost_to_travel._LawTable``).  A solve that a law
answers does only the arithmetic that depends on z, in plain floats where
it can.  It checks the rows with no free coefficient against the
feasibility tolerance ``qp_solver._FEAS_TOL``: one comparison for those z
does not enter, split off when the program is built, and the few it enters
evaluated at z.  It screens the laws in the order they were learned, each
on the few checks that can fail for a state in the state bounds, and
evaluates only the law its screen passes: one stacked block, whose single
elementwise pass gives the full KKT check and the point.  The screen's
checks are computed exactly as the block's, so the first law whose full
check holds answers, bit for bit as without the screen.  The right-hand
side ``h0 - P @ z`` is formed only when the kernel runs.  The answer is
read back into boxes and edge controls by the same helper as those values
(``cost_to_travel._solve_tube``), in one plain-float pass over the clipped
corners: a box whose corners are in order is built without re-validation,
any other through ``IntervalBox.from_corners``, and every step is decided
by the one core of the one-step rule, on the constants the ``ProblemSpec``
computed when it was built; the control window reads the same constants.
A terminal box that is not its own successor is accepted, with a warning at
every solve.

The cost does not depend on ``u0``, so it is reported in closed form from
the optimal tube: the window ``[lo, hi]`` clamped towards zero as
``min(max(0, lo), hi)``.  The window is reported alongside so callers can
tell forced values from tie-broken ones.  Only states within the state
bounds have a tube: one beyond them by more than ``_FEAS_TOL`` is reported
infeasible without a solve, and one within ``_FEAS_TOL`` of them is solved
as the nearest state on them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cost_to_travel import (
    MAX_STEPS,
    _corner_program,
    _CornerProgram,
    _LawTable,
    _solve_tube,
    _stacked_steps,
    optimal_rci,
)
from .dissipativity import StorageFunction
from .interval_sets import IntervalBox, subset
from .problem import ConfigError, ProblemSpec, is_rci, transition_rows
from .qp_solver import _FEAS_TOL, QpStatus, SolverFailure

__all__ = [
    "TubeMpcConfig",
    "TubeSolution",
    "SweepPoint",
    "solve_tmpc",
    "sweep_feedback",
]


@dataclass(frozen=True)
class TubeMpcConfig:
    """Controller options.

    ``terminal_set`` and ``storage`` default to the optimal invariant box and
    the reference storage candidate when left as None.  The last box of
    every tube is the terminal box itself.  Requiring it only to lie inside
    the terminal box gives the same program: the last box carries no cost
    and reachability only grows with the target box, so a tube ending
    inside the terminal box exists exactly when one ending on it does, at
    the same cost.  ``horizon`` is an integer from 1 to
    :data:`~tube_dissip.cost_to_travel.MAX_STEPS`.
    """

    horizon: int = 2
    use_initial_cost: bool = True
    terminal_set: Optional[IntervalBox] = None
    storage: Optional[StorageFunction] = None

    def __post_init__(self):
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, (int, np.integer)):
            raise ConfigError(f"horizon must be an integer, got {self.horizon!r}")
        if not 1 <= self.horizon <= MAX_STEPS:
            raise ConfigError(f"horizon must be between 1 and {MAX_STEPS}, got {self.horizon}")
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


@dataclass(frozen=True)
class SweepPoint:
    z: tuple[float, float]
    status: QpStatus
    u0: Optional[float]
    objective: Optional[float]
    u0_interval: Optional[tuple[float, float]]


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
    al, u_lo, u_hi, w_lo, w_hi, _, _, _, _ = spec._step
    (b1, b3), (b2, b4) = b.lo, b.hi
    lo = max(b1, b3 - al * z2 - w_lo, u_lo)
    hi = min(b2, b4 - al * z2 - w_hi, u_hi)
    return lo, hi


# the point box {z} of a state z, as a map from z to its corner vector
_POINT = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
# a box contains a point when SIGNS * (corners - point corners) <= 0
_SIGNS = np.diag([1.0, -1.0, 1.0, -1.0])


def _tube_program(
    spec: ProblemSpec, cfg: TubeMpcConfig, terminal: IntervalBox, storage: Optional[StorageFunction]
) -> _CornerProgram:
    """The controller's corner program over the first ``horizon`` boxes; its parameter is the state.

    ``terminal`` and ``storage`` are the first two answers of
    :func:`_resolved`.  The rows are the transitions of every step with the
    last box fixed to the terminal box, the control window (a transition
    from the point box ``{z}`` into the second box), and the state inside
    the first box.  The cost is the stage cost of every free box plus the
    storage form on the first; the storage offset is added by the caller.
    Only the window and containment rows depend on the state.  Building the
    program runs no solve.

    The program carries an empty table of affine laws (``laws``), which its
    solves fill; :func:`_controller` builds it once per controller, and it
    is shared by every solve of the controller.  A solve's answer does not
    depend on the order of earlier solves.
    """
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
        # a sum that overflows is the kernel's to report, at its first run
        with np.errstate(over="ignore"):
            q[:4] += storage.linear_coeffs
    prog = _corner_program(
        spec,
        d=np.tile(spec.cost_quad, n),
        q=q,
        G=rows[:, :-4],
        P=np.vstack([np.zeros((h_steps.size, 2)), src[finite] @ _POINT, -_SIGNS @ _POINT]),
        h0=np.concatenate([h_steps, const[finite], np.zeros(4)]) - rows[:, -4:] @ terminal.corners(),
    )
    return prog._replace(laws=_LawTable(prog, spec.x_bounds))


class _Controller(NamedTuple):
    """What a solve reads of a controller: :func:`_resolved`'s answers and its :func:`_tube_program`."""

    terminal: IntervalBox
    storage: Optional[StorageFunction]
    self_successor: bool
    prog: _CornerProgram


@lru_cache(maxsize=32)
def _controller(spec: ProblemSpec, cfg: TubeMpcConfig) -> _Controller:
    # one cache lookup per solve, which hashes spec and cfg once
    terminal, storage, self_successor = _resolved(spec, cfg)
    return _Controller(terminal, storage, self_successor, _tube_program(spec, cfg, terminal, storage))


def solve_tmpc(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    z: Sequence[float],
) -> TubeSolution:
    """Solve the horizon problem at measured state z and extract the control."""
    z1, z2 = float(z[0]), float(z[1])
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ConfigError(f"state must be finite, got {tuple(z)}")
    terminal, storage, self_successor, prog = _controller(spec, cfg)
    if not self_successor:
        warnings.warn(
            "terminal set is not a self-successor box; recursive feasibility "
            "is not guaranteed",
            stacklevel=2,
        )

    # the first box lies within the state bounds, so no tube holds a state
    # beyond them; one within _FEAS_TOL of them is read as on them
    xb = spec.x_bounds
    if max(xb.lo[0] - z1, z1 - xb.hi[0], xb.lo[1] - z2, z2 - xb.hi[1]) > _FEAS_TOL:
        return TubeSolution(status=QpStatus.INFEASIBLE)
    z1 = min(max(z1, xb.lo[0]), xb.hi[0])
    z2 = min(max(z2, xb.lo[1]), xb.hi[1])

    solved = _solve_tube(spec, prog, (z1, z2), [], [terminal])
    if solved is None:
        return TubeSolution(status=QpStatus.INFEASIBLE)
    objective, tube, edge_controls = solved
    if storage is not None:
        objective += storage.offset

    lo, hi = _window(spec, tube[1], z2)
    if lo > hi:
        if lo - hi > _FEAS_TOL:
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


def sweep_feedback(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    grid: Sequence[Sequence[float]],
) -> list[SweepPoint]:
    """Pointwise controller evaluation over a grid; never aborts on infeasible points."""
    points = []
    for z in grid:
        sol = solve_tmpc(spec, cfg, z)
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
