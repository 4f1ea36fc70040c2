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
problem and controller options.  It is answered by the one path of every
corner program (``cost_to_travel._solve_program``) and its table of affine
laws and Farkas rays, ``cost_to_travel._LawTable``, whose docstring says how
laws are stored, screened and looked up.  The screens are proven on the
state bounds X alone, so :func:`solve_tmpc` passes the program only states
in X (see below).  The answer is read back into boxes and edge controls,
and priced, in the one pass of those values (``cost_to_travel._read_tube``):
the objective is the stage costs of the first ``horizon`` boxes summed left
to right, plus the storage form W(Y_0) of the first box when there is an
initial cost, and one that is not finite raises ``SolverFailure``.  A solve
that a law answers makes no numpy call, and its record is set through its
slot setters.  A terminal box that is not its own successor is accepted,
with a warning at every solve.

The cost does not depend on ``u0``, so it is reported in closed form from
the optimal tube: the window ``[lo, hi]`` clamped towards zero as
``min(max(0, lo), hi)``.  The window is reported alongside so callers can
tell forced values from tie-broken ones.  Only states within the state
bounds have a tube: one beyond them by more than ``_FEAS_TOL`` is reported
infeasible without a solve, and one within ``_FEAS_TOL`` of them is solved
as the nearest state on them.

A sweep (:func:`sweep_feedback`) reads every state before it solves any,
then answers the states in blocks, in grid order: one numpy pass per block
computes every state without a tube or answered by a stored law, by the
same float operations as a solve, and the states it leaves are solved one
at a time after it.  So every point has the bits of :func:`solve_tmpc` at
its state, and the table learns what a solve of each state in turn would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cost_to_travel import (
    MAX_STEPS,
    _corner_program,
    _CornerProgram,
    _finite_cost,
    _fixed_rows_hold,
    _LawTable,
    _read_back,
    _solve_tube,
    _stacked_steps,
    optimal_rci,
)
from .dissipativity import StorageFunction, _storage_value
from .interval_sets import ConfigError, IntervalBox, _SEQUENCES, _count, _point, _section, subset
from .problem import ProblemSpec, _stage_cost, _step_slacks, is_rci, transition_rows
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
    :data:`~tube_dissip.cost_to_travel.MAX_STEPS`, ``terminal_set`` None or
    an ``IntervalBox`` and ``storage`` None or a ``StorageFunction``; any
    other value raises ConfigError.

    Every solve looks its controller up by the config's hash, so that is
    computed once, as the dataclass would derive it from the fields; it is
    not a field, so ``==``, ``repr`` and ``dataclasses.asdict`` are
    unchanged.  ``hash(None)`` can differ between processes, so a pickled
    config is rebuilt from its fields, and its hash with them.
    """

    horizon: int = 2
    use_initial_cost: bool = True
    terminal_set: Optional[IntervalBox] = None
    storage: Optional[StorageFunction] = None

    def __post_init__(self):
        object.__setattr__(self, "horizon", _count(self.horizon, "horizon", 1, MAX_STEPS))
        if not isinstance(self.use_initial_cost, bool):
            raise ConfigError(f"use_initial_cost must be true or false, got {self.use_initial_cost!r}")
        # before the hash, which a list would fail; a bool would fail the first solve
        if not (self.terminal_set is None or isinstance(self.terminal_set, IntervalBox)):
            raise ConfigError(f"terminal_set must be an IntervalBox or None, got {self.terminal_set!r}")
        if not (self.storage is None or isinstance(self.storage, StorageFunction)):
            raise ConfigError(f"storage must be a StorageFunction or None, got {self.storage!r}")
        object.__setattr__(self, "_hash", hash((self.horizon, self.use_initial_cost, self.terminal_set, self.storage)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return TubeMpcConfig, (self.horizon, self.use_initial_cost, self.terminal_set, self.storage)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TubeMpcConfig":
        """A controller from its JSON section, whose keys are the fields, each optional; ConfigError for any other key or value.

        ``storage`` is a candidate's JSON form and ``terminal_set`` a box's,
        or null for the default.
        """
        nested = {
            "storage": lambda v: None if v is None else StorageFunction.from_json_dict(v),
            "terminal_set": lambda v: None if v is None else IntervalBox.from_json_obj(v),
        }
        known = [f.name for f in fields(cls)]
        return cls(**_section(obj, known, "controller must be a JSON object", "unknown controller config keys",
                              nested, "controller."))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SweepPoint:
    z: tuple[float, float]
    status: QpStatus
    u0: Optional[float]
    objective: Optional[float]
    u0_interval: Optional[tuple[float, float]]


# the answer of every state without a tube, and its sweep point's (status, u0, objective, u0_interval)
_INFEASIBLE = TubeSolution(QpStatus.INFEASIBLE)
_NO_TUBE = (QpStatus.INFEASIBLE, None, None, None)
# the most states a sweep answers in one numpy pass
_BLOCK = 1024
# the slot setters of each record's fields, which write past the frozen
# __setattr__, as cost_to_travel's do; a feasible solution and every sweep point are set by them
_set_status, _set_tube, _set_u0, _set_objective, _set_u0_interval, _set_edge_controls = (
    getattr(TubeSolution, name).__set__ for name in TubeSolution.__slots__
)
_set_z, _set_point_status, _set_point_u0, _set_point_objective, _set_point_u0_interval = (
    getattr(SweepPoint, name).__set__ for name in SweepPoint.__slots__
)


def _resolved(spec: ProblemSpec, cfg: TubeMpcConfig) -> tuple[IntervalBox, Optional[StorageFunction], bool]:
    """The controller's terminal box T, its storage form or None, and whether T is its own successor."""
    terminal = cfg.terminal_set
    if terminal is None:
        terminal, _ = optimal_rci(spec)
    if not subset(terminal, spec.x_bounds):
        raise ConfigError("terminal_set must lie within the state bounds")
    storage = _storage(cfg) if cfg.use_initial_cost else None
    return terminal, storage, is_rci(spec, terminal)


def _storage(cfg: TubeMpcConfig) -> StorageFunction:
    """The controller's storage form: its ``storage``, or the reference candidate when that is None."""
    return StorageFunction.reference() if cfg.storage is None else cfg.storage


def _window(spec: ProblemSpec, b: IntervalBox, z2: float) -> tuple[float, float]:
    """The window ``(lo, hi)`` of the module docstring: controls taking second coordinate z2 into b.

    Each ``max`` and ``min`` is written out as conditional expressions in
    the builtin's order, as in :func:`~tube_dissip.problem._step_witness`:
    an argument replaces the running value only when it is strictly greater
    (strictly less for ``min``), so a tie, a NaN or a signed zero keeps the
    earlier argument.
    """
    al, u_lo, u_hi, w_lo, w_hi = spec._step[:5]
    (b1, b3), (b2, b4) = b.lo, b.hi
    t = b3 - al * z2 - w_lo
    lo = t if t > b1 else b1
    lo = u_lo if u_lo > lo else lo
    t = b4 - al * z2 - w_hi
    hi = t if t < b2 else b2
    hi = u_hi if u_hi < hi else hi
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
    the first box.  Its cost, the stage cost of every free box plus the
    storage form's linear part on the first, only steers the solve.
    Only the window and containment rows depend on the state.  Building the
    program runs no solve.

    The program carries an empty table of affine laws and Farkas rays
    (``laws``), which its solves fill; :func:`_controller` builds it once
    per controller, and it is shared by every solve of the controller.  A
    solve's answer can depend, in its last bits, on the order of earlier
    solves: at a degenerate optimum the kernel's active set depends on its
    path, and the table keeps whichever valid law of a region it meets
    first.  Over 1,000 uniform states (seed 1), solved in six orders (as
    given, reversed, sorted and the shuffles of numpy's ``default_rng(0)``
    to ``(2)``) in fresh controllers, 244 whole answers differ at horizon 8,
    and 276 without the initial cost, objectives by up to 3.1e-13; more
    orders find more (README).  ROADMAP item 15 plans one canonical law
    per region.
    """
    n = cfg.horizon
    steps, h_steps = _stacked_steps(spec, n)
    src, tgt, const = transition_rows(spec)
    window = np.hstack([np.zeros((const.size, 4)), tgt, np.zeros((const.size, 4 * (n - 1)))])
    inside = np.hstack([_SIGNS, np.zeros((4, 4 * n))])
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
        P=np.vstack([np.zeros((h_steps.size, 2)), src @ _POINT, -_SIGNS @ _POINT]),
        h0=np.concatenate([h_steps, const, np.zeros(4)]) - rows[:, -4:] @ terminal.corners(),
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


def _state(z) -> tuple[float, float]:
    """The state z as a pair of floats, by :func:`solve_tmpc`'s rule; ConfigError for any other value."""
    try:
        z1, z2 = z
    except (TypeError, ValueError):
        z1 = None
    # a sequence of floats, np.float64 included, passes as it is; any other state takes the point rule
    if isinstance(z, _SEQUENCES) and isinstance(z1, float) and isinstance(z2, float):
        z1, z2 = float(z1), float(z2)
    else:
        z1, z2 = _point(z, "state must be two numbers")
    if not (math.isfinite(z1) and math.isfinite(z2)):
        raise ConfigError(f"state must be finite, got {(z1, z2)}")
    return z1, z2


def solve_tmpc(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    z: Sequence[float],
) -> TubeSolution:
    """Solve the horizon problem at measured state z, a pair of numbers, and extract the control.

    z is a tuple, list or array; a str, bytes, mapping or set raises
    ConfigError.  A float coordinate, ``np.float64`` included, is taken as
    it is; any other must be a real number, and a bool or a string raises
    ConfigError.  The state is then tested against the state bounds,
    clamped onto them and solved; the clamp, the window and ``u0`` are
    written as conditional expressions in the builtins' order, so their
    bits are those of ``max`` and ``min``.
    """
    z1, z2 = _state(z)
    terminal, storage, self_successor, prog = _controller(spec, cfg)
    if not self_successor:
        warnings.warn(
            "terminal set is not a self-successor box; recursive feasibility "
            "is not guaranteed",
            stacklevel=2,
        )

    # the first box lies within the state bounds, so no tube holds a state
    # beyond them; one within _FEAS_TOL of them is read as on them.  z and
    # the bounds are finite, so no difference is NaN, and the test is the
    # max of the four differences against _FEAS_TOL
    x1_lo, x1_hi, x2_lo, x2_hi = spec._step[5:]
    if x1_lo - z1 > _FEAS_TOL or z1 - x1_hi > _FEAS_TOL or x2_lo - z2 > _FEAS_TOL or z2 - x2_hi > _FEAS_TOL:
        return _INFEASIBLE
    # min(max(z, lo), hi)
    z1 = x1_lo if x1_lo > z1 else z1
    z1 = x1_hi if x1_hi < z1 else z1
    z2 = x2_lo if x2_lo > z2 else z2
    z2 = x2_hi if x2_hi < z2 else z2

    solved = _solve_tube(spec, prog, (z1, z2), (), (terminal,))
    if solved is None:
        return _INFEASIBLE
    tube, edge_controls, cost = solved
    if storage is not None:
        # the read-back clips the first box into X, where W is the storage form's affine value
        (c1, c3), (c2, c4) = tube[0].lo, tube[0].hi
        cost += _storage_value(storage, c1, c2, c3, c4)
    objective = _finite_cost(cost)

    lo, hi = _window(spec, tube[1], z2)
    if lo > hi:
        if lo - hi > _FEAS_TOL:
            raise SolverFailure("empty control window for the optimal tube")
        lo = hi = 0.5 * (lo + hi)
    # min(max(0.0, lo), hi)
    u0 = lo if lo > 0.0 else 0.0
    u0 = hi if hi < u0 else u0

    sol = object.__new__(TubeSolution)
    _set_status(sol, QpStatus.OPTIMAL)
    _set_tube(sol, tube)
    _set_u0(sol, u0)
    _set_objective(sol, objective)
    _set_u0_interval(sol, (lo, hi))
    _set_edge_controls(sol, edge_controls)
    return sol


def sweep_feedback(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    grid: Sequence[Sequence[float]],
) -> list[SweepPoint]:
    """:func:`solve_tmpc` at each state of grid, an iterable of states, as points in grid order; never aborts on infeasible points.

    Every state is read by solve_tmpc's rule before the first solve, so a
    grid that is not iterable, or any entry that is not a finite state,
    raises ConfigError before any solve.  The states are then answered in
    blocks of ``_BLOCK``, in grid order, each by one numpy pass
    (:func:`_pass`) and then a solve of each state the pass leaves, one at
    a time, in grid order.  The table only appends laws, so a state the
    pass answers by a law is answered by that law at any point of the
    block, and the table learns the same laws in the same order as a solve
    of each state in turn: every point has the bits of solve_tmpc at its
    state.  A controller whose terminal box is not its own successor solves
    each state in turn, with its warning at each.
    """
    try:
        states = iter(grid)
    except TypeError:
        raise ConfigError(f"grid must be an iterable of states, got {grid!r}") from None
    states = [_state(z) for z in states]
    points = []
    for start in range(0, len(states), _BLOCK):
        block = states[start : start + _BLOCK]
        controller = _controller(spec, cfg)
        answers = _pass(spec, controller, block) if controller.self_successor else [None] * len(block)
        for z, answer in zip(block, answers):
            if answer is None:
                sol = solve_tmpc(spec, cfg, z)
                answer = sol.status, sol.u0, sol.objective, sol.u0_interval
            point = object.__new__(SweepPoint)
            _set_z(point, z)
            _set_point_status(point, answer[0])
            _set_point_u0(point, answer[1])
            _set_point_objective(point, answer[2])
            _set_point_u0_interval(point, answer[3])
            points.append(point)
    return points


def _pass(spec: ProblemSpec, controller: _Controller, states: list) -> list:
    """solve_tmpc's ``(status, u0, objective, u0_interval)`` at each state where it has no tube or a stored law answers; None at the others.

    The states are float pairs.  Each step is solve_tmpc's, over arrays and
    by the same float operations in the same order: the band test and the
    clamp, the fixed rows, the first stored law whose whole screen holds
    (``_LawTable.walk``), the read-back's clip and snap
    (``cost_to_travel._read_back``), each step's one-step slack, the stage
    costs summed left to right from 0.0, W(Y_0), the finite-cost guard and
    the window; ``u0`` is clamped from the window in plain floats.  None
    marks a state to solve: one no law answers, which a stored ray may
    refute, or one whose read-back or window raises.
    """
    terminal, storage, _, prog = controller
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step = spec._step
    z1, z2 = np.array(states).T
    with np.errstate(all="ignore"):
        refused = (x1_lo - z1 > _FEAS_TOL) | (z1 - x1_hi > _FEAS_TOL)
        refused |= (x2_lo - z2 > _FEAS_TOL) | (z2 - x2_hi > _FEAS_TOL)
        z1 = np.where(x1_lo > z1, x1_lo, z1)
        z1 = np.where(x1_hi < z1, x1_hi, z1)
        z2 = np.where(x2_lo > z2, x2_lo, z2)
        z2 = np.where(x2_hi < z2, x2_hi, z2)
        refused |= ~_fixed_rows_hold(prog, (z1, z2))
        found, x = prog.laws.walk(z1, z2)
        a1, a2, a3, a4, held = _read_back(step, x)
        # each free box's successor: the next free box, and T after the last
        b1, b2, b3, b4 = (
            np.column_stack([a[:, 1:], np.full(len(states), c)]) for a, c in zip((a1, a2, a3, a4), terminal.corners())
        )
        held &= ~(_step_slacks(step, a1, a2, a3, a4, b1, b2, b3, b4) > _FEAS_TOL).any(axis=1)
        stage = _stage_cost(spec.cost_linear, spec.cost_quad, a1, a2, a3, a4)
        cost = 0.0
        for column in stage.T:
            cost = cost + column
        if storage is not None:
            cost = cost + _storage_value(storage, a1[:, 0], a2[:, 0], a3[:, 0], a4[:, 0])
        held &= np.isfinite(cost)
        # the window on the second box, as _window and solve_tmpc take it
        b1, b2, b3, b4 = b1[:, 0], b2[:, 0], b3[:, 0], b4[:, 0]
        t = b3 - al * z2 - w_lo
        lo = np.where(t > b1, t, b1)
        lo = np.where(u_lo > lo, u_lo, lo)
        t = b4 - al * z2 - w_hi
        hi = np.where(t < b2, t, b2)
        hi = np.where(u_hi < hi, u_hi, hi)
        inverted = lo > hi
        held &= ~(inverted & (lo - hi > _FEAS_TOL))
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(inverted, mid, lo), np.where(inverted, mid, hi)
    answers = [None] * len(states)
    for i in np.flatnonzero(refused).tolist():
        answers[i] = _NO_TUBE
    law = found & held & ~refused
    for i, cost, lo, hi in zip(np.flatnonzero(law).tolist(), cost[law].tolist(), lo[law].tolist(), hi[law].tolist()):
        # min(max(0.0, lo), hi) in plain floats, as solve_tmpc takes u0, which so shares lo's or hi's float
        u0 = lo if lo > 0.0 else 0.0
        answers[i] = (QpStatus.OPTIMAL, hi if hi < u0 else u0, cost, (lo, hi))
    return answers
