"""Set-based cost-to-travel values and the optimal robust control invariant box.

``eval_v(spec, A, B, N)`` is the minimal accumulated stage cost of an N-step
box tube from A to B, with every box before the terminal one confined to the
state bounds; an infeasible pair evaluates to ``+inf``.  The terminal box is
deliberately not state-constrained, matching the constraint indexing of the
underlying tube problem (the receding-horizon layer constrains its terminal
set separately).

One step is decided in closed form.  Longer tubes and the optimal invariant
box minimise stage costs over the one-step rows with the edge controls
eliminated (:func:`~tube_dissip.problem.transition_rows`), a strictly convex
QP in box corners alone that the dual active-set kernel of ``qp_solver``
solves exactly.  These programs and the tube MPC program of ``tube_mpc``
are read back into boxes by one helper, :func:`_solve_tube`: free corners
clipped onto the state bounds and snapped at ``feas_tol``, and every step
of the tube checked by :func:`~tube_dissip.problem.transition_witness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .interval_sets import IntervalBox
from .problem import ProblemSpec, stage_cost, transition_rows, transition_witness
from .qp_solver import DEFAULT_SETTINGS, SolverFailure, SolverSettings, _dual_active_set

__all__ = [
    "CostToTravelResult",
    "RciNotFound",
    "eval_v",
    "optimal_rci",
    "bellman_gap",
]

_INF = float("inf")


class RciNotFound(RuntimeError):
    """No robust control invariant box exists within the state bounds."""


@dataclass(frozen=True)
class CostToTravelResult:
    """Value and minimizing tube of one cost-to-travel evaluation.

    ``value`` is ``+inf`` exactly when ``tube`` is ``None``; otherwise the
    tube runs from A to B and ``aux_controls`` holds, for each step, the edge
    controls ``(v1, v2)`` that :func:`~tube_dissip.problem.transition_witness`
    returns for it.
    """

    value: float
    tube: Optional[tuple[IntervalBox, ...]] = None
    aux_controls: Optional[tuple[tuple[float, float], ...]] = None

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.value)

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "value": self.value if self.feasible else None,
            "tube": None if self.tube is None else [b.to_json_obj() for b in self.tube],
            "aux_controls": None if self.aux_controls is None else [list(v) for v in self.aux_controls],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CostToTravelResult":
        if not obj["feasible"]:
            return cls(value=_INF)
        return cls(
            value=float(obj["value"]),
            tube=tuple(IntervalBox.from_json_obj(b) for b in obj["tube"]),
            aux_controls=tuple((float(v[0]), float(v[1])) for v in obj["aux_controls"]),
        )


def eval_v(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
    n_steps: int,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> CostToTravelResult:
    """Minimal cost of an ``n_steps``-step tube from ``a`` to ``b``.

    One step costs ``L(a)`` whenever b is reachable from a, so ``n_steps == 1``
    is decided in closed form by :func:`transition_witness`.  Longer tubes
    minimise the stage costs of the free intermediate boxes over the rows of
    :func:`transition_rows`, one copy per step, in which the edge controls
    are already eliminated.  Rows on the fixed end boxes only are checked
    against ``settings.feas_tol``; the rest form a small strictly convex QP,
    solved exactly by a dual active-set method.  A tube's ``aux_controls``
    are the :func:`transition_witness` pairs of its steps.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps == 1:
        witness = transition_witness(spec, a, b, settings)
        if witness is None:
            return CostToTravelResult(value=_INF)
        return CostToTravelResult(value=stage_cost(spec, a), tube=(a, b), aux_controls=(witness,))
    ends = np.array(a.corners() + b.corners())
    solved = _solve_tube(spec, _chain_stack(spec, n_steps), ends, [a], [b], settings)
    if solved is None:
        return CostToTravelResult(value=_INF)
    cost, tube, witnesses = solved
    return CostToTravelResult(value=stage_cost(spec, a) + cost, tube=tube, aux_controls=witnesses)


class _CornerProgram(NamedTuple):
    """``min sum(d*x**2 + q*x)`` over free box corners x, subject to ``G x <= h0 - P @ p``.

    p is the program's parameter: the end boxes' corner vectors of a chain,
    the measured state of a tube.  ``fixed`` marks the rows with no free
    coefficient, and ``G_free`` holds the others.  ``start`` holds the
    kernel's start on the rows of ``G_free``, or is empty for a cold start.
    """

    d: np.ndarray
    q: np.ndarray
    G: np.ndarray
    P: np.ndarray
    h0: np.ndarray
    fixed: np.ndarray
    G_free: np.ndarray
    start: np.ndarray


def _corner_program(d, q, G, P, h0) -> _CornerProgram:
    fixed = ~np.any(G != 0.0, axis=1)
    return _CornerProgram(d, q, G, P, h0, fixed, G[~fixed], np.zeros(0))


def _stacked_steps(spec: ProblemSpec, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows @ c <= h0`` of n_steps chained transitions, c the corners of their n_steps + 1 boxes.

    Rows with an infinite constant (an unbounded U) always hold and are left out.
    """
    src, tgt, const = transition_rows(spec)
    m = const.size
    rows = np.zeros((n_steps * m, 4 * (n_steps + 1)))
    for k in range(n_steps):
        rows[k * m : (k + 1) * m, 4 * k : 4 * k + 4] = src
        rows[k * m : (k + 1) * m, 4 * k + 4 : 4 * k + 8] = tgt
    h0 = np.tile(const, n_steps)
    finite = np.isfinite(h0)
    return rows[finite], h0[finite]


@lru_cache(maxsize=64)
def _chain_stack(spec: ProblemSpec, n_steps: int) -> _CornerProgram:
    """The N-step tube program over its 4(N-1) free intermediate corners; p is the end boxes' corners."""
    rows, h0 = _stacked_steps(spec, n_steps)
    n_free = n_steps - 1
    return _corner_program(
        d=np.tile(spec.cost_quad, n_free),
        q=np.tile(spec.cost_linear, n_free),
        G=rows[:, 4:-4],
        P=np.hstack([rows[:, :4], rows[:, -4:]]),
        h0=h0,
    )


def _solve_program(prog: _CornerProgram, p: np.ndarray, settings: SolverSettings):
    """The right-hand sides ``h`` of a corner program at parameter p, and its answer.

    Returns ``(h, x, y)``: the minimiser x and its multipliers ``y >= 0``, or
    x None and a Farkas ray ``y >= 0`` with ``G'y = 0`` and ``h'y < 0``.  A
    fixed row violated by more than ``settings.feas_tol`` is its own ray.
    """
    h = prog.h0 - prog.P @ p
    y = np.zeros(h.size)
    fixed_h = np.where(prog.fixed, h, _INF)
    worst = int(np.argmin(fixed_h))
    if fixed_h[worst] < -settings.feas_tol:
        y[worst] = 1.0
        return h, None, y
    start = prog.start if prog.start.size else None
    x, y[~prog.fixed] = _corner_qp(prog.d, prog.q, prog.G_free, h[~prog.fixed], settings, start)
    return h, x, y


def _solve_tube(spec: ProblemSpec, prog: _CornerProgram, p: np.ndarray, head, tail, settings: SolverSettings):
    """A corner program's answer at p as ``(cost, head + free boxes + tail, step witnesses)``, or None.

    Every free box is the source of a step, so its rows keep it within the
    state bounds and its corners in order, but only to within the kernel's
    rounding guard; clipped onto the bounds and snapped at ``feas_tol``, it
    passes exact inclusion tests such as the storage form's domain.  The
    cost is taken at the clipped corners.
    """
    _, x, _ = _solve_program(prog, p, settings)
    if x is None:
        return None
    xb = spec.x_bounds
    n_free = x.size // 4
    lo = np.tile((xb.lo[0], xb.lo[0], xb.lo[1], xb.lo[1]), n_free)
    hi = np.tile((xb.hi[0], xb.hi[0], xb.hi[1], xb.hi[1]), n_free)
    x = np.clip(x, lo, hi)
    free = (IntervalBox.from_corners(x[4 * k : 4 * k + 4], snap_tol=settings.feas_tol) for k in range(n_free))
    tube = (*head, *free, *tail)
    witnesses = []
    for src, dst in zip(tube[:-1], tube[1:]):
        witness = transition_witness(spec, src, dst, settings)
        if witness is None:
            raise SolverFailure("a step of the minimising tube is not a transition")
        witnesses.append(witness)
    return float(prog.d @ (x * x) + prog.q @ x), tube, tuple(witnesses)


def _corner_qp(d, q, G, h, settings: SolverSettings, start=None):
    # rows count as holding within a rounding guard far inside feas_tol, so
    # each step of a minimiser still passes the one-step rule after the snap
    return _dual_active_set(d, q, G, h, 1e-3 * settings.feas_tol, settings.max_iter, start)


def optimal_rci(
    spec: ProblemSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> tuple[IntervalBox, float]:
    """The self-transition box of minimal stage cost, and that cost.

    A box a is its own successor when the rows of :func:`transition_rows`
    hold with a as source and target, that is ``(src + tgt) @ a <= const``.
    Minimising the stage cost over them is a parameter-free corner program
    with one free box, solved by the same dual active-set method as
    :func:`eval_v`.  Answers are cached per problem and settings.
    """
    # one cache key whether or not the caller passes the default settings
    return _optimal_rci(spec, settings)


@lru_cache(maxsize=64)
def _optimal_rci(spec: ProblemSpec, settings: SolverSettings) -> tuple[IntervalBox, float]:
    src, tgt, const = transition_rows(spec)
    finite = np.isfinite(const)
    prog = _corner_program(
        d=np.array(spec.cost_quad),
        q=np.array(spec.cost_linear),
        G=(src + tgt)[finite],
        P=np.zeros((int(finite.sum()), 0)),
        h0=const[finite],
    )
    solved = _solve_tube(spec, prog, np.zeros(0), [], [], settings)
    if solved is None:
        raise RciNotFound(
            "no robust control invariant interval box exists within the state "
            "bounds (the self-transition problem is infeasible)"
        )
    cost, (box,), _ = solved
    return box, cost


def bellman_gap(
    spec: ProblemSpec,
    a: IntervalBox,
    c: IntervalBox,
    m_steps: int,
    n_steps: int,
    candidates: Sequence[IntervalBox],
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Two-leg relaxation gap of the chain functional equation.

    Returns ``min_B [V(a,B,m) + V(B,c,n)] - V(a,c,m+n)`` over the candidate
    intermediate boxes.  The gap is nonnegative for any candidate set and
    zero when the candidates contain a true intermediate minimizer.  Infinite
    values propagate; if both sides are infinite the gap is zero.
    """
    direct = eval_v(spec, a, c, m_steps + n_steps, settings).value
    best = _INF
    for mid in candidates:
        first = eval_v(spec, a, mid, m_steps, settings).value
        if math.isinf(first):
            continue
        second = eval_v(spec, mid, c, n_steps, settings).value
        best = min(best, first + second)
    if math.isinf(best) and math.isinf(direct):
        return 0.0
    if math.isinf(best):
        return _INF
    return best - direct
