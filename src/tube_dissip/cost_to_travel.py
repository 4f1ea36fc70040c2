"""Set-based cost-to-travel values and the optimal robust control invariant box.

``eval_v(spec, A, B, N)`` is the minimal accumulated stage cost of an N-step
box tube from A to B, with every box before the terminal one confined to the
state bounds; an infeasible pair evaluates to ``+inf``.  The terminal box is
deliberately not state-constrained, matching the constraint indexing of the
underlying tube problem (the receding-horizon layer constrains its terminal
set separately).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .interval_sets import IntervalBox
from .problem import ProblemSpec, build_g_block, stage_cost, transition_witness
from .qp_solver import (
    DEFAULT_SETTINGS,
    QpBuilder,
    QpStatus,
    SolverFailure,
    SolverSettings,
    solve,
)

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
    tube runs from A to B and ``aux_controls`` holds the per-step edge
    controls ``(v1, v2)`` of the minimizer.
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
    is decided in closed form by :func:`transition_witness`, whose edge
    controls are the result's ``aux_controls``.  Longer tubes solve one
    stacked QP over the free intermediate boxes and the per-step edge
    controls, with the endpoint boxes fixed.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if n_steps == 1:
        witness = transition_witness(spec, a, b, settings)
        if witness is None:
            return CostToTravelResult(value=_INF)
        return CostToTravelResult(value=stage_cost(spec, a), tube=(a, b), aux_controls=(witness,))
    builder = QpBuilder()
    corner_slots: list[Sequence] = [a.corners()]
    for _ in range(n_steps - 1):
        corner_slots.append(builder.new_vars(4))
    corner_slots.append(b.corners())

    v_slots = []
    for k in range(n_steps):
        v = builder.new_vars(2)
        v_slots.append(v)
        build_g_block(spec, corner_slots[k], corner_slots[k + 1], v).install(builder)

    builder.add_const(stage_cost(spec, a))
    for k in range(1, n_steps):
        for i, ix in enumerate(corner_slots[k]):
            builder.add_lin(ix, spec.cost_linear[i])
            builder.add_quad(ix, spec.cost_quad[i])

    sol = solve(builder.build(), settings)
    if sol.status is QpStatus.INFEASIBLE:
        return CostToTravelResult(value=_INF)
    if sol.status is not QpStatus.OPTIMAL:
        raise SolverFailure(f"cost-to-travel solve did not converge: {sol.status}")

    tube = [a]
    for k in range(1, n_steps):
        # the solver accepts rows violated by up to feas_tol, corner order included
        tube.append(IntervalBox.from_corners([sol.x[ix] for ix in corner_slots[k]], snap_tol=settings.feas_tol))
    tube.append(b)
    aux = tuple((float(sol.x[v[0]]), float(sol.x[v[1]])) for v in v_slots)
    return CostToTravelResult(value=float(sol.objective), tube=tuple(tube), aux_controls=aux)


def optimal_rci(
    spec: ProblemSpec,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> tuple[IntervalBox, float]:
    """The self-transition box of minimal stage cost, and that cost.

    Solves the strictly convex QP obtained by tying the source and target
    corners of one transition block together.
    """
    if settings is DEFAULT_SETTINGS:
        return _optimal_rci_default(spec)
    return _optimal_rci_impl(spec, settings)


@lru_cache(maxsize=64)
def _optimal_rci_default(spec: ProblemSpec) -> tuple[IntervalBox, float]:
    return _optimal_rci_impl(spec, DEFAULT_SETTINGS)


def _optimal_rci_impl(spec: ProblemSpec, settings: SolverSettings) -> tuple[IntervalBox, float]:
    builder = QpBuilder()
    a = builder.new_vars(4)
    v = builder.new_vars(2)
    build_g_block(spec, a, a, v).install(builder)
    for i, ix in enumerate(a):
        builder.add_lin(ix, spec.cost_linear[i])
        builder.add_quad(ix, spec.cost_quad[i])
    sol = solve(builder.build(), settings)
    if sol.status is QpStatus.INFEASIBLE:
        raise RciNotFound(
            "no robust control invariant interval box exists within the state "
            "bounds (the self-transition problem is infeasible)"
        )
    if sol.status is not QpStatus.OPTIMAL:
        raise SolverFailure(f"invariant-box solve did not converge: {sol.status}")
    box = IntervalBox.from_corners([sol.x[ix] for ix in a], snap_tol=settings.feas_tol)
    return box, float(sol.objective)


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
