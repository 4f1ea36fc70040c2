"""Closed-loop simulation under the tube controller, and enclosure stability.

The loop measures the state, solves the horizon problem, applies the
extracted control, and records the first tube box as the enclosure of the
next measurement.  Stability of the enclosure sequence is judged by its
Hausdorff distance to the optimal invariant box: a trace is absorbed once the
distance stays at zero (to tolerance) for the rest of the trace.

The rotated one-step cost ``E(A) - E(B) + V(A,B,1) - V*`` summed along a tube
is the decrease certificate recorded at every step; with a separable initial
cost it is nonnegative and strictly decreasing until absorption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cost_to_travel import eval_v, optimal_rci
from .dissipativity import eval_storage
from .interval_sets import IntervalBox, _is_integer, _is_real, boxes_intersect, contains, hausdorff, subset
from .problem import ConfigError, ProblemSpec, dynamics
from .sampling import _Draws
from .tube_mpc import TubeMpcConfig, TubeSolution, solve_tmpc, _controller

__all__ = [
    "ExtremePolicy",
    "UniformRandomPolicy",
    "AdversarialPolicy",
    "DisturbancePolicy",
    "TraceStep",
    "SimulationTrace",
    "EnclosureStabilityReport",
    "simulate",
    "check_enclosure_stability",
    "rotated_cost",
]

_INF = float("inf")


@dataclass(frozen=True)
class ExtremePolicy:
    """Cycles through a fixed sign pattern of extreme disturbances."""

    signs: tuple[int, ...] = (1,)

    def __post_init__(self):
        # a bool equals 1 or 0, so each sign must be an integer first
        if not self.signs or not all(_is_integer(s) and s in (-1, 1) for s in self.signs):
            raise ConfigError(f"signs must be a nonempty sequence of +1/-1, got {self.signs!r}")

    def describe(self) -> str:
        return "extreme:" + "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class UniformRandomPolicy:
    """Independent uniform draws from the disturbance interval."""

    seed: int = 0

    def __post_init__(self):
        if not (_is_integer(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")

    def describe(self) -> str:
        return f"random:{self.seed}"


@dataclass(frozen=True)
class AdversarialPolicy:
    """Picks the extreme disturbance maximizing the next enclosure distance.

    One-step lookahead: both extreme candidates are simulated and the next
    controller problem solved for each; ties resolve to the lower extreme.
    The chosen candidate's solution serves as the next step's.
    The restriction to extremes is a documented assumption for this
    scalar-disturbance affine family.
    """

    def describe(self) -> str:
        return "adversarial"


DisturbancePolicy = Union[ExtremePolicy, UniformRandomPolicy, AdversarialPolicy]


@dataclass(frozen=True)
class TraceStep:
    k: int
    y: tuple[float, float]
    tube: tuple[IntervalBox, ...]
    enclosure: IntervalBox
    dist_to_terminal: float
    lyapunov: float
    rotated_legs: tuple[float, ...]
    u: Optional[float] = None
    w: Optional[float] = None


@dataclass(frozen=True)
class SimulationTrace:
    y0: tuple[float, float]
    policy: str
    steps: tuple[TraceStep, ...]
    failure_step: Optional[int] = None

    def csv_rows(self) -> list[dict]:
        rows = []
        for s in self.steps:
            a1, a2, a3, a4 = s.enclosure.corners()
            rows.append(
                {
                    "k": s.k,
                    "y1": s.y[0],
                    "y2": s.y[1],
                    "u": s.u,
                    "w": s.w,
                    "Y_a1": a1,
                    "Y_a2": a2,
                    "Y_a3": a3,
                    "Y_a4": a4,
                    "dH": s.dist_to_terminal,
                    "lyapunov": s.lyapunov,
                }
            )
        return rows


def rotated_cost(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    a: IntervalBox,
    b: IntervalBox,
) -> float:
    """One-step rotated cost ``E(A) - E(B) + V(A,B,1) - V*``; +inf if infeasible.

    ``V(A,B,1)`` and ``V*`` are the stage costs of A and of the invariant box,
    priced as every value is; one that is not finite raises ``SolverFailure``.
    """
    value = eval_v(spec, a, b, 1).value
    if math.isinf(value):
        return _INF
    _, v_star = optimal_rci(spec)
    storage = _controller(spec, cfg).storage
    e_a = eval_storage(storage, spec, a) if storage is not None else 0.0
    e_b = eval_storage(storage, spec, b) if storage is not None else 0.0
    return e_a - e_b + value - v_star


def _rotated_legs(spec, cfg, tube) -> tuple[float, ...]:
    """The rotated cost of each step of the tube; each is finite or +inf, so their float sum propagates +inf."""
    return tuple(rotated_cost(spec, cfg, a, b) for a, b in zip(tube[:-1], tube[1:]))


def simulate(
    spec: ProblemSpec,
    cfg: TubeMpcConfig,
    y0: Sequence[float],
    steps: int,
    policy: DisturbancePolicy,
) -> SimulationTrace:
    """Run the receding-horizon loop for ``steps`` transitions.

    The trace records one entry per visited state, including the final one
    (which carries no action).  Controller infeasibility at any state
    truncates the trace with an explicit failure marker.  ``steps`` is a
    non-negative integer, ``np.integer`` included; a bool or any other
    value raises ConfigError.
    """
    if not (_is_integer(steps) and steps >= 0):
        raise ConfigError(f"steps must be a non-negative integer, got {steps!r}")
    try:
        y1, y2 = y0
    except (TypeError, ValueError):
        raise ConfigError(f"y0 must be two numbers, got {y0!r}") from None
    if not (_is_real(y1) and _is_real(y2)):
        raise ConfigError(f"y0 must be two numbers, got {y0!r}")
    y0 = y = (float(y1), float(y2))
    x_star, _ = optimal_rci(spec)
    rng = _Draws(policy.seed) if isinstance(policy, UniformRandomPolicy) else None
    records: list[TraceStep] = []
    failure = None
    # the adversarial lookahead has already solved at the state it picks
    sol = None

    for k in range(steps + 1):
        if sol is None:
            sol = solve_tmpc(spec, cfg, y)
        if not sol.feasible:
            failure = k
            break
        enclosure = sol.tube[0]
        legs = _rotated_legs(spec, cfg, sol.tube)
        lyap = sum(legs, 0.0)
        dist = hausdorff(enclosure, x_star)
        if k == steps:
            records.append(
                TraceStep(k=k, y=y, tube=sol.tube, enclosure=enclosure,
                          dist_to_terminal=dist, lyapunov=lyap, rotated_legs=legs)
            )
            break
        u = sol.u0
        w, next_sol = _draw_disturbance(spec, cfg, policy, rng, k, y, u)
        records.append(
            TraceStep(k=k, y=y, tube=sol.tube, enclosure=enclosure,
                      dist_to_terminal=dist, lyapunov=lyap, rotated_legs=legs, u=u, w=w)
        )
        y = dynamics(spec, y, u, w)
        sol = next_sol

    return SimulationTrace(
        y0=y0,
        policy=policy.describe(),
        steps=tuple(records),
        failure_step=failure,
    )


def _draw_disturbance(spec, cfg, policy, rng, k, y, u) -> tuple[float, Optional[TubeSolution]]:
    """The disturbance of step k, and the controller's solution at the next state if solved."""
    if isinstance(policy, ExtremePolicy):
        sign = policy.signs[k % len(policy.signs)]
        return (spec.w_hi if sign > 0 else spec.w_lo), None
    if isinstance(policy, UniformRandomPolicy):
        return rng.uniform(spec.w_lo, spec.w_hi), None
    if isinstance(policy, AdversarialPolicy):
        x_star, _ = optimal_rci(spec)
        best_w, best_sol = spec.w_lo, None
        best_d = -_INF
        for w in (spec.w_lo, spec.w_hi):
            y_next = dynamics(spec, y, u, w)
            nxt = solve_tmpc(spec, cfg, y_next)
            d = hausdorff(nxt.tube[0], x_star) if nxt.feasible else _INF
            if d > best_d:
                best_d, best_w, best_sol = d, w, nxt
        return best_w, best_sol
    raise TypeError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class EnclosureStabilityReport:
    containment_ok: bool
    absorbed: bool
    absorption_step: Optional[int]
    verdict: str  # "absorbed" | "decreasing" | "unstable"
    disjoint_steps: tuple[int, ...]
    escaped_terminal: bool

    @property
    def stable(self) -> bool:
        return self.absorbed and self.containment_ok and not self.escaped_terminal


# containment, intersection and zero distance are judged within this tolerance
_ENCLOSURE_TOL = 1e-9


def check_enclosure_stability(trace: SimulationTrace, spec: ProblemSpec) -> EnclosureStabilityReport:
    """Verify state containment and absorption of the enclosure sequence.

    Absorption is the finite-trace surrogate for convergence: the report
    gives the first index after which the enclosure distance stays at zero
    (within ``_ENCLOSURE_TOL``).  An enclosure that starts inside the optimal
    invariant box and later separates from it witnesses instability
    regardless of the rest of the trace; the disjoint steps are listed in the
    report.  Without absorption the verdict distinguishes a monotonically
    decreasing distance from an outright increase.  A trace that failed
    before its first step, as at an infeasible start, is ``unstable``; only
    an empty trace without a failure raises ValueError.
    """
    if not trace.steps:
        if trace.failure_step is None:
            raise ValueError("empty trace")
        return EnclosureStabilityReport(
            containment_ok=True,
            absorbed=False,
            absorption_step=None,
            verdict="unstable",
            disjoint_steps=(),
            escaped_terminal=False,
        )
    x_star, _ = optimal_rci(spec)
    tol = _ENCLOSURE_TOL

    containment_ok = all(contains(s.enclosure, s.y, tol=tol) for s in trace.steps)
    dists = [s.dist_to_terminal for s in trace.steps]
    disjoint = tuple(s.k for s in trace.steps if not boxes_intersect(s.enclosure, x_star, tol))
    started_inside = subset(trace.steps[0].enclosure, x_star, tol=tol)
    escaped = started_inside and any(k > trace.steps[0].k for k in disjoint)

    absorption = None
    for k in range(len(dists)):
        if all(d <= tol for d in dists[k:]):
            absorption = trace.steps[k].k
            break

    if not containment_ok:
        verdict = "unstable"
    elif trace.failure_step is not None:
        verdict, absorption = "unstable", None
    elif escaped:
        verdict = "unstable"
    elif absorption is not None:
        verdict = "absorbed"
    elif any(dists[i + 1] > dists[i] + tol for i in range(len(dists) - 1)):
        verdict = "unstable"
    else:
        verdict = "decreasing"

    return EnclosureStabilityReport(
        containment_ok=containment_ok,
        absorbed=absorption is not None,
        absorption_step=absorption,
        verdict=verdict,
        disjoint_steps=disjoint,
        escaped_terminal=escaped,
    )
