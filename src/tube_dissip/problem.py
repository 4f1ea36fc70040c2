"""The uncertain scalar-coupled system family, its constraint sets, and stage cost.

The dynamics are ``x+ = (u, alpha*x2 + u + w)`` with box state bounds, an
interval control set U, and an interval disturbance set W.  On the domain of
interval boxes, reachability of a target box B from a source box A ("B is a
one-step successor of A") has an exact linear description: there exist edge
controls ``v1`` (applied on the lower x2-edge of A) and ``v2`` (upper edge)
such that, with a and b the corner vectors of A and B,

    b3 <= alpha*a3 + v1 + w_lo,   b4 >= alpha*a4 + v2 + w_hi,
    (v1 - v2)/alpha + a3 - a4 <= 0,
    b1 <= v1 <= b2,   b1 <= v2 <= b2,   v1, v2 in U,

and A lies within the state bounds (``a1 <= a2`` and ``a3 <= a4`` included);
intermediate states use the control interpolated linearly in x2.  That
description is adopted here as the defining encoding of the transition
relation for this family.

With A and B both fixed those rows leave two intervals for the edge controls
and one coupling row between them, so a single step is decided in closed form
by :func:`transition_witness`, with no solver, on plain-float constants
each :class:`ProblemSpec` computes once, when it is built.  Eliminating the
edge controls from those intervals leaves linear rows on the corners of A
and B alone (:func:`transition_rows`), the constraints of the multi-step
cost-to-travel, invariant-box and tube MPC programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interval_sets import IntervalBox, _is_real, subset
from .qp_solver import _FEAS_TOL

__all__ = [
    "ProblemSpec",
    "ConfigError",
    "transition_rows",
    "transition_witness",
    "transition_feasible",
    "stage_cost",
    "is_rci",
    "dynamics",
]

_INF = float("inf")


class ConfigError(ValueError):
    """Malformed problem or run configuration."""


@dataclass(frozen=True)
class ProblemSpec:
    """Dynamics coefficient, constraint sets, and stage-cost coefficients.

    The stage cost on a box with corner vector a is
    ``L(a) = cost_linear . a + sum_i cost_quad[i] * a[i]**2``.
    Defaults reproduce the reference instance used throughout the tests.
    """

    alpha: float = 0.5
    x_bounds: IntervalBox = IntervalBox(lo=(-5.0, -5.0), hi=(5.0, 5.0))
    u_bounds: tuple[float, float] = (-5.0, 5.0)
    w_bounds: tuple[float, float] = (-1.0, 1.0)
    cost_linear: tuple[float, float, float, float] = (0.0, 2.0, 0.0, 0.0)
    cost_quad: tuple[float, float, float, float] = (0.15, 0.05, 0.1, 0.05)

    def __post_init__(self):
        if not _is_real(self.alpha):
            raise ConfigError(f"alpha must be a number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        for name, size in (("u_bounds", 2), ("w_bounds", 2), ("cost_linear", 4), ("cost_quad", 4)):
            value = getattr(self, name)
            # NaN passes every ordered comparison below, and max/min drop it
            real = isinstance(value, (list, tuple)) and all(_is_real(v) and not math.isnan(v) for v in value)
            if not (real and len(value) == size):
                raise ConfigError(f"{name} must be a list of {size} numbers other than NaN, got {value!r}")
            object.__setattr__(self, name, tuple(float(v) for v in value))
        if not math.isfinite(self.alpha) or self.alpha <= 0.0:
            # the edge-control encoding interpolates controls monotonically in
            # x2, which requires a positive dynamics coefficient
            raise ConfigError(f"alpha must be finite and positive, got {self.alpha}")
        if not all(math.isfinite(v) for v in self.w_bounds):
            raise ConfigError(f"w_bounds must be finite, got {self.w_bounds}")
        if self.u_bounds[0] > self.u_bounds[1] or self.u_bounds[0] == _INF or self.u_bounds[1] == -_INF:
            raise ConfigError(f"u_bounds must be a nonempty interval, got {self.u_bounds}")
        if self.w_bounds[0] > self.w_bounds[1]:
            raise ConfigError(f"w_bounds must be a nonempty interval, got {self.w_bounds}")
        if any(d <= 0.0 for d in self.cost_quad):
            raise ConfigError("cost_quad entries must be positive (strict convexity)")
        if not all(math.isfinite(c) for c in self.cost_linear + self.cost_quad):
            raise ConfigError(f"cost_linear and cost_quad must be finite, got {self.cost_linear} and {self.cost_quad}")
        if not isinstance(self.x_bounds, IntervalBox):
            raise ConfigError(f"x_bounds must be an IntervalBox, got {self.x_bounds!r}")
        (x1_lo, x2_lo), (x1_hi, x2_hi) = self.x_bounds.lo, self.x_bounds.hi
        # draws across the bounds and the transition rows take hi - lo, so
        # no width may overflow to inf
        if not all(math.isfinite(w) for w in (x1_hi - x1_lo, x2_hi - x2_lo, self.w_hi - self.w_lo)):
            raise ConfigError(f"x_bounds and w_bounds must have finite widths, got {self.x_bounds} and {self.w_bounds}")
        # read by every one-step decision and every cache lookup, so computed
        # once: the one-step rule's constants, in the order _step_witness
        # unpacks them, and the hash dataclass would derive from the fields.
        # Neither is a field, so ==, repr and the JSON form are unchanged.
        object.__setattr__(self, "_step", (self.alpha, *self.u_bounds, *self.w_bounds, x1_lo, x1_hi, x2_lo, x2_hi))
        fields = (self.alpha, self.x_bounds, self.u_bounds, self.w_bounds, self.cost_linear, self.cost_quad)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @property
    def w_lo(self) -> float:
        return self.w_bounds[0]

    @property
    def w_hi(self) -> float:
        return self.w_bounds[1]

    @property
    def u_lo(self) -> float:
        return self.u_bounds[0]

    @property
    def u_hi(self) -> float:
        return self.u_bounds[1]

    @classmethod
    def default(cls) -> "ProblemSpec":
        return cls()

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "x_bounds": self.x_bounds.to_json_obj(),
            "u_bounds": list(self.u_bounds),
            "w_bounds": list(self.w_bounds),
            "cost_linear": list(self.cost_linear),
            "cost_quad": list(self.cost_quad),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ProblemSpec":
        if not isinstance(obj, dict):
            raise ConfigError(f"a problem is a JSON object, got {obj!r}")
        known = {"alpha", "x_bounds", "u_bounds", "w_bounds", "cost_linear", "cost_quad"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown problem config keys: {sorted(unknown)}")
        kwargs: dict = {}
        if "x_bounds" in obj:
            try:
                kwargs["x_bounds"] = IntervalBox.from_json_obj(obj["x_bounds"])
            except ValueError as exc:
                raise ConfigError(f"x_bounds: {exc}") from exc
        for key in ("alpha", "u_bounds", "w_bounds", "cost_linear", "cost_quad"):
            if key in obj:
                kwargs[key] = obj[key]
        return cls(**kwargs)


def stage_cost(spec: ProblemSpec, a: IntervalBox) -> float:
    """Stage cost of a box, evaluated on its corner vector."""
    (c1, c3), (c2, c4) = a.lo, a.hi
    q1, q2, q3, q4 = spec.cost_linear
    d1, d2, d3, d4 = spec.cost_quad
    # the corners' terms, summed in corner order
    return (
        (q1 * c1 + d1 * c1 * c1)
        + (q2 * c2 + d2 * c2 * c2)
        + (q3 * c3 + d3 * c3 * c3)
        + (q4 * c4 + d4 * c4 * c4)
    )


def dynamics(spec: ProblemSpec, x: Sequence[float], u: float, w: float) -> tuple[float, float]:
    """One step of the underlying point dynamics."""
    return (u, spec.alpha * x[1] + u + w)


# ---------------------------------------------------------------------------
# transition-feasibility rows


def transition_rows(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transition rows of this module's docstring with the edge controls eliminated.

    Returns ``(src, tgt, const)``: box b is a one-step successor of box a
    exactly when ``src @ a + tgt @ b <= const`` row by row, for the corner
    vectors a and b.  Each edge control lies between lower and upper affine
    forms in the corners (the intervals of :func:`transition_witness`), and
    ``v1 - v2 <= alpha*(a4 - a3)`` couples them.  So edge controls exist
    exactly when every lower form of v1 is at most every upper form of v1,
    the same holds for v2, and every lower form of v1 minus every upper form
    of v2 is at most ``alpha*(a4 - a3)``.  The state-bound rows of a follow.
    Repeated rows and rows without coefficients (``u_lo <= u_hi``) are left
    out; an unbounded U leaves rows whose constant is ``+inf``.
    """
    al = spec.alpha
    xb = spec.x_bounds
    e = np.eye(4)
    o = np.zeros(4)
    # affine forms (src coefficients, tgt coefficients, constant)
    b1, b2 = (o, e[0], 0.0), (o, e[1], 0.0)
    u_lo, u_hi = (o, o, spec.u_lo), (o, o, spec.u_hi)
    v1_low = (b1, u_lo, (-al * e[2], e[2], -spec.w_lo))
    v1_up = (b2, u_hi)
    v2_low = (b1, u_lo)
    v2_up = (b2, u_hi, (-al * e[3], e[3], -spec.w_hi))
    rows = []
    for lows, ups, shift in (
        (v1_low, v1_up, o),
        (v2_low, v2_up, o),
        (v1_low, v2_up, al * (e[2] - e[3])),
    ):
        for s_lo, t_lo, k_lo in lows:
            for s_up, t_up, k_up in ups:
                rows.append((s_lo - s_up + shift, t_lo - t_up, k_up - k_lo))
    for src, bound in (
        (-e[0], -xb.lo[0]),
        (e[0] - e[1], 0.0),
        (e[1], xb.hi[0]),
        (-e[2], -xb.lo[1]),
        (e[2] - e[3], 0.0),
        (e[3], xb.hi[1]),
    ):
        rows.append((src, o, bound))
    unique = {}
    for src, tgt, const in rows:
        key = (tuple(src), tuple(tgt), const)
        if (np.any(src) or np.any(tgt)) and key not in unique:
            unique[key] = (src, tgt, const)
    src, tgt, const = zip(*unique.values())
    return np.array(src), np.array(tgt), np.array(const)


def transition_witness(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
) -> tuple[float, float] | None:
    """Edge controls ``(v1, v2)`` taking a into b in one step, or None if b is unreachable.

    With a and b fixed, the transition rows of this module's docstring leave

        v1 in [max(b1, u_lo, b3 - alpha*a3 - w_lo), min(b2, u_hi)]
        v2 in [max(b1, u_lo), min(b2, u_hi, b4 - alpha*a4 - w_hi)]
        (v1 - v2)/alpha + a3 - a4 <= 0

    plus the state-bound rows of a.  A step is accepted when every row,
    relaxed in its own coefficients by the feasibility tolerance
    ``qp_solver._FEAS_TOL`` (1e-8), holds.  ``slack`` is the least
    relaxation of all rows that admits edge controls, so the rule is
    ``slack <= _FEAS_TOL``.  The witness is the low end of v1's interval and
    the high end of v2's, the pair that leaves the most room in the coupling
    row, each moved by ``slack`` so that it meets every row within that
    relaxation.
    """
    (a1, a3), (a2, a4) = a.lo, a.hi
    (b1, b3), (b2, b4) = b.lo, b.hi
    return _step_witness(spec._step, a1, a2, a3, a4, b1, b2, b3, b4)


def _step_witness(step, a1, a2, a3, a4, b1, b2, b3, b4):
    """:func:`transition_witness` on plain floats: a spec's ``_step`` constants and the corners of a and b."""
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step
    v1_lo = max(b1, u_lo, b3 - al * a3 - w_lo)
    v1_hi = min(b2, u_hi)
    v2_lo = max(b1, u_lo)
    v2_hi = min(b2, u_hi, b4 - al * a4 - w_hi)
    slack = max(
        0.0,
        0.5 * (v1_lo - v1_hi),
        0.5 * (v2_lo - v2_hi),
        # (v1_lo - s) - (v2_hi + s) <= alpha*(a4 - a3 + s)
        (v1_lo - v2_hi - al * (a4 - a3)) / (2.0 + al),
        x1_lo - a1,
        a2 - x1_hi,
        x2_lo - a3,
        a4 - x2_hi,
    )
    if slack > _FEAS_TOL:
        return None
    return (v1_lo - slack, v2_hi + slack)


def transition_feasible(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
) -> bool:
    """Decide whether b is a one-step successor of a, in closed form.

    See :func:`transition_witness` for the rule and its tolerance.
    """
    return transition_witness(spec, a, b) is not None


def is_rci(spec: ProblemSpec, a: IntervalBox) -> bool:
    """True iff a is a self-successor within the state bounds."""
    return subset(a, spec.x_bounds) and transition_feasible(spec, a, a)
