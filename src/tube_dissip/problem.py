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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .interval_sets import ConfigError, IntervalBox, _point, _real, _section, subset
from .qp_solver import _FEAS_TOL, _ROW_TOL

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
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha must be a number"))
        for name, size in (("u_bounds", 2), ("w_bounds", 2), ("cost_linear", 4), ("cost_quad", 4)):
            message = f"{name} must be a list of {size} numbers other than NaN"
            value = _point(getattr(self, name), message, size)
            # NaN passes every ordered comparison below, and max/min drop it
            if any(math.isnan(v) for v in value):
                raise ConfigError(f"{message}, got {getattr(self, name)!r}")
            if name in ("u_bounds", "w_bounds"):
                # an interval end of -0.0 reads as 0.0 (so does x_bounds's,
                # below): seeded draws across an interval refuse a span of
                # -0.0, and every answer is then the one of 0.0
                value = tuple(v + 0.0 for v in value)
            object.__setattr__(self, name, value)
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
        x1_lo, x2_lo, x1_hi, x2_hi = x1_lo + 0.0, x2_lo + 0.0, x1_hi + 0.0, x2_hi + 0.0
        object.__setattr__(self, "x_bounds", IntervalBox((x1_lo, x2_lo), (x1_hi, x2_hi)))
        # draws across the bounds and the transition rows take hi - lo, so
        # no width may overflow to inf
        if not all(math.isfinite(w) for w in (x1_hi - x1_lo, x2_hi - x2_lo, self.w_hi - self.w_lo)):
            raise ConfigError(f"x_bounds and w_bounds must have finite widths, got {self.x_bounds} and {self.w_bounds}")
        # read by every one-step decision and every cache lookup, so computed
        # once: the one-step rule's constants, in the order _step_witness
        # unpacks them, and the hash dataclass would derive from the fields.
        # Neither is a field, so ==, repr and the JSON form are unchanged.
        object.__setattr__(self, "_step", (self.alpha, *self.u_bounds, *self.w_bounds, x1_lo, x1_hi, x2_lo, x2_hi))
        values = (self.alpha, self.x_bounds, self.u_bounds, self.w_bounds, self.cost_linear, self.cost_quad)
        object.__setattr__(self, "_hash", hash(values))

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
        """A problem from its JSON section, whose keys are the fields, each optional; ConfigError for any other key or value."""
        known = [f.name for f in fields(cls)]
        return cls(**_section(obj, known, "a problem is a JSON object", "unknown problem config keys",
                              {"x_bounds": IntervalBox.from_json_obj}))


def stage_cost(spec: ProblemSpec, a: IntervalBox) -> float:
    """Stage cost of a box, evaluated on its corner vector."""
    (c1, c3), (c2, c4) = a.lo, a.hi
    return _stage_cost(spec.cost_linear, spec.cost_quad, c1, c2, c3, c4)


def _stage_cost(q, d, c1, c2, c3, c4) -> float:
    """:func:`stage_cost` on plain floats: a spec's ``cost_linear`` and ``cost_quad`` and a box's corners."""
    q1, q2, q3, q4 = q
    d1, d2, d3, d4 = d
    # the corners' terms, summed in corner order
    return (
        (q1 * c1 + d1 * c1 * c1)
        + (q2 * c2 + d2 * c2 * c2)
        + (q3 * c3 + d3 * c3 * c3)
        + (q4 * c4 + d4 * c4 * c4)
    )


def dynamics(spec: ProblemSpec, x: Sequence[float], u: float, w: float) -> tuple[float, float]:
    """One step of the underlying point dynamics from the point x, under real numbers u and w; ConfigError for any other."""
    _, x2 = _point(x, "x must be two numbers")
    u = _real(u, "u must be a number")
    return (u, spec.alpha * x2 + u + _real(w, "w must be a number"))


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
    Only rows that can fail are kept: repeated rows, rows without
    coefficients (``u_lo <= u_hi``) and rows whose constant is ``+inf``
    (those of an unbounded U) are left out, so every constant is finite.
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
        if const != _INF and (np.any(src) or np.any(tgt)) and key not in unique:
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
    """:func:`transition_witness` on plain floats: a spec's ``_step`` constants and the corners of a and b.

    Each ``max`` and ``min`` of the rule is written out as conditional
    expressions over its arguments in the builtin's order: an argument
    replaces the running value only when it is strictly greater (strictly
    less for ``min``), so a tie or a NaN keeps the earlier argument, as the
    builtins do.  The answer is the builtins' to the bit, at under half
    their cost per call.  ``max(b1, u_lo, t)`` is ``max(max(b1, u_lo), t)``
    by that rule, so v1's low end extends v2's, and v2's high end extends
    v1's.
    """
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step
    v2_lo = u_lo if u_lo > b1 else b1
    t = b3 - al * a3 - w_lo
    v1_lo = t if t > v2_lo else v2_lo
    v1_hi = u_hi if u_hi < b2 else b2
    t = b4 - al * a4 - w_hi
    v2_hi = t if t < v1_hi else v1_hi
    t = 0.5 * (v1_lo - v1_hi)
    slack = t if t > 0.0 else 0.0
    t = 0.5 * (v2_lo - v2_hi)
    slack = t if t > slack else slack
    # (v1_lo - s) - (v2_hi + s) <= alpha*(a4 - a3 + s)
    t = (v1_lo - v2_hi - al * (a4 - a3)) / (2.0 + al)
    slack = t if t > slack else slack
    t = x1_lo - a1
    slack = t if t > slack else slack
    t = a2 - x1_hi
    slack = t if t > slack else slack
    t = x2_lo - a3
    slack = t if t > slack else slack
    t = a4 - x2_hi
    slack = t if t > slack else slack
    if slack > _FEAS_TOL:
        return None
    return (v1_lo - slack, v2_hi + slack)


def _two_step_rows(step, a1, a2, a3, a4, b1, b2, b3, b4):
    """The rows of a two-step chain from a to b on the corners m of its middle box, or None if no middle box exists.

    The chain's rows are the one-step rule with the middle box M as a's
    target and as b's source.  Its fixed rows, a within the state bounds
    and b's own rows, hold within ``_FEAS_TOL``, decided as the stacked
    program decides them, each in plain floats.  Every other row bounds one
    corner of M, with coefficient 1 or alpha, or bounds a lower corner minus
    an upper one (m1 or m3 minus m2 or m4).  Returned are the tightest such
    bounds, ``(l1, u1, l2, u2, l3, u3, l4, u4, c14, c32, c34)`` with
    ``l_i <= m_i <= u_i`` and ``m_a - m_b <= c_ab``; the fourth, m1 - m2 <= 0,
    is M's own order.  With ``v_lo = max(b1, u_lo)`` and ``v_hi = min(b2, u_hi)``,
    b's edge-control interval before its own x2 rows, they are

        m1 in [x1_lo, u_hi],   m2 in [u_lo, x1_hi],
        alpha*m3, alpha*m4 in [b3 - w_lo - v_hi, b4 - w_hi - v_lo],
        m3 >= x2_lo,   m3 <= u_hi + alpha*a3 + w_lo,
        m4 <= x2_hi,   m4 >= u_lo + alpha*a4 + w_hi,
        m1 - m4 <= -(alpha*a4 + w_hi),   m3 - m2 <= alpha*a3 + w_lo,
        m3 - m4 <= min(w_lo - w_hi, (v_hi - v_lo)/alpha),

    the rows each of these dominates left out.  A bound that overflows is a
    row that always holds (``+inf``) or one that never does (``-inf``).
    Every difference row bounds a lower corner by an upper one, so the only
    cycles of these rows are ``l_i <= u_i`` and ``l_a <= u_b + c_ab``: the rows
    are consistent, when each is relaxed by the kernel's ``_ROW_TOL`` in its
    own coefficients, exactly when those eight comparisons hold, as the
    kernel's Farkas test would decide them.  A NaN, from overflowing data,
    fails its comparison.
    """
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step
    # the fixed rows as h0 - lhs >= -_FEAS_TOL, with the stacked program's
    # operations; a box's order rows always hold, and a row whose constant
    # is +inf is left out, as its +inf here never fails
    if (
        a1 - x1_lo < -_FEAS_TOL
        or x1_hi - a2 < -_FEAS_TOL
        or a3 - x2_lo < -_FEAS_TOL
        or x2_hi - a4 < -_FEAS_TOL
        or (u_hi - u_lo) - (al * a3 - al * a4) < -_FEAS_TOL
        or u_hi - b1 < -_FEAS_TOL
        or b2 - u_lo < -_FEAS_TOL
        or (w_lo - w_hi) - (b3 - b4) < -_FEAS_TOL
    ):
        return None
    tol = _ROW_TOL
    v_lo = u_lo if u_lo > b1 else b1
    v_hi = u_hi if u_hi < b2 else b2
    s3 = al * a3 + w_lo
    s4 = al * a4 + w_hi
    # b's rows on alpha*m3 and alpha*m4, and on alpha*(m3 - m4)
    k_lo = b3 - w_lo - v_hi
    k_hi = b4 - w_hi - v_lo
    k_gap = v_hi - v_lo
    # each bound as the tighter of its rows, first exact, then each row relaxed by tol
    lo34, hi34 = k_lo / al, k_hi / al
    t = u_hi + s3
    u3 = hi34 if hi34 < t else t
    l3 = lo34 if lo34 > x2_lo else x2_lo
    u4 = hi34 if hi34 < x2_hi else x2_hi
    t = u_lo + s4
    l4 = lo34 if lo34 > t else t
    t = k_gap / al
    c34 = w_lo - w_hi
    c34 = t if t < c34 else c34
    lo34, hi34 = (k_lo - tol) / al, (k_hi + tol) / al
    t = u_hi + s3 + tol
    u3r = hi34 if hi34 < t else t
    t = x2_lo - tol
    l3r = lo34 if lo34 > t else t
    t = x2_hi + tol
    u4r = hi34 if hi34 < t else t
    t = u_lo + s4 - tol
    l4r = lo34 if lo34 > t else t
    t = (k_gap + tol) / al
    c34r = w_lo - w_hi + tol
    c34r = t if t < c34r else c34r
    # l1 <= u2 + c12 is x1_lo <= x1_hi, which the state bounds hold
    if not (
        x1_lo - tol <= u_hi + tol
        and u_lo - tol <= x1_hi + tol
        and l3r <= u3r
        and l4r <= u4r
        and x1_lo - tol <= u4r + (tol - s4)
        and l3r <= (x1_hi + tol) + (s3 + tol)
        and l3r <= u4r + c34r
    ):
        return None
    return x1_lo, u_hi, u_lo, x1_hi, l3, u3, l4, u4, -s4, s3, c34


def _step_slacks(step, a1, a2, a3, a4, b1, b2, b3, b4) -> np.ndarray:
    """The ``slack`` of :func:`_step_witness` over arrays of corners, each comparison of its rule taken by ``np.where``."""
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step
    v2_lo = np.where(u_lo > b1, u_lo, b1)
    t = b3 - al * a3 - w_lo
    v1_lo = np.where(t > v2_lo, t, v2_lo)
    v1_hi = np.where(u_hi < b2, u_hi, b2)
    t = b4 - al * a4 - w_hi
    v2_hi = np.where(t < v1_hi, t, v1_hi)
    t = 0.5 * (v1_lo - v1_hi)
    slack = np.where(t > 0.0, t, 0.0)
    for t in (0.5 * (v2_lo - v2_hi), (v1_lo - v2_hi - al * (a4 - a3)) / (2.0 + al),
              x1_lo - a1, a2 - x1_hi, x2_lo - a3, a4 - x2_hi):
        slack = np.where(t > slack, t, slack)
    return slack


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
