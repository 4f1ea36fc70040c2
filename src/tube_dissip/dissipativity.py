"""Storage functions and separability certificates for the transition system.

A storage candidate is affine in the corner vector on boxes inside the state
bounds X and 0 outside.  Separability of the one-step cost-to-travel
function with respect to such a candidate W means

    V(A, B, 1) - V* >= W(B) - W(A)    for all boxes A, B,

which is certified here for every target B within X by minimizing
``L(a) + W(a) - W(b)`` over a relaxed superset of the one-step transition
constraints: if even the relaxed minimum reaches V*, the inequality holds
on every such pair.  A target beyond X, where W is 0, is not certified (see
:func:`verify_separability`).  The relaxed program and the storage minimum
over the domain both have closed forms.  Strictness
(uniqueness of the minimizing pair) is probed by seeded sampling, not
certified; the relaxed program is degenerate in several target coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cost_to_travel import eval_v, optimal_rci
from .interval_sets import ConfigError, IntervalBox, _count, _point, _real, _section, _seed, hausdorff, subset
from .problem import ProblemSpec
from .sampling import _Draws, feasible_pair

__all__ = [
    "StorageFunction",
    "SeparabilityReport",
    "StrictnessSummary",
    "eval_storage",
    "verify_separability",
    "check_strictness",
    "storage_min_on_domain",
]

_INF = float("inf")
# a certificate passes when its gap to V* is at least -_GAP_TOL
_GAP_TOL = 1e-6
# the Hausdorff radius around the stationary pair (X*, X*) that strictness
# sampling skips, where the margin is zero by definition
_EXCLUSION_TOL = 1e-4


@dataclass(frozen=True)
class StorageFunction:
    """Affine-in-corners storage candidate with a domain indicator.

    Evaluates to ``offset + linear_coeffs . corners(A)`` when A lies within
    the state bounds and to 0 otherwise.
    """

    offset: float
    linear_coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        offset = _real(self.offset, "offset must be a finite number")
        coeffs = _point(self.linear_coeffs, "linear_coeffs must be four finite numbers", 4)
        if not all(math.isfinite(v) for v in (offset, *coeffs)):
            raise ConfigError(f"offset and linear_coeffs must be finite numbers, got {self.offset!r}, {self.linear_coeffs!r}")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "linear_coeffs", coeffs)

    @classmethod
    def reference(cls) -> "StorageFunction":
        """The reference storage candidate: 16 + 1.6*(a3 - a2) inside the bounds."""
        return cls(offset=16.0, linear_coeffs=(0.0, -1.6, 1.6, 0.0))

    def to_json_dict(self) -> dict:
        return {"offset": self.offset, "linear": list(self.linear_coeffs)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StorageFunction":
        """A candidate from its JSON form, ``offset`` and ``linear``, each 0 when absent; ConfigError for any other key or value."""
        fields = _section(obj, {"offset", "linear"}, "a storage candidate is a JSON object", "unknown storage keys")
        return cls(offset=fields.get("offset", 0.0), linear_coeffs=fields.get("linear", (0.0, 0.0, 0.0, 0.0)))


def eval_storage(sf: StorageFunction, spec: ProblemSpec, a: IntervalBox) -> float:
    if not subset(a, spec.x_bounds):
        return 0.0
    return _storage_value(sf, *a.corners())


def _storage_value(sf: StorageFunction, c1, c2, c3, c4) -> float:
    """:func:`eval_storage` on the corners of a box within the state bounds, as plain floats."""
    l1, l2, l3, l4 = sf.linear_coeffs
    # the sum from 0.0, left to right, as sum() over the four terms gives it
    return sf.offset + ((((0.0 + l1 * c1) + l2 * c2) + l3 * c3) + l4 * c4)


def storage_min_on_domain(spec: ProblemSpec, sf: StorageFunction) -> float:
    """Minimum of the affine storage form over all boxes within the bounds.

    In each dimension the corners ``lo <= a <= b <= hi`` of a box within the
    bounds' interval ``[lo, hi]`` form a triangle, and a linear form takes
    its minimum at one of its vertices ``(lo, lo)``, ``(lo, hi)``,
    ``(hi, hi)``.  The storage candidate is nonnegative exactly when this
    minimum is, since it is 0 beyond the bounds.
    """
    xb = spec.x_bounds
    total = sf.offset
    for dim in range(2):
        lo, hi = xb.lo[dim], xb.hi[dim]
        ca, cb = sf.linear_coeffs[2 * dim], sf.linear_coeffs[2 * dim + 1]
        total += min(ca * lo + cb * lo, ca * lo + cb * hi, ca * hi + cb * hi)
    return total


@dataclass(frozen=True)
class StrictnessSummary:
    """Sampled margins of the separability inequality away from the minimizer."""

    n_samples: int
    min_margin: float
    n_nonpositive: int
    worst_pair: Optional[tuple[IntervalBox, IntervalBox]]

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "min_margin": self.min_margin,
            "n_nonpositive": self.n_nonpositive,
            "worst_pair": None
            if self.worst_pair is None
            else [self.worst_pair[0].to_json_obj(), self.worst_pair[1].to_json_obj()],
        }


@dataclass(frozen=True)
class SeparabilityReport:
    qp_min_value: float
    minimizer_a: Optional[tuple[float, float, float, float]]
    minimizer_b: Optional[tuple[float, float, float, float]]
    minimizer_v: Optional[float]
    v_star: float
    gap: float
    passed: bool
    unbounded_ray: Optional[tuple[float, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "qp_min_value": None if math.isinf(self.qp_min_value) else self.qp_min_value,
            "minimizer_a": list(self.minimizer_a) if self.minimizer_a else None,
            "minimizer_b": list(self.minimizer_b) if self.minimizer_b else None,
            "minimizer_v": self.minimizer_v,
            "v_star": self.v_star,
            "gap": None if math.isinf(self.gap) else self.gap,
            "passed": self.passed,
            "unbounded": self.unbounded_ray is not None,
        }


def verify_separability(
    spec: ProblemSpec,
    sf: StorageFunction,
) -> SeparabilityReport:
    """Certify the separability inequality by one relaxed convex program.

    The program minimizes ``L(a) + ell.a - ell.b`` over source corners a,
    target corners b and one edge control v1, for the storage coefficients
    ell, keeping only the relaxed rows

        b3 <= alpha*a3 + v1 + w_lo,   v1 <= b2,   a1 <= a2,   v1 in U.

    The relaxed feasible set contains every true transition pair, so a
    minimum of at least V* proves the inequality on every pair whose target
    lies within the state bounds X, where W is affine.  A target beyond X,
    where W is 0, needs ``L(a) + W(a) >= V*`` over every box A within X, since
    each has a successor beyond X; that is not checked here.  Its solution
    is in closed form.  The targets enter linearly: b1 and b4 are free, b2
    only bounded below and b3 only above, so the program is unbounded when
    ``ell1 != 0``, ``ell4 != 0``, ``ell2 > 0`` or ``ell3 < 0``, and such a
    candidate is rejected with a ray along those targets.  Otherwise the
    targets sit on their rows, ``b2 = v1`` and ``b3 = alpha*a3 + v1 + w_lo``,
    leaving a separable quadratic in the source corners (``a1 <= a2`` their
    one coupling) plus ``-(ell2 + ell3)*v1``, which an infinite end of U
    can also make unbounded.  The free targets are reported as ``b1 = b2``
    and ``b4 = b3``.  A ray is given in the variables ``(a, b, v1)``: the
    sign of ell1 on b1 and of ell4 on b4, 1 on b2 when ``ell2 > 0`` and -1
    on b3 when ``ell3 < 0``; failing all of these, 1 on b2, b3 and v1
    toward an infinite upper end of U, or -1 toward a lower one.  Every
    other entry is +0.0.
    """
    _, v_star = optimal_rci(spec)
    ell = sf.linear_coeffs
    u_lo, u_hi = spec.u_bounds
    c_v = -ell[1] - ell[2]

    # the ray's entries on the targets b1..b4 and on v1, each zero one +0.0
    r1 = math.copysign(1.0, ell[0]) if ell[0] else 0.0
    r4 = math.copysign(1.0, ell[3]) if ell[3] else 0.0
    r2 = 1.0 if ell[1] > 0.0 else 0.0
    r3 = -1.0 if ell[2] < 0.0 else 0.0
    rv = 0.0
    if not (r1 or r2 or r3 or r4):
        # v1 carries b2 and b3 along its rows
        if c_v > 0.0 and u_lo == -_INF:
            r2 = r3 = rv = -1.0
        elif c_v < 0.0 and u_hi == _INF:
            r2 = r3 = rv = 1.0
    if r1 or r2 or r3 or r4 or rv:
        ray = (0.0, 0.0, 0.0, 0.0, r1, r2, r3, r4, rv)
        return SeparabilityReport(-_INF, None, None, None, v_star, -_INF, False, ray)

    q, d = spec.cost_linear, spec.cost_quad
    # linear coefficients of the source corners once the targets are on their rows
    k = (q[0], q[1] + ell[1], q[2] + ell[2] * (1.0 - spec.alpha), q[3])
    a = [-k[i] / (2.0 * d[i]) for i in range(4)]
    if a[0] > a[1]:
        a[0] = a[1] = -(k[0] + k[1]) / (2.0 * (d[0] + d[1]))
    if c_v > 0.0:
        v1 = u_lo
    elif c_v < 0.0:
        v1 = u_hi
    else:
        v1 = min(max(0.0, u_lo), u_hi)
    b3 = spec.alpha * a[2] + v1 + spec.w_lo
    b = (v1, v1, b3, b3)
    qp_min = sum(d[i] * a[i] * a[i] + (q[i] + ell[i]) * a[i] - ell[i] * b[i] for i in range(4))
    gap = qp_min - v_star
    return SeparabilityReport(qp_min, tuple(a), b, v1, v_star, gap, gap >= -_GAP_TOL)


def check_strictness(
    spec: ProblemSpec,
    sf: StorageFunction,
    n_samples: int,
    seed: int,
) -> StrictnessSummary:
    """Sample feasible transition pairs and report the inequality margins.

    Pairs within ``_EXCLUSION_TOL`` (Hausdorff) of the stationary pair at the
    optimal invariant box are excluded; there the margin is zero by
    definition.  Deterministic for a fixed seed.  ``n_samples`` is a
    positive integer and ``seed`` a non-negative one, ``np.integer``
    included; a bool, None or any other value raises ConfigError.  When
    the pair sampler draws no feasible pair in its tries, its RuntimeError
    is raised.
    """
    n_samples = _count(n_samples, "n_samples", 1)
    rng = _Draws(_seed(seed))
    x_star, v_star = optimal_rci(spec)
    min_margin = _INF
    n_nonpos = 0
    worst = None
    drawn = 0
    while drawn < n_samples:
        a, b = feasible_pair(spec, rng)
        if hausdorff(a, x_star) <= _EXCLUSION_TOL and hausdorff(b, x_star) <= _EXCLUSION_TOL:
            continue
        value = eval_v(spec, a, b, 1).value
        margin = value - v_star - eval_storage(sf, spec, b) + eval_storage(sf, spec, a)
        drawn += 1
        if margin < min_margin:
            min_margin = margin
            worst = (a, b)
        if margin <= 0.0:
            n_nonpos += 1
    return StrictnessSummary(
        n_samples=n_samples,
        min_margin=float(min_margin),
        n_nonpositive=n_nonpos,
        worst_pair=worst,
    )
