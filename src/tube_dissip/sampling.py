"""Seeded random generators for boxes, feasible transitions, and chains.

The constructive samplers draw the edge controls first and then a compatible
target window, so acceptance rates stay high; every constructed pair is a
genuine transition by the row encoding (callers may still re-verify it with
:func:`~tube_dissip.problem.transition_feasible`, or through the reference
QP solver when the point of the test is that solver).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .interval_sets import IntervalBox
from .problem import ProblemSpec

__all__ = [
    "random_box_within",
    "random_superbox",
    "monotone_cone_box",
    "successor_box",
    "feasible_pair",
    "feasible_chain",
]


def _sorted_pair(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    x, y = rng.uniform(lo, hi, size=2)
    return (x, y) if x <= y else (y, x)


def random_box_within(rng: np.random.Generator, outer: IntervalBox) -> IntervalBox:
    i1 = _sorted_pair(rng, outer.lo[0], outer.hi[0])
    i2 = _sorted_pair(rng, outer.lo[1], outer.hi[1])
    return IntervalBox.from_intervals(i1, i2)


def random_superbox(rng: np.random.Generator, box: IntervalBox, outer: IntervalBox) -> IntervalBox:
    """A box nested between ``box`` and ``outer``."""
    lo1 = rng.uniform(outer.lo[0], box.lo[0])
    lo2 = rng.uniform(outer.lo[1], box.lo[1])
    hi1 = rng.uniform(box.hi[0], outer.hi[0])
    hi2 = rng.uniform(box.hi[1], outer.hi[1])
    return IntervalBox(lo=(lo1, lo2), hi=(hi1, hi2))


def monotone_cone_box(rng: np.random.Generator, spec: ProblemSpec) -> IntervalBox:
    """A box in the region where the stage cost grows with set inclusion.

    For the default cost coefficients the stage cost is monotone under
    nesting only where the lower corners are nonpositive and the upper
    x2-corner is nonnegative; growth properties are sampled there.
    """
    xb = spec.x_bounds
    a1 = rng.uniform(xb.lo[0], min(0.0, xb.hi[0]))
    a2 = rng.uniform(a1, xb.hi[0])
    a3 = rng.uniform(xb.lo[1], min(0.0, xb.hi[1]))
    a4 = rng.uniform(max(0.0, xb.lo[1]), xb.hi[1])
    return IntervalBox.from_corners((a1, a2, a3, a4))


def successor_box(
    spec: ProblemSpec,
    rng: np.random.Generator,
    a: IntervalBox,
) -> Optional[IntervalBox]:
    """A random box B within the state bounds reachable from A in one step.

    Returns None when no admissible edge controls exist for the drawn
    intermediate choices; callers resample the source box.
    """
    al = spec.alpha
    xb = spec.x_bounds
    a1, a2, a3, a4 = a.corners()

    v1_lo = max(spec.u_lo, xb.lo[1] - al * a3 - spec.w_lo, xb.lo[0])
    v1_hi = min(spec.u_hi, xb.hi[0])
    if v1_lo > v1_hi:
        return None
    v1 = rng.uniform(v1_lo, v1_hi)

    v2_lo = max(spec.u_lo, v1 - al * (a4 - a3), xb.lo[0])
    v2_hi = min(spec.u_hi, xb.hi[1] - al * a4 - spec.w_hi, xb.hi[0])
    if v2_lo > v2_hi:
        return None
    v2 = rng.uniform(v2_lo, v2_hi)

    b1 = rng.uniform(xb.lo[0], min(v1, v2))
    b2 = rng.uniform(max(v1, v2), xb.hi[0])
    b3_hi = al * a3 + v1 + spec.w_lo
    b4_lo = al * a4 + v2 + spec.w_hi
    b3 = rng.uniform(xb.lo[1], b3_hi)
    b4 = rng.uniform(b4_lo, xb.hi[1])
    if b3 > b4:
        return None
    return IntervalBox.from_corners((b1, b2, b3, b4))


def feasible_pair(
    spec: ProblemSpec,
    rng: np.random.Generator,
    max_tries: int = 50,
) -> tuple[IntervalBox, IntervalBox]:
    """A random transition pair (A, B) with both boxes in the state bounds."""
    for _ in range(max_tries):
        a = random_box_within(rng, spec.x_bounds)
        b = successor_box(spec, rng, a)
        if b is not None:
            return a, b
    raise RuntimeError("failed to sample a feasible transition pair")


def feasible_chain(
    spec: ProblemSpec,
    rng: np.random.Generator,
    length: int,
    max_tries: int = 50,
) -> list[IntervalBox]:
    """A chain A0 -> A1 -> ... of the given length (number of steps)."""
    for _ in range(max_tries):
        chain = [random_box_within(rng, spec.x_bounds)]
        ok = True
        for _ in range(length):
            nxt = successor_box(spec, rng, chain[-1])
            if nxt is None:
                ok = False
                break
            chain.append(nxt)
        if ok:
            return chain
    raise RuntimeError("failed to sample a feasible chain")
