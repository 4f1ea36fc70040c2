"""Axis-aligned interval boxes in the plane, with the set metrics used everywhere else.

A box ``[a1,a2] x [a3,a4]`` is stored as a pair of lower/upper corners and is
exposed to the optimization layers through its corner vector ``(a1,a2,a3,a4)``.
Degenerate boxes (zero width in one or both dimensions) are allowed; line
segments such as ``{-1} x [-4,0]`` appear as optimal invariant sets.

The Hausdorff distance is taken with respect to the max-norm, for which it has
an exact per-dimension closed form on boxes.  The choice of norm is a
documented convention of this package; see README.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntervalBox:
    """A compact box ``[lo[0], hi[0]] x [lo[1], hi[1]]`` in R^2."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        lo = (float(self.lo[0]), float(self.lo[1]))
        hi = (float(self.hi[0]), float(self.hi[1]))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        for i in range(2):
            if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                raise ValueError(f"box corners must be finite, got lo={lo} hi={hi}")
            if lo[i] > hi[i]:
                raise ValueError(f"empty interval in dimension {i}: [{lo[i]}, {hi[i]}]")

    @classmethod
    def from_corners(cls, a: Sequence[float], snap_tol: float = 0.0) -> "IntervalBox":
        """Build a box from its corner vector ``(a1, a2, a3, a4)``.

        ``snap_tol`` collapses sub-tolerance corner inversions (as produced by
        floating-point optimizer output) to a degenerate interval; inversions
        beyond the tolerance still raise.
        """
        a1, a2, a3, a4 = (float(v) for v in a)
        if snap_tol > 0.0:
            if a2 < a1 <= a2 + snap_tol:
                a1 = a2 = 0.5 * (a1 + a2)
            if a4 < a3 <= a4 + snap_tol:
                a3 = a4 = 0.5 * (a3 + a4)
        return cls(lo=(a1, a3), hi=(a2, a4))

    @classmethod
    def from_intervals(cls, ix: Sequence[float], iy: Sequence[float]) -> "IntervalBox":
        """Build a box from per-dimension intervals ``[lo, hi]``."""
        return cls(lo=(float(ix[0]), float(iy[0])), hi=(float(ix[1]), float(iy[1])))

    def corners(self) -> tuple[float, float, float, float]:
        """Corner vector ``(a1, a2, a3, a4) = (lo1, hi1, lo2, hi2)``."""
        return (self.lo[0], self.hi[0], self.lo[1], self.hi[1])

    def widths(self) -> tuple[float, float]:
        return (self.hi[0] - self.lo[0], self.hi[1] - self.lo[1])

    def to_json_obj(self) -> list[list[float]]:
        """JSON form ``[[lo1, hi1], [lo2, hi2]]``."""
        return [[self.lo[0], self.hi[0]], [self.lo[1], self.hi[1]]]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[float]]) -> "IntervalBox":
        """Build a box from its JSON form; anything but two intervals of two real numbers raises ValueError."""
        if not (_is_pair(obj) and all(_is_pair(iv) and all(_is_real(v) for v in iv) for iv in obj)):
            raise ValueError(f"a box is two intervals [lo, hi] of numbers, got {obj!r}")
        ix, iy = obj
        return cls.from_intervals(ix, iy)

    def __repr__(self) -> str:
        a1, a2, a3, a4 = self.corners()
        return f"IntervalBox([{a1}, {a2}] x [{a3}, {a4}])"


def _is_real(value) -> bool:
    """True for a real number, and false for a bool or a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2


def hausdorff(a: IntervalBox, b: IntervalBox) -> float:
    """Hausdorff distance between two boxes under the max-norm.

    For boxes the distance factorizes over dimensions:
    ``max_i max(|lo_i^A - lo_i^B|, |hi_i^A - hi_i^B|)``.
    """
    return max(
        abs(a.lo[0] - b.lo[0]),
        abs(a.hi[0] - b.hi[0]),
        abs(a.lo[1] - b.lo[1]),
        abs(a.hi[1] - b.hi[1]),
    )


def subset(a: IntervalBox, b: IntervalBox, tol: float = 0.0) -> bool:
    """True iff ``A`` is contained in ``B`` (componentwise, within ``tol``)."""
    return (
        b.lo[0] - tol <= a.lo[0]
        and b.lo[1] - tol <= a.lo[1]
        and a.hi[0] <= b.hi[0] + tol
        and a.hi[1] <= b.hi[1] + tol
    )


def contains(a: IntervalBox, z: Sequence[float], tol: float = 0.0) -> bool:
    """True iff the point ``z`` lies in the box ``A`` (within ``tol``)."""
    return (
        a.lo[0] - tol <= z[0] <= a.hi[0] + tol
        and a.lo[1] - tol <= z[1] <= a.hi[1] + tol
    )


def boxes_intersect(a: IntervalBox, b: IntervalBox) -> bool:
    """Exact interval-disjointness test: True iff the boxes share a point."""
    return (
        a.lo[0] <= b.hi[0]
        and b.lo[0] <= a.hi[0]
        and a.lo[1] <= b.hi[1]
        and b.lo[1] <= a.hi[1]
    )
