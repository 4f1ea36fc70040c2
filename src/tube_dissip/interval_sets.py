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

import numbers
from dataclasses import dataclass
from typing import Sequence

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class IntervalBox:
    """A compact box ``[lo[0], hi[0]] x [lo[1], hi[1]]`` in R^2.

    Each side is a pair of real numbers, stored as floats; a bool or a
    string is not a real number.  Boxes are slotted: they carry no
    ``__dict__``, so ``vars(box)`` raises TypeError.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        try:
            lo1, lo2 = self.lo
            hi1, hi2 = self.hi
        except (TypeError, ValueError):
            raise ValueError(f"each side of a box is two numbers, got lo={self.lo!r} hi={self.hi!r}") from None
        # a float entry passes as it is; only another is type-checked
        if not (isinstance(lo1, float) and isinstance(lo2, float) and isinstance(hi1, float) and isinstance(hi2, float)):
            if not (_is_real(lo1) and _is_real(lo2) and _is_real(hi1) and _is_real(hi2)):
                raise ValueError(f"each side of a box is two numbers, got lo={self.lo!r} hi={self.hi!r}")
        lo = lo1, lo2 = (float(lo1), float(lo2))
        hi = hi1, hi2 = (float(hi1), float(hi2))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # dimension by dimension, finiteness first; NaN and +-inf fail -inf < c < inf
        if not (-_INF < lo1 < _INF and -_INF < hi1 < _INF):
            raise ValueError(f"box corners must be finite, got lo={lo} hi={hi}")
        if lo1 > hi1:
            raise ValueError(f"empty interval in dimension 0: [{lo1}, {hi1}]")
        if not (-_INF < lo2 < _INF and -_INF < hi2 < _INF):
            raise ValueError(f"box corners must be finite, got lo={lo} hi={hi}")
        if lo2 > hi2:
            raise ValueError(f"empty interval in dimension 1: [{lo2}, {hi2}]")

    @classmethod
    def from_corners(cls, a: Sequence[float], snap_tol: float = 0.0) -> "IntervalBox":
        """Build a box from its corner vector ``(a1, a2, a3, a4)``.

        ``snap_tol``, a number ``>= 0``, collapses sub-tolerance corner
        inversions (as produced by floating-point optimizer output) to a
        degenerate interval; inversions beyond the tolerance still raise.
        """
        if not snap_tol >= 0.0:
            raise ValueError(f"snap_tol must be a number >= 0, got {snap_tol!r}")
        a1, a2, a3, a4 = map(float, a)
        if snap_tol > 0.0:
            if a2 < a1 <= a2 + snap_tol:
                a1 = a2 = 0.5 * (a1 + a2)
            if a4 < a3 <= a4 + snap_tol:
                a3 = a4 = 0.5 * (a3 + a4)
        return cls(lo=(a1, a3), hi=(a2, a4))

    @classmethod
    def _trusted(cls, lo: tuple[float, float], hi: tuple[float, float]) -> "IntervalBox":
        """A box from float corner pairs the caller knows to be finite and in order, built without the checks."""
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    @classmethod
    def from_intervals(cls, ix: Sequence[float], iy: Sequence[float]) -> "IntervalBox":
        """Build a box from per-dimension intervals ``[lo, hi]``."""
        return cls(lo=(float(ix[0]), float(iy[0])), hi=(float(ix[1]), float(iy[1])))

    def corners(self) -> tuple[float, float, float, float]:
        """Corner vector ``(a1, a2, a3, a4) = (lo1, hi1, lo2, hi2)``."""
        return (self.lo[0], self.hi[0], self.lo[1], self.hi[1])

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


def _is_integer(value) -> bool:
    """True for an integer, ``np.integer`` included, and false for a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    """True iff the point ``z``, two real numbers, lies in the box ``A`` (within ``tol``); ConfigError for any other z."""
    try:
        z1, z2 = z
    except (TypeError, ValueError):
        z1 = z2 = None
    if not (_is_real(z1) and _is_real(z2)):
        # problem imports this module, so its error is imported where it is raised
        from .problem import ConfigError

        raise ConfigError(f"a point is two numbers, got {z!r}")
    return a.lo[0] - tol <= z1 <= a.hi[0] + tol and a.lo[1] - tol <= z2 <= a.hi[1] + tol


def boxes_intersect(a: IntervalBox, b: IntervalBox, tol: float = 0.0) -> bool:
    """True iff the boxes share a point (within ``tol``): no gap between them is wider than ``tol``."""
    return (
        a.lo[0] <= b.hi[0] + tol
        and b.lo[0] <= a.hi[0] + tol
        and a.lo[1] <= b.hi[1] + tol
        and b.lo[1] <= a.hi[1] + tol
    )
