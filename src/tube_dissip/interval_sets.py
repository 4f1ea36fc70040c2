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

import numpy as np

_INF = float("inf")


class ConfigError(ValueError):
    """Malformed problem or run configuration."""


# The entry rule of each kind of scalar argument, for every module; callers
# add their own range test, and hot paths let floats pass before the rule.

# the containers of a point and of any other sequence argument; a str,
# bytes, mapping or set is none, whatever its length
_SEQUENCES = (tuple, list, np.ndarray)


def _real(value, message: str) -> float:
    """value as a float, or ConfigError unless it is a ``numbers.Real``, not a bool, whose float does not overflow."""
    try:
        if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{message}, got {value!r}")


def _point(value, message: str, size: int = 2) -> tuple[float, ...]:
    """value as a tuple of floats, or ConfigError unless it is a tuple, list or array of exactly ``size`` real numbers."""
    try:
        if isinstance(value, _SEQUENCES) and len(value) == size:
            point = tuple(value)
            for v in point:
                if type(v) is not float:
                    return tuple([_real(v, message) for v in point])
            return point
    except (TypeError, ConfigError):
        pass
    raise ConfigError(f"{message}, got {value!r}")


def _count(value, what: str, lo: int, hi: int | None = None) -> int:
    """value as an int, or ConfigError unless it is an integer, ``np.integer`` included but not a bool, from lo to hi."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and lo <= value and (hi is None or value <= hi):
        return int(value)
    kind = f"an integer between {lo} and {hi}" if hi is not None else "a non-negative integer" if lo == 0 else f"an integer >= {lo}"
    raise ConfigError(f"{what} must be {kind}, got {value!r}")


def _seed(value) -> int:
    """value as an int, or ConfigError unless it is a non-negative integer, which None is not."""
    return _count(value, "seed", 0)


def _tol(value, what: str = "tol") -> float:
    """value as a float, or ConfigError unless it is a real number at least 0, which NaN is not."""
    message = f"{what} must be a real number >= 0"
    x = _real(value, message)
    if x >= 0.0:
        return x
    raise ConfigError(f"{message}, got {value!r}")


def _section(obj, known, what: str, unknown: str, nested=None, path: str = "") -> dict:
    """The keys and values of a config section, its nested sections read; ConfigError unless obj is a JSON object whose keys are all known.

    ``what`` and ``unknown`` are the section's own texts for a value that is
    no object and for unknown keys.  ``nested`` maps a key to the reader of
    its value, whose ValueError is raised again as ConfigError behind the
    value's path, ``path`` followed by the key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}, got {obj!r}")
    extra = set(obj) - set(known)
    if extra:
        raise ConfigError(f"{unknown}: {sorted(extra)}")
    fields = dict(obj)
    for key, read in (nested or {}).items():
        if key in fields:
            try:
                fields[key] = read(fields[key])
            except ValueError as exc:
                raise ConfigError(f"{path}{key}: {exc}") from exc
    return fields


@dataclass(frozen=True, slots=True)
class IntervalBox:
    """A compact box ``[lo[0], hi[0]] x [lo[1], hi[1]]`` in R^2.

    Each side is a point, two real numbers, stored as floats; any other
    side raises ConfigError, a ValueError.  Boxes are slotted: they carry
    no ``__dict__``, so ``vars(box)`` raises TypeError.
    """

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        try:
            lo1, lo2 = self.lo
            hi1, hi2 = self.hi
        except (TypeError, ValueError):
            lo1 = None
        # sides that are sequences of floats pass as they are; any other side takes the point rule
        if (
            isinstance(self.lo, _SEQUENCES) and isinstance(self.hi, _SEQUENCES)
            and isinstance(lo1, float) and isinstance(lo2, float) and isinstance(hi1, float) and isinstance(hi2, float)
        ):
            lo = lo1, lo2 = (float(lo1), float(lo2))
            hi = hi1, hi2 = (float(hi1), float(hi2))
        else:
            lo = lo1, lo2 = _point(self.lo, "each side of a box is two numbers")
            hi = hi1, hi2 = _point(self.hi, "each side of a box is two numbers")
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
        """Build a box from its corner vector ``(a1, a2, a3, a4)``, four real numbers.

        ``snap_tol``, a tolerance, collapses sub-tolerance corner inversions
        (as produced by floating-point optimizer output) to a degenerate
        interval; inversions beyond the tolerance still raise.
        """
        if not (type(snap_tol) is float and snap_tol >= 0.0):
            snap_tol = _tol(snap_tol, "snap_tol")
        a1, a2, a3, a4 = _point(a, "a corner vector is four numbers", 4)
        if snap_tol > 0.0:
            if a2 < a1 <= a2 + snap_tol:
                a1 = a2 = 0.5 * (a1 + a2)
            if a4 < a3 <= a4 + snap_tol:
                a3 = a4 = 0.5 * (a3 + a4)
        return cls(lo=(a1, a3), hi=(a2, a4))

    @classmethod
    def _trusted(cls, lo: tuple[float, float], hi: tuple[float, float]) -> "IntervalBox":
        """A box from float corner pairs the caller knows to be finite and in order, built without the checks.

        It is set through its fields' slot setters, as a trusted frozen
        record of the package is (``cost_to_travel.eval_v``'s results too).
        """
        box = object.__new__(cls)
        _set_lo(box, lo)
        _set_hi(box, hi)
        return box

    @classmethod
    def from_intervals(cls, ix: Sequence[float], iy: Sequence[float]) -> "IntervalBox":
        """Build a box from per-dimension intervals ``[lo, hi]``, each two real numbers."""
        lo1, hi1 = _point(ix, "each interval of a box is two numbers")
        lo2, hi2 = _point(iy, "each interval of a box is two numbers")
        return cls(lo=(lo1, lo2), hi=(hi1, hi2))

    def corners(self) -> tuple[float, float, float, float]:
        """Corner vector ``(a1, a2, a3, a4) = (lo1, hi1, lo2, hi2)``."""
        return (self.lo[0], self.hi[0], self.lo[1], self.hi[1])

    def to_json_obj(self) -> list[list[float]]:
        """JSON form ``[[lo1, hi1], [lo2, hi2]]``."""
        return [[self.lo[0], self.hi[0]], [self.lo[1], self.hi[1]]]

    @classmethod
    def from_json_obj(cls, obj: Sequence[Sequence[float]]) -> "IntervalBox":
        """Build a box from its JSON form; anything but two intervals of two real numbers raises ValueError."""
        if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
            raise ConfigError(f"a box is two intervals [lo, hi] of numbers, got {obj!r}")
        return cls.from_intervals(*obj)

    def __repr__(self) -> str:
        a1, a2, a3, a4 = self.corners()
        return f"IntervalBox([{a1}, {a2}] x [{a3}, {a4}])"


# the slot setters of a box's fields (their member descriptors' __set__),
# which write past the frozen __setattr__
_set_lo, _set_hi = IntervalBox.lo.__set__, IntervalBox.hi.__set__


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
    """True iff ``A`` is contained in ``B`` (componentwise, within ``tol``, a real number >= 0)."""
    if not (type(tol) is float and tol >= 0.0):
        tol = _tol(tol)
    return (
        b.lo[0] - tol <= a.lo[0]
        and b.lo[1] - tol <= a.lo[1]
        and a.hi[0] <= b.hi[0] + tol
        and a.hi[1] <= b.hi[1] + tol
    )


def contains(a: IntervalBox, z: Sequence[float], tol: float = 0.0) -> bool:
    """True iff the point ``z``, two real numbers, lies in the box ``A`` (within ``tol``, a real number >= 0).

    ConfigError for any other z or tol.
    """
    if not (type(tol) is float and tol >= 0.0):
        tol = _tol(tol)
    # a numpy scalar would compare to a numpy bool
    z1, z2 = _point(z, "a point is two numbers")
    return a.lo[0] - tol <= z1 <= a.hi[0] + tol and a.lo[1] - tol <= z2 <= a.hi[1] + tol


def boxes_intersect(a: IntervalBox, b: IntervalBox, tol: float = 0.0) -> bool:
    """True iff the boxes share a point (within ``tol``, a real number >= 0): no gap between them is wider than ``tol``."""
    if not (type(tol) is float and tol >= 0.0):
        tol = _tol(tol)
    return (
        a.lo[0] <= b.hi[0] + tol
        and b.lo[0] <= a.hi[0] + tol
        and a.lo[1] <= b.hi[1] + tol
        and b.lo[1] <= a.hi[1] + tol
    )
