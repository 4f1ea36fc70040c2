"""Seeded random generators for boxes, feasible transitions, and chains.

The constructive samplers draw the edge controls first and then a compatible
target window, so acceptance rates stay high; every constructed pair is a
genuine transition by the row encoding (callers may still re-verify it with
:func:`~tube_dissip.problem.transition_feasible`).

Every sampler takes, as ``rng``, an object with numpy's
``Generator.uniform``, which it calls only as ``uniform(low, high)``, one
double per call: a caller's ``np.random.Generator``, which it reads one draw
at a time as it always has, or the library's own :class:`_Draws`.  The
generators the library creates for itself (the acceptance battery,
``check_strictness`` and the random disturbance policy) are ``_Draws``: they
take the same doubles from the same seeded stream, fetched in blocks, so
every seeded answer is unchanged to the bit.  A box whose four corners are
floats, finite and in order is built trusted, as a read-back box is
(``cost_to_travel._read_tube``); any other, such as one of numpy scalars,
ints or NaN from another generator, goes through the constructor the
sampler names, which converts or refuses it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .interval_sets import ConfigError, IntervalBox, _count
from .problem import ProblemSpec

__all__ = [
    "random_box_within",
    "random_superbox",
    "monotone_cone_box",
    "successor_box",
    "feasible_pair",
    "feasible_chain",
]

# the draws of source boxes a constructive sampler makes before it gives up
_MAX_TRIES = 50

# the doubles _Draws fetches from its generator per numpy call
_BLOCK = 256

_INF = float("inf")


class _GaveUp(RuntimeError):
    """A constructive sampler drew ``_MAX_TRIES`` source boxes and none had a successor."""


class _Draws:
    """``np.random.default_rng(seed)``'s uniform draws, fetched 256 doubles per numpy call.

    ``uniform(lo, hi, size)`` is numpy's ``Generator.uniform`` for scalar
    bounds: ``lo + (hi - lo) * u`` for each next double u of the stream,
    the formula of numpy's ``random_uniform``, and ``rng.random(n)`` gives
    the same doubles as n single draws.  So its draws equal the generator's
    bit for bit, and it raises what numpy raises, in numpy's order:
    OverflowError when ``hi - lo`` is not finite, then ValueError when it
    has its sign bit set.  A scalar draw is a float; one with ``size`` is a
    list of ``size`` floats.  It builds its own generator from the seed, so
    it never reads ahead in a generator a caller goes on to use.
    """

    __slots__ = ("_random", "_block")

    def __init__(self, seed):
        self._random = np.random.default_rng(seed).random
        # the doubles fetched but not yet drawn, the next one last
        self._block: list[float] = []

    def uniform(self, lo=0.0, hi=1.0, size=None):
        span = hi - lo
        block = self._block
        # the common case: one draw across a finite positive span
        if 0.0 < span < _INF and size is None and block:
            return lo + span * block.pop()
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span <= 0.0 and math.copysign(1.0, span) < 0.0:
            raise ValueError("high - low < 0")
        if size is not None:
            return [self.uniform(lo, hi) for _ in range(size)]
        if not block:
            block += self._random(_BLOCK)[::-1].tolist()
        return lo + span * block.pop()


def _sorted_pair(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    # two scalar draws: the doubles of one size=2 draw, as floats
    x = rng.uniform(lo, hi)
    y = rng.uniform(lo, hi)
    return (x, y) if x <= y else (y, x)


def _trusted_box(a1, a2, a3, a4) -> Optional[IntervalBox]:
    """The box of corner vector ``(a1, a2, a3, a4)``, built without checks when its corners are floats, finite and in order; None otherwise."""
    if type(a1) is type(a2) is type(a3) is type(a4) is float and -_INF < a1 <= a2 < _INF and -_INF < a3 <= a4 < _INF:
        # looked up on the class at each call, where a test may replace it
        return IntervalBox._trusted((a1, a3), (a2, a4))
    return None


def random_box_within(rng: np.random.Generator, outer: IntervalBox) -> IntervalBox:
    (lo1, lo2), (hi1, hi2) = outer.lo, outer.hi
    a1, a2 = _sorted_pair(rng, lo1, hi1)
    a3, a4 = _sorted_pair(rng, lo2, hi2)
    return _trusted_box(a1, a2, a3, a4) or IntervalBox.from_intervals((a1, a2), (a3, a4))


def random_superbox(rng: np.random.Generator, box: IntervalBox, outer: IntervalBox) -> IntervalBox:
    """A box nested between ``box`` and ``outer``."""
    (blo1, blo2), (bhi1, bhi2) = box.lo, box.hi
    (olo1, olo2), (ohi1, ohi2) = outer.lo, outer.hi
    lo1 = rng.uniform(olo1, blo1)
    lo2 = rng.uniform(olo2, blo2)
    hi1 = rng.uniform(bhi1, ohi1)
    hi2 = rng.uniform(bhi2, ohi2)
    return _trusted_box(lo1, hi1, lo2, hi2) or IntervalBox(lo=(lo1, lo2), hi=(hi1, hi2))


def monotone_cone_box(rng: np.random.Generator, spec: ProblemSpec) -> IntervalBox:
    """A box in the region where the stage cost grows with set inclusion.

    For the default cost coefficients the stage cost is monotone under
    nesting only where the lower corners are nonpositive and the upper
    x2-corner is nonnegative; growth properties are sampled there.  State
    bounds that miss that cone raise ConfigError before any draw.
    """
    x1_lo, x1_hi, x2_lo, x2_hi = spec._step[5:]
    if not (x1_lo <= 0.0 and x2_lo <= 0.0 <= x2_hi):
        raise ConfigError(f"the state bounds miss the cone a1 <= 0, a3 <= 0 <= a4 of monotone boxes, got {spec.x_bounds!r}")
    a1 = rng.uniform(x1_lo, min(0.0, x1_hi))
    a2 = rng.uniform(a1, x1_hi)
    a3 = rng.uniform(x2_lo, min(0.0, x2_hi))
    a4 = rng.uniform(max(0.0, x2_lo), x2_hi)
    return _trusted_box(a1, a2, a3, a4) or IntervalBox.from_corners((a1, a2, a3, a4))


def successor_box(
    spec: ProblemSpec,
    rng: np.random.Generator,
    a: IntervalBox,
) -> Optional[IntervalBox]:
    """A random box B within the state bounds reachable from A in one step.

    Returns None when no admissible edge controls exist for the drawn
    intermediate choices; callers resample the source box.
    """
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = spec._step
    a3, a4 = a.lo[1], a.hi[1]

    v1_lo = max(u_lo, x2_lo - al * a3 - w_lo, x1_lo)
    v1_hi = min(u_hi, x1_hi)
    if v1_lo > v1_hi:
        return None
    v1 = rng.uniform(v1_lo, v1_hi)

    v2_lo = max(u_lo, v1 - al * (a4 - a3), x1_lo)
    v2_hi = min(u_hi, x2_hi - al * a4 - w_hi, x1_hi)
    if v2_lo > v2_hi:
        return None
    v2 = rng.uniform(v2_lo, v2_hi)

    b1 = rng.uniform(x1_lo, min(v1, v2))
    b2 = rng.uniform(max(v1, v2), x1_hi)
    b3_hi = al * a3 + v1 + w_lo
    b4_lo = al * a4 + v2 + w_hi
    b3 = rng.uniform(x2_lo, b3_hi)
    b4 = rng.uniform(b4_lo, x2_hi)
    if b3 > b4:
        return None
    return _trusted_box(b1, b2, b3, b4) or IntervalBox.from_corners((b1, b2, b3, b4))


def feasible_pair(spec: ProblemSpec, rng: np.random.Generator) -> tuple[IntervalBox, IntervalBox]:
    """A random transition pair (A, B) with both boxes in the state bounds."""
    for _ in range(_MAX_TRIES):
        a = random_box_within(rng, spec.x_bounds)
        b = successor_box(spec, rng, a)
        if b is not None:
            return a, b
    raise _GaveUp("failed to sample a feasible transition pair")


def feasible_chain(spec: ProblemSpec, rng: np.random.Generator, length: int) -> list[IntervalBox]:
    """A chain A0 -> A1 -> ... of the given length, a non-negative integer number of steps (ConfigError for any other)."""
    length = _count(length, "length", 0)
    for _ in range(_MAX_TRIES):
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
    raise _GaveUp("failed to sample a feasible chain")
