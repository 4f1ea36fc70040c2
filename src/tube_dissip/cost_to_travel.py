"""Set-based cost-to-travel values and the optimal robust control invariant box.

``eval_v(spec, A, B, N)`` is the minimal accumulated stage cost of an N-step
box tube from A to B, with every box before the terminal one confined to the
state bounds; an infeasible pair evaluates to ``+inf``.  The terminal box is
deliberately not state-constrained, matching the constraint indexing of the
underlying tube problem (the receding-horizon layer constrains its terminal
set separately).

One step is decided in closed form.  Longer tubes and the optimal invariant
box minimise stage costs over the one-step rows with the edge controls
eliminated (:func:`~tube_dissip.problem.transition_rows`), a strictly convex
QP in box corners alone that the dual active-set kernel of ``qp_solver``
solves exactly; the tube MPC program of ``tube_mpc`` is first looked up in
its table of affine laws (:class:`_LawTable`).  These programs and the tube
program are read back into boxes by one helper, :func:`_solve_tube`, in one
plain-float pass over the corners: free corners are clipped onto the state
bounds; a free box whose corners are in order is built without
re-validation, any other through ``IntervalBox.from_corners``, which snaps
an inversion within ``feas_tol``; and every step of the tube is decided by
the one core of the one-step rule
(:func:`~tube_dissip.problem.transition_witness`), on constants the
``ProblemSpec`` computed when it was built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .interval_sets import IntervalBox
from .problem import ProblemSpec, _step_witness, stage_cost, transition_rows, transition_witness
from .qp_solver import _FEAS_TOL, SolverFailure, _dual_active_set

__all__ = [
    "MAX_STEPS",
    "CostToTravelResult",
    "RciNotFound",
    "eval_v",
    "optimal_rci",
]

_INF = float("inf")

# the most steps of a chain, and the longest tube MPC horizon: the stacked
# rows of N steps are a dense 22N x 4(N+1) array, so a count in the
# thousands would allocate gigabytes before any solve
MAX_STEPS = 64


class RciNotFound(RuntimeError):
    """No robust control invariant box exists within the state bounds."""


@dataclass(frozen=True)
class CostToTravelResult:
    """Value and minimizing tube of one cost-to-travel evaluation.

    ``value`` is ``+inf`` exactly when ``tube`` is ``None``; otherwise the
    tube runs from A to B and ``aux_controls`` holds, for each step, the edge
    controls ``(v1, v2)`` that :func:`~tube_dissip.problem.transition_witness`
    returns for it.
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


def eval_v(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
    n_steps: int,
    *,
    feas_tol: float = _FEAS_TOL,
) -> CostToTravelResult:
    """Minimal cost of an ``n_steps``-step tube from ``a`` to ``b``.

    One step costs ``L(a)`` whenever b is reachable from a, so ``n_steps == 1``
    is decided in closed form by :func:`transition_witness`.  Longer tubes
    minimise the stage costs of the free intermediate boxes over the rows of
    :func:`transition_rows`, one copy per step, in which the edge controls
    are already eliminated.  Rows on the fixed end boxes only are checked
    against ``feas_tol``; the rest form a small strictly convex QP,
    solved exactly by a dual active-set method.  A tube's ``aux_controls``
    are the :func:`transition_witness` pairs of its steps.  ``n_steps``
    runs from 1 to :data:`MAX_STEPS`.
    """
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be between 1 and {MAX_STEPS}, got {n_steps}")
    if n_steps == 1:
        witness = transition_witness(spec, a, b, feas_tol=feas_tol)
        if witness is None:
            return CostToTravelResult(value=_INF)
        return CostToTravelResult(value=stage_cost(spec, a), tube=(a, b), aux_controls=(witness,))
    ends = np.array(a.corners() + b.corners())
    solved = _solve_tube(spec, _chain_stack(spec, n_steps), ends, [a], [b], feas_tol)
    if solved is None:
        return CostToTravelResult(value=_INF)
    cost, tube, witnesses = solved
    return CostToTravelResult(value=stage_cost(spec, a) + cost, tube=tube, aux_controls=witnesses)


# at most this many affine laws are kept per program
_MAX_LAWS = 64


class _Law(NamedTuple):
    """One affine law of a :class:`_LawTable`, as maps ``a + b1*z1 + b2*z2`` of the state z.

    ``block`` holds the rows ``(a, b1, b2)`` of one stacked map: onto the
    free-row slacks, then the multipliers, then the kernel's variables.
    ``screen`` lists, as plain floats ``(a, b1, b2, floor)``, each distinct
    check column (slack or multiplier) whose least value over the state box
    is below its floor at the tolerance the law was learned at: the slacks
    of the rows the box does not keep, and the multipliers it can drive
    below zero.
    """

    block: tuple[np.ndarray, np.ndarray, np.ndarray]
    screen: tuple[tuple[float, float, float, float], ...]


class _LawTable:
    """The affine laws of a corner program whose parameter is a state in X, one per active set the kernel returned.

    On an optimal active set A the minimiser and multipliers of a strictly
    convex QP are affine in its parameter p (Bemporad, Morari, Dua and
    Pistikopoulos, Automatica 2002).  In the kernel's variables ``w = x/s``,
    ``s = 1/sqrt(2d)``, with ``Gs = G_free*s`` and ``w0 = -q*s``, the
    multipliers of A solve the Gram system ``Gs_A Gs_A' y_A = Gs_A w0 - h_A(p)``
    and ``w = w0 - Gs_A' y_A``.  Each law is kept as one stacked affine map
    of p onto the slacks of the free rows, the multipliers (together its
    check) and w (its point).  A law whose slacks are at least ``-tol`` and
    whose multipliers are nonnegative at p gives a KKT point, the answer the
    kernel would return.  At most ``_MAX_LAWS`` are kept; on a full table a
    new law is still built and answers at the p it was learned at, but is
    not stored.

    A lookup walks the laws in the order they were learned and answers from
    the first whose full check holds.  Most check columns hold at every state
    in X, so each law is first screened, in plain floats, on the few columns
    that can fail there (point location in explicit MPC, Tøndel, Johansen
    and Bemporad, Automatica 2003); only a law that passes its screen has its
    block evaluated, in one elementwise pass that gives the check and the
    point together.  Each screen column is computed by the same float
    operations, in the same order, as its column of the block, so a law that
    fails its screen fails its full check: the screen saves work and never
    changes which law answers, nor a bit of the answer.
    """

    def __init__(self, prog: "_CornerProgram", x_bounds: IntervalBox):
        free = ~prog.fixed
        self.s = 1.0 / np.sqrt(2.0 * prog.d)
        self.Gs = prog.G_free * self.s
        self.w0 = -prog.q * self.s
        # the free rows' right-hand sides are rhs @ (1, p)
        self.rhs = np.column_stack([prog.h0[free], -prog.P[free]])
        m = self.Gs.shape[0]
        # times tol, the least value of each check: -tol on slacks, 0 on multipliers
        self.floor = np.concatenate([np.full(m, -1.0), np.zeros(m)])
        # floor * tol for the last tol a check was made at
        self._tol = self._floor_tol = None
        # the state box the parameter ranges over, one column per state coordinate
        self.box = np.array([x_bounds.lo, x_bounds.hi])
        self.laws: list[_Law] = []
        # the active sets of the stored laws, as index bytes
        self.stored: set[bytes] = set()

    def __len__(self) -> int:
        return len(self.laws)

    def lookup(self, z1: float, z2: float, tol: float):
        """``(x, y)`` on the free rows from the first stored law that holds at state z, or None."""
        for law in self.laws:
            for a, b1, b2, floor in law.screen:
                # as the block computes it: (a + b1*z1) + b2*z2
                if not a + b1 * z1 + b2 * z2 >= floor * tol:
                    break
            else:
                answer = self._answer(law, z1, z2, tol)
                if answer is not None:
                    return answer
        return None

    def learn(self, y: np.ndarray, z1: float, z2: float, tol: float):
        """Store the law of the active set ``y > 0`` unless known or the table is full; its answer at z or None."""
        act = np.flatnonzero(y > 0.0)
        key = act.tobytes()
        if key in self.stored:
            # stored, and it did not hold at z
            return None
        GsA = self.Gs[act]
        # the Gram system, one right-hand side for the constant and one per parameter
        rhs = -self.rhs[act]
        rhs[:, 0] += GsA @ self.w0
        y_law = np.linalg.lstsq(GsA @ GsA.T, rhs, rcond=None)[0]
        w_law = -GsA.T @ y_law
        w_law[:, 0] += self.w0
        full_y = np.zeros(self.rhs.shape)
        full_y[act] = y_law
        block = np.ascontiguousarray(np.vstack([self.rhs - self.Gs @ w_law, full_y, w_law]).T)
        check = block[:, : self.floor.size]
        # each column's least value over the state box, taken at the box corner that minimises it
        least = check[0] + np.minimum(check[1:] * self.box[0, :, None], check[1:] * self.box[1, :, None]).sum(axis=0)
        cols = np.flatnonzero(least < self.floor * tol)
        screen = tuple(dict.fromkeys(zip(*check[:, cols].tolist(), self.floor[cols].tolist())))
        law = _Law(tuple(block), screen)
        if len(self) < _MAX_LAWS:
            self.stored.add(key)
            self.laws.append(law)
        return self._answer(law, z1, z2, tol)

    def _answer(self, law: _Law, z1: float, z2: float, tol: float):
        """The law's ``(x, y)`` at state z if its full check holds there, else None."""
        if tol != self._tol:
            self._tol, self._floor_tol = tol, self.floor * tol
        a, b1, b2 = law.block
        vals = a + b1 * z1 + b2 * z2
        m, n_checks = self.Gs.shape[0], self.floor.size
        if not (vals[:n_checks] >= self._floor_tol).all():
            return None
        return vals[n_checks:] * self.s, vals[m:n_checks]


class _CornerProgram(NamedTuple):
    """``min sum(d*x**2 + q*x)`` over free box corners x, subject to ``G x <= h0 - P @ p``.

    p is the program's parameter: the end boxes' corner vectors of a chain,
    the measured state of a tube.  ``fixed`` marks the rows with no free
    coefficient, and ``G_free`` holds the others.  The fixed rows are split
    when the program is built: ``fixed_min`` is the least right-hand side of
    those p does not enter (``+inf`` if none), and ``fixed_p`` indexes the
    others; when p is a state, ``fixed_z`` holds those same rows as plain
    floats ``(h0, c1, c2)``, the row holding at z when
    ``h0 - (c1*z1 + c2*z2) >= -feas_tol``, and is empty otherwise.  ``lo``
    and ``hi`` are the state bounds at every free corner, onto which the
    read-back clips.  ``laws`` is the tube program's table of affine laws,
    filled as it is solved; chains and the invariant box have None.
    """

    d: np.ndarray
    q: np.ndarray
    G: np.ndarray
    P: np.ndarray
    h0: np.ndarray
    fixed: np.ndarray
    G_free: np.ndarray
    fixed_min: float
    fixed_p: np.ndarray
    fixed_z: tuple[tuple[float, float, float], ...]
    lo: np.ndarray
    hi: np.ndarray
    laws: Optional[_LawTable] = None


def _corner_program(spec: ProblemSpec, d, q, G, P, h0) -> _CornerProgram:
    fixed = ~np.any(G != 0.0, axis=1)
    enters = np.any(P != 0.0, axis=1)
    fixed_p = np.flatnonzero(fixed & enters)
    xb = spec.x_bounds
    n_free = d.size // 4
    return _CornerProgram(
        d, q, G, P, h0, fixed, G[~fixed],
        fixed_min=float(np.min(h0[fixed & ~enters], initial=_INF)),
        fixed_p=fixed_p,
        fixed_z=tuple(zip(h0[fixed_p].tolist(), *P[fixed_p].T.tolist())) if P.shape[1] == 2 else (),
        lo=np.tile((xb.lo[0], xb.lo[0], xb.lo[1], xb.lo[1]), n_free),
        hi=np.tile((xb.hi[0], xb.hi[0], xb.hi[1], xb.hi[1]), n_free),
    )


def _stacked_steps(spec: ProblemSpec, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows @ c <= h0`` of n_steps chained transitions, c the corners of their n_steps + 1 boxes.

    Rows with an infinite constant (an unbounded U) always hold and are left out.
    """
    src, tgt, const = transition_rows(spec)
    m = const.size
    rows = np.zeros((n_steps * m, 4 * (n_steps + 1)))
    for k in range(n_steps):
        rows[k * m : (k + 1) * m, 4 * k : 4 * k + 4] = src
        rows[k * m : (k + 1) * m, 4 * k + 4 : 4 * k + 8] = tgt
    h0 = np.tile(const, n_steps)
    finite = np.isfinite(h0)
    return rows[finite], h0[finite]


@lru_cache(maxsize=64)
def _chain_stack(spec: ProblemSpec, n_steps: int) -> _CornerProgram:
    """The N-step tube program over its 4(N-1) free intermediate corners; p is the end boxes' corners."""
    rows, h0 = _stacked_steps(spec, n_steps)
    n_free = n_steps - 1
    return _corner_program(
        spec,
        d=np.tile(spec.cost_quad, n_free),
        q=np.tile(spec.cost_linear, n_free),
        G=rows[:, 4:-4],
        P=np.hstack([rows[:, :4], rows[:, -4:]]),
        h0=h0,
    )


def _solve_program(prog: _CornerProgram, p, feas_tol: float):
    """A corner program's answer ``(x, y)`` at parameter p.

    x is the minimiser and y its multipliers ``y >= 0`` on the free rows, the
    rows of ``G_free``.  When the program is infeasible x is None, and y is
    either the index of the most violated fixed row, one violated by more
    than ``feas_tol`` and so its own Farkas ray, or a Farkas ray on
    the free rows, ``y >= 0`` with ``G_free'y = 0`` and ``h'y < 0`` for their
    right-hand sides ``h = h0 - P @ p``.

    The fixed rows are checked first, as split when the program was built:
    one comparison for the rows p does not enter, and only the rows it
    enters evaluated at p.  A program with a law table, whose parameter is a
    state ``(z1, z2)``, evaluates those in plain floats and answers from the
    first stored law that holds at z; only on a miss does it form h, run the
    kernel cold, learn the law of the active set the kernel returns, and
    answer from that law if it holds, else from the kernel.  Other programs
    run the kernel at every solve, so they form h first and check their
    fixed rows on it.
    """
    laws = prog.laws
    if laws is None:
        h = prog.h0 - prog.P @ p
        if prog.fixed_min < -feas_tol or min(h[prog.fixed_p].tolist(), default=_INF) < -feas_tol:
            return None, _worst_fixed_row(prog, h)
        return _run_kernel(prog, h, feas_tol)
    z1, z2 = p
    if prog.fixed_min < -feas_tol or _state_rows_fail(prog.fixed_z, z1, z2, feas_tol):
        return None, _worst_fixed_row(prog, prog.h0 - prog.P @ p)
    tol = _row_tol(feas_tol)
    answer = laws.lookup(z1, z2, tol)
    if answer is None:
        x, y = _run_kernel(prog, prog.h0 - prog.P @ p, feas_tol)
        if x is not None:
            answer = laws.learn(y, z1, z2, tol)
        if answer is None:
            answer = x, y
    return answer


def _state_rows_fail(rows, z1: float, z2: float, feas_tol: float) -> bool:
    """Whether a plain-float row ``(h0, c1, c2)`` of rows is violated at state z by more than feas_tol."""
    for h0, c1, c2 in rows:
        if h0 - (c1 * z1 + c2 * z2) < -feas_tol:
            return True
    return False


def _worst_fixed_row(prog: _CornerProgram, h: np.ndarray) -> int:
    """The index of the fixed row with the least right-hand side in h, the first of ties."""
    return int(np.where(prog.fixed, h, _INF).argmin())


def _run_kernel(prog: _CornerProgram, h: np.ndarray, feas_tol: float):
    return _dual_active_set(prog.d, prog.q, prog.G_free, h[~prog.fixed], _row_tol(feas_tol))


def _solve_tube(spec: ProblemSpec, prog: _CornerProgram, p, head, tail, feas_tol: float):
    """A corner program's answer at p as ``(cost, head + free boxes + tail, step witnesses)``, or None.

    Every free box is the source of a step, so its rows keep it within the
    state bounds and its corners in order, but only to within the kernel's
    rounding guard; clipped onto the bounds, it passes exact inclusion tests
    such as the storage form's domain.  The read-back is one pass over the
    corner floats.  A free box whose clipped corners are in order is built
    without re-validation (they are finite after the clip, and a NaN fails
    the order test); any other goes through
    :meth:`~tube_dissip.interval_sets.IntervalBox.from_corners`, which snaps
    an inversion within ``feas_tol`` and raises ValueError beyond it.  Each
    step is then decided by the one-step rule of
    :func:`~tube_dissip.problem.transition_witness` on the spec's constants
    and those corners; a refused step raises SolverFailure.  The cost is
    taken at the clipped corners.
    """
    x, _ = _solve_program(prog, p, feas_tol)
    if x is None:
        return None
    x = np.minimum(np.maximum(x, prog.lo), prog.hi)
    corners = x.tolist()
    boxes = [*head]
    quads = [*map(IntervalBox.corners, head)]
    for k in range(0, len(corners), 4):
        quad = a1, a2, a3, a4 = corners[k : k + 4]
        if a1 <= a2 and a3 <= a4:
            box = IntervalBox._trusted((a1, a3), (a2, a4))
        else:
            box = IntervalBox.from_corners(quad, snap_tol=feas_tol)
            quad = box.corners()
        boxes.append(box)
        quads.append(quad)
    boxes += tail
    quads += map(IntervalBox.corners, tail)
    step = spec._step
    witnesses = []
    for (a1, a2, a3, a4), (b1, b2, b3, b4) in zip(quads, quads[1:]):
        witness = _step_witness(step, a1, a2, a3, a4, b1, b2, b3, b4, feas_tol)
        if witness is None:
            raise SolverFailure("a step of the minimising tube is not a transition")
        witnesses.append(witness)
    return float(prog.d @ (x * x) + prog.q @ x), tuple(boxes), tuple(witnesses)


def _row_tol(feas_tol: float) -> float:
    # rows count as holding within a rounding guard far inside feas_tol, so
    # each step of a minimiser still passes the one-step rule after the snap
    return 1e-3 * feas_tol


def optimal_rci(spec: ProblemSpec, *, feas_tol: float = _FEAS_TOL) -> tuple[IntervalBox, float]:
    """The self-transition box of minimal stage cost, and that cost.

    A box a is its own successor when the rows of :func:`transition_rows`
    hold with a as source and target, that is ``(src + tgt) @ a <= const``.
    Minimising the stage cost over them is a parameter-free corner program
    with one free box, solved by the same dual active-set method as
    :func:`eval_v`.  Answers are cached per problem and ``feas_tol``.
    """
    # one cache key whether or not the caller passes the default feas_tol
    return _optimal_rci(spec, feas_tol)


@lru_cache(maxsize=64)
def _optimal_rci(spec: ProblemSpec, feas_tol: float) -> tuple[IntervalBox, float]:
    src, tgt, const = transition_rows(spec)
    finite = np.isfinite(const)
    prog = _corner_program(
        spec,
        d=np.array(spec.cost_quad),
        q=np.array(spec.cost_linear),
        G=(src + tgt)[finite],
        P=np.zeros((int(finite.sum()), 0)),
        h0=const[finite],
    )
    solved = _solve_tube(spec, prog, np.zeros(0), [], [], feas_tol)
    if solved is None:
        raise RciNotFound(
            "no robust control invariant interval box exists within the state "
            "bounds (the self-transition problem is infeasible)"
        )
    cost, (box,), _ = solved
    return box, cost
