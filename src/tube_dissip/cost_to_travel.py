"""Set-based cost-to-travel values and the optimal robust control invariant box.

``eval_v(spec, A, B, N)`` is the minimal accumulated stage cost of an N-step
box tube from A to B, with every box before the terminal one confined to the
state bounds; an infeasible pair evaluates to ``+inf``.  The terminal box is
deliberately not state-constrained, matching the constraint indexing of the
underlying tube problem (the receding-horizon layer constrains its terminal
set separately).

One step is decided in closed form, as each step of a longer tube is: by
the one core of the one-step rule (:func:`~tube_dissip.problem._step_witness`)
on the eight corners of A and B, then priced by the stage cost of A.
Longer tubes and the optimal invariant box minimise stage costs over the
one-step rows with the edge controls eliminated
(:func:`~tube_dissip.problem.transition_rows`), a strictly convex QP in box
corners alone that the dual active-set kernel of ``qp_solver`` solves
exactly.  Every such corner program, the tube MPC program of
``tube_mpc`` included, is answered by one path (:func:`_solve_program`):
its fixed rows in plain floats, then a stored affine law, then a stored
Farkas ray, then a cold kernel run whose ray or law the program's table
keeps (:class:`_AffineLaws`, one store under one lock and one bound for
every table).  The tube's laws decide by screens proven on the state
bounds X, in plain floats (:class:`_LawTable`), a chain's by their full KKT
check at the end boxes, every stored law in one stacked product
(:class:`_ChainTable`).  The invariant box's program is solved once
per problem and keeps no table.  These programs are read back into
boxes, decided and priced by one helper, :func:`_solve_tube`, in one
plain-float pass that visits each box once: each free box is clipped onto
the state bounds and built without re-validation when its corners are in
order, and otherwise through ``IntervalBox.from_corners``, which snaps an
inversion within ``qp_solver._FEAS_TOL``; each step is decided by the one
core of the one-step rule (:func:`~tube_dissip.problem.transition_witness`)
on the corners carried in locals, and each box but the last is priced by
the one core of :func:`~tube_dissip.problem.stage_cost`, left to right
from 0.0.  At N = 1 a value is the stage cost of A alone, which has the
same bits.  A value that is not finite raises ``SolverFailure``, by one
guard (:func:`_finite_cost`).  Every ``+inf`` value is one shared
:class:`CostToTravelResult`, and a feasible one is set through its fields'
slot setters, as ``IntervalBox._trusted`` sets a box.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .interval_sets import IntervalBox, _count
from .problem import ProblemSpec, _stage_cost, _step_witness, transition_rows
from .qp_solver import _FEAS_TOL, _ROW_TOL, SolverFailure, _dual_active_set

__all__ = [
    "MAX_STEPS",
    "CostToTravelResult",
    "RciNotFound",
    "eval_v",
    "optimal_rci",
]

_INF = float("inf")
_EPS = float(np.finfo(float).eps)

# the most steps of a chain, and the longest tube MPC horizon: the stacked
# rows of N steps are a dense 22N x 4(N+1) array, so a count in the
# thousands would allocate gigabytes before any solve
MAX_STEPS = 64


class RciNotFound(RuntimeError):
    """No robust control invariant box exists within the state bounds."""


@dataclass(frozen=True, slots=True)
class CostToTravelResult:
    """Value and minimizing tube of one cost-to-travel evaluation.

    ``value`` is ``+inf`` exactly when ``tube`` is ``None``; otherwise the
    tube runs from A to B, ``value`` is the sum of the stage costs of its
    boxes but the last (a sum that is not finite raises ``SolverFailure``),
    and ``aux_controls`` holds, for each step, the edge controls ``(v1, v2)``
    that :func:`~tube_dissip.problem.transition_witness` returns for it.
    Every ``+inf`` answer is one shared result, which its frozen slots keep
    unchanged, so callers compare values, not identity.
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


# the answer of every infeasible pair, at any N
_INFEASIBLE = CostToTravelResult(_INF)

# the slot setters of a result's fields (their member descriptors' __set__),
# which write past the frozen __setattr__; a feasible result is built by them
_set_value = CostToTravelResult.value.__set__
_set_tube = CostToTravelResult.tube.__set__
_set_aux_controls = CostToTravelResult.aux_controls.__set__


def eval_v(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
    n_steps: int,
) -> CostToTravelResult:
    """Minimal cost of an ``n_steps``-step tube from ``a`` to ``b``.

    One step costs ``L(a)`` whenever b is reachable from a, so ``n_steps == 1``
    is decided in closed form: the one-step rule of
    :func:`~tube_dissip.problem.transition_witness` on the corners of a and
    b, and, when it admits the step, ``stage_cost(spec, a)`` under the guard
    every value shares (:func:`_finite_cost`).  Longer tubes minimise the
    stage costs of the free intermediate boxes over the rows of
    :func:`transition_rows`, one copy per step, in which the edge controls
    are already eliminated.  Rows on the fixed end boxes only are checked
    against the feasibility tolerance; the rest form a small strictly
    convex QP, solved exactly by a dual active-set method.  The program of
    each N is built once per problem and keeps a table of the affine laws
    and Farkas rays the method returned for it (:class:`_ChainTable`): a
    stored law whose full check holds at the end boxes, or a stored ray
    that certifies them infeasible, answers without a solve.  A law's point
    agrees with the method's own minimiser to rounding, not bit for bit, so
    the last bits of a value can depend on the values computed before it
    for the same problem and N, in any thread.  A tube is priced as it is
    read back (:func:`_solve_tube`), and its ``aux_controls`` are the
    :func:`~tube_dissip.problem.transition_witness` pairs of its steps.
    Every ``+inf`` answer is the one shared result ``_INFEASIBLE``.
    ``n_steps`` runs from 1 to :data:`MAX_STEPS`; any other value, a
    non-integer or a bool included, raises ConfigError, a ValueError.
    """
    if not (type(n_steps) is int and 1 <= n_steps <= MAX_STEPS):
        n_steps = _count(n_steps, "n_steps", 1, MAX_STEPS)
    if n_steps == 1:
        (a1, a3), (a2, a4) = a.lo, a.hi
        (b1, b3), (b2, b4) = b.lo, b.hi
        witness = _step_witness(spec._step, a1, a2, a3, a4, b1, b2, b3, b4)
        if witness is None:
            return _INFEASIBLE
        # a stage cost is never -0.0, so it has the bits of the read-back's 0.0 + it
        cost = _stage_cost(spec.cost_linear, spec.cost_quad, a1, a2, a3, a4)
        tube, witnesses = (a, b), (witness,)
    else:
        solved = _solve_tube(spec, _chain_stack(spec, n_steps), a.corners() + b.corners(), (a,), (b,))
        if solved is None:
            return _INFEASIBLE
        tube, witnesses, cost = solved
    result = object.__new__(CostToTravelResult)
    _set_value(result, _finite_cost(cost))
    _set_tube(result, tube)
    _set_aux_controls(result, witnesses)
    return result


def _finite_cost(cost: float) -> float:
    """cost, the guard of every value and objective: SolverFailure if it is not finite."""
    if not math.isfinite(cost):
        raise SolverFailure(f"the minimising tube's cost is not finite ({cost})")
    return cost


# at most this many affine laws, and as many Farkas rays, are kept per program
_MAX_LAWS = 64

# the most bytes a program's table keeps in laws and rays: a full table of
# _MAX_LAWS chain laws fits up to N = 5, and one at N = MAX_STEPS holds
# four laws; a full tube table fits up to horizon 16, and one at horizon
# MAX_STEPS holds about 21 laws
_TABLE_BYTES = 1 << 20


class _AffineLaws:
    """The table of a corner program: the affine laws and Farkas rays of the kernel's answers.

    On an optimal active set A the minimiser and multipliers of a strictly
    convex QP are affine in its parameter p (Bemporad, Morari, Dua and
    Pistikopoulos, Automatica 2002).  In the kernel's variables ``w = x/s``,
    ``s = 1/sqrt(2d)``, with ``Gs = G_free*s`` and ``w0 = -q*s``, the
    multipliers of A solve the Gram system ``Gs_A Gs_A' y_A = Gs_A w0 - h_A(p)``
    and ``w = w0 - Gs_A' y_A``.  A law is built as one stacked affine map
    ``a + b1*p1 + b2*p2 + ...`` of p, its block, with one row per value and
    one column per term ``(a, b1, b2, ...)``, onto the slacks of the free
    rows, the multipliers (together its full check) and w (its point).  The
    table refers to its program and copies none of it: ``Gs``, ``w0`` and
    the right-hand sides are formed from the program when a law is built,
    and only ``s`` and the checks' floors, which answers read, are kept.  A
    law whose slacks are at least ``-_ROW_TOL`` and whose multipliers are
    nonnegative at p gives a KKT point, the answer the kernel would return.
    A law answer carries no multipliers: those come only from a kernel run.

    The table also keeps Farkas rays the kernel returned, ``y >= 0`` with
    ``G_free'y = 0``, which the kernel checked and which do not depend on p:
    the first stored ray with ``h'y < -_ROW_TOL*sum(y)`` on p's free
    right-hand sides h certifies p infeasible, exactly as the kernel's own
    ray would.

    Every table stores alike.  It keeps at most ``_MAX_LAWS`` laws and as
    many rays, and no more than ``_TABLE_BYTES`` of laws and rays together,
    a law counted as what its table keeps of it (``_nbytes``); a law that
    does not fit is still built and answers at the p it was learned at.  A
    table may be filled from several threads: each update publishes new
    laws or rays by one attribute assignment, under a lock, so each active
    set is stored once, and a reader loads each attribute once, so it sees
    only whole laws and rays.  Each kind of table keeps its laws in its own
    form, ``laws``, and decides by its own rule: ``_law`` gives one law in
    that form, ``_nbytes`` its bytes, ``_with`` the stored laws and one
    more, ``_first`` the answer of the first of some laws that holds at p,
    and ``_multipliers`` a law's active multipliers at p, evaluated as
    ``_first`` evaluates that law, so that :meth:`learn` keeps a law that
    holds where it was learned.
    """

    def __init__(self, prog: "_CornerProgram"):
        self.prog = prog
        # data that overflows here is the kernel's to report, at its first run
        with np.errstate(over="ignore"):
            self.s = 1.0 / np.sqrt(2.0 * prog.d)
        m = prog.G_free.shape[0]
        # the least value of each check: the kernel's -_ROW_TOL on slacks, 0 on multipliers
        self.floor = np.concatenate([np.full(m, -_ROW_TOL), np.zeros(m)])
        # the active sets of the stored laws, as index bytes
        self.stored: set[bytes] = set()
        # the stored rays, each row one ray on the free rows, and -_ROW_TOL*sum(y) of each
        self.rays = (np.empty((0, m)), np.empty(0))
        # the bytes of the stored laws and rays
        self.nbytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.stored)

    def lookup(self, p):
        """``(x, None)`` from the first stored law that holds at p, or None."""
        return self._first(self.laws, p)

    def refute(self, h: np.ndarray):
        """The first stored ray y with ``h'y < -_ROW_TOL*sum(y)`` on free right-hand sides h, or None.

        A right-hand side that is not finite makes a product non-finite, or
        NaN where the ray is 0, and that ray does not answer.
        """
        rays, floor = self.rays
        with np.errstate(over="ignore", invalid="ignore"):
            hy = rays @ h
        held = (hy < floor) & (hy > -_INF)
        if not held.any():
            return None
        return rays[held.argmax()]

    def _room(self, count: int, nbytes: int) -> bool:
        """Whether an item of nbytes fits beside count stored items of its kind."""
        return count < _MAX_LAWS and self.nbytes + nbytes <= _TABLE_BYTES

    def keep(self, ray: np.ndarray) -> None:
        """Store a Farkas ray the kernel returned, while there is room."""
        with self._lock:
            rays, floor = self.rays
            if self._room(rays.shape[0], ray.nbytes):
                self.rays = (np.vstack([rays, ray]), np.append(floor, -_ROW_TOL * ray.sum()))
                self.nbytes += ray.nbytes

    def learn(self, y: np.ndarray, p):
        """Store the law of the active set ``y > 0`` unless known or there is no room; its answer at p or None.

        A degenerate active row may get a multiplier below 0 at p when the
        law recomputes it, by the table's own evaluation, and the law would
        then not hold where it was learned: such rows are dropped, once, and
        the law of the rows left is built and stored under their active set.
        """
        act = np.flatnonzero(y > 0.0)
        key = act.tobytes()
        with self._lock:
            if key in self.stored:
                # stored, and it did not hold at p
                return None
            block = self._block(act)
            y_at = self._multipliers(block, act, p)
            if np.any(y_at < 0.0):
                act = act[~(y_at < 0.0)]
                key = act.tobytes()
                if key in self.stored:
                    return None
                block = self._block(act)
            law = self._law(block)
            nbytes = self._nbytes(law)
            if self._room(len(self), nbytes):
                self.laws = self._with(law)
                self.stored.add(key)
                self.nbytes += nbytes
        return self._first(law, p)

    def _block(self, act: np.ndarray) -> np.ndarray:
        """The block of the law of active set act: one row per check and free corner, one column per term ``(a, b1, b2, ...)``."""
        prog = self.prog
        # the free rows' right-hand sides are rhs @ (1, p)
        rhs = np.column_stack([prog.h0, -prog.P])[~prog.fixed]
        with np.errstate(over="ignore"):
            Gs = prog.G_free * self.s
            w0 = -prog.q * self.s
        GsA = Gs[act]
        # the Gram system, one right-hand side for the constant and one per parameter
        gram_rhs = -rhs[act]
        gram_rhs[:, 0] += GsA @ w0
        y_law = np.linalg.lstsq(GsA @ GsA.T, gram_rhs, rcond=None)[0]
        w_law = -GsA.T @ y_law
        w_law[:, 0] += w0
        full_y = np.zeros(rhs.shape)
        full_y[act] = y_law
        return np.vstack([rhs - Gs @ w_law, full_y, w_law])


class _Law(NamedTuple):
    """One affine law of a :class:`_LawTable`, as maps ``a + b1*z1 + b2*z2`` of the state z.

    It is what a lookup reads of the law's block (:class:`_AffineLaws`),
    and no more.  ``screen`` lists, as plain floats ``(a, b1, b2, floor)``,
    each distinct check column not proven to hold at every state in X, and
    ``point`` the maps onto the free corners, as plain floats
    ``(a, b1, b2, s)``, the corner being ``(a + b1*z1 + b2*z2) * s``.
    """

    screen: tuple[tuple[float, float, float, float], ...]
    point: tuple[tuple[float, float, float, float], ...]


class _LawTable(_AffineLaws):
    """The table of the tube program, whose parameter is a state ``(z1, z2)``; its laws decide by screens on X.

    A law's screen holds every check column whose least value over the state
    box X does not clear the column's floor by a rounding margin,
    ``8*eps*(|a| + |b1|*max|z1| + |b2|*max|z2|)`` over X, which bounds the
    rounding both of that least value and of the column's evaluation at a
    state (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
    Every other column is then at least its floor, in floats, at every state
    in X, so at a state in X a law's screen holds exactly when its full
    check does: the screen's half-planes are the law's region.  The first
    law, in the order they were learned, whose screen holds answers, and
    only that law's corners are computed, in plain floats by the same float
    operations as a pass over its block, so bit for bit the point of the
    first law whose full check holds.  The full check is not run, and the
    block it reads is not kept: it is the reference the tests hold the
    screen to.  Beyond X the screens prove nothing, so no law answers at a
    state outside X, and none is learned from one.

    A lookup locates the state first (point location in explicit MPC,
    Tøndel, Johansen and Bemporad, Automatica 2003): X is cut into a fixed
    grid of ``_GRID`` by ``_GRID`` cells (one cell along a side of zero
    width), each proven over an interval a little wider than itself
    (:func:`_grid_side`), and ``cells`` lists, for each cell, the laws that
    can hold in it, in the order they were learned.  A law is left out of a
    cell when one of its screen's checks, at its largest value over the
    cell plus the rounding margin, is below its floor: the law then fails
    at every state of the cell, in floats.  A listed law is an entry
    ``_Law(cell_screen, point)`` sharing the law's point and check tuples,
    whose screen drops the checks whose least value over the cell less the
    margin clears the floor, the rule above applied over the cell; a check
    whose bound is NaN or infinite is neither dropped nor used to leave a
    law out.  Every cell where a law's whole screen is proved shares one
    entry with no check.  The first entry of a state's cell whose screen
    holds is so the first law whose screen holds, and a lookup answers as a
    walk over every law would, bit for bit.  The index holds at most
    ``_GRID**2 * _MAX_LAWS`` entries, each no longer than its law's screen;
    it is built beside the laws, under the lock, and published by one
    assignment, and the byte bound counts the laws alone.
    """

    def __init__(self, prog: "_CornerProgram", x_bounds: IntervalBox):
        super().__init__(prog)
        # the state box the parameter ranges over, as plain floats (lo1, hi1, lo2, hi2)
        self.bounds = (x_bounds.lo[0], x_bounds.hi[0], x_bounds.lo[1], x_bounds.hi[1])
        self.laws: tuple[_Law, ...] = ()
        lo1, hi1, lo2, hi2 = self.bounds
        (k1, side1), (k2, side2) = _grid_side(lo1, hi1), _grid_side(lo2, hi2)
        # a coordinate's cell index is int((z - lo) * k)
        self.scale = (k1, k2)
        # the ends (lo, hi) of the cells' intervals along each side, one row per cell
        self._ends = (np.array(side1), np.array(side2))
        # (max|z1|, max|z2|) over X, which the rounding margin reads
        self._reach = np.array((max(abs(lo1), abs(hi1)), max(abs(lo2), abs(hi2))))
        # the entries of each cell, one row of cells per index of z1; the
        # index past the last, which only a state on the upper bound can
        # reach, repeats the last cell (see _grid_side)
        row = ((),) * (len(side2) + 1)
        self.cells = (row,) * (len(side1) + 1)

    def lookup(self, p):
        """``(x, None)`` from the first stored law whose screen holds at state p, found through p's cell; or None, as at every state outside X."""
        z1, z2 = p
        lo1, hi1, lo2, hi2 = self.bounds
        # the screens decide only in X
        if not (lo1 <= z1 <= hi1 and lo2 <= z2 <= hi2):
            return None
        k1, k2 = self.scale
        return self._first(self.cells[int((z1 - lo1) * k1)][int((z2 - lo2) * k2)], p)

    def learn(self, y: np.ndarray, p):
        """As :meth:`_AffineLaws.learn` at a state p in X; a state outside X is not learned from and gets None."""
        return super().learn(y, p) if self._covers(p) else None

    def _covers(self, p) -> bool:
        """Whether state p lies in X, where the screens decide."""
        z1, z2 = p
        lo1, hi1, lo2, hi2 = self.bounds
        return lo1 <= z1 <= hi1 and lo2 <= z2 <= hi2

    def _law(self, block: np.ndarray) -> tuple[_Law]:
        n_checks = self.floor.size
        # b one contiguous row per state coordinate, so the margin's product takes one BLAS path
        a, b = block[:n_checks, 0], np.ascontiguousarray(block[:n_checks, 1:].T)
        # the state box, one column per state coordinate
        box = np.array(self.bounds).reshape(2, 2).T
        # each column's least value over the state box, taken at the box corner that minimises it
        least = a + np.minimum(b * box[0, :, None], b * box[1, :, None]).sum(axis=0)
        # clear of the floor by the rounding margin, a column holds in floats all over X;
        # a NaN or infinite column fails the test and is screened
        margin = 8.0 * _EPS * (np.abs(a) + self._reach @ np.abs(b))
        cols = np.flatnonzero(~(least >= self.floor + margin))
        screen = tuple(dict.fromkeys(zip(*block[cols].T.tolist(), self.floor[cols].tolist())))
        return (_Law(screen, tuple(zip(*block[n_checks:].T.tolist(), self.s.tolist()))),)

    def _nbytes(self, law: tuple[_Law]) -> int:
        """The bytes of a law's screen and point: the two tuples, the tuples in them and their floats."""
        inner = [t for part in law[0] for t in part]
        return sum(map(sys.getsizeof, [*law[0], *inner, *(v for t in inner for v in t)]))

    def _with(self, law: tuple[_Law]) -> tuple[_Law, ...]:
        """The stored laws and law, once the cells with law's entries added are published."""
        rows = [list(row) for row in self.cells[:-1]]
        for i, j, entry in self._entries(law[0]):
            rows[i][j] += (entry,)
        for row in rows:
            row[-1] = row[-2]
        cells = tuple(map(tuple, rows))
        self.cells = cells + cells[-1:]
        return self.laws + law

    def _entries(self, law: _Law) -> list[tuple[int, int, _Law]]:
        """``(i, j, entry)`` for each cell (i, j) where law can hold, entry the law with the cell's screen."""
        screen, point = law
        ends1, ends2 = self._ends
        n1, n2 = ends1.shape[0], ends2.shape[0]
        if not screen:
            return [(i, j, law) for i in range(n1) for j in range(n2)]
        checks = np.array(screen)
        a, b1, b2, floor = checks.T
        margin = 8.0 * _EPS * (np.abs(a) + np.abs(checks[:, 1:3]) @ self._reach)
        with np.errstate(all="ignore"):
            # each check's terms at the ends of each cell's interval, one row per cell
            t1 = ends1[:, :, None] * b1
            t2 = ends2[:, :, None] * b2
            # over each cell, each check's least value less the margin and its largest plus the margin
            least = (np.minimum(t1[:, 0], t1[:, 1]) + (a - margin))[:, None] + np.minimum(t2[:, 0], t2[:, 1])
            most = (np.maximum(t1[:, 0], t1[:, 1]) + (a + margin))[:, None] + np.maximum(t2[:, 0], t2[:, 1])
            # a NaN or infinite bound proves nothing either way; a sum that
            # overflows is taken as one
            finite = np.isfinite(least + most)
            fails = (finite & (most < floor)).any(axis=2).ravel()
            kept = ~(finite & (least >= floor)).reshape(n1 * n2, len(screen))
        can_hold = np.flatnonzero(~fails)
        entries: dict[tuple[bool, ...], _Law] = {}
        out = []
        for cell, keep in zip(can_hold.tolist(), kept[can_hold].tolist()):
            key = tuple(keep)
            entry = entries.get(key)
            if entry is None:
                entry = entries[key] = _Law(tuple(itertools.compress(screen, keep)), point)
            out.append((*divmod(cell, n2), entry))
        return out

    def _multipliers(self, block: np.ndarray, act: np.ndarray, p) -> np.ndarray:
        """The multipliers of active set act at p by the law of block, left to right as its screen sums: ``(a + b1*z1) + b2*z2``."""
        cols = block[self.prog.G_free.shape[0] + act]
        with np.errstate(over="ignore", invalid="ignore"):
            return sum((b * pk for b, pk in zip(cols.T[1:], p)), cols[:, 0])

    def _first(self, laws, p):
        """``(x, None)`` from the first of laws whose screen holds at state p in X, x its corners as plain floats; or None."""
        z1, z2 = p
        for screen, point in laws:
            for a, b1, b2, floor in screen:
                # as a pass over the block computes it: (a + b1*z1) + b2*z2
                if not a + b1 * z1 + b2 * z2 >= floor:
                    break
            else:
                return [(a + b1 * z1 + b2 * z2) * s for a, b1, b2, s in point], None
        return None

    def walk(self, z1: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`lookup` over arrays of states in X: whether a stored law answers each, and its corners, one row per state.

        Each state takes the first law, in the order they were learned,
        whose whole screen holds, the walk a cell's entries are proven equal
        to; each law is tried only at the states no earlier law answers.
        Every check and corner is computed by :meth:`_first`'s float
        operations, so a found row has the bits of lookup's x.  numpy's
        overflow and invalid flags are the caller's to silence.
        """
        laws = self.laws
        # each state's law, len(laws) for none, and the states no law has answered yet
        first = np.full(z1.size, len(laws))
        todo = np.arange(z1.size)
        for j, (screen, _) in enumerate(laws):
            if not todo.size:
                break
            a, b1, b2, floor = np.array(screen).reshape(-1, 4).T[..., None]
            held = (a + b1 * z1[todo] + b2 * z2[todo] >= floor).all(axis=0)
            first[todo[held]] = j
            todo = todo[~held]
        found = first < len(laws)
        point = np.array([law.point for law in laws] or np.zeros((1, self.s.size, 4)))[np.where(found, first, 0)]
        x = (point[..., 0] + point[..., 1] * z1[:, None] + point[..., 2] * z2[:, None]) * point[..., 3]
        return found, x


# the cells of the tube table's grid along each side of X of nonzero width
_GRID = 8


def _grid_side(lo: float, hi: float) -> tuple[float, list[tuple[float, float]]]:
    """One side ``[lo, hi]`` of X as grid cells: the scale k, and each cell's interval within ``[lo, hi]``.

    A coordinate z in ``[lo, hi]`` maps to cell ``int((z - lo) * k)``, with
    ``k = n / (hi - lo)`` for n cells of width ``w = (hi - lo) / n``; a side
    of zero width, or one so narrow that k overflows, is one cell, with
    ``k = 0``.  The three roundings of the map, and those of the width and
    of k, each relative to at most ``hi - lo``, put every float z that maps
    to cell i within ``2.5*eps*(hi - lo)`` of ``[lo + i*w, lo + (i+1)*w]``,
    and computing those two ends errs by at most ``1.5*eps*(|lo| + |hi|)``:
    widened by ``8*eps*(|lo| + |hi|)``, twice their sum, and clipped to
    ``[lo, hi]``, where a lookup has put z, the cell's interval holds every
    float z that maps to it.  Rounding up, the map gives ``z = hi`` at most
    the index n, one past the last cell, which the table makes that cell.
    """
    width = hi - lo
    n = _GRID if width > 0.0 and math.isfinite(_GRID / width) else 1
    if n == 1:
        return 0.0, [(lo, hi)]
    w = width / n
    slack = 8.0 * _EPS * (abs(lo) + abs(hi))
    return n / width, [(max(lo, lo + i * w - slack), min(hi, lo + (i + 1) * w + slack)) for i in range(n)]


class _ChainTable(_AffineLaws):
    """The table of a chain program, whose parameter is the end boxes' eight corners; its laws decide by their full check.

    An end-box parameter has no bounded domain to prove a screen over.  The
    laws are kept as their blocks in one C-contiguous stack, shaped
    ``(laws, checks + corners, 1 + len(p))``, and every stored law is
    evaluated at p by one product, ``laws @ (1, *p)``.  numpy computes it
    as one matrix-vector product per law, each of the same shape, so a
    law's check values and point are the same bits in a table of any size
    as alone, a stack of one law, which is how :meth:`learn` evaluates it;
    a flattened or transposed stack would take other BLAS paths, whose
    bits depend on a row's position.  The first law, in the order they
    were learned, whose full check holds answers.  Every program of N
    steps on a problem shares one table.
    """

    def __init__(self, prog: "_CornerProgram"):
        super().__init__(prog)
        # one law per entry, one row per check and per free corner, one column per term
        self.laws = np.empty((0, self.floor.size + prog.d.size, 1 + prog.P.shape[1]))

    def _law(self, block: np.ndarray) -> np.ndarray:
        return block[None]

    def _nbytes(self, law: np.ndarray) -> int:
        return law.nbytes

    def _with(self, law: np.ndarray) -> np.ndarray:
        return np.concatenate([self.laws, law])

    def _multipliers(self, block: np.ndarray, act: np.ndarray, p) -> np.ndarray:
        """The multipliers of active set act at p by the law of block, evaluated as a stack of that law alone."""
        return self._values(self._law(block), p)[0, self.prog.G_free.shape[0] + act]

    @staticmethod
    def _values(laws: np.ndarray, p) -> np.ndarray:
        """The stacked laws at p: one row per law, one column per check and free corner."""
        # a product that overflows makes a check NaN or infinite, and a NaN check fails;
        # a product can raise no other flag that matters, and "all" is the cheaper form
        with np.errstate(all="ignore"):
            return laws @ np.array((1.0, *p))

    def _first(self, laws: np.ndarray, p):
        """``(x, None)`` from the first of the stacked laws whose full check holds at p, or None."""
        vals = self._values(laws, p)
        n_checks = self.floor.size
        held = (vals[:, :n_checks] >= self.floor).all(axis=1).tolist()
        if True not in held:
            return None
        return vals[held.index(True), n_checks:] * self.s, None


class _CornerProgram(NamedTuple):
    """``min sum(d*x**2 + q*x)`` over free box corners x, subject to ``G x <= h0 - P @ p``.

    p is the program's parameter, a tuple of floats: the end boxes' corners
    of a chain, the measured state of a tube.  ``fixed`` marks the rows with
    no free coefficient, and ``G_free`` holds the others.  The fixed rows
    are split when the program is built: ``fixed_min`` is the least
    right-hand side of those p does not enter (``+inf`` if none), and
    ``fixed_rows`` holds the others as plain floats ``(h0, ((k, c), ...))``,
    one pair per nonzero coefficient ``c`` of ``p[k]``, the row holding at p
    when ``h0 - sum(c*p[k]) >= -_FEAS_TOL``.  No value is read from ``d``
    and ``q``.  ``laws`` is the
    program's table, filled as it is solved: the tube's laws, decided by
    screens on X (:class:`_LawTable`), or a chain's, decided by full checks
    (:class:`_ChainTable`).  The invariant box has None.
    """

    d: np.ndarray
    q: np.ndarray
    P: np.ndarray
    h0: np.ndarray
    fixed: np.ndarray
    G_free: np.ndarray
    fixed_min: float
    fixed_rows: tuple[tuple[float, tuple[tuple[int, float], ...]], ...]
    laws: Optional[_LawTable | _ChainTable] = None


def _corner_program(spec: ProblemSpec, d, q, G, P, h0) -> _CornerProgram:
    fixed = ~np.any(G != 0.0, axis=1)
    enters = np.any(P != 0.0, axis=1)
    return _CornerProgram(
        d, q, P, h0, fixed, G[~fixed],
        fixed_min=float(np.min(h0[fixed & ~enters], initial=_INF)),
        fixed_rows=tuple(
            (h0[i].item(), tuple((k, P[i, k].item()) for k in np.flatnonzero(P[i]).tolist()))
            for i in np.flatnonzero(fixed & enters)
        ),
    )


def _stacked_steps(spec: ProblemSpec, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``rows @ c <= h0`` of n_steps chained transitions, c the corners of their n_steps + 1 boxes.

    Each step holds one copy of the rows of :func:`transition_rows`.
    """
    src, tgt, const = transition_rows(spec)
    m = const.size
    rows = np.zeros((n_steps * m, 4 * (n_steps + 1)))
    for k in range(n_steps):
        rows[k * m : (k + 1) * m, 4 * k : 4 * k + 4] = src
        rows[k * m : (k + 1) * m, 4 * k + 4 : 4 * k + 8] = tgt
    return rows, np.tile(const, n_steps)


@lru_cache(maxsize=64)
def _chain_stack(spec: ProblemSpec, n_steps: int) -> _CornerProgram:
    """The N-step tube program over its 4(N-1) free intermediate corners; p is the end boxes' corners.

    It carries an empty table of laws and rays (:class:`_ChainTable`),
    shared by every chain of N steps on the problem, which its solves fill.
    """
    rows, h0 = _stacked_steps(spec, n_steps)
    n_free = n_steps - 1
    prog = _corner_program(
        spec,
        d=np.tile(spec.cost_quad, n_free),
        q=np.tile(spec.cost_linear, n_free),
        G=rows[:, 4:-4],
        P=np.hstack([rows[:, :4], rows[:, -4:]]),
        h0=h0,
    )
    return prog._replace(laws=_ChainTable(prog))


def _solve_program(prog: _CornerProgram, p):
    """A corner program's answer ``(x, y)`` at parameter p.

    x is the minimiser: the kernel's array, a law's array for a chain, or a
    list of plain floats for the tube.  y is its multipliers ``y >= 0`` on
    the free rows, the rows of ``G_free``, when the kernel ran, and None on
    a law answer: multipliers come only from a kernel run.  When the
    program is infeasible x is None, and y is either the index of the most
    violated fixed row, one violated by more than ``_FEAS_TOL`` and so its
    own Farkas ray, or a Farkas ray on the free rows, ``y >= 0`` with
    ``G_free'y = 0`` and ``h'y < 0`` for their right-hand sides
    ``h = h0 - P @ p``: the kernel's, or one its table stored.

    Every program takes one path.  The fixed rows are checked first, as
    split when the program was built: one comparison for the rows p does
    not enter, and the rows it enters evaluated at p in plain floats.  Then
    the first stored law that holds at p answers (:meth:`_AffineLaws.lookup`).
    Only on a miss is h formed; the first stored ray that certifies it
    answers, and otherwise the kernel runs cold, and the table keeps what it
    returns: the ray of an infeasible program, or the law of its active set,
    which answers when it holds at p.  The invariant box, which has no
    table, skips the table's steps.  A right-hand side that overflows to
    ``+inf`` is a row that always holds, and the kernel runs without it; one
    of ``-inf`` or NaN makes the kernel raise SolverFailure.
    """
    if prog.fixed_min < -_FEAS_TOL or _fixed_rows_fail(prog.fixed_rows, p):
        return None, _worst_fixed_row(prog, p)
    laws = prog.laws
    answer = None if laws is None else laws.lookup(p)
    if answer is not None:
        return answer
    with np.errstate(over="ignore", invalid="ignore"):
        h = (prog.h0 - prog.P @ p)[~prog.fixed]
    ray = None if laws is None else laws.refute(h)
    if ray is not None:
        return None, ray
    # a right-hand side that overflowed to +inf is a row that always holds
    kept = h != _INF
    x, y_kept = _dual_active_set(prog.d, prog.q, prog.G_free[kept], h[kept], _ROW_TOL)
    y = np.zeros(h.size)
    y[kept] = y_kept
    if laws is None:
        return x, y
    if x is None:
        laws.keep(y)
        return None, y
    answer = laws.learn(y, p)
    return (x, y) if answer is None else answer


def _fixed_rows_fail(rows, p) -> bool:
    """Whether a row ``(h0, ((k, c), ...))`` of rows is violated at p by more than ``_FEAS_TOL``."""
    for h0, terms in rows:
        lhs = 0.0
        for k, c in terms:
            lhs += c * p[k]
        if h0 - lhs < -_FEAS_TOL:
            return True
    return False


def _fixed_rows_hold(prog: _CornerProgram, p) -> np.ndarray:
    """Whether every fixed row holds at each parameter of p, a tuple of arrays, as :func:`_solve_program` decides it."""
    held = np.full(p[0].shape, not prog.fixed_min < -_FEAS_TOL)
    for h0, terms in prog.fixed_rows:
        lhs = 0.0
        for k, c in terms:
            lhs += c * p[k]
        held &= ~(h0 - lhs < -_FEAS_TOL)
    return held


def _worst_fixed_row(prog: _CornerProgram, p) -> int:
    """The index of the fixed row with the least right-hand side at p, the first of ties."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = prog.h0 - prog.P @ p
    return int(np.where(prog.fixed, h, _INF).argmin())


def _solve_tube(spec: ProblemSpec, prog: _CornerProgram, p, head: tuple, tail: tuple):
    """A corner program's answer at p as ``(head + free boxes + tail, step witnesses, cost)``, or None.

    ``head`` and ``tail`` are tuples of boxes, ``head`` of at most one.  One
    pass in plain floats reads the answer back, decides it and prices it.
    Every free box is the source of a step, so its rows keep it within the
    state bounds and its corners in order, but only to within the kernel's
    rounding guard; it is clipped onto the bounds, with the bits of
    ``np.minimum(np.maximum(x, lo), hi)``, ties and NaN included, so it
    passes exact inclusion tests such as the storage form's domain.  A free
    box whose clipped corners are in order is built without re-validation
    (a NaN fails the order test); any other goes through
    :meth:`~tube_dissip.interval_sets.IntervalBox.from_corners`, which snaps
    an inversion within ``_FEAS_TOL`` and raises ValueError beyond it.  Each
    step is decided by the one core of the one-step rule on the corners of
    its two boxes, the previous box's carried in locals; a refused step
    raises SolverFailure once every box is built, so a box that raises
    ValueError comes first.  ``cost`` is the stage costs of the head and
    free boxes, not the tail's, summed left to right from 0.0 by the one
    core of :func:`~tube_dissip.problem.stage_cost`; callers guard it
    (:func:`_finite_cost`).
    """
    x, _ = _solve_program(prog, p)
    if x is None:
        return None
    if isinstance(x, np.ndarray):
        x = x.tolist()
    step = spec._step
    lo1, hi1, lo2, hi2 = step[5:]
    q, d = spec.cost_linear, spec.cost_quad
    # looked up on the class at each call, where a test may replace it
    trusted = IntervalBox._trusted
    boxes = [*head]
    witnesses = []
    cost = 0.0
    if head:
        # the corners of the box before the next, (c1, c2, c3, c4)
        (box,) = head
        (c1, c3), (c2, c4) = box.lo, box.hi
        cost += _stage_cost(q, d, c1, c2, c3, c4)
    it = iter(x)
    for a1, a2, a3, a4 in zip(it, it, it, it):
        # as np.maximum then np.minimum: a tie takes the bound, and a NaN passes
        a1 = lo1 if a1 <= lo1 else a1
        a1 = hi1 if a1 >= hi1 else a1
        a2 = lo1 if a2 <= lo1 else a2
        a2 = hi1 if a2 >= hi1 else a2
        a3 = lo2 if a3 <= lo2 else a3
        a3 = hi2 if a3 >= hi2 else a3
        a4 = lo2 if a4 <= lo2 else a4
        a4 = hi2 if a4 >= hi2 else a4
        if a1 <= a2 and a3 <= a4:
            box = trusted((a1, a3), (a2, a4))
        else:
            box = IntervalBox.from_corners((a1, a2, a3, a4), snap_tol=_FEAS_TOL)
            (a1, a3), (a2, a4) = box.lo, box.hi
        if boxes:
            witnesses.append(_step_witness(step, c1, c2, c3, c4, a1, a2, a3, a4))
        boxes.append(box)
        cost += _stage_cost(q, d, a1, a2, a3, a4)
        c1, c2, c3, c4 = a1, a2, a3, a4
    for box in tail:
        (a1, a3), (a2, a4) = box.lo, box.hi
        if boxes:
            witnesses.append(_step_witness(step, c1, c2, c3, c4, a1, a2, a3, a4))
        boxes.append(box)
        c1, c2, c3, c4 = a1, a2, a3, a4
    if None in witnesses:
        raise SolverFailure("a step of the minimising tube is not a transition")
    return tuple(boxes), tuple(witnesses), cost


def _read_back(step, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_solve_tube`'s free boxes over rows of corners x: ``(a1, a2, a3, a4)``, one column per box, and whether each row's boxes are built.

    Each corner is clipped onto the state bounds as the pass clips it, and
    every box is snapped as ``IntervalBox.from_corners`` snaps, which leaves
    a box in order as it is; a row with a box still inverted or NaN is one
    whose read-back raises ValueError.
    """
    lo1, hi1, lo2, hi2 = step[5:]
    lo, hi = np.array([lo1, lo1, lo2, lo2]), np.array([hi1, hi1, hi2, hi2])
    x = x.reshape(x.shape[0], -1, 4)
    x = np.where(x <= lo, lo, x)
    a = list(np.where(x >= hi, hi, x).transpose(2, 0, 1))
    for i in (0, 2):
        snap = (a[i + 1] < a[i]) & (a[i] <= a[i + 1] + _FEAS_TOL)
        mid = 0.5 * (a[i] + a[i + 1])
        a[i], a[i + 1] = np.where(snap, mid, a[i]), np.where(snap, mid, a[i + 1])
    return (*a, ((a[0] <= a[1]) & (a[2] <= a[3])).all(axis=1))


@lru_cache(maxsize=64)
def optimal_rci(spec: ProblemSpec) -> tuple[IntervalBox, float]:
    """The self-transition box of minimal stage cost, and that cost.

    A box a is its own successor when the rows of :func:`transition_rows`
    hold with a as source and target, that is ``(src + tgt) @ a <= const``.
    Minimising the stage cost over them is a parameter-free corner program
    with one free box, solved by the same dual active-set method as
    :func:`eval_v`, and priced by its read-back (:func:`_solve_tube`).
    Answers are cached per problem.
    """
    src, tgt, const = transition_rows(spec)
    prog = _corner_program(
        spec,
        d=np.array(spec.cost_quad),
        q=np.array(spec.cost_linear),
        G=src + tgt,
        P=np.zeros((const.size, 0)),
        h0=const,
    )
    solved = _solve_tube(spec, prog, (), (), ())
    if solved is None:
        raise RciNotFound(
            "no robust control invariant interval box exists within the state "
            "bounds (the self-transition problem is infeasible)"
        )
    (box,), _, cost = solved
    return box, _finite_cost(cost)
