"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the code paths they check: the Hausdorff oracle
samples one box densely and measures exact point-to-box distances, the
transition oracle eliminates the control pointwise in the x2 coordinate, the
invariant-box oracle is a coarse-to-fine grid search over corner vectors,
and the cost-to-travel, tube and separability QP references assemble the
original programs, edge controls and applied control included, through
``QpBuilder``.  No second solver checks a library answer: an optimum, lifted
into its original program, must pass :func:`kkt_residual`, and an infeasible
verdict must leave the program a margin below 0 by :func:`program_margin`.
``interpolated_control`` turns a step's two edge controls into a control for
every state of its source box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog, nnls

from tube_dissip import cost_to_travel, qp_solver, tube_mpc
from tube_dissip.dissipativity import eval_storage
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec, stage_cost, transition_witness
from tube_dissip.qp_solver import QpBuilder, QpProblem, QpStatus


_INF = float("inf")

# a slot is either a builder variable index (int) or a fixed numeric value
Slot = Union[int, float]


def install_slot_row(builder: QpBuilder, coeffs, lo: float, hi: float) -> None:
    """Install one two-sided row whose terms reference variable or fixed slots.

    Fixed slots fold into the bounds; single-variable rows become box bounds;
    rows with no variables remain as constant feasibility assertions.
    """
    const = 0.0
    terms: dict[int, float] = {}
    for slot, coef in coeffs:
        if isinstance(slot, (int, np.integer)) and not isinstance(slot, bool):
            terms[int(slot)] = terms.get(int(slot), 0.0) + coef
        else:
            const += coef * float(slot)
    lo, hi = lo - const, hi - const
    if not terms:
        builder.add_row({}, lo, hi)
    elif len(terms) == 1:
        ((ix, coef),) = terms.items()
        if coef > 0:
            builder.bound(ix, lo / coef, hi / coef)
        else:
            builder.bound(ix, hi / coef, lo / coef)
    else:
        builder.add_row(terms, lo, hi)


@dataclass(frozen=True)
class GRow:
    """One two-sided row ``lo <= sum(coef * slot) <= hi`` over a/b/v slots."""

    coeffs: tuple[tuple[Slot, float], ...]
    lo: float
    hi: float


@dataclass(frozen=True)
class GConstraintBlock:
    """The linear rows encoding "B is reachable from A" with edge controls v.

    Rows reference slots, each of which is either a builder variable index or
    a fixed value; :meth:`install` resolves fixed slots into constants.  The
    block also carries the source-box state-bound rows, matching the
    convention that the transition constraint set restricts A to the state
    bounds while leaving B free.
    """

    rows: tuple[GRow, ...]

    def install(self, builder: QpBuilder) -> None:
        for row in self.rows:
            install_slot_row(builder, row.coeffs, row.lo, row.hi)

    def has_row(self, coeffs: dict[Slot, float], lo: float, hi: float, tol: float = 1e-12) -> bool:
        """True iff some row equals the given coefficients and bounds."""
        want = {k: v for k, v in coeffs.items() if v != 0.0}
        for row in self.rows:
            got: dict[Slot, float] = {}
            for slot, coef in row.coeffs:
                got[slot] = got.get(slot, 0.0) + coef
            got = {k: v for k, v in got.items() if v != 0.0}
            if set(got) != set(want):
                continue
            if any(abs(got[k] - want[k]) > tol for k in want):
                continue
            lo_ok = (math.isinf(lo) and math.isinf(row.lo)) or abs(row.lo - lo) <= tol
            hi_ok = (math.isinf(hi) and math.isinf(row.hi)) or abs(row.hi - hi) <= tol
            if lo_ok and hi_ok:
                return True
        return False


def build_g_block(
    spec: ProblemSpec,
    a_vars: Sequence[Slot],
    b_vars: Sequence[Slot],
    v_vars: Sequence[Slot],
) -> GConstraintBlock:
    """Rows stating that box b is a one-step successor of box a.

    ``a_vars``/``b_vars`` are the four corner slots of each box, ``v_vars``
    the two edge-control slots.  With w the disturbance bounds and alpha the
    dynamics coefficient the rows are

        b3 <= alpha*a3 + v1 + w_lo
        b4 >= alpha*a4 + v2 + w_hi
        a4 >= (1/alpha)*(v1 - v2) + a3
        b1 <= v1 <= b2,  b1 <= v2 <= b2
        v1, v2 in U
        a within the state bounds (including a1 <= a2, a3 <= a4)
    """
    a1, a2, a3, a4 = a_vars
    b1, b2, b3, b4 = b_vars
    v1, v2 = v_vars
    al = spec.alpha
    xb = spec.x_bounds
    rows = (
        GRow(((b3, 1.0), (a3, -al), (v1, -1.0)), -_INF, spec.w_lo),
        GRow(((a4, al), (v2, 1.0), (b4, -1.0)), -_INF, -spec.w_hi),
        GRow(((v1, 1.0 / al), (v2, -1.0 / al), (a3, 1.0), (a4, -1.0)), -_INF, 0.0),
        GRow(((b1, 1.0), (v1, -1.0)), -_INF, 0.0),
        GRow(((v1, 1.0), (b2, -1.0)), -_INF, 0.0),
        GRow(((b1, 1.0), (v2, -1.0)), -_INF, 0.0),
        GRow(((v2, 1.0), (b2, -1.0)), -_INF, 0.0),
        GRow(((v1, 1.0),), spec.u_lo, spec.u_hi),
        GRow(((v2, 1.0),), spec.u_lo, spec.u_hi),
        GRow(((a1, 1.0),), xb.lo[0], _INF),
        GRow(((a1, 1.0), (a2, -1.0)), -_INF, 0.0),
        GRow(((a2, 1.0),), -_INF, xb.hi[0]),
        GRow(((a3, 1.0),), xb.lo[1], _INF),
        GRow(((a3, 1.0), (a4, -1.0)), -_INF, 0.0),
        GRow(((a4, 1.0),), -_INF, xb.hi[1]),
    )
    return GConstraintBlock(rows=rows)


def _axis_grid(lo: float, hi: float, res: float) -> np.ndarray:
    if hi - lo < res:
        return np.array([lo, hi]) if hi > lo else np.array([lo])
    n = int(np.ceil((hi - lo) / res)) + 1
    return np.linspace(lo, hi, n)


def _point_to_box_dist(x1, x2, box: IntervalBox):
    """Exact max-norm distance from points to a box (vectorized)."""
    d1 = np.maximum(np.maximum(box.lo[0] - x1, x1 - box.hi[0]), 0.0)
    d2 = np.maximum(np.maximum(box.lo[1] - x2, x2 - box.hi[1]), 0.0)
    return np.maximum(d1, d2)


def _directed_hausdorff(a: IntervalBox, b: IntervalBox, res: float) -> float:
    g1 = _axis_grid(a.lo[0], a.hi[0], res)
    g2 = _axis_grid(a.lo[1], a.hi[1], res)
    worst = 0.0
    for x1 in g1:  # row-chunked to keep memory flat
        worst = max(worst, float(np.max(_point_to_box_dist(x1, g2, b))))
    return worst


def hausdorff_sampled(a: IntervalBox, b: IntervalBox, res: float = 1e-3) -> float:
    """Two-sided dense-sampling Hausdorff distance (max-norm), within ~res."""
    return max(_directed_hausdorff(a, b, res), _directed_hausdorff(b, a, res))


def transition_margin(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, n_grid: int = 61) -> float:
    """Signed feasibility margin of "b reachable from a", by x2-wise elimination.

    For each source x2 the admissible controls form one interval; the margin
    is the smallest interval width (negative means empty somewhere), further
    reduced by any violation of the source-box state bounds.  Positive means
    reachable, negative unreachable; magnitudes near zero are boundary cases.
    """
    al = spec.alpha
    b1, b2, b3, b4 = b.corners()
    xs = np.linspace(a.lo[1], a.hi[1], n_grid)
    u_lo = np.maximum(np.maximum(spec.u_lo, b1), b3 - al * xs - spec.w_lo)
    u_hi = np.minimum(np.minimum(spec.u_hi, b2), b4 - al * xs - spec.w_hi)
    margin = float(np.min(u_hi - u_lo))
    xb = spec.x_bounds
    bound_violation = max(
        xb.lo[0] - a.lo[0],
        a.hi[0] - xb.hi[0],
        xb.lo[1] - a.lo[1],
        a.hi[1] - xb.hi[1],
        0.0,
    )
    return margin if bound_violation == 0.0 else min(margin, -bound_violation)


def interpolated_control(a: IntervalBox, v1: float, v2: float, x2: float) -> float:
    """Edge-control interpolation: v1 at the lower x2-edge of A, v2 at the upper.

    This is the constructive witness for "every state of A admits a control":
    states in between the edges use the linear interpolant.
    """
    lo, hi = a.lo[1], a.hi[1]
    if hi <= lo:
        return v1
    t = (x2 - lo) / (hi - lo)
    return v1 + (v2 - v1) * t


def step_witness_reference(step, a1, a2, a3, a4, b1, b2, b3, b4):
    """The one-step rule of ``problem._step_witness`` in its builtin ``max``/``min`` form."""
    al, u_lo, u_hi, w_lo, w_hi, x1_lo, x1_hi, x2_lo, x2_hi = step
    v1_lo = max(b1, u_lo, b3 - al * a3 - w_lo)
    v1_hi = min(b2, u_hi)
    v2_lo = max(b1, u_lo)
    v2_hi = min(b2, u_hi, b4 - al * a4 - w_hi)
    slack = max(
        0.0,
        0.5 * (v1_lo - v1_hi),
        0.5 * (v2_lo - v2_hi),
        (v1_lo - v2_hi - al * (a4 - a3)) / (2.0 + al),
        x1_lo - a1,
        a2 - x1_hi,
        x2_lo - a3,
        a4 - x2_hi,
    )
    if slack > qp_solver._FEAS_TOL:
        return None
    return (v1_lo - slack, v2_hi + slack)


def transition_feasible_oracle(spec: ProblemSpec, a: IntervalBox, b: IntervalBox) -> bool:
    return transition_margin(spec, a, b) >= 0.0


def row_violations(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, v) -> list[float]:
    """How far edge controls v violate each row of ``build_g_block``, in the row's own coefficients."""
    out = []
    for row in build_g_block(spec, a.corners(), b.corners(), v).rows:
        s = sum(coef * float(slot) for slot, coef in row.coeffs)
        out.append(max(row.lo - s, s - row.hi, 0.0))
    return out


def transition_feasible_rows(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, tol: float) -> bool:
    """True iff some edge controls violate no row of ``build_g_block`` by more than tol.

    This is the library's one-step acceptance rule, applied row by row.  The rows
    are read off the block with the edge controls as variable slots 0 and 1:
    rows in one control bound it, the one row in both couples them, and rows
    in neither are checked as constants.
    """
    lo, hi = [-np.inf, -np.inf], [np.inf, np.inf]
    coupling = []
    for row in build_g_block(spec, a.corners(), b.corners(), (0, 1)).rows:
        const = sum(coef * slot for slot, coef in row.coeffs if isinstance(slot, float))
        terms = {slot: coef for slot, coef in row.coeffs if isinstance(slot, int)}
        r_lo, r_hi = row.lo - const - tol, row.hi - const + tol
        if not terms:
            if r_lo > 0.0 or r_hi < 0.0:
                return False
        elif len(terms) == 1:
            ((i, coef),) = terms.items()
            lo[i] = max(lo[i], (r_lo if coef > 0 else r_hi) / coef)
            hi[i] = min(hi[i], (r_hi if coef > 0 else r_lo) / coef)
        else:
            coupling.append((terms, r_lo, r_hi))
    if lo[0] > hi[0] or lo[1] > hi[1]:
        return False
    assert len(coupling) == 1, "the decision below holds for one coupling row"
    terms, r_lo, r_hi = coupling[0]
    least = sum(coef * (lo[i] if coef > 0 else hi[i]) for i, coef in terms.items())
    most = sum(coef * (hi[i] if coef > 0 else lo[i]) for i, coef in terms.items())
    return least <= r_hi and most >= r_lo


def _self_transition_mask(spec: ProblemSpec, A1, A2, A3, A4):
    al = spec.alpha
    u_lo, u_hi = spec.u_bounds
    w_lo, w_hi = spec.w_bounds
    xb = spec.x_bounds
    v1lo = np.maximum(np.maximum(A1, u_lo), A3 - al * A3 - w_lo)
    v1hi = np.minimum(A2, u_hi)
    v2lo = np.maximum(A1, u_lo)
    v2hi = np.minimum(np.minimum(A2, u_hi), A4 - al * A4 - w_hi)
    ok = (v1lo <= v1hi) & (v2lo <= v2hi) & (v1lo - v2hi <= al * (A4 - A3))
    ok &= (A1 >= xb.lo[0]) & (A2 <= xb.hi[0]) & (A3 >= xb.lo[1]) & (A4 <= xb.hi[1])
    ok &= (A1 <= A2) & (A3 <= A4)
    return ok


def _stage_cost_grid(spec: ProblemSpec, A1, A2, A3, A4):
    q = spec.cost_linear
    d = spec.cost_quad
    return (
        q[0] * A1 + q[1] * A2 + q[2] * A3 + q[3] * A4
        + d[0] * A1**2 + d[1] * A2**2 + d[2] * A3**2 + d[3] * A4**2
    )


def grid_rci_search(spec: ProblemSpec) -> tuple[np.ndarray, float]:
    """Coarse-to-fine corner-vector search for the cheapest self-transition box.

    Starts on a 0.5-step grid over the state bounds and refines three times
    around the incumbent, ending at a 0.0005 step.
    """
    center = np.zeros(4)
    half = 5.0
    incumbent, value = None, np.inf
    for half in (5.0, 0.5, 0.05, 0.005):
        axes = [np.linspace(center[i] - half, center[i] + half, 21) for i in range(4)]
        grids = np.meshgrid(*axes, indexing="ij")
        A1, A2, A3, A4 = (g.ravel() for g in grids)
        ok = _self_transition_mask(spec, A1, A2, A3, A4)
        cost = _stage_cost_grid(spec, A1, A2, A3, A4)
        cost[~ok] = np.inf
        i = int(np.argmin(cost))
        if np.isfinite(cost[i]):
            incumbent = np.array([A1[i], A2[i], A3[i], A4[i]])
            value = float(cost[i])
            center = incumbent
    return incumbent, value


def relaxed_certificate_grid_min(spec: ProblemSpec, linear_coeffs, step: float = 0.05) -> float:
    """Grid minimum of ``L(a) + coeffs.a - coeffs.b`` over the relaxed rows.

    Substitutes the optimal target coordinates (b3 at its row bound, b2 at
    the control) and scans the remaining source corners; used to corroborate
    the certificate QP values independently of the solver.
    """
    ell = np.asarray(linear_coeffs, dtype=float)
    # optimal b given (a3, v1): b3 = alpha*a3 + v1 + w_lo if it helps, b2 = v1
    # if it helps; unconstrained coordinates only contribute when their ell
    # coefficient is nonzero, which callers must avoid (unbounded case)
    a_axis = np.arange(-20.0, 20.0 + step, step)
    v_axis = np.arange(spec.u_lo, spec.u_hi + step, step)
    best = np.inf
    q = np.asarray(spec.cost_linear)
    d = np.asarray(spec.cost_quad)
    A3, V1 = np.meshgrid(a_axis, v_axis, indexing="ij")
    b3 = spec.alpha * A3 + V1 + spec.w_lo
    b2 = V1
    tail = ell[2] * A3 - ell[2] * b3 - ell[1] * b2 + q[2] * A3 + d[2] * A3**2
    best_tail = float(np.min(tail))
    # separable one-dimensional minimizations for the remaining coordinates
    a2 = a_axis
    f2 = (q[1] + ell[1]) * a2 + d[1] * a2**2
    a1 = a_axis
    best12 = np.inf
    for i, a1v in enumerate(a1):
        f1 = (q[0] + ell[0]) * a1v + d[0] * a1v**2
        ok = a2 >= a1v
        best12 = min(best12, f1 + float(np.min(f2[ok])))
    a4 = a_axis
    f4 = (q[3] + ell[3]) * a4 + d[3] * a4**2
    return best_tail + best12 + float(np.min(f4))


def tube_qp_reference(spec: ProblemSpec, terminal: IntervalBox, storage, cfg, z, containment: bool) -> QpProblem:
    """The tube controller's QP at state z with its edge controls and applied control, through QpBuilder.

    Variables are the corners of the first ``cfg.horizon`` boxes, with
    ``containment`` the corners of a last box inside the terminal box,
    each step's edge controls (v1, v2) and the applied control u0.  Every
    row goes through ``install_slot_row``, so a row left with one variable
    becomes a bound.
    """
    inf = float("inf")
    z1, z2 = float(z[0]), float(z[1])
    builder = QpBuilder()
    corner_slots = [builder.new_vars(4) for _ in range(cfg.horizon)]
    if containment:
        tail = builder.new_vars(4)
        corner_slots.append(tail)
        t1, t2, t3, t4 = terminal.corners()
        builder.bound(tail[0], t1, inf)
        builder.bound(tail[1], -inf, t2)
        builder.bound(tail[2], t3, inf)
        builder.bound(tail[3], -inf, t4)
        builder.add_row({tail[0]: 1.0, tail[1]: -1.0}, -inf, 0.0)
        builder.add_row({tail[2]: 1.0, tail[3]: -1.0}, -inf, 0.0)
    else:
        corner_slots.append(terminal.corners())
    for k in range(cfg.horizon):
        v = builder.new_vars(2)
        build_g_block(spec, corner_slots[k], corner_slots[k + 1], v).install(builder)
    a0 = corner_slots[0]
    builder.bound(a0[0], -inf, z1)
    builder.bound(a0[1], z1, inf)
    builder.bound(a0[2], -inf, z2)
    builder.bound(a0[3], z2, inf)
    u0 = builder.new_var(spec.u_lo, spec.u_hi)
    b = corner_slots[1]
    install_slot_row(builder, ((b[0], 1.0), (u0, -1.0)), -inf, 0.0)
    install_slot_row(builder, ((u0, 1.0), (b[1], -1.0)), -inf, 0.0)
    install_slot_row(builder, ((b[2], 1.0), (u0, -1.0)), -inf, spec.alpha * z2 + spec.w_lo)
    install_slot_row(builder, ((u0, 1.0), (b[3], -1.0)), -inf, -spec.alpha * z2 - spec.w_hi)
    for k in range(cfg.horizon):
        for i, ix in enumerate(corner_slots[k]):
            builder.add_lin(ix, spec.cost_linear[i])
            builder.add_quad(ix, spec.cost_quad[i])
    if storage is not None:
        builder.add_const(storage.offset)
        for i, ix in enumerate(corner_slots[0]):
            builder.add_lin(ix, storage.linear_coeffs[i])
    return builder.build()


def eval_v_qp_reference(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, n_steps: int) -> QpProblem:
    """The N-step cost-to-travel program with its edge controls, assembled through QpBuilder.

    Variables are the corners of the n_steps - 1 intermediate boxes and each
    step's edge controls (v1, v2); every step installs the rows of
    ``build_g_block``, with a and b fixed.  The objective is ``L(a)`` plus the
    stage costs of the intermediate boxes.
    """
    builder = QpBuilder()
    corner_slots = [a.corners()]
    for _ in range(n_steps - 1):
        corner_slots.append(builder.new_vars(4))
    corner_slots.append(b.corners())
    for k in range(n_steps):
        v = builder.new_vars(2)
        build_g_block(spec, corner_slots[k], corner_slots[k + 1], v).install(builder)
    builder.add_const(stage_cost(spec, a))
    for k in range(1, n_steps):
        for i, ix in enumerate(corner_slots[k]):
            builder.add_lin(ix, spec.cost_linear[i])
            builder.add_quad(ix, spec.cost_quad[i])
    return builder.build()


def program_margin(qp: QpProblem) -> float:
    """Signed feasibility margin of an assembled program, by LP.

    The largest t such that every row and bound of the program holds with
    room t in its own coefficients (t is capped at 1).  Positive means the
    program has a feasible point, negative that it has none, by that much.
    A feasible program whose rows pin a variable has margin 0, such as the
    default tube program at every feasible state, as its terminal box is a
    segment, and a chain whose ends leave a step no room.  So an infeasible verdict is
    checked by a margin below 0, which no feasible program has.
    """
    rows, rhs = [], []
    for mat, vec, signs in ((qp.Ain, qp.bin, (1.0,)), (qp.Aeq, qp.beq, (1.0, -1.0))):
        if mat is not None:
            for sign in signs:
                rows.append(sign * mat)
                rhs.append(sign * vec)
    eye = np.eye(qp.n)
    for vec, sign in ((qp.ub, 1.0), (qp.lb, -1.0)):
        if vec is not None:
            rows.append(sign * eye)
            rhs.append(sign * vec)
    A = np.vstack(rows)
    h = np.concatenate(rhs)
    keep = np.isfinite(h)
    # variables (x, t): maximise t subject to A x + t <= h
    A_t = np.hstack([A[keep], np.ones((int(keep.sum()), 1))])
    c = np.zeros(qp.n + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * qp.n + [(None, 1.0)]
    res = linprog(c, A_ub=A_t, b_ub=h[keep], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1])


def lifted_chain(res) -> np.ndarray:
    """An ``eval_v`` answer as a point of :func:`eval_v_qp_reference`: its middle corners, then each step's edge controls."""
    corners = [c for box in res.tube[1:-1] for c in box.corners()]
    return np.array(corners + [v for pair in res.aux_controls for v in pair])


def lifted_tube(sol, horizon: int, containment: bool) -> np.ndarray:
    """A ``solve_tmpc`` answer as a point of :func:`tube_qp_reference`.

    Its first ``horizon`` boxes' corners, with ``containment`` the terminal
    box's as the last free box, then each step's edge controls and u0.
    """
    boxes = sol.tube[: horizon + 1] if containment else sol.tube[:horizon]
    corners = [c for box in boxes for c in box.corners()]
    return np.array(corners + [v for pair in sol.edge_controls for v in pair] + [sol.u0])


def program_rows(prog) -> np.ndarray:
    """Every row G of a corner program: its free rows ``G_free`` among zero rows at its fixed ones."""
    G = np.zeros((prog.h0.size, prog.G_free.shape[1]))
    G[~prog.fixed] = prog.G_free
    return G


def kernel_answer(prog, p):
    """``(x, y)`` of a cold kernel run on a corner program's free rows at parameter p, with no table."""
    h = prog.h0 - prog.P @ np.asarray(p, dtype=float)
    return qp_solver._dual_active_set(prog.d, prog.q, prog.G_free, h[~prog.fixed], qp_solver._ROW_TOL)


def program_answer(prog, p, answer) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """A corner program's answer ``(x, y)`` at parameter p, over all its rows: ``(h, x, y)``.

    ``h = h0 - P @ p`` holds every right-hand side, and x is an array.  The
    answer's y is scattered onto the free rows, or, when it is the index of
    a violated fixed row, becomes the unit ray on that row; either way
    ``(h, x, y)`` is checked against the whole of ``G``.  A law answer has
    no multipliers, and its y stays None.
    """
    x, y_answer = answer
    h = prog.h0 - prog.P @ np.asarray(p, dtype=float)
    if x is not None:
        x = np.asarray(x, dtype=float)
    if y_answer is None:
        return h, x, None
    y = np.zeros(h.size)
    if isinstance(y_answer, int):
        y[y_answer] = 1.0
    else:
        y[~prog.fixed] = y_answer
    return h, x, y


def count_kernel_runs(monkeypatch):
    """Patch the kernel where the library's programs call it; the returned list gets the arguments of each run."""
    real_kernel = cost_to_travel._dual_active_set
    runs = []

    def counting_kernel(*args):
        runs.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(cost_to_travel, "_dual_active_set", counting_kernel)
    return runs


def row_patterns(m):
    """Multipliers on single rows, then on runs of 2, 3, ... neighbouring rows, as the active sets of laws that fill a table.

    A table stores a pattern's law less the rows it gives a negative
    multiplier at the parameter it is learned at, so patterns share laws;
    runs of rows give more distinct laws than pairs.
    """
    for size in range(1, m + 1):
        for i in range(m - size + 1):
            y = np.zeros(m)
            y[i : i + size] = 1.0
            yield y


def walk_lookup(table, z):
    """A tube table's answer at state z by a walk over every stored law, each on its screen over X, in learned order.

    This is the lookup before the table located states in its cells: None
    outside X, and ``table._first(table.laws, z)`` in X.  A table's cells
    must answer as it does, bit for bit.
    """
    z1, z2 = z
    lo1, hi1, lo2, hi2 = table.bounds
    if not (lo1 <= z1 <= hi1 and lo2 <= z2 <= hi2):
        return None
    return table._first(table.laws, z)


def law_full_check(laws, block, p) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A law's ``(x, y)`` at parameter p by its full check, or None: the reference a law table is held to.

    ``block`` is the law's affine map of a table ``laws``, one row per check
    and free corner and one column per term ``(a, b1, b2, ...)``.  The law
    is evaluated alone, by :func:`law_values`, so a table must give its
    point bit for bit, whatever other laws it holds.
    """
    m, n_checks = laws.prog.G_free.shape[0], laws.floor.size
    vals = law_values(laws, block, p)
    if not np.all(vals[:n_checks] >= laws.floor):
        return None
    return vals[n_checks:] * laws.s, vals[m:n_checks]


def law_values(laws, block, p) -> np.ndarray:
    """Every row of a law's block at parameter p, as the table laws evaluates that law alone.

    A tube law's rows are evaluated each by itself, left to right, as
    ``((a + b1*p1) + b2*p2) + ...``.  A chain law is a stack of one law,
    evaluated by one product ``block[None] @ (1, *p)``, which sums in its
    own order: it must agree with the left-to-right sum within ``2*n*eps``
    times the sum of the terms' magnitudes, for ``n = 1 + len(p)`` terms,
    twice the difference the error bound of a dot product allows each sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
    """
    terms = np.array((1.0, *map(float, p)))
    vals = block[:, 0].copy()
    for b, pk in zip(block[:, 1:].T, terms[1:]):
        vals = vals + b * pk
    if not isinstance(laws, cost_to_travel._ChainTable):
        return vals
    product = (block[None] @ terms)[0]
    bound = 2.0 * terms.size * np.finfo(float).eps * (np.abs(block) @ np.abs(terms))
    assert np.all(np.abs(product - vals) <= bound)
    return product


def law_active_set(laws, y, p) -> np.ndarray:
    """The active set of the law ``laws.learn(y, p)`` builds: the rows ``y > 0`` less those its law gives a multiplier below 0 at p."""
    act = np.flatnonzero(y > 0.0)
    multipliers = law_values(laws, laws._block(act), p)[laws.prog.G_free.shape[0] + act]
    return act[~(multipliers < 0.0)]


def farkas_ray_ok(G: np.ndarray, h: np.ndarray, y: np.ndarray) -> bool:
    """True iff y certifies that ``G x <= h`` has no solution.

    A ray ``y >= 0`` with ``G'y = 0`` (to 1e-9 of its weight) and ``h'y < 0``
    combines the rows into ``0 <= h'y``, which fails.
    """
    weight = float(np.sum(np.abs(y)))
    return (
        bool(np.all(y >= 0.0))
        and weight > 0.0
        and float(np.max(np.abs(G.T @ y), initial=0.0)) <= 1e-9 * weight
        and float(h @ y) < 0.0
    )


def separable_kkt_residual(d, q, G, h, x, y) -> float:
    """KKT residual of x and multipliers y for ``min sum(d*x**2 + q*x)`` s.t. ``G x <= h``."""
    slack = h - G @ x
    return max(
        float(np.max(np.abs(2.0 * d * x + q + G.T @ y), initial=0.0)),
        float(np.max(-slack, initial=0.0)),
        float(np.max(-y, initial=0.0)),
        float(np.max(np.abs(y * slack), initial=0.0)),
    )


def separability_qp_reference(spec: ProblemSpec, linear_coeffs) -> QpProblem:
    """The relaxed separability program, through QpBuilder.

    Variables ``(a, b, v1)``: minimise ``L(a) + ell.a - ell.b`` subject to
    ``b3 <= alpha*a3 + v1 + w_lo``, ``v1 <= b2``, ``a1 <= a2`` and v1 in U.
    """
    ell = linear_coeffs
    builder = QpBuilder()
    a = builder.new_vars(4)
    b = builder.new_vars(4)
    v1 = builder.new_var(spec.u_lo, spec.u_hi)
    builder.add_row({b[2]: 1.0, a[2]: -spec.alpha, v1: -1.0}, -_INF, spec.w_lo)
    builder.add_row({v1: 1.0, b[1]: -1.0}, -_INF, 0.0)
    builder.add_row({a[0]: 1.0, a[1]: -1.0}, -_INF, 0.0)
    for i in range(4):
        builder.add_lin(a[i], spec.cost_linear[i] + ell[i])
        builder.add_quad(a[i], spec.cost_quad[i])
        builder.add_lin(b[i], -ell[i])
    return builder.build()


def inequality_rows(qp: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``G x <= h`` of a QP without equality rows: its inequality rows, then its finite bounds."""
    assert qp.Aeq is None
    eye = np.eye(qp.n)
    G = [qp.Ain] if qp.Ain is not None else []
    h = [qp.bin] if qp.bin is not None else []
    for bound, sign in ((qp.ub, 1.0), (qp.lb, -1.0)):
        if bound is not None:
            finite = np.isfinite(bound)
            G.append(sign * eye[finite])
            h.append(sign * bound[finite])
    return np.vstack(G), np.concatenate(h)


def kkt_residual(qp: QpProblem, x, active_tol: float = 1e-9) -> float:
    """KKT residual of a point x of a QP without equality rows, with multipliers found by NNLS.

    Multipliers ``y >= 0`` go on the rows within ``active_tol`` of holding
    with equality and minimise the stationarity residual ``H x + g + G'y``;
    the result is the larger of that residual and the worst row violation.
    A residual near 0 proves x optimal for a convex QP.
    """
    G, h = inequality_rows(qp)
    slack = h - G @ x
    grad = qp.H @ x + qp.g
    active = slack <= active_tol
    if np.any(active):
        y, _ = nnls(G[active].T, -grad)
        grad = grad + G[active].T @ y
    return max(float(np.max(np.abs(grad), initial=0.0)), float(np.max(-slack, initial=0.0)))


def assert_validated_read_back(spec: ProblemSpec, tube, witnesses) -> None:
    """A read-back tube and its step witnesses are what the validating path gives.

    Every box must equal, field for field and with float corners, the box
    ``IntervalBox.from_corners`` builds from its corners with the snap at
    ``_FEAS_TOL``, and every witness must be ``transition_witness``
    of its step.
    """
    for b in tube:
        want = IntervalBox.from_corners(b.corners(), snap_tol=qp_solver._FEAS_TOL)
        # a slotted box has no __dict__, so its only fields are the two slots, both set
        assert type(b) is IntervalBox and not hasattr(b, "__dict__") and IntervalBox.__slots__ == ("lo", "hi")
        assert all(type(c) is float for c in b.corners()), b
        assert repr((b.lo, b.hi)) == repr((want.lo, want.hi)), b
    steps = zip(tube[:-1], tube[1:])
    assert tuple(witnesses) == tuple(transition_witness(spec, a, b) for a, b in steps)


def read_back_reference(spec: ProblemSpec, x, head, tail):
    """``cost_to_travel._solve_tube``'s read-back of a program answer x, written the plain way.

    The free corners are clipped as ``np.minimum(np.maximum(x, lo), hi)``,
    every free box is built by ``IntervalBox.from_corners`` with the snap at
    ``_FEAS_TOL``, the corner quads of all boxes are listed and each step is
    decided by :func:`step_witness_reference` on consecutive quads.
    """
    if x is None:
        return None
    xb = spec.x_bounds
    n_free = len(x) // 4
    lo = np.tile([xb.lo[0], xb.lo[0], xb.lo[1], xb.lo[1]], n_free)
    hi = np.tile([xb.hi[0], xb.hi[0], xb.hi[1], xb.hi[1]], n_free)
    clipped = np.minimum(np.maximum(np.asarray(x, dtype=float), lo), hi).tolist()
    boxes = list(head)
    for k in range(0, len(clipped), 4):
        boxes.append(IntervalBox.from_corners(clipped[k : k + 4], snap_tol=qp_solver._FEAS_TOL))
    boxes += tail
    quads = [b.corners() for b in boxes]
    witnesses = []
    for a, b in zip(quads, quads[1:]):
        witness = step_witness_reference(spec._step, *a, *b)
        if witness is None:
            raise qp_solver.SolverFailure("a step of the minimising tube is not a transition")
        witnesses.append(witness)
    return tuple(boxes), tuple(witnesses)


def window_reference(spec: ProblemSpec, b: IntervalBox, z2: float) -> tuple[float, float]:
    """``tube_mpc._window`` in its builtin ``max``/``min`` form."""
    al, u_lo, u_hi, w_lo, w_hi = spec._step[:5]
    lo = max(b.lo[0], b.lo[1] - al * z2 - w_lo, u_lo)
    hi = min(b.hi[0], b.hi[1] - al * z2 - w_hi, u_hi)
    return lo, hi


def state_in_bounds_reference(spec: ProblemSpec, z) -> Optional[tuple[float, float]]:
    """The state ``solve_tmpc`` solves at for z, by builtin ``max``/``min``; None beyond the band."""
    z1, z2 = float(z[0]), float(z[1])
    xb = spec.x_bounds
    if max(xb.lo[0] - z1, z1 - xb.hi[0], xb.lo[1] - z2, z2 - xb.hi[1]) > qp_solver._FEAS_TOL:
        return None
    return min(max(z1, xb.lo[0]), xb.hi[0]), min(max(z2, xb.lo[1]), xb.hi[1])


def solve_tmpc_reference(spec: ProblemSpec, cfg, z, x):
    """The ``TubeSolution`` fields of ``solve_tmpc`` at z, from the program answer x the solve got, the plain way.

    ``(status, tube, u0, objective, u0_interval, edge_controls)``: the
    read-back of :func:`read_back_reference`, the cost by
    ``cost_to_travel._tube_cost``, the window of :func:`window_reference`,
    and ``u0 = min(max(0.0, lo), hi)``.
    """
    state = state_in_bounds_reference(spec, z)
    controller = tube_mpc._controller(spec, cfg)
    solved = None if state is None else read_back_reference(spec, x, (), (controller.terminal,))
    if solved is None:
        return (QpStatus.INFEASIBLE, None, None, None, None, None)
    tube, edge_controls = solved
    storage = controller.storage
    initial = 0.0 if storage is None else eval_storage(storage, spec, tube[0])
    objective = cost_to_travel._tube_cost(spec, tube[:-1], initial)
    lo, hi = window_reference(spec, tube[1], state[1])
    if lo > hi:
        if lo - hi > qp_solver._FEAS_TOL:
            raise qp_solver.SolverFailure("empty control window for the optimal tube")
        lo = hi = 0.5 * (lo + hi)
    return (QpStatus.OPTIMAL, tube, min(max(0.0, lo), hi), objective, (lo, hi), edge_controls)


def float_bits(value):
    """value with every float in it, nested in tuples, lists and boxes, as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, IntervalBox):
        return ("box", float_bits(value.lo), float_bits(value.hi))
    if isinstance(value, (tuple, list)):
        return tuple(float_bits(v) for v in value)
    return value
