"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the code paths they check: the Hausdorff oracle
samples one box densely and measures exact point-to-box distances, the
transition oracle eliminates the control pointwise in the x2 coordinate, the
transition QP oracle hands the edge-control rows to the QP solver, and the
invariant-box oracle is a coarse-to-fine grid search over corner vectors.
"""

from __future__ import annotations

import numpy as np

from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec, build_g_block
from tube_dissip.qp_solver import DEFAULT_SETTINGS, QpBuilder, QpStatus, SolverSettings, solve


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


def transition_feasible_oracle(spec: ProblemSpec, a: IntervalBox, b: IntervalBox) -> bool:
    return transition_margin(spec, a, b) >= 0.0


def transition_feasible_qp(
    spec: ProblemSpec,
    a: IntervalBox,
    b: IntervalBox,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> bool:
    """Decide "b reachable from a" as a feasibility QP in the two edge controls.

    The rows of ``build_g_block`` with a and b fixed go to the QP solver;
    a solve that neither finds a point nor certifies infeasibility fails
    the calling test.
    """
    builder = QpBuilder()
    v = builder.new_vars(2)
    build_g_block(spec, a.corners(), b.corners(), v).install(builder)
    sol = solve(builder.build(), settings)
    assert sol.status in (QpStatus.OPTIMAL, QpStatus.INFEASIBLE), sol.status
    return sol.status is QpStatus.OPTIMAL


def row_violations(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, v) -> list[float]:
    """How far edge controls v violate each row of ``build_g_block``, in the row's own coefficients."""
    out = []
    for row in build_g_block(spec, a.corners(), b.corners(), v).rows:
        s = sum(coef * float(slot) for slot, coef in row.coeffs)
        out.append(max(row.lo - s, s - row.hi, 0.0))
    return out


def transition_feasible_rows(spec: ProblemSpec, a: IntervalBox, b: IntervalBox, tol: float) -> bool:
    """True iff some edge controls violate no row of ``build_g_block`` by more than tol.

    This is the QP solver's acceptance rule, applied row by row.  The rows
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
