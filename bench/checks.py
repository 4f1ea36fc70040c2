"""Output checks for the benchmark, against closed forms or pinned references.

Each check takes the inputs of one operation and the answer the library
returned, and gives back ``None`` when the answer is right or a one-line
reason when it is not.  The references here are written out from the
problem's definition, not taken from the library, so that a change to the
library cannot change what counts as correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog, minimize

# Margins within this distance of zero are boundary cases that either verdict
# may take: the solver resolves rows violated by up to its feasibility
# tolerance (1e-8) as feasible.
BOUNDARY_TOL = 1e-6
VALUE_TOL = 1e-6
FEEDBACK_TOL = 1e-5
REFERENCE_GAP_TOL = 1e-8
# rows of a reference point may be violated by this much (the solver's feasibility tolerance)
ROW_TOL = 1e-8


def stage_cost(spec, corners) -> float:
    q, d = spec.cost_linear, spec.cost_quad
    return sum(q[i] * corners[i] + d[i] * corners[i] ** 2 for i in range(4))


def _bounds_margin(spec, a) -> float:
    """Slack of the source corners against the state bounds and orderings."""
    xb = spec.x_bounds
    a1, a2, a3, a4 = a
    return min(a1 - xb.lo[0], xb.hi[0] - a2, a3 - xb.lo[1], xb.hi[1] - a4, a2 - a1, a4 - a3)


def edge_controls(spec, a, b):
    """Edge controls of one step from a to b: the low end of v1's interval, the high end of v2's.

    This pair leaves the most room in the coupling row, so it is feasible
    whenever the step is.  From a point state ``(z1, z1, z2, z2)`` the two
    are the ends of the window of controls that drive it into b.
    """
    al = spec.alpha
    v1 = max(b[0], spec.u_lo, b[2] - al * a[2] - spec.w_lo)
    v2 = min(b[1], spec.u_hi, b[3] - al * a[3] - spec.w_hi)
    return v1, v2


def transition_margin(spec, a, b) -> float:
    """Signed margin of "b is a one-step successor of a", in closed form.

    With A and B fixed the edge controls range over two intervals,
    ``v1 in [max(b1, u_lo, b3 - alpha*a3 - w_lo), min(b2, u_hi)]`` and
    ``v2 in [max(b1, u_lo), min(b2, u_hi, b4 - alpha*a4 - w_hi)]``, coupled by
    ``v1 - v2 <= alpha*(a4 - a3)``.  Positive means reachable with slack,
    negative means unreachable.
    """
    b1, b2 = b[0], b[1]
    v1_lo, v2_hi = edge_controls(spec, a, b)
    v1_hi = min(b2, spec.u_hi)
    v2_lo = max(b1, spec.u_lo)
    coupling = spec.alpha * (a[3] - a[2]) - (v1_lo - v2_hi)
    return min(v1_hi - v1_lo, v2_hi - v2_lo, coupling, _bounds_margin(spec, a))


def _two_step_rows(spec, a, c):
    """The two-step transition from a to c as rows ``G x <= h``.

    Variables: the middle box's corners m1..m4, the first step's edge controls
    p1 p2 and the second step's q1 q2.
    """
    al, w_lo, w_hi = spec.alpha, spec.w_lo, spec.w_hi
    xb = spec.x_bounds
    a1, a2, a3, a4 = a
    c1, c2, c3, c4 = c
    M1, M2, M3, M4, P1, P2, Q1, Q2 = range(8)
    rows: list[tuple[dict[int, float], float]] = [
        ({M3: 1, P1: -1}, al * a3 + w_lo),
        ({P2: 1, M4: -1}, -al * a4 - w_hi),
        ({P1: 1, P2: -1}, al * (a4 - a3)),
        ({M1: 1, P1: -1}, 0.0), ({P1: 1, M2: -1}, 0.0),
        ({M1: 1, P2: -1}, 0.0), ({P2: 1, M2: -1}, 0.0),
        ({M3: -al, Q1: -1}, w_lo - c3),
        ({M4: al, Q2: 1}, c4 - w_hi),
        ({Q1: 1, Q2: -1, M4: -al, M3: al}, 0.0),
        ({Q1: -1}, -c1), ({Q1: 1}, c2), ({Q2: -1}, -c1), ({Q2: 1}, c2),
        ({M1: -1}, -xb.lo[0]), ({M2: 1}, xb.hi[0]), ({M1: 1, M2: -1}, 0.0),
        ({M3: -1}, -xb.lo[1]), ({M4: 1}, xb.hi[1]), ({M3: 1, M4: -1}, 0.0),
    ]
    for v in (P1, P2, Q1, Q2):
        rows += [({v: -1}, -spec.u_lo), ({v: 1}, spec.u_hi)]
    G = np.zeros((len(rows), 8))
    h = np.empty(len(rows))
    for r, (coeffs, rhs) in enumerate(rows):
        for j, coef in coeffs.items():
            G[r, j] = coef
        h[r] = rhs
    return G, h


def _max_slack(spec, a, c):
    """The point of largest uniform slack of the two-step rows, and that slack.

    An LP solved by HiGHS: each row ``g(x) <= h`` becomes ``g(x) + t <= h``
    and ``t`` (capped at 1) is maximised.
    """
    G, h = _two_step_rows(spec, a, c)
    A = np.hstack([G, np.ones((len(h), 1))])
    cost = np.zeros(9)
    cost[8] = -1.0
    res = linprog(cost, A_ub=A, b_ub=h, bounds=[(None, None)] * 8 + [(None, 1.0)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -res.fun, res.x[:8]


def two_step_margin(spec, a, c) -> float:
    """Largest uniform slack of the two-step transition rows from a to c."""
    return min(_max_slack(spec, a, c)[0], _bounds_margin(spec, a))


def two_step_min(spec, a, c, mid) -> float:
    """Least stage cost ``L(M)`` of a middle box M on a two-step tube from a to c.

    SLSQP (scipy) over the rows of ``_two_step_rows``, started twice: from
    the middle box ``mid`` with its edge controls, and from the LP's point of
    largest slack.  Returns the least cost of the start and end points that
    violate no row by more than ``ROW_TOL`` (``inf`` if none does): an upper
    bound on the true minimum, and the minimum itself once SLSQP converges.
    """
    G, h = _two_step_rows(spec, a, c)
    q = np.array(spec.cost_linear, dtype=float)
    d = np.array(spec.cost_quad, dtype=float)

    def cost(x):
        return float(q @ x[:4] + d @ x[:4] ** 2)

    def grad(x):
        g = np.zeros(8)
        g[:4] = q + 2.0 * d * x[:4]
        return g

    rows = [{"type": "ineq", "fun": lambda x: h - G @ x, "jac": lambda x: -G}]
    starts = [
        np.array([*mid, *edge_controls(spec, a, mid), *edge_controls(spec, mid, c)], dtype=float),
        _max_slack(spec, a, c)[1],
    ]
    best = math.inf
    for x0 in starts:
        res = minimize(cost, x0, jac=grad, method="SLSQP", constraints=rows,
                       options={"ftol": 1e-14, "maxiter": 500})
        for x in (x0, res.x):
            if np.max(G @ x - h) <= ROW_TOL:
                best = min(best, cost(x))
    return best


def check_eval_v1(spec, a, b, value, expect_finite: bool):
    """``V(A,B,1)`` is ``L(A)`` when B is reachable from A and ``+inf`` otherwise."""
    margin = transition_margin(spec, a, b)
    if math.isinf(value):
        if expect_finite:
            return "infinite value on a sampled feasible pair"
        if margin > BOUNDARY_TOL:
            return f"infinite value on a reachable pair (margin {margin:.3g})"
        return None
    if margin < -BOUNDARY_TOL:
        return f"finite value on an unreachable pair (margin {margin:.3g})"
    err = abs(value - stage_cost(spec, a))
    if err > VALUE_TOL:
        return f"value differs from the stage cost L(A) by {err:.3g}"
    return None


def check_eval_v2(spec, a, c, result, expect_finite: bool):
    """Finite two-step values carry a witness tube and are minimal; infinite ones are checked by LP."""
    if math.isinf(result.value):
        if expect_finite:
            return "infinite value on a sampled feasible chain"
        margin = two_step_margin(spec, a, c)
        if margin > BOUNDARY_TOL:
            return f"infinite value on a reachable pair (LP margin {margin:.3g})"
        return None
    tube = [box.corners() for box in result.tube]
    if len(tube) != 3 or tube[0] != tuple(a) or tube[2] != tuple(c):
        return "witness tube does not run from A to C"
    for src, dst in zip(tube[:-1], tube[1:]):
        margin = transition_margin(spec, src, dst)
        if margin < -BOUNDARY_TOL:
            return f"witness step is not a transition (margin {margin:.3g})"
    err = abs(result.value - stage_cost(spec, tube[0]) - stage_cost(spec, tube[1]))
    if err > VALUE_TOL:
        return f"value differs from the witness tube's cost by {err:.3g}"
    excess = result.value - stage_cost(spec, a) - two_step_min(spec, a, c, tube[1])
    if excess > VALUE_TOL:
        return f"value exceeds the reference minimum by {excess:.3g}"
    return None


def separability_unbounded(linear_coeffs) -> bool:
    """The relaxed certificate program is unbounded exactly for these coefficients."""
    l0, l1, l2, l3 = linear_coeffs
    return l0 != 0.0 or l3 != 0.0 or l1 > 0.0 or l2 < 0.0


def separability_min(spec, linear_coeffs) -> float:
    """Closed-form minimum of the relaxed certificate program when it is bounded.

    The optimal targets sit on their rows (``b2 = v1``, ``b3 = alpha*a3 + v1 +
    w_lo``), which leaves a separable quadratic in the source corners, with
    ``a1 <= a2`` the only coupling, plus a linear term in ``v1``.
    """
    _, l1, l2, _ = linear_coeffs
    q, d = spec.cost_linear, spec.cost_quad
    k = (q[0], q[1] + l1, q[2] + l2 * (1.0 - spec.alpha), q[3])
    if -k[0] / (2 * d[0]) <= -k[1] / (2 * d[1]):
        f12 = -k[0] ** 2 / (4 * d[0]) - k[1] ** 2 / (4 * d[1])
    else:
        f12 = -((k[0] + k[1]) ** 2) / (4 * (d[0] + d[1]))
    c_v = -l1 - l2
    return (
        f12
        - k[2] ** 2 / (4 * d[2])
        - k[3] ** 2 / (4 * d[3])
        + min(c_v * spec.u_lo, c_v * spec.u_hi)
        - l2 * spec.w_lo
    )


def check_separability(spec, linear_coeffs, report, v_star: float, reference: bool):
    unbounded = report.unbounded_ray is not None
    if unbounded != separability_unbounded(linear_coeffs):
        return f"verdict {'unbounded' if unbounded else 'bounded'} contradicts the closed-form rule"
    if unbounded:
        return None if not report.passed else "unbounded relaxation reported as passed"
    err = abs(report.qp_min_value - separability_min(spec, linear_coeffs))
    if err > VALUE_TOL:
        return f"certificate minimum differs from the closed form by {err:.3g}"
    if report.passed != (report.gap >= -BOUNDARY_TOL) or abs(report.gap - (report.qp_min_value - v_star)) > VALUE_TOL:
        return "gap or verdict inconsistent with the minimum"
    if reference and abs(report.gap) > REFERENCE_GAP_TOL:
        return f"reference storage gap {report.gap:.3g} exceeds {REFERENCE_GAP_TOL}"
    return None


def storage_min_reference(spec, offset, linear_coeffs) -> float:
    """Minimum of the affine storage form over the vertices of the corner polytope."""
    xb = spec.x_bounds
    best = []
    for dim in range(2):
        lo, hi = xb.lo[dim], xb.hi[dim]
        la, lb = linear_coeffs[2 * dim], linear_coeffs[2 * dim + 1]
        best.append(min(la * x + lb * y for x, y in ((lo, lo), (lo, hi), (hi, hi))))
    return offset + best[0] + best[1]


def check_storage_min(spec, offset, linear_coeffs, value):
    err = abs(value - storage_min_reference(spec, offset, linear_coeffs))
    return None if err <= VALUE_TOL else f"storage minimum differs from the vertex minimum by {err:.3g}"


# the default controller: terminal box X* = [-1, -1] x [-4, 0] and initial cost
# 16 + 1.6*(a3 - a2), the reference storage
TERMINAL_BOX = (-1.0, -1.0, -4.0, 0.0)
REFERENCE_STORAGE = (16.0, (0.0, -1.6, 1.6, 0.0))


def reference_feedback_law(z) -> float:
    """Closed-form feedback of the default instance with the initial cost."""
    z2 = z[1]
    if -5.0 <= z2 <= -4.0:
        return -0.5 * z2 - 3.0
    if -4.0 <= z2 <= 0.0:
        return -1.0
    return -0.5 * z2 - 1.0


def check_control(z, status, u0, u0_interval):
    """Feasible at every state of X, ``u0`` in its window and on the reference law.

    Every window of the default controller is a singleton (1,041 of 1,041
    probed states), so ``u0`` is checked against the law at every state,
    not only where the library reports a singleton window.
    """
    if status.value != "optimal":
        return f"status {status.value} at z={tuple(z)}"
    lo, hi = u0_interval
    if not lo - 1e-12 <= u0 <= hi + 1e-12:
        return f"u0 {u0} outside its window [{lo}, {hi}]"
    err = abs(u0 - reference_feedback_law(z))
    if err > FEEDBACK_TOL:
        return f"u0 differs from the reference law by {err:.3g} at z={tuple(z)}"
    return None


def check_query(spec, z, sol):
    """``check_control``, plus the witness tube behind the answer.

    The tube starts at a box holding z, steps by transitions, ends on the
    terminal box, costs the reported objective under the reference storage,
    and its second box gives the reported window.
    """
    problem = check_control(z, sol.status, sol.u0, sol.u0_interval)
    if problem is not None:
        return problem
    tube = [box.corners() for box in sol.tube]
    a = tube[0]
    if not (a[0] - 1e-9 <= z[0] <= a[1] + 1e-9 and a[2] - 1e-9 <= z[1] <= a[3] + 1e-9):
        return f"first tube box {a} does not hold z={tuple(z)}"
    for src, dst in zip(tube[:-1], tube[1:]):
        margin = transition_margin(spec, src, dst)
        if margin < -BOUNDARY_TOL:
            return f"tube step is not a transition (margin {margin:.3g})"
    if max(abs(x - t) for x, t in zip(tube[-1], TERMINAL_BOX)) > BOUNDARY_TOL:
        return f"tube ends at {tube[-1]}, not on the terminal box"
    offset, lin = REFERENCE_STORAGE
    cost = offset + sum(lin[i] * a[i] for i in range(4)) + sum(stage_cost(spec, box) for box in tube[:-1])
    if abs(sol.objective - cost) > VALUE_TOL:
        return f"objective differs from the tube's cost by {abs(sol.objective - cost):.3g}"
    lo, hi = edge_controls(spec, (z[0], z[0], z[1], z[1]), tube[1])
    if abs(sol.u0_interval[0] - lo) > BOUNDARY_TOL or abs(sol.u0_interval[1] - hi) > BOUNDARY_TOL:
        return f"window {sol.u0_interval} is not the tube's window ({lo}, {hi})"
    return None


def check_sweep(points):
    for p in points:
        problem = check_control(p.z, p.status, p.u0, p.u0_interval)
        if problem is not None:
            return problem
    return None


def check_episode(trace, verdict: str, corner: bool):
    """No episode truncates; the adversarial corner starts are absorbed."""
    if trace.failure_step is not None:
        return f"controller infeasible at step {trace.failure_step}"
    if corner and verdict != "absorbed":
        return f"corner start {trace.y0} has verdict {verdict}"
    return None


def check_criterion(result):
    return None if result.passed else f"criterion {result.key} failed: {result.detail}"
