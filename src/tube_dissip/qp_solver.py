"""Dense convex QP solver with KKT certification.

Solves

    min  1/2 x' H x + g' x + c0
    s.t. Aeq x = beq,  Ain x <= bin,  lb <= x <= ub

for small dense problems with positive semidefinite H.  The algorithm is an
operator-splitting (ADMM) iteration on the stacked row form ``l <= A x <= u``
with a direct active-set polish step: once the iterates are roughly converged
the active rows are identified, the equality-constrained KKT system is solved
by least squares, and multipliers are recovered by nonnegative least squares.
A polished solution is accepted only if the full KKT residual passes the
solver tolerance, so an ``OPTIMAL`` status always carries a certificate.

The ADMM system matrix is LU-factored once per rho value; each iteration is
one LAPACK ``getrs`` solve.
All data must be finite: :class:`QpProblem` rejects NaN anywhere and every
infinity except the vacuous ones (``-inf`` in ``lb``, ``+inf`` in ``ub`` and
``bin``).

Primal infeasibility and unboundedness are detected from the divergence
certificates of the ADMM iterates (the standard operator-splitting tests on
the successive dual / primal differences).

The library's own programs do not go through :func:`solve`.  Every one of
them that needs a solver (multi-step cost-to-travel values, the optimal
invariant box and the tube MPC program) has a positive diagonal Hessian and
inequality rows only, and goes to the private dense dual active-set kernel
:func:`_dual_active_set`, which is exact, ends in finitely many steps and
returns either multipliers or a Farkas ray.  It always starts cold, at the
unconstrained minimiser; the multi-step and tube MPC programs call it only
when none of the affine laws they have kept from earlier answers holds at
their parameter and none of the Farkas rays they have kept certifies it
infeasible (``cost_to_travel._solve_program``).
:func:`solve` and :class:`QpBuilder` remain as an independent reference
solver: the tests assemble the original programs, edge controls included,
through them.  Only they need scipy, which they import on first use, so
importing the package does not load it.

Neither method has settings.  Every row check of the library, :func:`solve`
included, reads ``_FEAS_TOL``; the library runs the kernel at ``_ROW_TOL``.
ADMM stops after ``_STEP_LIMIT`` iterations with ``MAX_ITERATIONS``, and the
kernel raises :class:`SolverFailure` with its program after ``_STEP_LIMIT``
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "QpStatus",
    "QpProblem",
    "QpSolution",
    "QpBuilder",
    "SolverFailure",
    "solve",
    "verify_kkt",
]

_INF = float("inf")


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max_iterations"


class SolverFailure(RuntimeError):
    """Raised when a solve does not terminate with a usable status.

    ``problem`` holds the data of the failed program when the raiser has it.
    """

    def __init__(self, message: str, problem: Optional[dict] = None):
        super().__init__(message)
        self.problem = problem


# the amount by which a row may be violated and still count as holding
_FEAS_TOL = 1e-8
# the kernel's row tolerance, 1e-11: a rounding guard far inside _FEAS_TOL,
# so each step of a minimiser still passes the one-step rule after the snap
_ROW_TOL = 1e-3 * _FEAS_TOL
# the most ADMM iterations of a solve and the most steps of a kernel run
_STEP_LIMIT = 10000

# ADMM's fixed parameters: proximal weight, relaxation, initial step (scaled
# up on equality rows), residual check cadence, divergence-certificate
# tolerance and the KKT residual an OPTIMAL answer must meet
_SIGMA = 1e-6
_ALPHA = 1.6
_RHO = 1.0
_RHO_EQ_SCALE = 1e3
_CHECK_EVERY = 25
_CERT_TOL = 1e-10
_KKT_TOL = 1e-8
# residual levels at which an active-set polish is attempted; the polish
# self-verifies against _KKT_TOL, so these only trade attempt frequency
# against iteration count
_POLISH_GATE_PRIM = 1e-1
_POLISH_GATE_DUAL = 1e0


@dataclass(frozen=True)
class QpProblem:
    """Dense convex QP data.  Missing blocks are passed as ``None``."""

    H: np.ndarray
    g: np.ndarray
    c0: float = 0.0
    Aeq: Optional[np.ndarray] = None
    beq: Optional[np.ndarray] = None
    Ain: Optional[np.ndarray] = None
    bin: Optional[np.ndarray] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        n = g.size
        if H.shape != (n, n):
            raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite")
        if np.max(np.abs(H - H.T), initial=0.0) > 1e-12:
            raise ValueError("H must be symmetric within 1e-12")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        for mat_name, vec_name in (("Aeq", "beq"), ("Ain", "bin")):
            mat = getattr(self, mat_name)
            vec = getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise ValueError(f"{mat_name} and {vec_name} must be given together")
            if mat is not None:
                mat = np.atleast_2d(np.asarray(mat, dtype=float))
                vec = np.asarray(vec, dtype=float).ravel()
                if mat.shape != (vec.size, n):
                    raise ValueError(f"{mat_name} has shape {mat.shape}, expected ({vec.size}, {n})")
                object.__setattr__(self, mat_name, mat)
                object.__setattr__(self, vec_name, vec)
        for name in ("lb", "ub"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float).ravel()
                if v.size != n:
                    raise ValueError(f"{name} has length {v.size}, expected {n}")
                object.__setattr__(self, name, v)
        # non-finite data is rejected here, so the solver never sees it:
        # only the vacuous infinities (-inf in lb, +inf in ub and bin) pass
        if not np.isfinite(self.c0):
            raise ValueError("c0 must be finite")
        for name in ("g", "Aeq", "beq", "Ain"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        for name, bad in (("lb", _INF), ("ub", -_INF), ("bin", -_INF)):
            v = getattr(self, name)
            if v is not None and (np.any(np.isnan(v)) or np.any(v == bad)):
                raise ValueError(f"{name} must not contain NaN or {bad}")
        if self.lb is not None and self.ub is not None and np.any(self.lb > self.ub):
            raise ValueError("lb must be <= ub componentwise")

    @property
    def n(self) -> int:
        return self.g.size

    def objective_value(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.g @ x + self.c0)


@dataclass(frozen=True)
class QpSolution:
    status: QpStatus
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    eq_multipliers: Optional[np.ndarray] = None
    ineq_multipliers: Optional[np.ndarray] = None
    lb_multipliers: Optional[np.ndarray] = None
    ub_multipliers: Optional[np.ndarray] = None
    kkt_residual: Optional[float] = None
    iterations: int = 0
    polished: bool = False
    infeasibility_certificate: Optional[dict] = None
    unbounded_ray: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# stacked row form


class _RowForm:
    """Internal ``l <= A x <= u`` stacking of eq rows, ineq rows, and bounds."""

    def __init__(self, qp: QpProblem):
        n = qp.n
        blocks, lows, highs = [], [], []
        self.n_eq = 0 if qp.Aeq is None else qp.beq.size
        self.n_in = 0 if qp.Ain is None else qp.bin.size
        if qp.Aeq is not None:
            blocks.append(qp.Aeq)
            lows.append(qp.beq)
            highs.append(qp.beq)
        if qp.Ain is not None:
            blocks.append(qp.Ain)
            lows.append(np.full(self.n_in, -_INF))
            highs.append(qp.bin)
        lb = qp.lb if qp.lb is not None else np.full(n, -_INF)
        ub = qp.ub if qp.ub is not None else np.full(n, _INF)
        self.bounded = np.where(np.isfinite(lb) | np.isfinite(ub))[0]
        if self.bounded.size:
            eye = np.zeros((self.bounded.size, n))
            eye[np.arange(self.bounded.size), self.bounded] = 1.0
            blocks.append(eye)
            lows.append(lb[self.bounded])
            highs.append(ub[self.bounded])
        if blocks:
            self.A = np.vstack(blocks)
            self.l = np.concatenate(lows)
            self.u = np.concatenate(highs)
        else:
            self.A = np.zeros((0, n))
            self.l = np.zeros(0)
            self.u = np.zeros(0)
        self.m = self.A.shape[0]
        self.eq_mask = np.zeros(self.m, dtype=bool)
        self.eq_mask[: self.n_eq] = True
        # the polish's view of the rows, fixed for the whole solve
        self.pinned = (self.u - self.l) < 1e-14
        self.l_finite = np.isfinite(self.l)
        self.u_finite = np.isfinite(self.u)
        self.l_scale = 1.0 + np.where(self.l_finite, np.abs(self.l), 0.0)
        self.u_scale = 1.0 + np.where(self.u_finite, np.abs(self.u), 0.0)

    def split_multipliers(self, y: np.ndarray, n: int):
        """Map row duals to (eq, ineq, lb, ub) block multipliers."""
        lam = y[: self.n_eq].copy()
        mu = np.maximum(y[self.n_eq : self.n_eq + self.n_in], 0.0)
        mu_lb = np.zeros(n)
        mu_ub = np.zeros(n)
        yb = y[self.n_eq + self.n_in :]
        mu_ub[self.bounded] = np.maximum(yb, 0.0)
        mu_lb[self.bounded] = np.maximum(-yb, 0.0)
        return lam, mu, mu_lb, mu_ub


# ---------------------------------------------------------------------------
# KKT residual


def _kkt_residual(qp: QpProblem, x, lam, mu, mu_lb, mu_ub) -> float:
    n = qp.n
    grad = qp.H @ x + qp.g
    if qp.Aeq is not None and lam is not None:
        grad = grad + qp.Aeq.T @ lam
    if qp.Ain is not None and mu is not None:
        grad = grad + qp.Ain.T @ mu
    if mu_ub is not None:
        grad = grad + mu_ub
    if mu_lb is not None:
        grad = grad - mu_lb
    res = float(np.max(np.abs(grad), initial=0.0))
    if qp.Aeq is not None:
        res = max(res, float(np.max(np.abs(qp.Aeq @ x - qp.beq), initial=0.0)))
    if qp.Ain is not None:
        slack = qp.bin - qp.Ain @ x
        res = max(res, float(np.max(-slack, initial=0.0)))
        if mu is not None:
            fin = np.isfinite(qp.bin)
            res = max(res, float(np.max(-mu, initial=0.0)))
            res = max(res, float(np.max(np.abs(mu[fin] * slack[fin]), initial=0.0)))
            res = max(res, float(np.max(mu[~fin], initial=0.0)))
    if qp.ub is not None and mu_ub is not None:
        s = qp.ub - x
        fin = np.isfinite(qp.ub)
        res = max(res, float(np.max(-s[fin], initial=0.0)))
        res = max(res, float(np.max(np.abs(mu_ub[fin] * s[fin]), initial=0.0)))
        res = max(res, float(np.max(mu_ub[~fin], initial=0.0)))
    if qp.lb is not None and mu_lb is not None:
        s = x - qp.lb
        fin = np.isfinite(qp.lb)
        res = max(res, float(np.max(-s[fin], initial=0.0)))
        res = max(res, float(np.max(np.abs(mu_lb[fin] * s[fin]), initial=0.0)))
        res = max(res, float(np.max(mu_lb[~fin], initial=0.0)))
    return res


def verify_kkt(qp: QpProblem, sol: QpSolution, tol: float) -> bool:
    """Recompute all KKT residuals of an Optimal solution from its multipliers."""
    if sol.status is not QpStatus.OPTIMAL:
        raise ValueError("verify_kkt expects an Optimal solution")
    return (
        _kkt_residual(
            qp,
            sol.x,
            sol.eq_multipliers,
            sol.ineq_multipliers,
            sol.lb_multipliers,
            sol.ub_multipliers,
        )
        <= tol
    )


# ---------------------------------------------------------------------------
# polish


def _active_masks(rows: _RowForm, z, y, slack_tol, dual_tol):
    """Rows the polish treats as active at their lower / upper bound."""
    free = ~rows.pinned
    low = free & ((y < -dual_tol) | (z - rows.l < slack_tol * rows.l_scale)) & rows.l_finite
    upp = free & ((y > dual_tol) | (rows.u - z < slack_tol * rows.u_scale)) & rows.u_finite
    both = low & upp
    low &= ~(both & (y >= 0))
    upp &= ~(both & (y < 0))
    return low, upp


def _try_polish(H, g, rows: _RowForm, low, upp):
    """Solve the KKT system of one active set; None if it does not verify."""
    from scipy.optimize import nnls  # only the ADMM reference solver needs scipy

    A, l, u, eq = rows.A, rows.l, rows.u, rows.pinned
    n = H.shape[0]
    m = A.shape[0]
    act = np.where(low | upp | eq)[0]
    k = act.size
    b_act = np.where(eq[act] | upp[act], u[act], l[act])
    Aa = A[act]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = Aa.T
    kkt[n:, :n] = Aa
    rhs = np.concatenate([-g, b_act])
    sol_vec, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    xp = sol_vec[:n]
    if not np.all(np.isfinite(xp)):
        return None
    Ax = A @ xp
    viol = max(np.max(Ax - u, initial=0.0), np.max(l - Ax, initial=0.0))
    if viol > _FEAS_TOL:
        return None
    if k and np.max(np.abs(Aa @ xp - b_act)) > 10 * _FEAS_TOL:
        return None
    if k:
        # multipliers via NNLS: flip lower-active columns, split equality
        # columns into +/- so every coefficient is sign-constrained >= 0
        sign = np.where(upp[act], 1.0, np.where(eq[act], 1.0, -1.0))
        cols = Aa.T * sign
        eq_act = eq[act]
        if np.any(eq_act):
            cols = np.hstack([cols, -Aa.T[:, eq_act]])
        mu_nn, _ = nnls(cols, -(H @ xp + g))
        y_act = sign * mu_nn[:k]
        if np.any(eq_act):
            y_act[eq_act] -= mu_nn[k:]
        stat = float(np.max(np.abs(H @ xp + g + Aa.T @ y_act), initial=0.0))
    else:
        y_act = np.zeros(0)
        stat = float(np.max(np.abs(H @ xp + g), initial=0.0))
    if stat > _FEAS_TOL:
        return None
    y_full = np.zeros(m)
    y_full[act] = y_act
    return xp, y_full


# ---------------------------------------------------------------------------
# main solve


def _factor(H, A, rho):
    import scipy.linalg as sla  # only the ADMM reference solver needs scipy

    n = H.shape[0]
    m = A.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H + _SIGMA * np.eye(n)
    kkt[:n, n:] = A.T
    kkt[n:, :n] = A
    kkt[n:, n:] = -np.diag(1.0 / rho)
    return sla.lu_factor(kkt)


def solve(qp: QpProblem) -> QpSolution:
    """Solve a dense convex QP, returning a KKT-certified solution."""
    from scipy.linalg.lapack import dgetrs  # only the ADMM reference solver needs scipy

    rows = _RowForm(qp)
    n, m = qp.n, rows.m
    A, l, u = rows.A, rows.l, rows.u

    if m == 0:
        return _solve_unconstrained(qp)

    # constant rows (all-zero coefficients) are decided immediately
    zero_rows = ~np.any(A != 0.0, axis=1)
    if np.any(zero_rows):
        bad = zero_rows & ((l > _FEAS_TOL) | (u < -_FEAS_TOL))
        if np.any(bad):
            i = int(np.where(bad)[0][0])
            ray = np.zeros(m)
            ray[i] = 1.0 if u[i] < 0 else -1.0
            lam, mu, mu_lb, mu_ub = rows.split_multipliers(ray, n)
            return QpSolution(
                status=QpStatus.INFEASIBLE,
                infeasibility_certificate={"eq": lam, "ineq": mu, "lb": mu_lb, "ub": mu_ub},
            )

    rho = np.where(rows.eq_mask, _RHO_EQ_SCALE * _RHO, _RHO)
    lu, piv = _factor(qp.H, A, rho)

    x = np.zeros(n)
    z = np.clip(A @ x, l, u)
    y = np.zeros(m)
    check_every = min(_CHECK_EVERY, 10) if n + m < 40 else _CHECK_EVERY

    for it in range(1, _STEP_LIMIT + 1):
        y_rho = y / rho
        # LAPACK getrs on the factors: lu_solve would only add input checks,
        # and QpProblem is checked finite up front
        rhs = np.concatenate([_SIGMA * x - qp.g, z - y_rho])
        sol_vec, _ = dgetrs(lu, piv, rhs)
        x_t = sol_vec[:n]
        nu = sol_vec[n:]
        z_t = z + (nu - y) / rho
        x_new = _ALPHA * x_t + (1.0 - _ALPHA) * x
        z_rel = _ALPHA * z_t + (1.0 - _ALPHA) * z
        z_new = np.minimum(np.maximum(z_rel + y_rho, l), u)
        y_new = y + rho * (z_rel - z_new)

        if it % check_every and it != _STEP_LIMIT:
            x, z, y = x_new, z_new, y_new
            continue

        # the step differences are read only by the divergence certificates
        dx = x_new - x
        dy = y_new - y
        x, z, y = x_new, z_new, y_new

        r_prim = float(np.max(np.abs(A @ x - z), initial=0.0))
        r_dual = float(np.max(np.abs(qp.H @ x + qp.g + A.T @ y), initial=0.0))

        if r_prim < _POLISH_GATE_PRIM and r_dual < _POLISH_GATE_DUAL:
            for st, dt in ((1e-6, 1e-6), (1e-5, 1e-7), (1e-4, 1e-5)):
                low, upp = _active_masks(rows, z, y, st, dt)
                pol = _try_polish(qp.H, qp.g, rows, low, upp)
                if pol is None:
                    continue
                xp, yp = pol
                lam, mu, mu_lb, mu_ub = rows.split_multipliers(yp, n)
                res = _kkt_residual(qp, xp, lam, mu, mu_lb, mu_ub)
                if res <= _KKT_TOL:
                    return QpSolution(
                        status=QpStatus.OPTIMAL,
                        x=xp,
                        objective=qp.objective_value(xp),
                        eq_multipliers=lam,
                        ineq_multipliers=mu,
                        lb_multipliers=mu_lb,
                        ub_multipliers=mu_ub,
                        kkt_residual=res,
                        iterations=it,
                        polished=True,
                    )

        if r_prim < _FEAS_TOL and r_dual < _KKT_TOL:
            lam, mu, mu_lb, mu_ub = rows.split_multipliers(y, n)
            res = _kkt_residual(qp, x, lam, mu, mu_lb, mu_ub)
            if res <= 10 * _KKT_TOL:
                return QpSolution(
                    status=QpStatus.OPTIMAL,
                    x=x.copy(),
                    objective=qp.objective_value(x),
                    eq_multipliers=lam,
                    ineq_multipliers=mu,
                    lb_multipliers=mu_lb,
                    ub_multipliers=mu_ub,
                    kkt_residual=res,
                    iterations=it,
                )

        cert = _primal_infeasibility_cert(A, l, u, dy, _CERT_TOL)
        if cert is not None:
            lam, mu, mu_lb, mu_ub = rows.split_multipliers(cert, n)
            return QpSolution(
                status=QpStatus.INFEASIBLE,
                iterations=it,
                infeasibility_certificate={"eq": lam, "ineq": mu, "lb": mu_lb, "ub": mu_ub},
            )
        ray = _dual_infeasibility_cert(qp.H, qp.g, A, l, u, dx, _CERT_TOL)
        if ray is not None:
            return QpSolution(status=QpStatus.UNBOUNDED, iterations=it, unbounded_ray=ray)

        # residual-balancing rho update on the inequality rows
        if it % 100 == 0 and it < _STEP_LIMIT // 2:
            ratio = r_prim / max(r_dual, 1e-12)
            if ratio > 5.0 or ratio < 0.2:
                scale = float(np.clip(np.sqrt(ratio), 0.1, 10.0))
                rho = np.where(rows.eq_mask, rho, np.clip(rho * scale, 1e-4, 1e4))
                lu, piv = _factor(qp.H, A, rho)

    return QpSolution(status=QpStatus.MAX_ITERATIONS, x=x.copy(), iterations=_STEP_LIMIT)


def _solve_unconstrained(qp: QpProblem) -> QpSolution:
    x, *_ = np.linalg.lstsq(qp.H, -qp.g, rcond=None)
    grad = qp.H @ x + qp.g
    if np.max(np.abs(grad), initial=0.0) > _KKT_TOL:
        # residual of the least-squares solve lies in the null space of H
        return QpSolution(status=QpStatus.UNBOUNDED, unbounded_ray=-grad)
    return QpSolution(
        status=QpStatus.OPTIMAL,
        x=x,
        objective=qp.objective_value(x),
        eq_multipliers=None,
        ineq_multipliers=None,
        lb_multipliers=np.zeros(qp.n),
        ub_multipliers=np.zeros(qp.n),
        kkt_residual=float(np.max(np.abs(grad), initial=0.0)),
    )


def _primal_infeasibility_cert(A, l, u, dy, tol):
    scale = float(np.max(np.abs(dy), initial=0.0))
    if scale <= 1e-12:
        return None
    v = dy / scale
    pos = v > tol
    neg = v < -tol
    if not (np.all(np.isfinite(u[pos])) and np.all(np.isfinite(l[neg]))):
        return None
    support = float(np.sum(u[pos] * v[pos]) + np.sum(l[neg] * v[neg]))
    # the ray certifies that every point violates some row by at least
    # -support / ||v||_1; only declare infeasibility beyond the feasibility
    # tolerance, so marginal problems resolve as feasible, not infeasible
    l1 = float(np.sum(np.abs(v)))
    if support < -(_FEAS_TOL * l1 + tol) and float(np.max(np.abs(A.T @ v), initial=0.0)) < tol:
        return v
    return None


def _dual_infeasibility_cert(H, g, A, l, u, dx, tol):
    scale = float(np.max(np.abs(dx), initial=0.0))
    if scale <= 1e-12:
        return None
    w = dx / scale
    if float(np.max(np.abs(H @ w), initial=0.0)) >= tol or g @ w >= -tol:
        return None
    Aw = A @ w
    if np.all(Aw[np.isfinite(u)] < tol) and np.all(Aw[np.isfinite(l)] > -tol):
        return w
    return None


# ---------------------------------------------------------------------------
# dual active-set kernel for separable strictly convex QPs


def _dual_active_set(d, q, G, h, tol):
    """Minimise ``sum(d*x**2 + q*x)`` subject to ``G x <= h``, for ``d > 0``.

    The dual active-set method of Goldfarb and Idnani (Math. Prog. 1983).  In
    the variables ``w = sqrt(2d)*x`` the Hessian is the identity.  The iterate
    starts at the unconstrained minimiser ``-q/(2d)`` with no row active and
    stays optimal on its active rows, whose normals stay linearly
    independent.  Each step takes the most violated row p and raises its
    multiplier until p holds (p joins the active set), or until an active
    multiplier reaches zero (that row leaves it).  The dual value grows at
    every join, so the method ends in finitely many steps.  If p lies in the
    span of active rows that can only gain weight, the rows are
    inconsistent.  Rows violated by at most ``tol`` count as holding.

    Returns ``(x, y)``: the minimiser and its multipliers ``y >= 0``, or
    ``(None, y)`` with a Farkas ray ``y >= 0``, ``G'y = 0`` and
    ``h'y < -tol*sum(y)``, which certifies that the rows stay inconsistent
    when each is relaxed by ``tol``.  Raises :class:`SolverFailure`, carrying
    ``d``, ``q``, ``G``, ``h`` and ``tol``, after ``_STEP_LIMIT`` steps, and
    when the rows it finds inconsistent have a ray that certifies nothing
    (``G'y`` not zero to ``1e-9`` of ``|G|'y``, or ``h'y`` not below
    ``-tol*sum(y)``), as rounding can leave on two opposite rows or on rows
    scaled near the ends of the float range.

    Data of extreme scale can take these floats out of range, so the kernel
    runs without numpy's floating-point warnings and raises SolverFailure,
    with the same dump, when the rows' violations at the start are not all
    finite (checked once per run) and when a step turns NaN.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = 1.0 / np.sqrt(2.0 * d)
        Gs = G * s
        w = -q * s
        y = np.zeros(h.size)
        active: list[int] = []
        steps = 0
        viol = Gs @ w - h
        if not np.isfinite(viol).all():
            raise _kernel_failure("dual active-set kernel was given data whose start is not finite", d, q, G, h, tol)
        while h.size:
            p = int(np.argmax(viol))
            gap = viol[p]
            if gap <= tol:
                break
            n_p = Gs[p]
            while True:
                steps += 1
                if steps > _STEP_LIMIT:
                    raise _kernel_failure(f"dual active-set kernel exceeded {_STEP_LIMIT} steps", d, q, G, h, tol)
                if active:
                    # p's normal as active normals times r, plus the part z orthogonal to them
                    N = Gs[active].T
                    r = np.linalg.lstsq(N, n_p, rcond=None)[0]
                    z = n_p - N @ r
                else:
                    r = np.zeros(0)
                    z = n_p
                zz = z @ z
                # the primal step closes p's gap; z = 0 when p is in the active span
                full = gap / zz if zz > 1e-18 * (n_p @ n_p) else _INF
                partial, leave = _INF, -1
                for i in np.flatnonzero(r > 0.0):
                    t = y[active[i]] / r[i]
                    if t < partial:
                        partial, leave = t, i
                if full == _INF and leave < 0:
                    ray = np.zeros(h.size)
                    ray[p] = 1.0
                    ray[active] = -r
                    # the ray was found on the scaled rows, which rounding (or a
                    # scale s of 0, from an overflowing 2d) can make dependent
                    # when the rows themselves are not, so G'y = 0 is checked on G
                    if h @ ray < -tol * ray.sum() and np.abs(G.T @ ray).max() <= 1e-9 * (np.abs(G).T @ ray).max():
                        return None, ray
                    message = "dual active-set kernel found inconsistent rows without a Farkas ray"
                    raise _kernel_failure(message, d, q, G, h, tol)
                t = min(full, partial)
                w = w - t * z
                y[active] -= t * r
                y[p] += t
                if full <= partial:
                    active.append(p)
                    break
                if leave < 0:
                    # full is NaN, so no step compares
                    raise _kernel_failure("dual active-set kernel took a step that is not a number", d, q, G, h, tol)
                y[active.pop(leave)] = 0.0
                gap = n_p @ w - h[p]
            viol = Gs @ w - h
        return w * s, y


def _kernel_failure(message: str, d, q, G, h, tol) -> SolverFailure:
    """A failure of :func:`_dual_active_set` carrying its program, which a cold run on the same data replays."""
    problem = {"d": d.tolist(), "q": q.tolist(), "G": G.tolist(), "h": h.tolist(), "tol": tol}
    return SolverFailure(message, problem=problem)


# ---------------------------------------------------------------------------
# incremental problem builder


class QpBuilder:
    """Accumulates variables, diagonal quadratic costs, rows, and bounds.

    Quadratic terms are added as coefficients of ``x_i**2`` (so a weight ``w``
    contributes ``2 w`` to the Hessian diagonal).  Rows are two-sided
    ``lo <= sum coef*x <= hi`` and are split into equality and one-sided
    inequality blocks when the :class:`QpProblem` is assembled.  Rows with no
    variable entries are kept as constant feasibility assertions.
    """

    def __init__(self):
        self._quad: dict[int, float] = {}
        self._lin: dict[int, float] = {}
        self._const = 0.0
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._rows: list[tuple[dict[int, float], float, float]] = []

    @property
    def n_vars(self) -> int:
        return len(self._lb)

    def new_var(self, lb: float = -_INF, ub: float = _INF) -> int:
        self._lb.append(lb)
        self._ub.append(ub)
        return len(self._lb) - 1

    def new_vars(self, k: int, lb: float = -_INF, ub: float = _INF) -> list[int]:
        return [self.new_var(lb, ub) for _ in range(k)]

    def bound(self, i: int, lo: float = -_INF, hi: float = _INF) -> None:
        """Tighten the box bounds of variable ``i``."""
        self._lb[i] = max(self._lb[i], lo)
        self._ub[i] = min(self._ub[i], hi)

    def add_quad(self, i: int, w: float) -> None:
        self._quad[i] = self._quad.get(i, 0.0) + w

    def add_lin(self, i: int, c: float) -> None:
        self._lin[i] = self._lin.get(i, 0.0) + c

    def add_const(self, c: float) -> None:
        self._const += c

    def add_row(self, coeffs: dict[int, float], lo: float, hi: float) -> None:
        self._rows.append((dict(coeffs), lo, hi))

    def build(self) -> QpProblem:
        n = self.n_vars
        H = np.zeros((n, n))
        for i, w in self._quad.items():
            H[i, i] = 2.0 * w
        g = np.zeros(n)
        for i, c in self._lin.items():
            g[i] = c
        eq_rows, eq_rhs, in_rows, in_rhs = [], [], [], []
        for coeffs, lo, hi in self._rows:
            row = np.zeros(n)
            for i, c in coeffs.items():
                row[i] += c
            if hi - lo < 1e-14 and np.isfinite(lo):
                eq_rows.append(row)
                eq_rhs.append(hi)
                continue
            if np.isfinite(hi):
                in_rows.append(row)
                in_rhs.append(hi)
            if np.isfinite(lo):
                in_rows.append(-row)
                in_rhs.append(-lo)
        lb = np.array(self._lb)
        ub = np.array(self._ub)
        bad = lb > ub
        if np.any(bad):
            # conflicting accumulated bounds are re-emitted as ordinary rows,
            # so the solver's feasibility tolerance decides uniformly whether
            # the conflict is noise or a genuine (certified) infeasibility
            for i in np.where(bad)[0]:
                row = np.zeros(n)
                row[i] = 1.0
                in_rows.append(row.copy())
                in_rhs.append(ub[i])
                in_rows.append(-row)
                in_rhs.append(-lb[i])
            lb[bad] = -_INF
            ub[bad] = _INF
        return QpProblem(
            H=H,
            g=g,
            c0=self._const,
            Aeq=np.array(eq_rows) if eq_rows else None,
            beq=np.array(eq_rhs) if eq_rhs else None,
            Ain=np.array(in_rows) if in_rows else None,
            bin=np.array(in_rhs) if in_rhs else None,
            lb=lb if np.any(np.isfinite(lb)) else None,
            ub=ub if np.any(np.isfinite(ub)) else None,
        )
