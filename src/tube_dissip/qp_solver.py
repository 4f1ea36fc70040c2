"""The library's one QP method: an exact dual active-set kernel.

Every program of the library that needs a solver (multi-step cost-to-travel
values, the optimal invariant box and the tube MPC program) minimises a
separable strictly convex quadratic over inequality rows.  Each goes to the
private dense dual active-set kernel :func:`_dual_active_set`, which is
exact, ends in finitely many steps and returns either multipliers or a
Farkas ray.  It always starts cold, at the unconstrained minimiser; the
multi-step and tube MPC programs call it only when none of the affine laws
they have kept from earlier answers holds at their parameter and none of the
Farkas rays they have kept certifies it infeasible
(``cost_to_travel._solve_program``).

The kernel has no settings.  Every row check of the library reads
``_FEAS_TOL``; the library runs the kernel at ``_ROW_TOL``, and the kernel
raises :class:`SolverFailure` with its program after ``_STEP_LIMIT`` steps.

:class:`QpBuilder` assembles the original programs, edge controls included,
into a dense :class:`QpProblem` for the tests, which check each library
answer on its program by a KKT residual and an LP margin.  Neither is
public, and no module of the package uses them.  They stay here, with the
name :func:`solve`, only because the benchmark's tracer binds all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

__all__ = ["QpStatus", "SolverFailure"]

_INF = float("inf")


class QpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


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
# the most steps of a kernel run
_STEP_LIMIT = 10000


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
# the tests' program assembly


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
        # non-finite data is rejected: only the vacuous infinities (-inf in
        # lb, +inf in ub and bin) pass
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


def solve(qp: QpProblem):
    """Not a solver: the name is kept only for the benchmark's tracer, which looks it up."""
    raise NotImplementedError("qp_solver.solve was removed; the library solves with _dual_active_set")


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
            # so a check of the rows decides uniformly whether the conflict
            # is noise or a genuine infeasibility
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
