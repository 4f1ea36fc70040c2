import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import tube_dissip
from tube_dissip import qp_solver
from tube_dissip.dissipativity import StorageFunction
from tube_dissip.qp_solver import (
    QpBuilder,
    QpProblem,
    QpSolution,
    QpStatus,
    SolverFailure,
    solve,
    verify_kkt,
)
from tube_dissip.sampling import feasible_chain, random_box_within
from tube_dissip.tube_mpc import TubeMpcConfig, _controller

from . import oracles
from .oracles import admm_reference

INF = float("inf")


def qp_1d_bound() -> QpProblem:
    # min x^2 s.t. x >= 1
    return QpProblem(H=[[2.0]], g=[0.0], lb=[1.0], ub=[INF])


class TestSolveBasics:
    def test_bound_constrained_scalar(self):
        sol = solve(qp_1d_bound())
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)

    def test_row_constrained_scalar(self):
        qp = QpProblem(H=[[2.0]], g=[0.0], Ain=[[-1.0]], bin=[-1.0])
        sol = solve(qp)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_unconstrained_quadratic(self):
        sol = solve(QpProblem(H=[[2.0]], g=[-4.0], c0=3.0))
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective == pytest.approx(-1.0, abs=1e-9)

    def test_equality_constrained(self):
        # min x1^2 + x2^2 s.t. x1 + x2 = 2 -> (1, 1)
        qp = QpProblem(H=2 * np.eye(2), g=np.zeros(2), Aeq=[[1.0, 1.0]], beq=[2.0])
        sol = solve(qp)
        assert sol.status is QpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)
        assert sol.eq_multipliers[0] == pytest.approx(-2.0, abs=1e-7)

    def test_infeasible_detection(self):
        qp = QpProblem(H=np.zeros((1, 1)), g=[0.0], Ain=[[1.0], [-1.0]], bin=[0.0, -1.0])
        sol = solve(qp)
        assert sol.status is QpStatus.INFEASIBLE
        cert = sol.infeasibility_certificate
        mu = cert["ineq"]
        assert np.all(mu >= -1e-12)
        # Farkas: combined row is void while the combined bound is negative
        assert abs(mu @ np.array([[1.0], [-1.0]])) <= 1e-8
        assert mu @ np.array([0.0, -1.0]) < 0

    def test_unbounded_detection(self):
        qp = QpProblem(H=np.zeros((2, 2)), g=[0.0, -1.0], Ain=[[1.0, 0.0]], bin=[1.0], lb=[0.0, -INF])
        sol = solve(qp)
        assert sol.status is QpStatus.UNBOUNDED
        ray = sol.unbounded_ray
        assert ray is not None and ray[1] > 0

    def test_constant_row_infeasibility(self):
        builder = QpBuilder()
        builder.new_var()
        builder.add_row({}, 1.0, INF)  # 0 >= 1, no variables involved
        sol = solve(builder.build())
        assert sol.status is QpStatus.INFEASIBLE


class TestValidation:
    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(H=[[1.0, 0.5], [0.0, 1.0]], g=[0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), g=np.zeros(2), Ain=[[1.0]], bin=[0.0])

    def test_bounds_order_enforced(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(1), g=[0.0], lb=[1.0], ub=[0.0])

    def test_matrix_without_rhs_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(1), g=[0.0], Aeq=[[1.0]])

    @pytest.mark.parametrize("name", ["H", "g", "Aeq", "beq", "Ain", "bin", "lb", "ub"])
    def test_nan_rejected_in_every_array(self, name):
        data = dict(H=np.eye(1), g=[0.0], Aeq=[[1.0]], beq=[0.0], Ain=[[1.0]], bin=[1.0],
                    lb=[-1.0], ub=[1.0])
        data[name] = np.full_like(np.asarray(data[name], dtype=float), np.nan)
        with pytest.raises(ValueError, match=name):
            QpProblem(**data)

    @pytest.mark.parametrize(
        "name, value",
        [("H", INF), ("g", -INF), ("Aeq", INF), ("beq", INF), ("Ain", -INF),
         ("bin", -INF), ("lb", INF), ("ub", -INF), ("c0", INF)],
    )
    def test_non_vacuous_infinity_rejected(self, name, value):
        data = dict(H=np.eye(1), g=[0.0], Aeq=[[1.0]], beq=[0.0], Ain=[[1.0]], bin=[1.0])
        data[name] = value if name == "c0" else np.full_like(
            np.asarray(data.get(name, [0.0]), dtype=float), value
        )
        with pytest.raises(ValueError, match=name):
            QpProblem(**data)

    @pytest.mark.filterwarnings("error")
    def test_vacuous_infinities_accepted(self):
        qp = QpProblem(H=[[2.0]], g=[0.0], Ain=[[1.0], [-1.0]], bin=[INF, 1.0],
                       lb=[-INF], ub=[INF])
        sol = solve(qp)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)


class TestCertificates:
    def test_verify_kkt_on_solution(self):
        sol = solve(qp_1d_bound())
        assert verify_kkt(qp_1d_bound(), sol, 1e-6)

    def test_verify_kkt_rejects_perturbed_primal(self):
        qp = qp_1d_bound()
        sol = solve(qp)
        wrong = replace(sol, x=sol.x + 1e-3)
        assert not verify_kkt(qp, wrong, 1e-10)

    def test_verify_kkt_unconstrained_origin(self):
        qp = QpProblem(H=[[2.0]], g=[0.0])
        sol = solve(qp)
        assert sol.x[0] == pytest.approx(0.0, abs=1e-12)
        assert verify_kkt(qp, sol, 1e-12)

    def test_verify_kkt_requires_optimal_status(self):
        with pytest.raises(ValueError):
            verify_kkt(qp_1d_bound(), QpSolution(status=QpStatus.INFEASIBLE), 1e-8)


def random_qp(rng, n=6, m=8, strictly_convex=True) -> QpProblem:
    M = rng.normal(size=(n, n))
    H = M.T @ M + (1.0 if strictly_convex else 0.0) * np.eye(n)
    H = 0.5 * (H + H.T)
    g = rng.normal(size=n)
    Ain = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    bin_ = Ain @ x0 + rng.uniform(0.1, 1.0, size=m)  # x0 strictly feasible
    return QpProblem(H=H, g=g, Ain=Ain, bin=bin_, lb=np.full(n, -10.0), ub=np.full(n, 10.0))


def random_lp(rng, n=4, m=7) -> QpProblem:
    g = rng.normal(size=n)
    Ain = rng.normal(size=(m, n))
    bin_ = Ain @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)  # feasible
    return QpProblem(H=np.zeros((n, n)), g=g, Ain=Ain, bin=bin_,
                     lb=np.full(n, -5.0), ub=np.full(n, 5.0))


def separable_problem(rng, n=5, m=12, infeasible=False):
    """Random data for ``min sum(d*x**2 + q*x)`` s.t. ``G x <= h``.

    The rows hold with room at a random point, unless ``infeasible``: then
    one more row is minus a positive combination of the others, with a
    right-hand side that the combination cannot meet.
    """
    d = rng.uniform(0.05, 2.0, size=n)
    q = 3.0 * rng.normal(size=n)
    G = rng.normal(size=(m, n))
    h = G @ rng.normal(size=n) + rng.uniform(0.1, 1.0, size=m)
    if infeasible:
        lam = rng.uniform(0.1, 1.0, size=m)
        G = np.vstack([G, -lam @ G])
        h = np.append(h, -lam @ h - rng.uniform(0.1, 1.0))
    return d, q, G, h


def dual_active_set(d, q, G, h):
    return qp_solver._dual_active_set(
        np.asarray(d, float), np.asarray(q, float), np.asarray(G, float), np.asarray(h, float), 1e-12
    )


def capped_dual_active_set(monkeypatch, cap, d, q, G, h):
    """:func:`dual_active_set` with the kernel's step limit set to cap for this one run."""
    with monkeypatch.context() as patch:
        patch.setattr(qp_solver, "_STEP_LIMIT", cap)
        return dual_active_set(d, q, G, h)


class TestDualActiveSet:
    def test_scalar_bound(self):
        # min x^2 s.t. x >= 1: x = 1 with multiplier 2
        x, y = dual_active_set([1.0], [0.0], [[-1.0]], [-1.0])
        assert x[0] == pytest.approx(1.0, abs=1e-15) and y[0] == pytest.approx(2.0, abs=1e-15)

    def test_no_rows_gives_the_unconstrained_minimiser(self):
        x, y = dual_active_set([0.5, 2.0], [1.0, -4.0], np.zeros((0, 2)), np.zeros(0))
        np.testing.assert_allclose(x, [-1.0, 1.0], atol=1e-15)
        assert y.size == 0

    def test_contradictory_rows_give_a_farkas_ray(self):
        G, h = np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])
        x, y = dual_active_set([1.0], [0.0], G, h)
        assert x is None
        assert oracles.farkas_ray_ok(G, h, y)

    def test_repeated_and_dependent_active_rows(self):
        # min (x1-1)^2 + (x2-1)^2 s.t. x1 <= 0 (twice), x1 + x2 <= 0, x2 <= 0:
        # four rows hold with equality at the origin, three of them distinct
        G = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        h = np.zeros(4)
        d, q = np.ones(2), np.array([-2.0, -2.0])
        x, y = dual_active_set(d, q, G, h)
        np.testing.assert_allclose(x, [0.0, 0.0], atol=1e-14)
        assert oracles.separable_kkt_residual(d, q, G, h, x, y) <= 1e-14

    def test_random_problems_agree_with_admm(self, rng):
        verdicts = set()
        for k in range(40):
            d, q, G, h = separable_problem(rng, infeasible=k % 2 == 1)
            x, y = dual_active_set(d, q, G, h)
            ref = solve(QpProblem(H=np.diag(2.0 * d), g=q, Ain=G, bin=h))
            verdicts.add(ref.status)
            if ref.status is QpStatus.INFEASIBLE:
                assert x is None and oracles.farkas_ray_ok(G, h, y)
            else:
                assert ref.status is QpStatus.OPTIMAL
                np.testing.assert_allclose(x, ref.x, atol=1e-6)
                assert oracles.separable_kkt_residual(d, q, G, h, x, y) <= 1e-12
        assert verdicts == {QpStatus.OPTIMAL, QpStatus.INFEASIBLE}

    def test_iteration_cap_raises_with_the_data(self, rng, monkeypatch):
        d, q, G, h = separable_problem(rng)
        with pytest.raises(SolverFailure) as info:
            capped_dual_active_set(monkeypatch, 1, d, q, G, h)
        dump = info.value.problem
        assert set(dump) == {"d", "q", "G", "h", "tol"}
        for name, value in (("d", d), ("q", q), ("G", G), ("h", h)):
            assert np.array_equal(np.array(dump[name]), value)
        assert dump["tol"] == 1e-12

    def test_iteration_cap_dump_replays_the_cold_solve(self, rng, monkeypatch):
        # whatever step the cap stops at, the dump gives the uncapped answer bit for bit
        verdicts = set()
        for k in range(10):
            d, q, G, h = separable_problem(rng, infeasible=k % 2 == 1)
            want = dual_active_set(d, q, G, h)
            verdicts.add(want[0] is None)
            cap = 0
            while True:
                try:
                    capped = capped_dual_active_set(monkeypatch, cap, d, q, G, h)
                except SolverFailure as failure:
                    dump = {name: np.array(value) for name, value in failure.problem.items()}
                    got = qp_solver._dual_active_set(dump["d"], dump["q"], dump["G"], dump["h"], dump["tol"])
                    assert (got[0] is None) == (want[0] is None)
                    for a, b in zip(got, want):
                        assert a is None or a.tobytes() == b.tobytes()
                    cap += 1
                    continue
                # the least cap that is enough gives the same answer
                for a, b in zip(capped, want):
                    assert a is None or a.tobytes() == b.tobytes()
                break
            assert cap > 0
        assert verdicts == {True, False}

    def test_inconsistent_rows_without_a_certifying_ray_raise(self):
        # x = -2 as two opposite rows, which linprog finds feasible.  At
        # d = 1e-12 the cold start -q/(2d) is -5e11, and the step onto one
        # row leaves the other violated by rounding alone; their ray
        # e_p + e_q has h'y = 0, which certifies nothing
        d, q, G, h = [1e-12], [1.0], [[1.0], [-1.0]], [-2.0, 2.0]
        assert linprog([0.0], A_ub=G, b_ub=h, bounds=[(None, None)], method="highs").status == 0
        with pytest.raises(SolverFailure, match="without a Farkas ray") as info:
            dual_active_set(d, q, G, h)
        assert info.value.problem == {"d": d, "q": q, "G": G, "h": h, "tol": 1e-12}

    def test_start_at_the_optimum_takes_no_step(self, rng, monkeypatch):
        # the kernel starts at the unconstrained minimiser with no row active:
        # where that point holds every row it is the answer, found in no step
        d, q, _, _ = separable_problem(rng)
        x_free = -q / (2.0 * d)
        G = rng.normal(size=(12, d.size))
        slack = rng.uniform(0.1, 1.0, size=12)
        x, y = capped_dual_active_set(monkeypatch, 0, d, q, G, G @ x_free + slack)
        assert np.max(np.abs(x - x_free)) <= 1e-12 and not np.any(y)
        # one violated row needs a step, which a cap of 0 refuses
        slack[3] = -0.5
        with pytest.raises(SolverFailure):
            capped_dual_active_set(monkeypatch, 0, d, q, G, G @ x_free + slack)


def test_importing_the_package_does_not_load_scipy():
    # only the ADMM reference solver needs scipy, and it imports it on use
    code = (
        "import sys, tube_dissip, tube_dissip.cli, tube_dissip.acceptance; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(tube_dissip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestRandomProblems:
    def test_random_strictly_convex_soundness(self, rng):
        for _ in range(40):
            qp = random_qp(rng)
            sol = solve(qp)
            assert sol.status is QpStatus.OPTIMAL
            assert verify_kkt(qp, sol, 1e-6)
            assert sol.kkt_residual <= 1e-6

    def test_random_lps_match_reference_solver(self, rng):
        for _ in range(30):
            qp = random_lp(rng)
            ref = linprog(qp.g, A_ub=qp.Ain, b_ub=qp.bin, bounds=[(-5, 5)] * qp.n, method="highs")
            sol = solve(qp)
            assert ref.status == 0 and sol.status is QpStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref.fun, abs=1e-6)

    def test_objective_formula(self, rng):
        for _ in range(10):
            qp = random_qp(rng)
            qp = replace_c0(qp, 1.75)
            sol = solve(qp)
            explicit = 0.5 * sol.x @ qp.H @ sol.x + qp.g @ sol.x + qp.c0
            assert sol.objective == pytest.approx(explicit, abs=1e-9)

    def test_infeasible_stays_infeasible_under_tightening(self, rng):
        qp = QpProblem(H=np.zeros((1, 1)), g=[0.0], Ain=[[1.0], [-1.0]], bin=[0.0, -1.0])
        for delta in (0.0, 0.5, 2.0):
            tightened = QpProblem(
                H=qp.H, g=qp.g, Ain=qp.Ain, bin=np.asarray(qp.bin) - delta
            )
            assert solve(tightened).status is QpStatus.INFEASIBLE


def replace_c0(qp: QpProblem, c0: float) -> QpProblem:
    return QpProblem(H=qp.H, g=qp.g, c0=c0, Aeq=qp.Aeq, beq=qp.beq,
                     Ain=qp.Ain, bin=qp.bin, lb=qp.lb, ub=qp.ub)


class TestDegenerate:
    def test_semidefinite_flat_direction(self):
        # x2 enters neither the cost nor any constraint; any value is optimal
        qp = QpProblem(
            H=np.diag([2.0, 0.0]),
            g=[-2.0, 0.0],
            Ain=[[1.0, 0.0]],
            bin=[5.0],
        )
        sol = solve(qp)
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_equality_pinning(self):
        # equality-pinned variable plus a redundant pair of active rows
        builder = QpBuilder()
        x = builder.new_var()
        y = builder.new_var()
        builder.add_row({x: 1.0}, 2.0, 2.0)
        builder.add_row({x: 1.0, y: 1.0}, -INF, 3.0)
        builder.add_row({y: 1.0}, -INF, 1.0)
        builder.add_quad(y, 1.0)
        builder.add_lin(y, -4.0)  # pushes y up against both rows at once
        sol = solve(builder.build())
        assert sol.status is QpStatus.OPTIMAL
        assert sol.x[x] == pytest.approx(2.0, abs=1e-8)
        assert sol.x[y] == pytest.approx(1.0, abs=1e-8)


class TestBuilder:
    def test_bound_merging_tightens(self):
        builder = QpBuilder()
        x = builder.new_var(-10.0, 10.0)
        builder.bound(x, -1.0, INF)
        builder.bound(x, -INF, 2.0)
        builder.add_lin(x, 1.0)
        sol = solve(builder.build())
        assert sol.x[x] == pytest.approx(-1.0, abs=1e-9)

    def test_conflicting_bounds_become_certified_infeasibility(self):
        builder = QpBuilder()
        x = builder.new_var()
        builder.bound(x, 1.0, INF)
        builder.bound(x, -INF, 0.0)
        sol = solve(builder.build())
        assert sol.status is QpStatus.INFEASIBLE

    def test_two_sided_row_splits(self):
        builder = QpBuilder()
        x = builder.new_var()
        y = builder.new_var()
        builder.add_row({x: 1.0, y: 1.0}, -1.0, 1.0)
        qp = builder.build()
        assert qp.Ain.shape == (2, 2)
        assert qp.Aeq is None

    def test_equal_bounds_become_equality_row(self):
        builder = QpBuilder()
        x = builder.new_var()
        y = builder.new_var()
        builder.add_row({x: 1.0, y: -1.0}, 0.5, 0.5)
        qp = builder.build()
        assert qp.Aeq.shape == (1, 2)


def tube_qps(spec):
    # a 7x7 grid over the state bounds for both controllers, and two states
    # within them from which one step cannot reach the invariant box
    grid = [(z1, z2) for z1 in np.linspace(-5, 5, 7) for z2 in np.linspace(-5, 5, 7)]
    cfgs = (TubeMpcConfig(use_initial_cost=True), TubeMpcConfig(use_initial_cost=False))
    states = [(cfg, z) for cfg in cfgs for z in grid]
    states += [(TubeMpcConfig(horizon=1), z) for z in ((0.0, 4.0), (-2.0, -4.5))]
    return [oracles.tube_qp_reference(spec, *_controller(spec, cfg)[:2], cfg, z, False) for cfg, z in states]


def eval_v2_qps(spec, rng, count=25):
    # the two-step programs of feasible chains and of random pairs
    qps = []
    for _ in range(count):
        chain = feasible_chain(spec, rng, 2)
        qps.append(oracles.eval_v_qp_reference(spec, chain[0], chain[2], 2))
        a = random_box_within(rng, spec.x_bounds)
        b = random_box_within(rng, spec.x_bounds)
        qps.append(oracles.eval_v_qp_reference(spec, a, b, 2))
    return qps


def separability_qps(spec, rng, count=20):
    coeffs = [StorageFunction.reference().linear_coeffs]
    coeffs += [tuple(float(c) for c in rng.uniform(-1.0, 1.0, size=4)) for _ in range(count)]
    return [oracles.separability_qp_reference(spec, ell) for ell in coeffs]


def assert_matches_reference(qp: QpProblem):
    got = solve(qp)
    want = admm_reference(qp)
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.polished == want.polished
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.objective == want.objective


class TestExactness:
    """``solve`` follows the plain ADMM iteration bit for bit."""

    def test_random_qps_and_lps(self, rng):
        for _ in range(30):
            assert_matches_reference(random_qp(rng))
            assert_matches_reference(random_lp(rng))
            assert_matches_reference(random_qp(rng, strictly_convex=False))

    def test_tube_qps_on_a_state_grid(self, spec):
        qps = tube_qps(spec)
        assert len(qps) == 100
        assert {sol.status for sol in map(solve, qps)} == {QpStatus.OPTIMAL, QpStatus.INFEASIBLE}
        for qp in qps:
            assert_matches_reference(qp)

    def test_separability_qps(self, spec, rng):
        qps = separability_qps(spec, rng)
        assert {sol.status for sol in map(solve, qps)} == {QpStatus.OPTIMAL, QpStatus.UNBOUNDED}
        for qp in qps:
            assert_matches_reference(qp)

    def test_two_step_cost_to_travel_qps(self, spec, rng):
        qps = eval_v2_qps(spec, rng)
        assert len(qps) == 50
        for qp in qps:
            assert_matches_reference(qp)

