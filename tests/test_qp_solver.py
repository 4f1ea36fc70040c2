import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import tube_dissip
from tube_dissip import qp_solver
from tube_dissip.qp_solver import QpBuilder, QpProblem, SolverFailure

from . import oracles

INF = float("inf")


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
        # the rows they bound always hold, so the free minimiser 0 is optimal
        qp = QpProblem(H=[[2.0]], g=[0.0], Ain=[[1.0], [-1.0]], bin=[INF, 1.0],
                       lb=[-INF], ub=[INF])
        assert qp.bin[0] == INF and qp.lb[0] == -INF and qp.ub[0] == INF
        assert oracles.kkt_residual(qp, np.zeros(1)) == 0.0


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

    def test_random_problems_pass_the_programs_check(self, rng):
        # a minimiser passes the KKT check with multipliers of its own and
        # with the ones NNLS finds; an infeasible verdict, on the problems
        # built infeasible only, carries a Farkas ray and the program has a
        # margin below 0 by LP
        for k in range(40):
            infeasible = k % 2 == 1
            d, q, G, h = separable_problem(rng, infeasible=infeasible)
            x, y = dual_active_set(d, q, G, h)
            qp = QpProblem(H=np.diag(2.0 * d), g=q, Ain=G, bin=h)
            assert (x is None) == infeasible
            if x is None:
                assert oracles.farkas_ray_ok(G, h, y)
                assert oracles.program_margin(qp) < 0.0
            else:
                assert oracles.kkt_residual(qp, x) <= 1e-8
                assert oracles.separable_kkt_residual(d, q, G, h, x, y) <= 1e-12

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

    @pytest.mark.parametrize("q, h", [
        # -q/sqrt(2d) overflows, a right-hand side is NaN, -inf or +inf, q is inf
        ([1e308], [-1.0]),
        ([0.0], [math.nan]),
        ([0.0], [-math.inf]),
        ([0.0], [math.inf]),
        ([math.inf], [1.0]),
    ], ids=repr)
    def test_data_whose_start_is_not_finite_raises_with_the_data(self, q, h):
        # checked once, on the start's row violations, before any step, and
        # with no floating-point warning on the way
        with pytest.raises(SolverFailure, match="start is not finite") as info:
            dual_active_set([0.01], q, [[-1.0]], h)
        assert repr(info.value.problem) == repr({"d": [0.01], "q": q, "G": [[-1.0]], "h": h, "tol": 1e-12})

    def test_a_step_that_turns_nan_raises_with_the_data(self):
        # a finite start, but rows of scales 1e-112 to 1e140 take a step out
        # of range: where it once popped an empty active set, it now raises
        d = [1.842158963021939e-12, 2.812036927587265e-12]
        q = [-4.05957404632127e63, 5.147439657139024e63]
        G = [
            [7.695195335398827e-70, -5.357633502333074e-70],
            [-1.42924202643997e140, -8.212376716182639e139],
            [-1.625819620185557e-112, 2.4558217826854847e-112],
            [3.2117700213774873e-24, 2.3542115061334955e-22],
        ]
        h = [-9.364238108859406e78, 3.235924690731447e78, -1.2437839298972911e79, -7.066115762351785e78]
        with pytest.raises(SolverFailure, match="not a number") as info:
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
    # numpy is the package's only dependency at run time
    code = (
        "import sys, tube_dissip, tube_dissip.cli, tube_dissip.acceptance; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(tube_dissip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_source_file_names_scipy():
    # scipy is a dependency of the tests and the benchmark only
    src = Path(tube_dissip.__file__).resolve().parents[1]
    assert [str(path.relative_to(src)) for path in sorted(src.rglob("*.py")) if "scipy" in path.read_text()] == []


class TestBuilder:
    def test_bound_merging_tightens(self):
        builder = QpBuilder()
        x = builder.new_var(-10.0, 10.0)
        builder.bound(x, -1.0, INF)
        builder.bound(x, -INF, 2.0)
        builder.add_lin(x, 1.0)
        qp = builder.build()
        assert qp.lb.tolist() == [-1.0] and qp.ub.tolist() == [2.0]
        assert qp.Ain is None and qp.Aeq is None and qp.g.tolist() == [1.0]

    def test_conflicting_bounds_become_certified_infeasibility(self):
        builder = QpBuilder()
        x = builder.new_var()
        builder.bound(x, 1.0, INF)
        builder.bound(x, -INF, 0.0)
        qp = builder.build()
        assert qp.lb is None and qp.ub is None
        assert qp.Ain.tolist() == [[1.0], [-1.0]] and qp.bin.tolist() == [0.0, -1.0]
        assert oracles.program_margin(qp) < 0.0

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
