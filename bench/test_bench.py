"""Tests of the benchmark's own parts: each output check accepts the library's
answer and rejects a perturbed one; the tracer and the speed log account
time correctly.

    python3 -m pytest bench
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tube_dissip import cost_to_travel, qp_solver  # noqa: E402
from tube_dissip.closed_loop import AdversarialPolicy, check_enclosure_stability, simulate  # noqa: E402
from tube_dissip.cost_to_travel import eval_v  # noqa: E402
from tube_dissip.dissipativity import StorageFunction, storage_min_on_domain, verify_separability  # noqa: E402
from tube_dissip.interval_sets import IntervalBox  # noqa: E402
from tube_dissip.sampling import feasible_chain, feasible_pair  # noqa: E402
from tube_dissip.tube_mpc import solve_tmpc, sweep_feedback  # noqa: E402

SPEC = workloads.SPEC
CFG = workloads.CFG
V_STAR = -0.2
UNREACHABLE = IntervalBox((0.0, 0.0), (1.0, 1.0))  # not a successor of itself


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def test_eval_v1_check(rng):
    a, b = feasible_pair(SPEC, rng)
    value = eval_v(SPEC, a, b, 1).value
    assert checks.check_eval_v1(SPEC, a.corners(), b.corners(), value, True) is None
    assert checks.check_eval_v1(SPEC, a.corners(), b.corners(), value + 1e-3, True) is not None
    assert checks.check_eval_v1(SPEC, a.corners(), b.corners(), math.inf, True) is not None
    assert checks.check_eval_v1(SPEC, a.corners(), b.corners(), math.inf, False) is not None
    box = UNREACHABLE.corners()
    assert eval_v(SPEC, UNREACHABLE, UNREACHABLE, 1).value == math.inf
    assert checks.check_eval_v1(SPEC, box, box, math.inf, False) is None
    assert checks.check_eval_v1(SPEC, box, box, checks.stage_cost(SPEC, box), False) is not None


def test_eval_v2_check(rng):
    a, _, c = feasible_chain(SPEC, rng, 2)
    result = eval_v(SPEC, a, c, 2)
    ac = a.corners(), c.corners()
    assert checks.check_eval_v2(SPEC, *ac, result, True) is None
    assert checks.check_eval_v2(SPEC, *ac, dataclasses.replace(result, value=result.value + 1e-3), True)
    mid = result.tube[1]
    moved = IntervalBox((mid.lo[0] - 3.0, mid.lo[1]), (mid.hi[0] - 3.0, mid.hi[1]))
    assert checks.check_eval_v2(SPEC, *ac, dataclasses.replace(result, tube=(a, moved, c)), True)
    # a feasible but costlier middle box: the witness checks pass, the minimum does not
    m = mid.corners()
    wider = IntervalBox((m[0], m[2]), (m[1], m[3] + 0.05))
    assert checks.transition_margin(SPEC, a.corners(), wider.corners()) >= 0.0
    assert checks.transition_margin(SPEC, wider.corners(), c.corners()) >= 0.0
    cost = checks.stage_cost(SPEC, a.corners()) + checks.stage_cost(SPEC, wider.corners())
    costlier = dataclasses.replace(result, value=cost, tube=(a, wider, c))
    assert cost > result.value + checks.VALUE_TOL
    assert "reference minimum" in checks.check_eval_v2(SPEC, *ac, costlier, True)
    infinite = cost_to_travel.CostToTravelResult(value=math.inf)
    assert checks.check_eval_v2(SPEC, *ac, infinite, True) is not None
    # an infinite answer on a reachable pair is caught by the LP reference
    assert checks.two_step_margin(SPEC, *ac) > checks.BOUNDARY_TOL
    assert checks.check_eval_v2(SPEC, *ac, infinite, False) is not None


def test_two_step_margin_sign():
    box = UNREACHABLE.corners()
    assert eval_v(SPEC, UNREACHABLE, UNREACHABLE, 2).value == math.inf
    assert checks.two_step_margin(SPEC, box, box) < -checks.BOUNDARY_TOL


def test_separability_check_and_closed_form(rng):
    ref = StorageFunction.reference()
    report = verify_separability(SPEC, ref)
    assert checks.separability_min(SPEC, ref.linear_coeffs) == pytest.approx(V_STAR, abs=1e-12)
    assert checks.check_separability(SPEC, ref.linear_coeffs, report, V_STAR, True) is None
    shifted = dataclasses.replace(report, qp_min_value=report.qp_min_value + 1e-3, gap=report.gap + 1e-3)
    assert checks.check_separability(SPEC, ref.linear_coeffs, shifted, V_STAR, False) is not None
    off = dataclasses.replace(report, gap=2e-8, qp_min_value=V_STAR + 2e-8)
    assert checks.check_separability(SPEC, ref.linear_coeffs, off, V_STAR, True) is not None
    unbounded = (0.5, -1.0, 1.0, 0.0)
    assert checks.check_separability(SPEC, unbounded, report, V_STAR, False) is not None
    rejected = verify_separability(SPEC, StorageFunction(0.0, unbounded))
    assert rejected.unbounded_ray is not None
    assert checks.check_separability(SPEC, unbounded, rejected, V_STAR, False) is None
    for _ in range(3):
        coeffs = (0.0, -rng.uniform(0, 2), rng.uniform(0, 2), 0.0)
        rep = verify_separability(SPEC, StorageFunction(1.0, coeffs))
        assert checks.check_separability(SPEC, coeffs, rep, V_STAR, False) is None


def test_storage_min_check(rng):
    coeffs = tuple(rng.uniform(-2, 2, size=4))
    value = storage_min_on_domain(SPEC, StorageFunction(3.0, coeffs))
    assert checks.check_storage_min(SPEC, 3.0, coeffs, value) is None
    assert checks.check_storage_min(SPEC, 3.0, coeffs, value + 1e-3) is not None


def test_control_checks():
    z = (-1.0, -5.0)  # forced window: u0 = -0.5 * z2 - 3
    sol = solve_tmpc(SPEC, CFG, z)
    assert checks.check_query(SPEC, z, sol) is None
    assert checks.check_control(z, sol.status, sol.u0 + 1e-3, sol.u0_interval) is not None
    shifted = sol.u0 + 1e-3
    assert checks.check_control(z, sol.status, shifted, (shifted, shifted)) is not None
    # a wider window holding the law still fails when u0 leaves the law
    assert checks.check_control(z, sol.status, sol.u0 + 0.5, (sol.u0 - 1.0, sol.u0 + 1.0)) is not None
    assert checks.check_control(z, qp_solver.QpStatus.INFEASIBLE, sol.u0, sol.u0_interval) is not None
    lo, hi = sol.u0_interval
    assert checks.check_query(SPEC, z, dataclasses.replace(sol, u0_interval=(lo - 0.5, hi))) is not None
    assert checks.check_query(SPEC, z, dataclasses.replace(sol, objective=sol.objective + 1e-3)) is not None
    assert checks.check_query(SPEC, (4.0, 4.0), sol) is not None  # first box does not hold z
    points = sweep_feedback(SPEC, CFG, [z, (0.0, 0.0)])
    assert checks.check_sweep(points) is None
    bad = dataclasses.replace(points[1], u0=points[1].u0_interval[1] + 1.0)
    assert checks.check_sweep([points[0], bad]) is not None


def test_episode_check():
    trace = simulate(SPEC, CFG, (5.0, -5.0), 3, AdversarialPolicy())
    verdict = check_enclosure_stability(trace, SPEC).verdict
    assert checks.check_episode(trace, verdict, True) is None
    assert checks.check_episode(trace, "unstable", True) is not None
    assert checks.check_episode(dataclasses.replace(trace, failure_step=2), verdict, False) is not None


def test_criterion_check():
    from tube_dissip.acceptance import check_optimal_rci

    result = check_optimal_rci(SPEC)
    assert checks.check_criterion(result) is None
    assert checks.check_criterion(dataclasses.replace(result, passed=False)) is not None


def _failures(kind, error, n_ops=200):
    """Failure records of a run of ``n_ops`` operations of one kind, the first of which raised."""
    ops = [workloads.Op(kind, ())] * n_ops
    records = workloads.failures(ops[:1], [workloads.Outcome(0.0, 0.0, error=error)])
    return ops, records


def test_only_defect_d1_raises_pass():
    d1 = "ValueError: empty interval in dimension 0"
    ops, records = _failures("v2_random", d1)
    assert records[0]["known_defect"] and workloads.correct(ops, records)
    assert not workloads.correct(ops[:50], records)  # over the limit of 1 % of N=2 queries
    for kind, error in [
        ("v2_chain", "SolverFailure: cost-to-travel solve did not converge: QpStatus.MAX_ITERATIONS"),
        ("v1_random", d1),
        ("query", "SolverFailure: tube solve did not converge: QpStatus.MAX_ITERATIONS"),
    ]:
        ops, records = _failures(kind, error)
        assert len(records) == 1 and not workloads.correct(ops, records)


def test_raising_criterion_fails_the_battery():
    ops = [workloads.Op("battery", ())]
    outcomes = [
        workloads.Outcome(0.0, 0.0, error="check_monotonicity: ValueError: empty interval in dimension 0"),
        workloads.Outcome(0.0, 0.0, error="not run: an earlier criterion raised"),
    ]
    records = workloads.failures(ops, outcomes)
    assert len(records) == 2 and not workloads.correct(ops, records)


def test_tracer_spans_and_restore():
    original = qp_solver.solve
    box = IntervalBox((-1.0, -4.0), (-1.0, 0.0))
    with spans.Tracer() as tracer:
        cost_to_travel.eval_v(SPEC, box, box, 1)
    assert qp_solver.solve is original and cost_to_travel.eval_v is eval_v
    names = [s.name for s in tracer.spans]
    assert names == ["cost_to_travel.eval_v", "qp_solver.QpBuilder.build", "qp_solver.solve"]
    outer = tracer.spans[0]
    assert all(s.op == outer.op for s in tracer.spans) and tracer.spans[2].parent == outer.id
    durations = [s.end - s.start for s in tracer.spans]
    own = spans.self_times(tracer.spans, durations)
    assert own[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    layer = spans.aggregate(tracer.spans, durations)
    assert layer["qp_solver.solve.n2.optimal.count"] == 1
    assert layer["cost_to_travel.eval_v.n1.inf_ratio"] == 0.0


def test_reference_seconds_scales_by_local_speed():
    speed = workloads.SpeedLog.__new__(workloads.SpeedLog)
    ref = workloads.REFERENCE_S
    # calibration samples twice as slow as the reference: work counts half
    speed.marks = [(t, t + 2 * ref) for t in (0.0, 1.0, 2.0, 3.0)]
    got = speed.reference_seconds([(0.1, 0.6), (0.9, 2.1)])
    assert got[0] == pytest.approx(0.25)
    assert got[1] == pytest.approx((0.1 + (1.0 - 2 * ref) + (0.1 - 2 * ref)) / 2)
