"""End-to-end acceptance battery.

One test per criterion, each printed as its own pass/fail line; the seeded
criteria read TUBE_DISSIP_SEED (default 0) so the battery is reproducible.
"""

import os

import pytest

from tube_dissip import acceptance
from tube_dissip.acceptance import (
    check_chain_inequality,
    check_closed_loop_stability,
    check_dissipation_inequality,
    check_feedback_laws,
    check_instability_witness,
    check_monotonicity,
    check_optimal_rci,
    check_storage_certificate,
)
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec
from tube_dissip.qp_solver import SolverFailure

SEED = int(os.environ.get("TUBE_DISSIP_SEED", "0"))


@pytest.fixture(scope="module")
def accept_spec():
    return ProblemSpec.default()


def _report(result):
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.key}: {result.detail}")
    assert result.passed, f"{result.key}: {result.detail}"


def test_criterion_optimal_rci(accept_spec):
    _report(check_optimal_rci(accept_spec))


def test_criterion_storage_certificate(accept_spec):
    _report(check_storage_certificate(accept_spec))


def test_criterion_feedback_laws(accept_spec):
    _report(check_feedback_laws(accept_spec))


def test_criterion_instability_witness(accept_spec):
    _report(check_instability_witness(accept_spec))


def test_criterion_closed_loop_stability(accept_spec):
    _report(check_closed_loop_stability(accept_spec))


def test_criterion_chain_inequality(accept_spec):
    _report(check_chain_inequality(accept_spec, seed=SEED + 1))


def test_chain_inequality_is_tight_at_the_extracted_middle(accept_spec, monkeypatch):
    # one stage cost prices a two-step value and the one-step values of its
    # legs, so on the criterion's own chains the split leaves no gap at all
    directs = []

    def recording_eval_v(spec, a, b, n_steps):
        res = eval_v(spec, a, b, n_steps)
        if n_steps == 2:
            directs.append(res)
        return res

    monkeypatch.setattr(acceptance, "eval_v", recording_eval_v)
    _report(check_chain_inequality(accept_spec, seed=SEED + 1))
    assert len(directs) == 200
    for direct in directs:
        a, mid, c = direct.tube
        split = eval_v(accept_spec, a, mid, 1).value + eval_v(accept_spec, mid, c, 1).value
        assert split - direct.value == 0.0


def test_criterion_monotonicity(accept_spec):
    _report(check_monotonicity(accept_spec, seed=SEED + 2))


def test_criterion_dissipation_inequality(accept_spec):
    _report(check_dissipation_inequality(accept_spec, seed=SEED + 3))


def test_battery_is_seed_deterministic(accept_spec):
    a = check_dissipation_inequality(accept_spec, seed=41, n_pairs=40)
    b = check_dissipation_inequality(accept_spec, seed=41, n_pairs=40)
    assert a == b
    c = check_chain_inequality(accept_spec, seed=17, n_pairs=5)
    d = check_chain_inequality(accept_spec, seed=17, n_pairs=5)
    assert c == d


def test_instability_witness_on_a_truncated_trace_fails():
    # with x1 in [0, 5] the start (-1, -2) lies outside the state bounds, so
    # the controller is infeasible there and the trace ends at step 0
    spec = ProblemSpec(x_bounds=IntervalBox(lo=(0.0, -5.0), hi=(5.0, 5.0)))
    result = check_instability_witness(spec)
    assert not result.passed
    assert result.detail == "trace from (-1, -2) ends at step 0: controller infeasible"


# state bounds off the cone that monotone boxes are drawn from, and a
# disturbance so wide that few boxes have a successor within the bounds
OFF_CONE = ProblemSpec(x_bounds=IntervalBox(lo=(1.0, 1.0), hi=(5.0, 5.0)))
WIDE_W = ProblemSpec(x_bounds=IntervalBox(lo=(-5.0, -2.05), hi=(5.0, 2.05)), w_bounds=(-2.0, 2.0))


def test_criteria_whose_samples_cannot_be_drawn_fail_and_say_which():
    cone = check_monotonicity(OFF_CONE, seed=2, n_pairs=5)
    chain = check_chain_inequality(WIDE_W, seed=1, n_pairs=5)
    pair = check_dissipation_inequality(WIDE_W, seed=3, n_pairs=5)
    assert [r.passed for r in (cone, chain, pair)] == [False] * 3
    assert cone.detail == (
        "could not draw sample 1 of 5: the state bounds miss the cone a1 <= 0, a3 <= 0 <= a4 of monotone boxes, "
        "got IntervalBox([1.0, 5.0] x [1.0, 5.0])"
    )
    assert chain.detail == "could not draw sample 1 of 5: failed to sample a feasible chain"
    assert pair.detail == "could not draw sample 3 of 5: failed to sample a feasible transition pair"


@pytest.mark.parametrize("patched", ["feasible_chain", "eval_v"])
def test_a_solver_failure_beside_the_draws_is_not_a_failed_draw(accept_spec, monkeypatch, patched):
    # only a sampler's give-up is caught; a RuntimeError of any other kind
    # ends the battery as before
    def fail(*args):
        raise SolverFailure("stopped")

    monkeypatch.setattr(acceptance, patched, fail)
    with pytest.raises(SolverFailure, match="stopped"):
        check_chain_inequality(accept_spec, seed=1, n_pairs=5)
