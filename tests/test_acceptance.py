"""End-to-end acceptance battery.

One test per criterion, each printed as its own pass/fail line; the seeded
criteria read TUBE_DISSIP_SEED (default 0) so the battery is reproducible.
"""

import os

import pytest

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
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec

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
