import math

import numpy as np
import pytest

from tube_dissip import closed_loop
from tube_dissip.closed_loop import (
    AdversarialPolicy,
    ExtremePolicy,
    UniformRandomPolicy,
    check_enclosure_stability,
    rotated_cost,
    simulate,
)
from tube_dissip.interval_sets import IntervalBox, boxes_intersect, contains, hausdorff
from tube_dissip.problem import ConfigError, dynamics
from tube_dissip.tube_mpc import TubeMpcConfig, solve_tmpc


def box(ix, iy):
    return IntervalBox.from_intervals(ix, iy)


class TestPolicies:
    def test_extreme_pattern_validation(self):
        with pytest.raises(ValueError):
            ExtremePolicy(signs=())
        with pytest.raises(ValueError):
            ExtremePolicy(signs=(2,))

    def test_descriptions(self):
        assert ExtremePolicy(signs=(1, -1)).describe() == "extreme:+-"
        assert UniformRandomPolicy(seed=7).describe() == "random:7"
        assert AdversarialPolicy().describe() == "adversarial"

    def test_a_sign_is_an_integer(self):
        # True equals 1, and was taken as the sign +1
        with pytest.raises(ConfigError, match="signs"):
            ExtremePolicy(signs=(True,))
        assert ExtremePolicy(signs=(np.int64(-1),)).describe() == "extreme:-"

    # bytes, a mapping and a set of signs were read as the signs they hold
    @pytest.mark.parametrize("signs", [3, None, (1.0,), (0,), (1, 10**400), b"\x01", {1: "+"}, {1, -1}, "+-"])
    def test_signs_that_are_not_a_sequence_of_signs_rejected(self, signs):
        # a number and None raised TypeError
        with pytest.raises(ConfigError, match="signs"):
            ExtremePolicy(signs=signs)

    @pytest.mark.parametrize("signs", [[1, -1], np.array([1, -1]), (np.int64(1), -1)])
    def test_signs_kept_as_a_tuple_of_ints(self, signs):
        # an array was kept as it was given, and == between two such policies raised ValueError
        policy = ExtremePolicy(signs=signs)
        assert policy == ExtremePolicy(signs=(1, -1)) and type(policy.signs[0]) is int

    @pytest.mark.parametrize("seed", [2.5, True, -1, "1"])
    def test_a_seed_is_a_non_negative_integer(self, seed):
        # 2.5 and True built a policy, which described itself as random:True
        with pytest.raises(ConfigError, match="seed"):
            UniformRandomPolicy(seed=seed)

    def test_a_numpy_integer_seed_is_a_seed(self):
        assert UniformRandomPolicy(seed=np.int64(7)).describe() == "random:7"


class TestSimulate:
    def test_adversarial_lookahead_solve_reused(self, spec, cfg_ic, monkeypatch):
        # two lookahead solves per step and one at the start; the chosen
        # lookahead solution is the next step's tube
        solve_tmpc(spec, cfg_ic, (0.0, 0.0))
        calls = []
        real_solve = closed_loop.solve_tmpc

        def counting_solve_tmpc(*args, **kwargs):
            calls.append(args[2])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(closed_loop, "solve_tmpc", counting_solve_tmpc)
        steps = 6
        trace = simulate(spec, cfg_ic, (5.0, -5.0), steps, AdversarialPolicy())
        assert trace.failure_step is None and len(trace.steps) == steps + 1
        assert len(calls) == 2 * steps + 1
        for s in trace.steps:
            assert s.tube == solve_tmpc(spec, cfg_ic, s.y).tube

    @pytest.mark.parametrize("steps", [-3, True, 2.5, "2", None])
    def test_steps_is_a_non_negative_integer(self, spec, cfg_ic, steps):
        # range() took -3 as no step and True as one, and 2.5 raised TypeError
        with pytest.raises(ConfigError, match="steps"):
            simulate(spec, cfg_ic, (2.0, 3.0), steps, ExtremePolicy(signs=(1,)))

    @pytest.mark.parametrize("steps", [closed_loop.MAX_TRACE_STEPS + 1, 10**10, np.int64(10**10)])
    def test_steps_beyond_the_cap_rejected_before_the_first_solve(self, spec, cfg_ic, monkeypatch, steps):
        # the trace keeps every step, so 10**10 of them would fill memory
        def forbidden(*args, **kwargs):
            raise AssertionError("the controller was solved")

        monkeypatch.setattr(closed_loop, "solve_tmpc", forbidden)
        monkeypatch.setattr(closed_loop, "optimal_rci", forbidden)
        with pytest.raises(ConfigError, match=f"steps must be an integer between 0 and {closed_loop.MAX_TRACE_STEPS}"):
            simulate(spec, cfg_ic, (2.0, 3.0), steps, AdversarialPolicy())

    @pytest.mark.parametrize("steps", [0, 2])
    @pytest.mark.parametrize("policy", ["adversarial", None, 3])
    def test_a_policy_of_another_kind_rejected_before_the_first_solve(self, spec, cfg_ic, monkeypatch, steps, policy):
        # at 2 steps one solve ran before a TypeError, and at 0 the trace's
        # policy.describe() raised AttributeError
        def forbidden(*args, **kwargs):
            raise AssertionError("the controller was solved")

        monkeypatch.setattr(closed_loop, "solve_tmpc", forbidden)
        with pytest.raises(ConfigError, match="policy must be an ExtremePolicy, UniformRandomPolicy or AdversarialPolicy"):
            simulate(spec, cfg_ic, (0.0, 0.0), steps, policy)

    def test_numpy_integer_steps(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (2.0, 3.0), np.int64(2), ExtremePolicy(signs=(1,)))
        assert trace == simulate(spec, cfg_ic, (2.0, 3.0), 2, ExtremePolicy(signs=(1,)))
        assert len(trace.steps) == 3

    def test_dynamics_recorded_exactly(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (2.0, 3.0), 4, ExtremePolicy(signs=(1, -1)))
        for a, b in zip(trace.steps[:-1], trace.steps[1:]):
            assert b.y == dynamics(spec, a.y, a.u, a.w)

    def test_trace_shape(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (2.0, 3.0), 5, ExtremePolicy(signs=(1,)))
        assert len(trace.steps) == 6
        assert trace.steps[-1].u is None and trace.steps[-1].w is None
        assert all(s.u is not None for s in trace.steps[:-1])
        assert trace.failure_step is None

    def test_deterministic_for_fixed_seed(self, spec, cfg_ic):
        a = simulate(spec, cfg_ic, (1.0, 1.0), 5, UniformRandomPolicy(seed=3))
        b = simulate(spec, cfg_ic, (1.0, 1.0), 5, UniformRandomPolicy(seed=3))
        assert a == b
        c = simulate(spec, cfg_ic, (1.0, 1.0), 5, UniformRandomPolicy(seed=4))
        assert c != a

    @pytest.mark.parametrize("y0", [(1.0, 2.0, 3.0), (1.0,), 1.0, ("1", "0"), (True, 0.0), (0.0, False), (0.0, 10**400)])
    def test_start_that_is_not_two_numbers_rejected(self, spec, cfg_ic, y0):
        with pytest.raises(ConfigError, match="y0 must be two numbers"):
            simulate(spec, cfg_ic, y0, 2, ExtremePolicy(signs=(1,)))

    def test_failure_marker_outside_bounds(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (9.0, 0.0), 3, ExtremePolicy(signs=(1,)))
        assert trace.failure_step == 0
        assert trace.steps == ()

    def test_enclosure_contains_state_across_policies(self, spec, cfg_ic, rng):
        # randomized battery: every visited state lies in its enclosure box
        policies = [
            AdversarialPolicy(),
            ExtremePolicy(signs=(1, -1)),
        ] + [UniformRandomPolicy(seed=s) for s in range(8)]
        runs = 0
        for _ in range(100):
            y0 = rng.uniform(-5, 5, 2)
            for policy in policies:
                trace = simulate(spec, cfg_ic, y0, 2, policy)
                runs += 1
                for s in trace.steps:
                    assert contains(s.enclosure, s.y, tol=1e-9)
        assert runs == 1000

    def test_csv_rows_schema(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (2.0, 3.0), 2, ExtremePolicy(signs=(1,)))
        rows = trace.csv_rows()
        assert list(rows[0]) == ["k", "y1", "y2", "u", "w", "Y_a1", "Y_a2", "Y_a3", "Y_a4", "dH", "lyapunov"]
        assert rows[-1]["u"] is None


class TestRotatedCost:
    def test_zero_at_stationary_pair(self, spec, cfg_ic, x_star):
        assert rotated_cost(spec, cfg_ic, x_star, x_star) == pytest.approx(0.0, abs=1e-8)

    def test_hand_computed_value(self, spec, cfg_ic, x_star):
        # E(A) - E(B) + V(A,B,1) - V* = 12.8 - 11.2 - 0.9 + 0.2
        a = box((-1, -1), (-3, 0))
        assert rotated_cost(spec, cfg_ic, a, x_star) == pytest.approx(0.9, abs=1e-8)

    def test_infeasible_pair_is_infinite(self, spec, cfg_ic, x_star):
        assert rotated_cost(spec, cfg_ic, x_star, box((0, 1), (0, 1))) == math.inf

    def test_zero_initial_cost_variant(self, spec, cfg_noic, x_star):
        # with no initial cost the rotation reduces to the excess stage cost
        a = box((-1, -1), (-3, 0))
        assert rotated_cost(spec, cfg_noic, a, x_star) == pytest.approx(-0.7, abs=1e-8)


class TestLyapunovValue:
    """The decrease certificate ``TraceStep.lyapunov``: the rotated costs of the tube's steps, summed."""

    def test_zero_on_stationary_tube(self, spec, cfg_ic, x_star):
        assert rotated_cost(spec, cfg_ic, x_star, x_star) == pytest.approx(0.0, abs=1e-8)
        # at a state inside X* the optimal tube stays on X*
        (step,) = simulate(spec, cfg_ic, (-1.0, -2.0), 0, AdversarialPolicy()).steps
        assert len(step.tube) == 3 and max(hausdorff(b, x_star) for b in step.tube) <= 1e-8
        assert step.lyapunov == pytest.approx(0.0, abs=1e-8)

    def test_positive_on_optimal_tube_away_from_box(self, spec, cfg_ic):
        (step,) = simulate(spec, cfg_ic, (5.0, -5.0), 0, AdversarialPolicy()).steps
        assert step.tube == solve_tmpc(spec, cfg_ic, (5.0, -5.0)).tube
        assert step.lyapunov == sum(step.rotated_legs)
        assert step.lyapunov == pytest.approx(3.648214285714, abs=1e-6)  # regression baseline
        assert step.lyapunov > 0

    def test_infinite_on_broken_tube(self, spec, cfg_ic, x_star):
        legs = closed_loop._rotated_legs(spec, cfg_ic, (x_star, x_star, box((0, 1), (0, 1))))
        assert legs[1] == math.inf
        assert sum(legs, 0.0) == math.inf

    def test_strict_decrease_along_stable_traces(self, spec, cfg_ic):
        for y0 in ((5.0, -5.0), (-5.0, 5.0)):
            trace = simulate(spec, cfg_ic, y0, 6, AdversarialPolicy())
            for a, b in zip(trace.steps[:-1], trace.steps[1:]):
                if a.dist_to_terminal > 1e-9:
                    assert b.lyapunov < a.lyapunov
                    assert a.rotated_legs[0] > 0


class TestInvarianceUnderFeedback:
    def test_invariant_box_traps_the_closed_loop(self, spec, cfg_ic, x_star, rng):
        states = [(-1.0, x2) for x2 in np.linspace(-4, 0, 5)]
        ws = [spec.w_lo, spec.w_hi] + list(rng.uniform(spec.w_lo, spec.w_hi, 100))
        for y in states:
            u = solve_tmpc(spec, cfg_ic, y).u0
            for w in ws:
                nxt = dynamics(spec, y, u, w)
                assert contains(x_star, nxt, tol=1e-9)


class TestEnclosureStability:
    def test_stable_runs_absorbed_by_step_two(self, spec, cfg_ic):
        for y0 in ((5.0, -5.0), (-5.0, 5.0)):
            trace = simulate(spec, cfg_ic, y0, 10, AdversarialPolicy())
            report = check_enclosure_stability(trace, spec)
            assert report.verdict == "absorbed"
            assert report.absorption_step <= 2
            assert report.containment_ok
            assert report.stable

    def test_constant_trace_at_invariant_box_absorbed_immediately(self, spec, cfg_ic):
        trace = simulate(spec, cfg_ic, (-1.0, -2.0), 5, ExtremePolicy(signs=(1,)))
        report = check_enclosure_stability(trace, spec)
        assert report.verdict == "absorbed"
        assert report.absorption_step == 0

    def test_witness_run_without_initial_cost(self, spec, cfg_noic, x_star):
        trace = simulate(spec, cfg_noic, (-1.0, -2.0), 3, ExtremePolicy(signs=(-1,)))
        report = check_enclosure_stability(trace, spec)
        y1 = trace.steps[1].enclosure
        assert not boxes_intersect(y1, x_star)
        assert report.escaped_terminal
        assert report.verdict == "unstable"
        assert 1 in report.disjoint_steps
        # the tube already predicted the escape at solve time
        predicted = trace.steps[0].tube[1]
        assert not boxes_intersect(predicted, x_star)

    def test_empty_trace_rejected(self, spec):
        from tube_dissip.closed_loop import SimulationTrace

        with pytest.raises(ValueError):
            check_enclosure_stability(SimulationTrace(y0=(0, 0), policy="x", steps=()), spec)

    def test_trace_failed_at_its_start_is_unstable(self, spec):
        # both corner starts are infeasible at horizon 1, so each trace
        # fails at step 0 with no steps; that is a verdict, not an error
        cfg = TubeMpcConfig(horizon=1)
        for y0 in ((5.0, -5.0), (-5.0, 5.0)):
            trace = simulate(spec, cfg, y0, 10, AdversarialPolicy())
            assert trace.steps == () and trace.failure_step == 0
            report = check_enclosure_stability(trace, spec)
            assert report.verdict == "unstable" and not report.stable
            assert not report.absorbed and report.absorption_step is None
            assert report.containment_ok and report.disjoint_steps == () and not report.escaped_terminal
