import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tube_dissip import tube_mpc
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.dissipativity import eval_storage
from tube_dissip.interval_sets import IntervalBox, contains, subset
from tube_dissip.problem import ConfigError, dynamics, transition_feasible
from tube_dissip.qp_solver import QpStatus, verify_kkt
from tube_dissip.tube_mpc import (
    ControllerInfeasible,
    TubeMpcConfig,
    TubeSolution,
    TubeStepInfeasible,
    feedback,
    mu_feedback,
    solve_tmpc,
    sweep_feedback,
)

INF = float("inf")


def box(ix, iy):
    return IntervalBox.from_intervals(ix, iy)


def assert_corners(a: IntervalBox, want, tol=1e-6):
    assert max(abs(x - y) for x, y in zip(a.corners(), want)) <= tol


class TestSolveTmpc:
    def test_without_initial_cost_inside_invariant_box(self, spec, cfg_noic):
        sol = solve_tmpc(spec, cfg_noic, (-1.0, -2.0))
        assert sol.feasible
        assert sol.u0 == pytest.approx(-2.0, abs=1e-8)
        assert_corners(sol.tube[1], (-2.0, -2.0, -4.0, 0.0))

    def test_with_initial_cost_inside_invariant_box(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (-1.0, -2.0))
        assert sol.u0 == pytest.approx(-1.0, abs=1e-8)

    def test_with_initial_cost_below_band(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (0.0, -4.5))
        assert sol.u0 == pytest.approx(-0.75, abs=1e-8)

    def test_infeasible_outside_state_bounds(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (-6.0, 0.0))
        assert sol.status is QpStatus.INFEASIBLE
        assert sol.tube is None

    def test_state_pinned_into_first_box(self, spec, cfg_ic, rng):
        for _ in range(20):
            z = rng.uniform(-5, 5, 2)
            sol = solve_tmpc(spec, cfg_ic, z)
            assert sol.feasible
            assert contains(sol.tube[0], z, tol=1e-8)

    def test_terminal_equality_pins_last_box(self, spec, cfg_ic, x_star):
        sol = solve_tmpc(spec, cfg_ic, (2.0, 2.0))
        assert_corners(sol.tube[-1], x_star.corners(), tol=1e-9)

    def test_terminal_containment_mode(self, spec, x_star):
        cfg = TubeMpcConfig(use_initial_cost=True, terminal_equality=False)
        cfg_eq = TubeMpcConfig(use_initial_cost=True)
        for z in ((2.0, 2.0), (-1.0, -2.0), (4.0, -4.5)):
            sol = solve_tmpc(spec, cfg, z)
            assert sol.feasible
            assert subset(sol.tube[-1], x_star, tol=1e-8)
            assert sol.objective <= solve_tmpc(spec, cfg_eq, z).objective + 1e-6

    def test_objective_matches_cost_to_travel_form(self, spec, cfg_ic, rng):
        from tube_dissip.dissipativity import StorageFunction

        sf = StorageFunction.reference()
        for _ in range(25):
            z = rng.uniform(-5, 5, 2)
            sol = solve_tmpc(spec, cfg_ic, z)
            legs = sum(
                eval_v(spec, a, b, 1).value for a, b in zip(sol.tube[:-1], sol.tube[1:])
            )
            assert math.isfinite(legs)
            assert sol.objective == pytest.approx(
                eval_storage(sf, spec, sol.tube[0]) + legs, abs=1e-6
            )

    def test_feedback_robustness_and_recursive_feasibility(self, spec, cfg_ic, x_star, rng):
        # the applied control lands in the second box for both extreme
        # disturbances, and the shifted tube stays feasible step by step
        checked = 0
        while checked < 100:
            z = rng.uniform(-5, 5, 2)
            sol = solve_tmpc(spec, cfg_ic, z)
            if not sol.feasible:
                continue
            checked += 1
            for w in (spec.w_lo, spec.w_hi):
                nxt = dynamics(spec, z, sol.u0, w)
                assert contains(sol.tube[1], nxt, tol=1e-7)
            shifted = list(sol.tube[1:]) + [x_star]
            for a, b in zip(shifted[:-1], shifted[1:]):
                assert transition_feasible(spec, a, b)

    def test_horizon_one(self, spec, x_star):
        cfg = TubeMpcConfig(horizon=1, use_initial_cost=True)
        sol = solve_tmpc(spec, cfg, (-1.0, -2.0))
        assert sol.feasible
        assert len(sol.tube) == 2
        assert sol.u0 == pytest.approx(-1.0, abs=1e-8)

    def test_snaps_corners_inverted_within_feas_tol(self, spec, cfg_noic, monkeypatch):
        # the solver accepts rows violated by up to feas_tol, the corner
        # order b1 <= b2 included; such an inversion reads back as a
        # degenerate interval, not as an empty one
        real_solve = tube_mpc.solve
        seen = []

        def inverted_solve(qp, settings):
            sol = real_solve(qp, settings)
            x = sol.x.copy()
            x[4] = x[5] + 5e-9  # second box's corners (b1, b2) are x[4], x[5]
            sol = replace(sol, x=x)
            assert verify_kkt(qp, sol, settings.feas_tol)
            seen.append(sol)
            return sol

        monkeypatch.setattr(tube_mpc, "solve", inverted_solve)
        sol = solve_tmpc(spec, cfg_noic, (-1.0, -2.0))
        assert seen and sol.status is QpStatus.OPTIMAL
        lo1, hi1 = sol.tube[1].lo[0], sol.tube[1].hi[0]
        assert lo1 == hi1 == pytest.approx(-2.0, abs=1e-8)
        assert sol.u0_interval[0] == sol.u0_interval[1] == pytest.approx(-2.0, abs=1e-8)

    @pytest.mark.parametrize("z", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_state_rejected(self, spec, cfg_ic, z):
        with pytest.raises(ConfigError, match="finite"):
            solve_tmpc(spec, cfg_ic, z)

    def test_json_round_trip(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (1.0, 1.0))
        back = TubeSolution.from_json_dict(json.loads(json.dumps(sol.to_json_dict())))
        assert back.status is sol.status
        assert back.u0 == sol.u0
        assert back.tube == sol.tube


class TestHatchedRegionStructure:
    def test_optimal_tubes_in_the_absorbing_band(self, spec, cfg_ic, x_star):
        # inside the band [-5,5] x [-4,0] the optimal tube ends at the
        # invariant box immediately and the first box follows a closed form
        for z1 in np.linspace(-5, 5, 11):
            for z2 in np.linspace(-4, 0, 5):
                sol = solve_tmpc(spec, cfg_ic, (z1, z2))
                if -5 <= z1 <= -4:
                    want0 = (z1, -4.0, -4.0, 0.0)
                elif z1 <= 0:
                    want0 = (z1, z1, -4.0, 0.0)
                else:
                    want0 = (0.0, z1, -4.0, 0.0)
                assert_corners(sol.tube[0], want0)
                assert_corners(sol.tube[1], x_star.corners())
                assert_corners(sol.tube[2], x_star.corners())


class TestFeedback:
    def test_law_above_band(self, spec, cfg_ic):
        assert feedback(spec, cfg_ic, (0.0, 2.0)) == pytest.approx(-2.0, abs=1e-8)

    def test_law_inside_band(self, spec, cfg_ic):
        assert feedback(spec, cfg_ic, (5.0, 0.0)) == pytest.approx(-1.0, abs=1e-8)

    def test_law_without_initial_cost(self, spec, cfg_noic):
        assert feedback(spec, cfg_noic, (-3.0, -1.0)) == pytest.approx(-2.5, abs=1e-8)

    def test_raises_outside_feasible_region(self, spec, cfg_ic):
        with pytest.raises(ControllerInfeasible):
            feedback(spec, cfg_ic, (5.5, 0.0))


class TestMuFeedback:
    def test_forced_singleton(self, spec, x_star):
        u = mu_feedback(spec, (x_star, x_star), 0, (-1.0, -2.0))
        assert u == pytest.approx(-1.0, abs=1e-12)

    def test_widened_next_box_midpoint(self, spec, x_star):
        # x1-window [-2, 0]; x2 requires u - 1 + w in [-4, 0] for |w| <= 1,
        # so u in [-2, 0]; the midpoint of the intersection is -1
        tube = (x_star, box((-2, 0), (-4, 0)))
        u = mu_feedback(spec, tube, 0, (-1.0, -2.0))
        assert u == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_step_raises(self, spec, x_star):
        tube = (box((-5, 5), (-5, 5)), x_star)
        with pytest.raises(TubeStepInfeasible):
            mu_feedback(spec, tube, 0, (3.0, 4.0))

    def test_state_outside_tube_rejected(self, spec, x_star):
        with pytest.raises(ValueError):
            mu_feedback(spec, (x_star, x_star), 0, (0.0, 0.0))

    def test_index_out_of_range_rejected(self, spec, x_star):
        with pytest.raises(ValueError):
            mu_feedback(spec, (x_star, x_star), 1, (-1.0, -2.0))


class TestSweep:
    def test_single_point_grid_matches_direct_solve(self, spec, cfg_ic):
        points = sweep_feedback(spec, cfg_ic, [(-1.0, -2.0)])
        assert len(points) == 1
        assert points[0].u0 == pytest.approx(-1.0, abs=1e-8)
        assert points[0].status is QpStatus.OPTIMAL

    def test_infeasible_points_recorded_not_raised(self, spec, cfg_noic):
        points = sweep_feedback(spec, cfg_noic, [(-1.0, -2.0), (5.5, 0.0)])
        assert points[0].status is QpStatus.OPTIMAL
        assert points[1].status is QpStatus.INFEASIBLE
        assert points[1].u0 is None


class TestConfig:
    def test_terminal_outside_bounds_rejected(self, spec):
        cfg = TubeMpcConfig(terminal_set=box((-6, 0), (0, 1)))
        with pytest.raises(ConfigError):
            solve_tmpc(spec, cfg, (0.0, 0.0))

    def test_non_invariant_terminal_warns(self, spec):
        cfg = TubeMpcConfig(terminal_set=box((0, 0), (0, 0)))
        with pytest.warns(UserWarning, match="self-successor"):
            solve_tmpc(spec, cfg, (0.0, 0.0))

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigError):
            TubeMpcConfig(horizon=0)
