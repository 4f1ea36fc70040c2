import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from tube_dissip import tube_mpc
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.dissipativity import eval_storage
from tube_dissip.interval_sets import IntervalBox, contains, subset
from tube_dissip.problem import ConfigError, ProblemSpec, dynamics, transition_feasible, transition_witness
from tube_dissip.qp_solver import DEFAULT_SETTINGS, QpStatus, solve
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

from .oracles import row_violations, tube_qp_reference

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
        # containment is the same program as equality: the last box is the
        # terminal box, and the answer is the same
        cfg = TubeMpcConfig(use_initial_cost=True, terminal_equality=False)
        cfg_eq = TubeMpcConfig(use_initial_cost=True)
        for z in ((2.0, 2.0), (-1.0, -2.0), (4.0, -4.5)):
            sol = solve_tmpc(spec, cfg, z)
            assert sol.feasible
            assert subset(sol.tube[-1], x_star, tol=1e-8)
            assert sol == solve_tmpc(spec, cfg_eq, z)

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
        # a minimiser may violate rows by up to feas_tol, the corner order
        # b1 <= b2 included; such an inversion reads back as a degenerate
        # interval, not as an empty one
        real_solve = tube_mpc._solve_program
        seen = []

        def inverted_solve(prog, z, settings):
            h, x, y = real_solve(prog, z, settings)
            x = x.copy()
            x[4] = x[5] + 5e-9  # second box's corners (b1, b2) are x[4], x[5]
            assert np.max(prog.G @ x - h) <= settings.feas_tol
            seen.append(x)
            return h, x, y

        monkeypatch.setattr(tube_mpc, "_solve_program", inverted_solve)
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


def record_solves(monkeypatch):
    """Patch the controller's solve step; the returned list gets the state of each solve."""
    real_solve = tube_mpc._solve_program
    states = []

    def recording_solve(prog, z, settings):
        states.append(tuple(z))
        return real_solve(prog, z, settings)

    monkeypatch.setattr(tube_mpc, "_solve_program", recording_solve)
    return states


# states within feas_tol of the state bounds, and the states on them they are read as
WITHIN_THE_BAND = [
    ((-5.0 - 5e-9, 0.0), (-5.0, 0.0)),
    ((-5.0 - 1e-8, 0.0), (-5.0, 0.0)),
    ((5.0 + 1e-8, 0.0), (5.0, 0.0)),
    ((2.0, -5.0 - 1e-8), (2.0, -5.0)),
    ((5.0 + 9e-9, 5.0 + 9e-9), (5.0, 5.0)),
]


class TestStateBounds:
    """A state beyond X by more than feas_tol has no tube; one within it is read as on X."""

    @pytest.mark.parametrize("z", [(-5.00000002, 0.0), (5.00000002, 0.0), (0.0, -5.00000002),
                                   (1.0, 5.00000002), (-6.0, 0.0), (0.0, 5.5), (1e300, -1e300)])
    def test_beyond_the_band_infeasible_without_a_solve(self, spec, cfg_ic, monkeypatch, z):
        solves = record_solves(monkeypatch)
        solve_tmpc(spec, cfg_ic, (0.0, 0.0))
        sol = solve_tmpc(spec, cfg_ic, z)
        assert sol.status is QpStatus.INFEASIBLE and sol.tube is None
        assert solves == [(0.0, 0.0)]

    @pytest.mark.parametrize("z, on_x", WITHIN_THE_BAND)
    def test_within_the_band_solved_on_the_bounds(self, spec, cfg_ic, z, on_x):
        sol = solve_tmpc(spec, cfg_ic, z)
        assert sol.status is QpStatus.OPTIMAL
        assert sol == solve_tmpc(spec, cfg_ic, on_x)


CONFIGS = {
    "default": TubeMpcConfig(),
    "no_initial_cost": TubeMpcConfig(use_initial_cost=False),
    "horizon_3": TubeMpcConfig(horizon=3),
    "containment": TubeMpcConfig(terminal_equality=False),
    "horizon_1": TubeMpcConfig(horizon=1),
    "horizon_1_containment": TubeMpcConfig(horizon=1, terminal_equality=False),
}
STATE_GRID = [(z1, z2) for z1 in np.linspace(-5, 5, 9) for z2 in np.linspace(-5, 5, 9)]
FINE_GRID = [(z1, z2) for z1 in np.linspace(-5, 5, 21) for z2 in np.linspace(-5, 5, 21)]
# (state, the state on the bounds it is solved as)
ORACLE_STATES = [(z, z) for z in FINE_GRID] + WITHIN_THE_BAND


def point_box(z):
    return IntervalBox.from_corners((z[0], z[0], z[1], z[1]))


def assert_same_program(got, want):
    for name in got._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestTemplate:
    """One corner program per controller; the state enters only its right-hand side."""

    @pytest.mark.parametrize("name", ["default", "no_initial_cost", "horizon_3", "containment"])
    def test_equals_a_fresh_assembly_bit_for_bit(self, spec, name):
        # solves leave the cached program as assembled, and containment
        # assembles the program of terminal equality
        cfg = CONFIGS[name]
        sweep_feedback(spec, cfg, STATE_GRID)
        fresh = tube_mpc._tube_program.__wrapped__(spec, cfg)
        assert_same_program(tube_mpc._tube_program(spec, cfg), fresh)
        assert_same_program(fresh, tube_mpc._tube_program.__wrapped__(spec, replace(cfg, terminal_equality=True)))

    @pytest.mark.parametrize("name", ["horizon_1", "horizon_1_containment"])
    def test_one_step_equals_the_assembly_at_each_state(self, spec, name):
        # with one free box the state's own point box is a first box, so the
        # program is feasible exactly when that point box reaches the
        # terminal box in one step, and u0's window is that step's
        cfg = CONFIGS[name]
        terminal, _ = tube_mpc._resolved(spec, cfg)
        verdicts = set()
        for z in FINE_GRID:
            sol = solve_tmpc(spec, cfg, z)
            verdicts.add(sol.feasible)
            assert sol.feasible == transition_feasible(spec, point_box(z), terminal)
            if sol.feasible:
                v1, v2 = transition_witness(spec, point_box(z), terminal)
                lo, hi = sol.u0_interval
                assert lo - 1e-12 <= v1 and v2 <= hi + 1e-12
        assert verdicts == {True, False}

    def test_assembled_once_per_controller(self, spec, cfg_ic, monkeypatch):
        tube_mpc._tube_program.cache_clear()
        builds = []
        real_stack = tube_mpc._stacked_steps

        def counting_stack(*args):
            builds.append(args)
            return real_stack(*args)

        monkeypatch.setattr(tube_mpc, "_stacked_steps", counting_stack)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        solve_tmpc(spec, cfg_ic, (1.0, 1.0))
        assert len(builds) == 1

    def test_each_solve_independent_of_earlier_calls(self, spec, cfg_ic):
        z = (2.5, -3.5)
        first = solve_tmpc(spec, cfg_ic, z)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        assert solve_tmpc(spec, cfg_ic, z) == first


@lru_cache(maxsize=None)
def admm_tube(horizon: int, use_initial_cost: bool, terminal_equality: bool, z):
    """The ADMM oracle's answer for a default-instance controller: status, objective and corners."""
    spec = ProblemSpec.default()
    cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=use_initial_cost, terminal_equality=terminal_equality)
    sol = solve(tube_qp_reference(spec, *tube_mpc._resolved(spec, cfg), cfg, z))
    assert sol.status in (QpStatus.OPTIMAL, QpStatus.INFEASIBLE)
    if sol.status is QpStatus.INFEASIBLE:
        return sol.status, None, None
    return sol.status, sol.objective, sol.x[: 4 * horizon]


class TestAgainstAdmm:
    """The kernel's tube program against the original one, edge controls and u0 included, solved by ADMM."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_agrees_with_the_admm_oracle(self, spec, name):
        cfg = CONFIGS[name]
        n = cfg.horizon
        terminal, _ = tube_mpc._resolved(spec, cfg)
        statuses = set()
        for z, on_x in ORACLE_STATES:
            sol = solve_tmpc(spec, cfg, z)
            # equality, the program the controller solves under both settings
            status, objective, corners = admm_tube(n, cfg.use_initial_cost, True, on_x)
            statuses.add(status)
            assert sol.status is status
            if status is QpStatus.INFEASIBLE:
                continue
            assert sol.objective == pytest.approx(objective, abs=1e-8)
            got = np.concatenate([box.corners() for box in sol.tube[:n]])
            assert np.max(np.abs(got - corners)) <= 1e-8
            assert sol.tube[-1] == terminal
            assert all(subset(box, spec.x_bounds) for box in sol.tube[:n])
            # the window of controls taking z into the oracle's second box
            b1, b2, b3, b4 = corners[4:8] if n > 1 else terminal.corners()
            lo = max(b1, b3 - spec.alpha * on_x[1] - spec.w_lo, spec.u_lo)
            hi = min(b2, b4 - spec.alpha * on_x[1] - spec.w_hi, spec.u_hi)
            assert np.allclose(sol.u0_interval, (lo, hi), rtol=0.0, atol=1e-8)
            assert sol.u0 == pytest.approx(min(max(0.0, lo), hi), abs=1e-8)
            for (src, dst), v in zip(zip(sol.tube[:-1], sol.tube[1:]), sol.edge_controls):
                assert max(row_violations(spec, src, dst, v)) <= DEFAULT_SETTINGS.feas_tol
        assert statuses == ({QpStatus.OPTIMAL, QpStatus.INFEASIBLE} if n == 1 else {QpStatus.OPTIMAL})

    @pytest.mark.parametrize("name", ["containment", "horizon_1_containment"])
    def test_containment_oracle_gives_the_same_answer(self, spec, name):
        # the original containment program, a last box free inside the
        # terminal box, has the verdict, value and free boxes of equality
        cfg = CONFIGS[name]
        n = cfg.horizon
        for z in STATE_GRID + [on_x for _, on_x in WITHIN_THE_BAND]:
            status, objective, corners = admm_tube(n, cfg.use_initial_cost, False, z)
            want = admm_tube(n, cfg.use_initial_cost, True, z)
            assert status is want[0]
            if status is QpStatus.OPTIMAL:
                assert objective == pytest.approx(want[1], abs=1e-8)
                assert np.max(np.abs(corners - want[2])) <= 1e-8


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
