import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from tube_dissip import cost_to_travel, tube_mpc
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

    def test_snaps_corners_inverted_within_feas_tol(self, spec, cfg_noic, x_star, monkeypatch):
        # a minimiser may violate rows by up to feas_tol, the corner order
        # b1 <= b2 included; such an inversion reads back as a degenerate
        # interval, not as an empty one, for every program read back by the
        # shared helper
        real_solve = cost_to_travel._solve_program
        seen = []

        def inverted_solve(prog, p, settings):
            h, x, y = real_solve(prog, p, settings)
            x = x.copy()
            # the corners (b1, b2) of the tube's second box, of the chain's
            # middle box and of the invariant box
            i = 4 if prog.G.shape[1] > 4 else 0
            x[i] = x[i + 1] + 5e-9
            assert np.max(prog.G @ x - h) <= settings.feas_tol
            seen.append(x)
            return h, x, y

        # the controller's invariant box is solved before the patch
        tube_mpc._resolved(spec, cfg_noic)
        monkeypatch.setattr(cost_to_travel, "_solve_program", inverted_solve)
        sol = solve_tmpc(spec, cfg_noic, (-1.0, -2.0))
        assert seen and sol.status is QpStatus.OPTIMAL
        lo1, hi1 = sol.tube[1].lo[0], sol.tube[1].hi[0]
        assert lo1 == hi1 == pytest.approx(-2.0, abs=1e-8)
        assert sol.u0_interval[0] == sol.u0_interval[1] == pytest.approx(-2.0, abs=1e-8)

        # x_star's first interval is the single point -1, so its self-chain
        # has that middle interval, and so does the invariant box
        result = eval_v(spec, x_star, x_star, 2)
        assert len(seen) == 2 and result.feasible
        assert result.tube[1].lo[0] == result.tube[1].hi[0] == pytest.approx(-1.0, abs=1e-8)
        box_, _ = cost_to_travel._optimal_rci.__wrapped__(spec, DEFAULT_SETTINGS)
        assert len(seen) == 3
        assert box_.lo[0] == box_.hi[0] == pytest.approx(-1.0, abs=1e-8)

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


def record_solves(monkeypatch, spec, cfg):
    """Patch the solve step; the returned list gets the state of each solve of the controller's program."""
    controller = tube_mpc._tube_program(spec, cfg)
    real_solve = cost_to_travel._solve_program
    states = []

    def recording_solve(prog, z, settings):
        if prog is controller:
            states.append(tuple(z))
        return real_solve(prog, z, settings)

    monkeypatch.setattr(cost_to_travel, "_solve_program", recording_solve)
    return states


# states within feas_tol of the state bounds, and the states on them they are read as
WITHIN_THE_BAND = [
    ((-5.0 - 5e-9, 0.0), (-5.0, 0.0)),
    ((-5.0 - 1e-8, 0.0), (-5.0, 0.0)),
    ((5.0 + 1e-8, 0.0), (5.0, 0.0)),
    ((2.0, -5.0 - 1e-8), (2.0, -5.0)),
    ((5.0 + 9e-9, 5.0 + 9e-9), (5.0, 5.0)),
]


BEYOND_THE_BAND = [(-5.00000002, 0.0), (5.00000002, 0.0), (0.0, -5.00000002),
                   (1.0, 5.00000002), (-6.0, 0.0), (0.0, 5.5), (1e300, -1e300)]


class TestStateBounds:
    """A state beyond X by more than feas_tol has no tube; one within it is read as on X."""

    @pytest.mark.parametrize("z", BEYOND_THE_BAND)
    def test_beyond_the_band_infeasible_without_a_solve(self, spec, cfg_ic, monkeypatch, z):
        solves = record_solves(monkeypatch, spec, cfg_ic)
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
    "horizon_1": TubeMpcConfig(horizon=1),
}
STATE_GRID = [(z1, z2) for z1 in np.linspace(-5, 5, 9) for z2 in np.linspace(-5, 5, 9)]
FINE_GRID = [(z1, z2) for z1 in np.linspace(-5, 5, 21) for z2 in np.linspace(-5, 5, 21)]
# (state, the state on the bounds it is solved as)
ORACLE_STATES = [(z, z) for z in FINE_GRID] + WITHIN_THE_BAND


def point_box(z):
    return IntervalBox.from_corners((z[0], z[0], z[1], z[1]))


def cold_solves(monkeypatch, spec, cfg, states, settings):
    """The controller's answers at the states with its program's start removed."""
    cold_prog = tube_mpc._tube_program(spec, cfg)._replace(start=np.zeros(0))
    monkeypatch.setattr(tube_mpc, "_tube_program", lambda *args: cold_prog)
    return [solve_tmpc(spec, cfg, z, settings) for z in states]


def assert_same_program(got, want):
    for name in got._fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestTemplate:
    """One corner program per controller; the state enters only its right-hand side."""

    @pytest.mark.parametrize("name", ["default", "no_initial_cost", "horizon_3"])
    def test_equals_a_fresh_assembly_bit_for_bit(self, spec, name):
        # solves leave the cached program as assembled
        cfg = CONFIGS[name]
        sweep_feedback(spec, cfg, STATE_GRID)
        fresh = tube_mpc._tube_program.__wrapped__(spec, cfg)
        assert_same_program(tube_mpc._tube_program(spec, cfg), fresh)

    @pytest.mark.parametrize("name", ["horizon_1"])
    def test_one_step_equals_the_assembly_at_each_state(self, spec, name):
        # with one free box the state's own point box is a first box, so the
        # program is feasible exactly when that point box reaches the
        # terminal box in one step, and u0's window is that step's
        cfg = CONFIGS[name]
        terminal, _, _ = tube_mpc._resolved(spec, cfg)
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
        builds, starts = [], []
        real_stack = tube_mpc._stacked_steps
        real_qp = tube_mpc._corner_qp

        def counting_stack(*args):
            builds.append(args)
            return real_stack(*args)

        def counting_qp(*args):
            starts.append(args)
            return real_qp(*args)

        monkeypatch.setattr(tube_mpc, "_stacked_steps", counting_stack)
        monkeypatch.setattr(tube_mpc, "_corner_qp", counting_qp)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        solve_tmpc(spec, cfg_ic, (1.0, 1.0))
        assert len(builds) == 1
        # the start is solved with the program, not per state
        assert len(starts) == 1

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_cached_start_is_dual_feasible(self, spec, name):
        prog = tube_mpc._tube_program(spec, CONFIGS[name])
        free = ~prog.fixed
        state_free = ~np.any(prog.P[free] != 0.0, axis=1)
        y0 = prog.start
        assert y0.shape == state_free.shape and np.all(y0 >= 0.0) and np.any(y0 > 0.0)
        assert np.all(y0[~state_free] == 0.0)
        # the minimiser of the start's own rows, with y0 > 0 on active rows only
        x0 = -(prog.q + prog.G_free.T @ y0) / (2.0 * prog.d)
        slack = prog.h0[free][state_free] - prog.G_free[state_free] @ x0
        tol = 1e-3 * DEFAULT_SETTINGS.feas_tol
        assert np.all(slack >= -tol)
        assert np.all(np.abs(slack[y0[state_free] > 0.0]) <= tol)

    @pytest.mark.filterwarnings("ignore:terminal set is not a self-successor box")
    def test_no_start_when_the_state_free_rows_are_infeasible(self, spec):
        # no box reaches a single point against every disturbance
        cfg = TubeMpcConfig(terminal_set=IntervalBox.from_corners((1.0, 1.0, -1.0, -1.0)))
        assert tube_mpc._tube_program(spec, cfg).start.size == 0
        assert solve_tmpc(spec, cfg, (1.0, -1.0)).status is QpStatus.INFEASIBLE

    def test_every_solve_starts_from_the_cached_start(self, spec, cfg_ic, monkeypatch):
        prog = tube_mpc._tube_program(spec, cfg_ic)
        real_kernel = cost_to_travel._dual_active_set
        starts = []

        def recording_kernel(d, q, G, h, tol, max_iter, start=None):
            starts.append(start)
            return real_kernel(d, q, G, h, tol, max_iter, start)

        monkeypatch.setattr(cost_to_travel, "_dual_active_set", recording_kernel)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        assert len(starts) == len(STATE_GRID) and all(start is prog.start for start in starts)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_started_solves_give_the_cold_answers(self, spec, name, monkeypatch, rng):
        cfg = CONFIGS[name]
        n = cfg.horizon
        states = [z for z, _ in ORACLE_STATES] + BEYOND_THE_BAND + [tuple(z) for z in rng.uniform(-5, 5, (200, 2))]
        warm = [solve_tmpc(spec, cfg, z) for z in states]
        for z, got, want in zip(states, warm, cold_solves(monkeypatch, spec, cfg, states, DEFAULT_SETTINGS)):
            assert got.status is want.status, z
            if not want.feasible:
                continue
            pairs = [(got.objective, want.objective), (got.u0, want.u0), *zip(got.u0_interval, want.u0_interval)]
            pairs += [pair for a, b in zip(got.tube[:n], want.tube[:n]) for pair in zip(a.corners(), b.corners())]
            assert max(abs(a - b) for a, b in pairs) <= 1e-12, z

    @pytest.mark.parametrize("feas_tol", [1e-11, 1e-6])
    def test_one_start_serves_every_tolerance(self, spec, cfg_ic, monkeypatch, feas_tol):
        # the start is dual feasible whatever the tolerance the rows are held to
        settings = replace(DEFAULT_SETTINGS, feas_tol=feas_tol)
        warm = [solve_tmpc(spec, cfg_ic, z, settings) for z in STATE_GRID]
        for got, want in zip(warm, cold_solves(monkeypatch, spec, cfg_ic, STATE_GRID, settings)):
            assert got.status is want.status
            assert got.objective == pytest.approx(want.objective, abs=10 * feas_tol)

    def test_each_solve_independent_of_earlier_calls(self, spec, cfg_ic):
        z = (2.5, -3.5)
        first = solve_tmpc(spec, cfg_ic, z)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        assert solve_tmpc(spec, cfg_ic, z) == first


@lru_cache(maxsize=None)
def admm_tube(horizon: int, use_initial_cost: bool, containment: bool, z):
    """The ADMM oracle's answer for a default-instance controller: status, objective and corners.

    With ``containment`` the oracle's last box is free inside the terminal
    box, otherwise it is the terminal box.
    """
    spec = ProblemSpec.default()
    cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=use_initial_cost)
    terminal, storage, _ = tube_mpc._resolved(spec, cfg)
    sol = solve(tube_qp_reference(spec, terminal, storage, cfg, z, containment))
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
        terminal, _, _ = tube_mpc._resolved(spec, cfg)
        statuses = set()
        for z, on_x in ORACLE_STATES:
            sol = solve_tmpc(spec, cfg, z)
            status, objective, corners = admm_tube(n, cfg.use_initial_cost, False, on_x)
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

    @pytest.mark.parametrize("name", ["default", "horizon_1"], ids=["containment", "horizon_1_containment"])
    def test_containment_oracle_gives_the_same_answer(self, spec, name):
        # the original containment program, a last box free inside the
        # terminal box, has the verdict, value and free boxes of the program
        # whose last box is the terminal box, the one the controller solves
        cfg = CONFIGS[name]
        n = cfg.horizon
        for z in STATE_GRID + [on_x for _, on_x in WITHIN_THE_BAND]:
            status, objective, corners = admm_tube(n, cfg.use_initial_cost, True, z)
            want = admm_tube(n, cfg.use_initial_cost, False, z)
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
        # at every solve, not only at the one that resolves the controller,
        # and at the caller's line; pytest.warns records under "always"
        cfg = TubeMpcConfig(terminal_set=box((0, 0), (0, 0)))
        with pytest.warns(UserWarning, match="self-successor") as caught:
            solve_tmpc(spec, cfg, (0.0, 0.0))
            solve_tmpc(spec, cfg, (1.0, 0.0))
        assert len(caught) == 2 and all(w.filename == __file__ for w in caught)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigError):
            TubeMpcConfig(horizon=0)
