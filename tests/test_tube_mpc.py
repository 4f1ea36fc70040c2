import copy
import dataclasses
import inspect
import itertools
import json
import math
import os
import pickle
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from tube_dissip import cost_to_travel, qp_solver, tube_mpc
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.dissipativity import eval_storage
from tube_dissip.interval_sets import IntervalBox, contains, subset
from tube_dissip.problem import ConfigError, ProblemSpec, dynamics, transition_feasible, transition_witness
from tube_dissip.qp_solver import _FEAS_TOL, QpStatus, SolverFailure
from tube_dissip.sampling import feasible_chain, random_box_within
from tube_dissip.tube_mpc import TubeMpcConfig, TubeSolution, solve_tmpc, sweep_feedback

from .oracles import (
    assert_validated_read_back,
    count_kernel_runs,
    farkas_ray_ok,
    float_bits,
    kernel_answer,
    kkt_residual,
    law_active_set,
    law_full_check,
    law_values,
    lifted_tube,
    program_answer,
    program_margin,
    program_rows,
    row_patterns,
    row_violations,
    solve_tmpc_reference,
    state_in_bounds_reference,
    tube_qp_reference,
    walk_lookup,
    window_reference,
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
        # a minimiser may violate rows by up to _FEAS_TOL, the corner order
        # b1 <= b2 included; such an inversion reads back as a degenerate
        # interval, not as an empty one, for every program read back by the
        # shared helper
        real_solve = cost_to_travel._solve_program
        seen = []

        def inverted_solve(prog, p):
            answer = real_solve(prog, p)
            h, x, _ = program_answer(prog, p, answer)
            x = x.copy()
            # the corners (b1, b2) of the tube's second box, of the chain's
            # middle box and of the invariant box
            i = 4 if prog.G_free.shape[1] > 4 else 0
            x[i] = x[i + 1] + 5e-9
            assert np.max(program_rows(prog) @ x - h) <= _FEAS_TOL
            seen.append(x)
            return x, answer[1]

        # the controller, its invariant box included, is built before the patch
        tube_mpc._controller(spec, cfg_noic)
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
        box_, _ = cost_to_travel.optimal_rci.__wrapped__(spec)
        assert len(seen) == 3
        assert box_.lo[0] == box_.hi[0] == pytest.approx(-1.0, abs=1e-8)

    @pytest.mark.parametrize("z", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
    def test_non_finite_state_rejected(self, spec, cfg_ic, z):
        with pytest.raises(ConfigError, match="finite"):
            solve_tmpc(spec, cfg_ic, z)

    @pytest.mark.parametrize(
        "z",
        [(1.0, 2.0, 3.0), (1.0,), (), 1.0, None,
         ("1", "0"), (True, 0.0), (0.0, False), (b"1", 0.0), (None, 0.0), (1j, 0.0)],
    )
    def test_state_that_is_not_two_numbers_rejected(self, spec, cfg_ic, z):
        with pytest.raises(ConfigError, match="state must be two numbers"):
            solve_tmpc(spec, cfg_ic, z)
        with pytest.raises(ConfigError, match="state must be two numbers"):
            sweep_feedback(spec, cfg_ic, [(0.0, 0.0), z])

    @pytest.mark.parametrize("z", [(1, -2), (np.float64(1.0), np.float64(-2.0)), (np.int64(1), -2.0), np.array([1.0, -2.0])])
    def test_state_of_real_numbers_solved_as_floats(self, spec, cfg_ic, z):
        assert solve_tmpc(spec, cfg_ic, z) == solve_tmpc(spec, cfg_ic, (1.0, -2.0))

    def test_json_round_trip(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (1.0, 1.0))
        obj = json.loads(json.dumps(sol.to_json_dict()))
        assert QpStatus(obj["status"]) is sol.status
        assert obj["u0"] == sol.u0 and obj["objective"] == sol.objective
        assert tuple(obj["u0_interval"]) == sol.u0_interval
        assert tuple(IntervalBox.from_json_obj(b) for b in obj["tube"]) == sol.tube
        assert tuple(map(tuple, obj["edge_controls"])) == sol.edge_controls
        assert json.loads(json.dumps(TubeSolution(status=QpStatus.INFEASIBLE).to_json_dict())) == {
            "status": "infeasible", "tube": None, "u0": None, "objective": None,
            "u0_interval": None, "edge_controls": None,
        }

    @pytest.mark.parametrize("use_initial_cost", [False, True])
    @pytest.mark.parametrize("cost", [1e-6, 1e-7, 1e-8])
    def test_badly_scaled_cost_is_never_read_as_infeasible(self, cost, use_initial_cost):
        # the program is feasible at z = (5, -5), yet from the far-off cold
        # start -q/(2d) the kernel can meet two opposite rows that rounding
        # alone leaves inconsistent; their ray certifies nothing, so the
        # solve answers or raises, and never reports INFEASIBLE
        spec = ProblemSpec(cost_quad=(cost,) * 4)
        cfg = TubeMpcConfig(use_initial_cost=use_initial_cost)
        z = (5.0, -5.0)
        prog = tube_mpc._controller(spec, cfg).prog
        n = prog.G_free.shape[1]
        h = prog.h0 - prog.P @ z
        feasible = linprog(np.zeros(n), A_ub=program_rows(prog), b_ub=h, bounds=[(None, None)] * n, method="highs")
        assert feasible.status == 0
        try:
            sol = solve_tmpc(spec, cfg, z)
        except SolverFailure as failure:
            assert "without a Farkas ray" in str(failure)
            assert set(failure.problem) == {"d", "q", "G", "h", "tol"}
        else:
            assert sol.status is QpStatus.OPTIMAL


def record_solves(monkeypatch, spec, cfg):
    """Patch the solve step; the returned list gets ``(state, x)`` of each solve of the controller's program, x its answer."""
    controller = tube_mpc._controller(spec, cfg).prog
    real_solve = cost_to_travel._solve_program
    solves = []

    def recording_solve(prog, z):
        answer = real_solve(prog, z)
        if prog is controller:
            solves.append((tuple(z), answer[0]))
        return answer

    monkeypatch.setattr(cost_to_travel, "_solve_program", recording_solve)
    return solves


# states within _FEAS_TOL of the state bounds, and the states on them they are read as
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
    """A state beyond X by more than _FEAS_TOL has no tube; one within it is read as on X."""

    @pytest.mark.parametrize("z", BEYOND_THE_BAND)
    def test_beyond_the_band_infeasible_without_a_solve(self, spec, cfg_ic, monkeypatch, z):
        solves = record_solves(monkeypatch, spec, cfg_ic)
        solve_tmpc(spec, cfg_ic, (0.0, 0.0))
        sol = solve_tmpc(spec, cfg_ic, z)
        assert sol.status is QpStatus.INFEASIBLE and sol.tube is None
        assert [z for z, _ in solves] == [(0.0, 0.0)]

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


def cold_solves(monkeypatch, spec, cfg, states):
    """The controller's answers at the states with its program's law table removed."""
    controller = tube_mpc._controller(spec, cfg)
    cold = controller._replace(prog=controller.prog._replace(laws=None))
    monkeypatch.setattr(tube_mpc, "_controller", lambda *args: cold)
    return [solve_tmpc(spec, cfg, z) for z in states]


def assert_cold_answers(states, warm, cold, horizon):
    """Status, objective, u0, its window and the free boxes agree within 1e-12 at every state."""
    for z, got, want in zip(states, warm, cold, strict=True):
        assert got.status is want.status, z
        if not want.feasible:
            continue
        pairs = [(got.objective, want.objective), (got.u0, want.u0), *zip(got.u0_interval, want.u0_interval)]
        boxes = zip(got.tube[:horizon], want.tube[:horizon])
        pairs += [pair for a, b in boxes for pair in zip(a.corners(), b.corners())]
        assert max(abs(a - b) for a, b in pairs) <= 1e-12, z


def assert_same_array(a, b, name):
    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_program(got, want):
    for name in got._fields:
        a, b = getattr(got, name), getattr(want, name)
        if name == "laws" and a is not None:
            # solves add laws to the table and change nothing it was built
            # from: the program it refers to, its scales, floors and bounds
            assert_same_program(a.prog, b.prog)
            for key in ("s", "floor"):
                assert_same_array(getattr(a, key), getattr(b, key), f"laws.{key}")
            assert a.bounds == b.bounds
        elif isinstance(a, np.ndarray):
            assert_same_array(a, b, name)
        else:
            # the split fixed rows, as plain floats: the same float objects' values, bit for bit
            assert type(a) is type(b) and repr(a) == repr(b), name


class TestTemplate:
    """One corner program per controller; the state enters only its right-hand side."""

    @pytest.mark.parametrize("name", ["default", "no_initial_cost", "horizon_3"])
    def test_equals_a_fresh_assembly_bit_for_bit(self, spec, name):
        # solves leave the cached program as assembled, but for the laws they add
        cfg = CONFIGS[name]
        sweep_feedback(spec, cfg, STATE_GRID)
        controller = tube_mpc._controller(spec, cfg)
        fresh = tube_mpc._tube_program(spec, cfg, controller.terminal, controller.storage)
        assert_same_program(controller.prog, fresh)

    @pytest.mark.parametrize("name", ["horizon_1"])
    def test_one_step_equals_the_assembly_at_each_state(self, spec, name):
        # with one free box the state's own point box is a first box, so the
        # program is feasible exactly when that point box reaches the
        # terminal box in one step, and u0's window is that step's
        cfg = CONFIGS[name]
        terminal = tube_mpc._controller(spec, cfg).terminal
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
        # the terminal box comes from optimal_rci's cache, not from a kernel run here
        cost_to_travel.optimal_rci(spec)
        tube_mpc._controller.cache_clear()
        builds = []
        real_stack = tube_mpc._stacked_steps

        def counting_stack(*args):
            builds.append(args)
            return real_stack(*args)

        monkeypatch.setattr(tube_mpc, "_stacked_steps", counting_stack)
        runs = count_kernel_runs(monkeypatch)
        tube_mpc._controller(spec, cfg_ic)
        # building the program runs no kernel
        assert len(builds) == 1 and runs == []
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        solve_tmpc(spec, cfg_ic, (1.0, 1.0))
        assert len(builds) == 1

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_build_runs_no_kernel(self, spec, name, monkeypatch):
        # the table starts empty: the first solve at a state runs the kernel
        # once and stores its law, and the same solve again runs none
        cfg = CONFIGS[name]
        cost_to_travel.optimal_rci(spec)
        tube_mpc._controller.cache_clear()
        runs = count_kernel_runs(monkeypatch)
        prog = tube_mpc._controller(spec, cfg).prog
        assert runs == [] and len(prog.laws) == 0
        z = (-3.5, -4.0)
        first = solve_tmpc(spec, cfg, z)
        assert first.feasible and len(runs) == 1 and len(prog.laws) == 1
        assert repr(solve_tmpc(spec, cfg, z)) == repr(first) and len(runs) == 1

    @pytest.mark.filterwarnings("ignore:terminal set is not a self-successor box")
    def test_no_start_when_the_state_free_rows_are_infeasible(self, spec, monkeypatch):
        # no box reaches a single point against every disturbance: the build
        # solves nothing, and a fixed row gives the verdict without a kernel run
        cfg = TubeMpcConfig(terminal_set=IntervalBox.from_corners((1.0, 1.0, -1.0, -1.0)))
        cost_to_travel.optimal_rci(spec)
        runs = count_kernel_runs(monkeypatch)
        prog = tube_mpc._controller(spec, cfg).prog
        assert runs == [] and len(prog.laws) == 0
        assert solve_tmpc(spec, cfg, (1.0, -1.0)).status is QpStatus.INFEASIBLE
        assert runs == []

    def test_the_kernel_runs_once_per_stored_law(self, spec, cfg_ic, monkeypatch):
        # the kernel runs only when no stored law holds at the state, and
        # each run stores the law of the active set it returns
        tube_mpc._controller.cache_clear()
        prog = tube_mpc._controller(spec, cfg_ic).prog
        runs = count_kernel_runs(monkeypatch)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        assert 0 < len(runs) < len(STATE_GRID)
        assert len(runs) == len(prog.laws)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_started_solves_give_the_cold_answers(self, spec, name, monkeypatch, rng):
        # each solve runs the kernel cold or is answered by a law that the
        # shared table stored in earlier calls; either way it gives the
        # answer of a solve without the table
        cfg = CONFIGS[name]
        n = cfg.horizon
        states = [z for z, _ in ORACLE_STATES] + BEYOND_THE_BAND + [tuple(z) for z in rng.uniform(-5, 5, (200, 2))]
        warm = [solve_tmpc(spec, cfg, z) for z in states]
        assert_cold_answers(states, warm, cold_solves(monkeypatch, spec, cfg, states), n)

    def test_each_solve_independent_of_earlier_calls(self, spec, cfg_ic):
        z = (2.5, -3.5)
        first = solve_tmpc(spec, cfg_ic, z)
        sweep_feedback(spec, cfg_ic, STATE_GRID)
        assert solve_tmpc(spec, cfg_ic, z) == first

    def test_max_iter_bounds_only_kernel_runs(self, spec, cfg_ic, monkeypatch):
        # a fresh program has no laws, so the kernel runs and meets a step
        # limit of 1; once a solve under the real limit has stored the law
        # that holds at z, the same call runs no kernel and returns that
        # solve's answer, bit for bit
        tube_mpc._controller.cache_clear()
        z = (1.0, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(qp_solver, "_STEP_LIMIT", 1)
            with pytest.raises(SolverFailure, match="exceeded 1 steps"):
                solve_tmpc(spec, cfg_ic, z)
        want = solve_tmpc(spec, cfg_ic, z)
        assert want.feasible
        monkeypatch.setattr(qp_solver, "_STEP_LIMIT", 1)
        assert repr(solve_tmpc(spec, cfg_ic, z)) == repr(want)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_capped_miss_dumps_the_program_it_replays(self, spec, name, monkeypatch):
        # the dump holds the kernel's data and nothing else, and a cold
        # kernel run on it gives the answer of the same miss uncapped
        cfg = CONFIGS[name]
        tube_mpc._controller.cache_clear()
        z = (-3.5, -4.0)
        with monkeypatch.context() as patch:
            patch.setattr(qp_solver, "_STEP_LIMIT", 1)
            with pytest.raises(SolverFailure) as info:
                solve_tmpc(spec, cfg, z)
        dump = {key: np.array(value) for key, value in info.value.problem.items()}
        assert set(dump) == {"d", "q", "G", "h", "tol"}
        kernel = cost_to_travel._dual_active_set
        runs = count_kernel_runs(monkeypatch)
        tube_mpc._controller.cache_clear()
        assert solve_tmpc(spec, cfg, z).feasible
        (uncapped,) = runs
        got = kernel(dump["d"], dump["q"], dump["G"], dump["h"], dump["tol"])
        want = kernel(*uncapped)
        assert_same_array(got[0], want[0], "x")
        assert_same_array(got[1], want[1], "y")


FIXED_ROW_STATES = (
    FINE_GRID
    + [tuple(z) for z in np.random.default_rng(17).uniform(-5, 5, (2000, 2))]
    + [state for pair in WITHIN_THE_BAND for state in pair]
    + BEYOND_THE_BAND
)


class TestReadBack:
    """Every tube the plain-float read-back gives is the one the validating path gives."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_tubes_read_back_as_validated(self, spec, name):
        cfg = CONFIGS[name]
        terminal = tube_mpc._controller(spec, cfg).terminal
        states = FINE_GRID + [tuple(z) for z in np.random.default_rng(16).uniform(-5, 5, (500, 2))]
        feasible = 0
        for z in states:
            sol = solve_tmpc(spec, cfg, z)
            if sol.feasible:
                feasible += 1
                assert len(sol.tube) == cfg.horizon + 1 and sol.tube[-1] is terminal
                assert_validated_read_back(spec, sol.tube, sol.edge_controls)
        # every state for horizons 2 and 3; at horizon 1 about two in five
        assert feasible >= len(states) // 3


# the 41 x 41 grid over [-5.2, 5.2]^2, beyond the state bounds too, and 300 seeded states
LEAN_STATES = [(z1, z2) for z1 in np.linspace(-5.2, 5.2, 41) for z2 in np.linspace(-5.2, 5.2, 41)] + [
    tuple(z) for z in np.random.default_rng(36).uniform(-5.2, 5.2, (300, 2))
]


class TestLeanPass:
    """Every solve has the bits of the plain-way read-back, window and clamps, from the program answer it got."""

    @staticmethod
    def assert_reference_bits(monkeypatch, spec, cfg):
        solves = record_solves(monkeypatch, spec, cfg)
        feasible = 0
        for z in LEAN_STATES:
            sol = solve_tmpc(spec, cfg, z)
            state = state_in_bounds_reference(spec, z)
            if state is None:
                assert not solves and sol.status is QpStatus.INFEASIBLE, z
                continue
            ((p, x),) = solves
            solves.clear()
            assert float_bits(p) == float_bits(state), z
            want = solve_tmpc_reference(spec, cfg, z, x)
            got = (sol.status, sol.tube, sol.u0, sol.objective, sol.u0_interval, sol.edge_controls)
            assert float_bits(got) == float_bits(want), z
            feasible += sol.feasible
        return feasible

    @pytest.mark.parametrize("use_initial_cost", [True, False])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 8])
    def test_solves_have_the_reference_bits(self, spec, monkeypatch, horizon, use_initial_cost):
        cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=use_initial_cost)
        # every state within the bounds for horizons 2 and up; at horizon 1 about two in five
        assert self.assert_reference_bits(monkeypatch, spec, cfg) >= len(LEAN_STATES) // 3

    @pytest.mark.parametrize("changes", [{"u_bounds": (-INF, INF)}, {"alpha": 0.8}], ids=["unbounded U", "alpha 0.8"])
    def test_other_problems_have_the_reference_bits(self, monkeypatch, changes):
        assert self.assert_reference_bits(monkeypatch, ProblemSpec(**changes), TubeMpcConfig()) > 0

    def test_window_ties_and_signed_zeros_keep_the_earlier_argument(self):
        # every corner, control and disturbance bound a signed zero: a >= for a > gives another sign
        for *zeros, z2 in itertools.product(*[[0.0, -0.0]] * 8, [0.0, -0.0, math.nan]):
            b1, b2, b3, b4, u_lo, u_hi, w_lo, w_hi = zeros
            changed = ProblemSpec(u_bounds=(u_lo, u_hi), w_bounds=(w_lo, w_hi))
            b = IntervalBox((b1, b3), (b2, b4))
            assert float_bits(tube_mpc._window(changed, b, z2)) == float_bits(window_reference(changed, b, z2)), (zeros, z2)

    @pytest.mark.parametrize(
        "window",
        [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0),
         (-2.0, -1.0), (1.0, 2.0), (0.5 * _FEAS_TOL, -0.0), (0.0, -0.5 * _FEAS_TOL)],
    )
    def test_u0_clamp_ties_and_signed_zeros_keep_the_earlier_argument(self, spec, cfg_ic, monkeypatch, window):
        monkeypatch.setattr(tube_mpc, "_window", lambda spec, b, z2: window)
        sol = solve_tmpc(spec, cfg_ic, (0.0, 0.0))
        lo, hi = window
        if lo > hi:
            lo = hi = 0.5 * (lo + hi)
        assert float_bits((sol.u0, sol.u0_interval)) == float_bits((min(max(0.0, lo), hi), (lo, hi)))

    @pytest.mark.parametrize("bound", [0.0, -0.0])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_state_clamp_ties_and_signed_zeros_keep_the_state(self, monkeypatch, side, bound):
        # states clamped onto bounds with a zero corner, and an invariant terminal box within them:
        # the default x* for the upper corner, its mirror image for the lower
        if side == "hi":
            x_bounds, terminal = IntervalBox((-5.0, -5.0), (bound, bound)), IntervalBox((-1.0, -4.0), (-1.0, bound))
        else:
            x_bounds, terminal = IntervalBox((bound, bound), (5.0, 5.0)), IntervalBox((1.0, bound), (1.0, 4.0))
        changed = ProblemSpec(x_bounds=x_bounds)
        cfg = TubeMpcConfig(terminal_set=terminal)
        solves = record_solves(monkeypatch, changed, cfg)
        for z in itertools.product([0.0, -0.0], repeat=2):
            solve_tmpc(changed, cfg, z)
            ((p, _),) = solves
            solves.clear()
            assert float_bits(p) == float_bits(state_in_bounds_reference(changed, z)), z


class TestObjective:
    """One stage cost prices the objective, as it prices every cost-to-travel value."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_objective_is_the_one_step_values_plus_the_initial_cost(self, spec, name):
        # bit for bit: the one-step values along the tube summed left to
        # right, then W(Y_0) of the first box when there is an initial cost
        cfg = CONFIGS[name]
        storage = tube_mpc._controller(spec, cfg).storage
        feasible = 0
        for z in SCREEN_STATES:
            sol = solve_tmpc(spec, cfg, z)
            if not sol.feasible:
                continue
            feasible += 1
            want = 0.0
            for a, b in zip(sol.tube[:-1], sol.tube[1:]):
                want += eval_v(spec, a, b, 1).value
            if storage is not None:
                want += eval_storage(storage, spec, sol.tube[0])
            assert sol.objective.hex() == want.hex(), z
        assert feasible >= len(SCREEN_STATES) // 3

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_law_answered_solve_makes_no_numpy_call(self, spec, name, monkeypatch):
        # a profiler sees every call into numpy's Python code and every C
        # function or method that numpy owns
        cfg = CONFIGS[name]
        # plain-float states, each solved once so that a stored law answers it
        states = [(float(z1), float(z2)) for z1, z2 in FINE_GRID[::10]]
        states = [z for z in states if solve_tmpc(spec, cfg, z).feasible]
        runs = count_kernel_runs(monkeypatch)
        numpy_dir = os.path.dirname(np.__file__)
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                calls.append(frame.f_code.co_name)
            elif event == "c_call":
                owner = getattr(arg, "__self__", None)
                owner_module = owner.__name__ if inspect.ismodule(owner) else type(owner).__module__
                if (getattr(arg, "__module__", None) or owner_module).startswith("numpy"):
                    calls.append(arg)

        sys.setprofile(profile)
        try:
            for z in states:
                solve_tmpc(spec, cfg, z)
        finally:
            sys.setprofile(None)
        assert states and runs == [] and calls == []


def assert_fixed_row_verdict(prog, p) -> bool:
    """Whether the fixed rows refuse p, checked against every fixed row at once; the refusal names the worst row."""
    h = prog.h0 - prog.P @ np.array(p)
    want = np.min(prog.h0[prog.fixed] - prog.P[prog.fixed] @ np.array(p)) < -_FEAS_TOL
    x, y = cost_to_travel._solve_program(prog, p)
    assert isinstance(y, int) == want, p
    if want:
        # the most violated fixed row, the first of ties
        assert x is None and y == int(np.argmin(np.where(prog.fixed, h, np.inf))), p
    return bool(want)


# chain ends may lie anywhere in a box wider than X
WIDE = IntervalBox(lo=(-6.0, -6.0), hi=(6.0, 6.0))


class TestFixedRows:
    """The rows with no free coefficient, split when the program is built, decide as all of them together."""

    @pytest.mark.parametrize("table", ["laws", "no laws"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_split_check_is_the_check_of_every_fixed_row(self, spec, name, table):
        # the rows the state enters are evaluated in plain floats, with a
        # law table or without one
        prog = tube_mpc._controller(spec, CONFIGS[name]).prog
        if table == "no laws":
            prog = prog._replace(laws=None)
        violated, violated_in_x = 0, 0
        for z in FIXED_ROW_STATES:
            if assert_fixed_row_verdict(prog, z):
                violated += 1
                violated_in_x += contains(spec.x_bounds, z)
        # states beyond the band fail the rows that keep z in X
        assert violated > violated_in_x
        if name == "horizon_1":
            # the window rows on T depend on z2 and fail inside X
            assert violated_in_x > 0
        assert prog.fixed_rows and np.isfinite(prog.fixed_min)

    @pytest.mark.parametrize("table", ["laws", "no laws"])
    @pytest.mark.parametrize("n_steps", [2, 3, 5])
    def test_chain_check_is_the_check_of_every_fixed_row(self, spec, n_steps, table):
        # the same plain-float rows decide a chain's end boxes, drawn over a
        # box wider than X, and the ends of feasible chains
        stack = cost_to_travel._chain_stack(spec, n_steps)
        prog = stack._replace(laws=cost_to_travel._ChainTable(stack) if table == "laws" else None)
        rng = np.random.default_rng(n_steps)
        ends = [(random_box_within(rng, WIDE), random_box_within(rng, WIDE)) for _ in range(1000)]
        ends += [(chain[0], chain[-1]) for chain in (feasible_chain(spec, rng, n_steps) for _ in range(100))]
        verdicts = [assert_fixed_row_verdict(prog, a.corners() + c.corners()) for a, c in ends]
        assert 100 < sum(verdicts) < len(ends) - 100
        # at every N the rows the ends enter are those of the first and last steps
        assert len(prog.fixed_rows) == len(cost_to_travel._chain_stack(spec, 2).fixed_rows)
        assert all(1 <= len(terms) <= 2 for _, terms in prog.fixed_rows)


def law_block(laws, law):
    """The block a law of the tube table laws was formed from, which the law itself does not keep.

    law is a stored law or one of its cell entries, which share its point tuple.
    """
    return laws.formed[id(law.point)][1]


def install_empty_table(monkeypatch, spec, cfg):
    """The controller's program with an empty law table, made the controller's program.

    From here on each tube table records, in its ``formed``, the block of
    every law it forms, by the id of the law's point tuple, which the law's
    cell entries share, beside the law, which it keeps so that no id is
    reused: :func:`law_block` reads them.
    """
    real_law = cost_to_travel._LawTable._law

    def recording_law(table, block):
        law = real_law(table, block)
        vars(table).setdefault("formed", {})[id(law[0].point)] = (law[0], block)
        return law

    monkeypatch.setattr(cost_to_travel._LawTable, "_law", recording_law)
    controller = tube_mpc._controller(spec, cfg)
    prog = controller.prog._replace(laws=cost_to_travel._LawTable(controller.prog, spec.x_bounds))
    monkeypatch.setattr(tube_mpc, "_controller", lambda *args: controller._replace(prog=prog))
    return prog


def record_answers(monkeypatch, prog):
    """Patch the solve step; the returned list gets ``(h, x, y, kernel ran)`` of each solve of prog, over all its rows.

    A law answer carries no multipliers; its y is taken from the block of
    the law that answered, stored or not, whose full check must hold at the
    state and give its x bit for bit.
    """
    real_solve = cost_to_travel._solve_program
    real_first = cost_to_travel._LawTable._first
    runs = count_kernel_runs(monkeypatch)
    answered = []
    answers = []

    def recording_first(table, laws, z):
        for law in laws:
            answer = real_first(table, (law,), z)
            if answer is not None:
                answered.append(law)
                return answer
        return None

    def recording_solve(p, z):
        before = len(runs)
        answer = real_solve(p, z)
        if p is prog:
            h, x, y = program_answer(p, z, answer)
            if x is not None and y is None:
                law_answer = full_check(p.laws, answered[-1], z)
                assert law_answer is not None, z
                x_law, y_law = law_answer
                assert_same_array(x, x_law, "x")
                y = np.zeros(h.size)
                y[~p.fixed] = y_law
            answers.append((h, x, y, len(runs) > before))
        return answer

    monkeypatch.setattr(cost_to_travel._LawTable, "_first", recording_first)
    monkeypatch.setattr(cost_to_travel, "_solve_program", recording_solve)
    return answers


KERNEL_TOL = qp_solver._ROW_TOL


class TestLawTable:
    """Solves answered from the affine laws of the active sets the kernel has returned."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_law_answers_are_kkt_points_and_the_cold_answers(self, spec, name, monkeypatch, rng):
        cfg = CONFIGS[name]
        prog = install_empty_table(monkeypatch, spec, cfg)
        answers = record_answers(monkeypatch, prog)
        states = FINE_GRID + BEYOND_THE_BAND + [z for z, _ in WITHIN_THE_BAND]
        states += [tuple(z) for z in rng.uniform(-5, 5, (2000, 2))]
        warm = [solve_tmpc(spec, cfg, z) for z in states]
        free = ~prog.fixed
        G = program_rows(prog)
        for h, x, y, _ in answers:
            if x is None:
                continue
            # a KKT certificate, whether the answer came from a law or the kernel
            assert np.all(y >= 0.0)
            assert np.max(np.abs(2.0 * prog.d * x + prog.q + G.T @ y)) <= 1e-12
            slack = h[free] - prog.G_free @ x
            assert np.min(slack) >= -KERNEL_TOL
            assert np.max(np.abs(y[free] * slack)) <= 1e-10
        assert 0 < len(prog.laws) <= cost_to_travel._MAX_LAWS
        # most optimal answers come from stored laws, without a kernel run
        from_laws = sum(x is not None and not kernel_ran for _, x, _, kernel_ran in answers)
        assert from_laws > sum(x is not None for _, x, _, _ in answers) // 2
        assert_cold_answers(states, warm, cold_solves(monkeypatch, spec, cfg, states), cfg.horizon)

    def test_a_full_table_answers_misses_through_the_kernel(self, spec, cfg_ic, monkeypatch):
        prog = install_empty_table(monkeypatch, spec, cfg_ic)
        laws = prog.laws
        m = prog.G_free.shape[0]
        # the laws of single rows and of runs of neighbouring rows overfill the table
        patterns = row_patterns(m)
        while len(laws) < cost_to_travel._MAX_LAWS:
            laws.learn(next(patterns), (0.0, 0.0))
        for y in itertools.islice(patterns, m):
            laws.learn(y, (0.0, 0.0))
        assert len(laws) == cost_to_travel._MAX_LAWS == 64
        answers = record_answers(monkeypatch, prog)
        warm = [solve_tmpc(spec, cfg_ic, z) for z in STATE_GRID]
        assert len(laws) == 64
        assert any(kernel_ran for *_, kernel_ran in answers)
        assert_cold_answers(STATE_GRID, warm, cold_solves(monkeypatch, spec, cfg_ic, STATE_GRID), 2)

    def test_a_law_holds_only_where_its_rows_and_multipliers_do(self, spec, cfg_ic, monkeypatch):
        # one law in the table, and states where only its rows, or only its
        # multipliers, hold: the law answers at none of them
        prog = install_empty_table(monkeypatch, spec, cfg_ic)
        answers = record_answers(monkeypatch, prog)
        solve_tmpc(spec, cfg_ic, (-3.5, -4.0))
        (_, _, y, _), = answers
        assert len(prog.laws) == 1
        free = ~prog.fixed
        act = np.flatnonzero(y[free] > 0.0)
        G_act = prog.G_free[act]
        # the minimiser with the active set's rows held as equalities, by its own KKT system
        kkt = np.block([[np.diag(2.0 * prog.d), G_act.T], [G_act, np.zeros((act.size, act.size))]])
        rows_only, multipliers_only = [], []
        for z in FINE_GRID:
            h = (prog.h0 - prog.P @ np.array(z))[free]
            sol = np.linalg.solve(kkt, np.concatenate([-prog.q, h[act]]))
            x, y_act = sol[: prog.d.size], sol[prog.d.size :]
            rows_hold = np.max(prog.G_free @ x - h) <= KERNEL_TOL
            if rows_hold and np.min(y_act) < -1e-6:
                rows_only.append(z)
            if not rows_hold and np.min(y_act) >= 0.0:
                multipliers_only.append(z)
        assert rows_only and multipliers_only
        for z in rows_only + multipliers_only:
            assert prog.laws.lookup(z) is None, z
        states = rows_only + multipliers_only
        warm = [solve_tmpc(spec, cfg_ic, z) for z in states]
        assert_cold_answers(states, warm, cold_solves(monkeypatch, spec, cfg_ic, states), 2)

    def test_a_law_holds_where_it_was_learned(self, spec, monkeypatch):
        # at horizon 64 the kernel's active set at (0, 0) holds a degenerate
        # row whose multiplier its law recomputes just below 0 there; the
        # table drops that row and stores the law of the rows left, which
        # holds at (0, 0), so only the first of three solves runs the kernel
        cfg = TubeMpcConfig(horizon=cost_to_travel.MAX_STEPS)
        prog = install_empty_table(monkeypatch, spec, cfg)
        z = (0.0, 0.0)
        _, y = kernel_answer(prog, z)
        runs = count_kernel_runs(monkeypatch)
        solutions = [solve_tmpc(spec, cfg, z) for _ in range(3)]
        assert len(runs) == 1 and len(prog.laws) == 1
        assert solutions[0] == solutions[1] == solutions[2]
        act = np.flatnonzero(y > 0.0)
        multipliers = law_values(prog.laws, prog.laws._block(act), z)[prog.G_free.shape[0] + act]
        assert -1e-12 < multipliers.min() < 0.0
        kept = law_active_set(prog.laws, y, z)
        assert 0 < kept.size < act.size and prog.laws.stored == {kept.tobytes()}
        x_law, y_law = law_full_check(prog.laws, prog.laws._block(kept), z)
        assert np.min(y_law) >= 0.0
        corners = np.concatenate([box.corners() for box in solutions[0].tube[:-1]])
        assert np.max(np.abs(corners - x_law)) <= 1e-9


SCREEN_STATES = FINE_GRID + [tuple(z) for z in np.random.default_rng(13).uniform(-5, 5, (2000, 2))] + BEYOND_THE_BAND
SCREEN_STATES_IN_X = [z for z in SCREEN_STATES if max(map(abs, z)) <= 5.0]
# states up to 0.3 beyond X, on every side: the 40 of 400 draws outside X
NEAR_X = [tuple(z) for z in np.random.default_rng(23).uniform(-5.3, 5.3, (400, 2)) if max(map(abs, z)) > 5.0]


def full_check(laws, law, z):
    """A law's ``(x, y)`` at z by its full check, or None: the reference the screen must agree with."""
    return law_full_check(laws, law_block(laws, law), z)


def passes_screen(law, z):
    z1, z2 = map(float, z)
    return all(a + b1 * z1 + b2 * z2 >= floor for a, b1, b2, floor in law.screen)


def reference_lookup(laws, z):
    """The answer of the first stored law, in learn order, whose full check holds at z, and its index."""
    for i, law in enumerate(laws.laws):
        answer = full_check(laws, law, z)
        if answer is not None:
            return i, answer
    return None, None


def learned_table(monkeypatch, spec, cfg):
    """A fresh table of the controller's program, filled by solves at every screen state."""
    prog = install_empty_table(monkeypatch, spec, cfg)
    for z in SCREEN_STATES:
        solve_tmpc(spec, cfg, z)
    return prog.laws


class TestLawScreen:
    """Each law is screened on the few checks that can fail in X; the full check still decides."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_screens_are_few_columns_of_the_full_check(self, spec, name, monkeypatch):
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        assert len(laws) > 1
        for law in laws.laws:
            columns = set(zip(*law_block(laws, law)[: laws.floor.size].T.tolist(), laws.floor.tolist()))
            assert set(law.screen) <= columns
            assert len(set(law.screen)) == len(law.screen)
            assert len(law.screen) < laws.floor.size // 4

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_law_whose_full_check_holds_passes_its_screen(self, spec, name, monkeypatch):
        # the screen's columns are columns of the full check, so this holds beyond X too
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        held = 0
        for z in SCREEN_STATES:
            for law in laws.laws:
                if full_check(laws, law, z) is not None:
                    held += 1
                    assert passes_screen(law, z), z
        assert held >= len(FINE_GRID)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_law_passes_its_screen_exactly_when_its_full_check_holds(self, spec, name, monkeypatch):
        # in X the rounding margin proves every unscreened column, so the
        # screen alone decides; both verdicts occur
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        verdicts = set()
        for z in SCREEN_STATES_IN_X:
            for law in laws.laws:
                verdict = passes_screen(law, z)
                assert verdict == (full_check(laws, law, z) is not None), z
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_lookup_is_the_first_full_check_that_holds(self, spec, name, monkeypatch):
        # lookup runs no full check: at every state in X it gives the point
        # of the first law whose full check holds, bit for bit, and no multipliers
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        firsts = set()
        for z in SCREEN_STATES_IN_X:
            got = laws.lookup(tuple(map(float, z)))
            first, want = reference_lookup(laws, z)
            firsts.add(first)
            assert (got is None) == (want is None), z
            if want is not None:
                x, y = got
                assert type(x) is list and y is None
                assert_same_array(np.array(x), want[0], "x")
        # answers come from several laws
        assert len(firsts - {None}) > 1

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_state_outside_x_goes_to_the_kernel(self, spec, name, monkeypatch):
        # the screens prove nothing beyond X: there no law answers and none
        # is learned, so a learned table gives the answer of no table, bit
        # for bit, but for a stored Farkas ray, which certifies any state; a
        # state within _FEAS_TOL of X passes the fixed rows and goes on, one
        # farther out fails them
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        prog = tube_mpc._controller(spec, CONFIGS[name]).prog
        n_laws = len(laws)
        runs = count_kernel_runs(monkeypatch)
        verdicts = {"optimal": 0, "fixed row": 0, "ray": 0}
        for z in [z for z, _ in WITHIN_THE_BAND] + BEYOND_THE_BAND + NEAR_X:
            assert not contains(spec.x_bounds, z)
            before = len(runs)
            x, y = cost_to_travel._solve_program(prog, z)
            kernel_ran = len(runs) > before
            want_x, want_y = cost_to_travel._solve_program(prog._replace(laws=None), z)
            if want_x is not None:
                assert kernel_ran, z
                assert_same_array(x, want_x, "x")
                assert_same_array(y, want_y, "y")
                verdicts["optimal"] += 1
            elif isinstance(want_y, int):
                assert x is None and y == want_y and not kernel_ran, z
                verdicts["fixed row"] += 1
            else:
                h, _, ray = program_answer(prog, z, (x, y))
                assert x is None and farkas_ray_ok(program_rows(prog), h, ray), z
                if kernel_ran:
                    assert_same_array(y, want_y, "y")
                verdicts["ray"] += 1
        assert len(laws) == n_laws
        assert verdicts["fixed row"] > 0 and verdicts["ray"] > 0, verdicts

    def test_a_nan_column_is_screened_and_never_answers(self, spec, cfg_ic, monkeypatch):
        # a NaN in one inactive row's right-hand side makes that row's slack
        # column NaN: the margin test screens it, and it fails at every state
        prog = install_empty_table(monkeypatch, spec, cfg_ic)
        z = (-3.5, -4.0)
        _, y = kernel_answer(prog, z)
        assert prog.laws.learn(y, z) is not None
        i = int(np.flatnonzero(y == 0.0)[0])
        # the NaN enters through the program's constant on that free row
        h0 = prog.h0.copy()
        h0[np.flatnonzero(~prog.fixed)[i]] = math.nan
        laws = cost_to_travel._LawTable(prog._replace(h0=h0), spec.x_bounds)
        assert laws.learn(y, z) is None
        (law,) = laws.laws
        assert any(math.isnan(a) for a, _, _, _ in law.screen)
        assert all(laws.lookup(tuple(map(float, z))) is None for z in SCREEN_STATES_IN_X)


# the problems of TestLawIndex beside the default: each tube table is the
# default controller's unless named
INDEX_PROBLEMS = {
    "alpha_0.8": (ProblemSpec(alpha=0.8), TubeMpcConfig()),
    "u_unbounded": (ProblemSpec(u_bounds=(-INF, INF)), TubeMpcConfig()),
    # X off the origin, so the cells are not symmetric about it
    "x_off_origin": (ProblemSpec(x_bounds=box((-3, 7), (-6, 2))), TubeMpcConfig()),
    # a side of zero width is one cell
    "z1_side_of_zero_width": (
        ProblemSpec(x_bounds=box((-2, -2), (-5, 5)), w_bounds=(-0.5, 0.5)),
        TubeMpcConfig(use_initial_cost=False),
    ),
    "z2_side_of_zero_width": (ProblemSpec(x_bounds=box((-5, 5), (-2, -2)), w_bounds=(0.0, 0.0)), TubeMpcConfig()),
}


def index_states(spec):
    """States in X, and states just outside it, to hold a tube table's cells to.

    First the 21 x 21 grid over X (``FINE_GRID`` on the default X) and
    2,000 seeded states in X; then every corner of the 8 x 8 cells, states
    along every cell edge and X's corners, each with its neighbouring floats
    on either side, and draws from X widened by 0.3 on every side, split
    into those in X and those outside it.
    """
    (lo1, lo2), (hi1, hi2) = spec.x_bounds.lo, spec.x_bounds.hi
    rng = np.random.default_rng(31)
    inside = [(z1, z2) for z1 in np.linspace(lo1, hi1, 21) for z2 in np.linspace(lo2, hi2, 21)]
    inside += [tuple(z) for z in rng.uniform((lo1, lo2), (hi1, hi2), (2000, 2))]
    edges1 = [lo1 + i * (hi1 - lo1) / 8 for i in range(9)]
    edges2 = [lo2 + j * (hi2 - lo2) / 8 for j in range(9)]
    on_edges = [(e1, e2) for e1 in edges1 for e2 in edges2]
    on_edges += [(e1, z2) for e1 in edges1 for z2 in rng.uniform(lo2, hi2, 8)]
    on_edges += [(z1, e2) for e2 in edges2 for z1 in rng.uniform(lo1, hi1, 8)]
    ulps = (-INF, None, INF)
    states = list(itertools.product((lo1, hi1), (lo2, hi2)))
    for z1, z2 in map(lambda z: tuple(map(float, z)), on_edges + states):
        for d1, d2 in itertools.product(ulps, ulps):
            states.append((z1 if d1 is None else math.nextafter(z1, d1), z2 if d2 is None else math.nextafter(z2, d2)))
    states += [tuple(z) for z in rng.uniform((lo1 - 0.3, lo2 - 0.3), (hi1 + 0.3, hi2 + 0.3), (400, 2))]
    inside += [z for z in states if contains(spec.x_bounds, z)]
    outside = [z for z in states if not contains(spec.x_bounds, z)]
    return [tuple(map(float, z)) for z in inside], [tuple(map(float, z)) for z in outside]


def index_table(spec, cfg, states):
    """A fresh table of the controller's program, filled by its solves at states in X."""
    prog = tube_mpc._controller(spec, cfg).prog
    table = cost_to_travel._LawTable(prog, spec.x_bounds)
    prog = prog._replace(laws=table)
    for z in states:
        cost_to_travel._solve_program(prog, z)
    return table


def located_lookup(table, z):
    """``table.lookup(z)``, and the laws it scanned: the entries of z's cell, or None when it scanned none."""
    scanned = []
    real_first = table._first

    def recording_first(laws, p):
        scanned.append(laws)
        return real_first(laws, p)

    table._first = recording_first
    try:
        answer = table.lookup(z)
    finally:
        del table._first
    assert len(scanned) <= 1
    return answer, (scanned[0] if scanned else None)


def first_holding(table, laws, z):
    """The first of laws whose screen holds at z, or None."""
    return next((law for law in laws if table._first((law,), z) is not None), None)


class TestLawIndex:
    """The tube table's cells answer as a walk over every stored law's screen on X, bit for bit."""

    @pytest.mark.parametrize("name", list(CONFIGS) + list(INDEX_PROBLEMS))
    def test_the_cells_answer_as_the_walk(self, name):
        spec, cfg = INDEX_PROBLEMS.get(name, (ProblemSpec.default(), CONFIGS.get(name)))
        inside, outside = index_states(spec)
        table = index_table(spec, cfg, inside)
        assert len(table) >= 3
        answered = set()
        for z in inside:
            got, cell = located_lookup(table, z)
            want = walk_lookup(table, z)
            assert (got is None) == (want is None), z
            first = first_holding(table, cell, z)
            walked = first_holding(table, table.laws, z)
            assert (first is None) == (walked is None), z
            if want is not None:
                x, y = got
                assert y is None and [c.hex() for c in x] == [c.hex() for c in want[0]], z
                assert first.point is walked.point, z
                answered.add(id(walked.point))
            # a law is listed in the cell of every state where its screen holds
            listed = {id(entry.point) for entry in cell}
            for law in table.laws:
                if table._first((law,), z) is not None:
                    assert id(law.point) in listed, z
        for z in outside:
            assert located_lookup(table, z) == (None, None) and walk_lookup(table, z) is None, z
        # answers come from several laws, but for the single law of a narrow problem
        assert len(answered) > 1 or len(table) == len(answered) == 1

    def test_a_check_that_vanishes_on_a_cell_edge(self, spec):
        # made-up laws whose one check is 0 on a cell edge, z1 >= 0, z2 >= 0
        # and z1 <= 0, each with its own corners: a float beside the edge
        # maps into the cell across it, where only the cells' widening and
        # margin keep the check.  Each law answers exactly where the walk
        # says, on both sides of the edge
        prog = tube_mpc._controller(spec, TubeMpcConfig()).prog
        table = cost_to_travel._LawTable(prog, spec.x_bounds)
        checks = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, -1.0, 0.0, 0.0)]
        for k, check in enumerate(checks):
            law = cost_to_travel._Law((check,), ((float(k), 0.0, 0.0, 1.0),))
            table.laws = table._with((law,))
        tiny = math.nextafter(0.0, 1.0)
        near_zero = [-1e-300, -tiny, -0.0, 0.0, tiny, 1e-300]
        states = [(z1, z2) for z1 in near_zero for z2 in near_zero + [-3.0, 3.0]]
        states += [(z2, z1) for z1, z2 in states]
        answers = set()
        for z in states:
            got, want = table.lookup(z), walk_lookup(table, z)
            assert got == want, z
            answers.add(got[0][0])
        assert answers == {0.0, 1.0, 2.0}

    @pytest.mark.parametrize("name", ["default", "x_off_origin"])
    def test_entries_share_their_law(self, name):
        # an entry keeps its law's point and some of its checks, the same
        # objects, in its screen's order; every cell where no check is left
        # holds one shared entry, and a cell lists its laws in learned order
        spec, cfg = INDEX_PROBLEMS.get(name, (ProblemSpec.default(), TubeMpcConfig()))
        inside, _ = index_states(spec)
        table = index_table(spec, cfg, inside)
        order = {id(law.point): i for i, law in enumerate(table.laws)}
        cells = [cell for row in table.cells for cell in row]
        assert len(table.cells) == len(table.cells[0]) == cost_to_travel._GRID + 1
        proved = {}
        for cell in cells:
            positions = [order[id(entry.point)] for entry in cell]
            assert positions == sorted(set(positions))
            for entry in cell:
                law = table.laws[order[id(entry.point)]]
                assert entry.point is law.point
                at = [next(i for i, check in enumerate(law.screen) if check is c) for c in entry.screen]
                assert at == sorted(set(at))
                if not entry.screen:
                    assert proved.setdefault(id(law.point), entry) is entry
        assert proved
        # fewer entries than laws, per cell, on the whole
        assert sum(map(len, cells)) < len(cells) * len(table) // 2


def tube_program(spec, cfg, z, containment: bool):
    """The original tube program of a controller at state z, edge controls and u0 included."""
    terminal, storage, _, _ = tube_mpc._controller(spec, cfg)
    return tube_qp_reference(spec, terminal, storage, cfg, z, containment)


def assert_answers_its_program(sol, qp, horizon: int, containment: bool) -> None:
    """A solve's answer checked on its original program qp.

    An optimum, lifted into qp, passes the KKT check with the same objective;
    an infeasible verdict has a margin below 0, which no feasible program has.
    """
    if sol.status is QpStatus.INFEASIBLE:
        assert program_margin(qp) < 0.0
        return
    assert sol.status is QpStatus.OPTIMAL
    x = lifted_tube(sol, horizon, containment)
    assert kkt_residual(qp, x) <= 1e-8
    assert sol.objective == pytest.approx(qp.objective_value(x), abs=1e-8)


class TestOnTheOriginalProgram:
    """The kernel's tube answer checked on the original program, edge controls and u0 included."""

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_answer_passes_the_original_programs_check(self, spec, name):
        cfg = CONFIGS[name]
        n = cfg.horizon
        terminal = tube_mpc._controller(spec, cfg).terminal
        statuses = set()
        for z, on_x in ORACLE_STATES:
            sol = solve_tmpc(spec, cfg, z)
            statuses.add(sol.status)
            assert_answers_its_program(sol, tube_program(spec, cfg, on_x, False), n, False)
            if sol.status is QpStatus.INFEASIBLE:
                continue
            assert sol.tube[-1] == terminal
            assert all(subset(box, spec.x_bounds) for box in sol.tube[:n])
            # the window of controls taking z into the second box
            b1, b2, b3, b4 = sol.tube[1].corners()
            lo = max(b1, b3 - spec.alpha * on_x[1] - spec.w_lo, spec.u_lo)
            hi = min(b2, b4 - spec.alpha * on_x[1] - spec.w_hi, spec.u_hi)
            assert np.allclose(sol.u0_interval, (lo, hi), rtol=0.0, atol=1e-8)
            assert sol.u0 == pytest.approx(min(max(0.0, lo), hi), abs=1e-8)
            for (src, dst), v in zip(zip(sol.tube[:-1], sol.tube[1:]), sol.edge_controls):
                assert max(row_violations(spec, src, dst, v)) <= _FEAS_TOL
        assert statuses == ({QpStatus.OPTIMAL, QpStatus.INFEASIBLE} if n == 1 else {QpStatus.OPTIMAL})

    @pytest.mark.parametrize("name", ["default", "horizon_1"], ids=["containment", "horizon_1_containment"])
    def test_answer_passes_the_containment_programs_check(self, spec, name):
        # the original containment program, a last box free inside the
        # terminal box, has the verdict, value and free boxes of the program
        # whose last box is the terminal box, the one the controller solves:
        # its answer, with the terminal box as the last free box, is optimal
        # there, and where it is infeasible so is the containment program
        cfg = CONFIGS[name]
        for z in STATE_GRID + [on_x for _, on_x in WITHIN_THE_BAND]:
            sol = solve_tmpc(spec, cfg, z)
            assert_answers_its_program(sol, tube_program(spec, cfg, z, True), cfg.horizon, True)


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
        assert solve_tmpc(spec, cfg_ic, (0.0, 2.0)).u0 == pytest.approx(-2.0, abs=1e-8)

    def test_law_inside_band(self, spec, cfg_ic):
        assert solve_tmpc(spec, cfg_ic, (5.0, 0.0)).u0 == pytest.approx(-1.0, abs=1e-8)

    def test_law_without_initial_cost(self, spec, cfg_noic):
        assert solve_tmpc(spec, cfg_noic, (-3.0, -1.0)).u0 == pytest.approx(-2.5, abs=1e-8)

    def test_raises_outside_feasible_region(self, spec, cfg_ic):
        sol = solve_tmpc(spec, cfg_ic, (5.5, 0.0))
        assert not sol.feasible and sol.u0 is None


class TestMuFeedback:
    """The applied control mu(z), ``solve_tmpc(...).u0``, and the window on the second box it is taken from."""

    def test_forced_singleton(self, spec, cfg_ic, x_star):
        # from z2 = -2 into X*, the window holds the one control -1
        assert tube_mpc._window(spec, x_star, -2.0) == (-1.0, -1.0)
        sol = solve_tmpc(spec, cfg_ic, (-1.0, -2.0))
        assert sol.u0_interval == pytest.approx((-1.0, -1.0), abs=1e-12)
        assert sol.u0 == pytest.approx(-1.0, abs=1e-12)

    def test_widened_next_box_midpoint(self, spec, x_star):
        # x1-window [-2, 0]; x2 requires u - 1 + w in [-4, 0] for |w| <= 1,
        # so u in [-2, 0], whose midpoint is -1
        lo, hi = tube_mpc._window(spec, box((-2, 0), (-4, 0)), -2.0)
        assert (lo, hi) == (-2.0, 0.0)
        assert 0.5 * (lo + hi) == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_step_raises(self, spec, cfg_ic, x_star, monkeypatch):
        # from z2 = 4 no control reaches X* for every disturbance, so a tube
        # whose second box is X* has an empty window at (3, 4), and solve_tmpc
        # raises rather than apply a control
        lo, hi = tube_mpc._window(spec, x_star, 4.0)
        assert lo - hi > 1e-8
        tube = (box((-5, 5), (-5, 5)), x_star)
        monkeypatch.setattr(tube_mpc, "_solve_tube", lambda *args: (tube, ((0.0, 0.0),)))
        with pytest.raises(SolverFailure, match="empty control window"):
            solve_tmpc(spec, cfg_ic, (3.0, 4.0))


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

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"horizon": 3, "use_initial_cost": False}, {"terminal_set": box((-1, -1), (-4, 0))}],
        ids=["default", "horizon_3", "terminal_set"],
    )
    def test_hash_is_computed_once(self, kwargs, reference_storage):
        # the dataclass's hash of the fields, kept when the config is built;
        # equality, repr, the fields and copies are unchanged
        cfg = TubeMpcConfig(**kwargs, storage=reference_storage)
        fields = (cfg.horizon, cfg.use_initial_cost, cfg.terminal_set, cfg.storage)
        assert hash(cfg) == vars(cfg)["_hash"] == hash(fields)
        assert TubeMpcConfig.__hash__.__qualname__ == "TubeMpcConfig.__hash__"
        assert [f.name for f in dataclasses.fields(cfg)] == ["horizon", "use_initial_cost", "terminal_set", "storage"]
        assert repr(cfg).startswith(f"TubeMpcConfig(horizon={cfg.horizon}, use_initial_cost=")
        for back in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), dataclasses.replace(cfg)):
            assert back == cfg and hash(back) == hash(cfg) and repr(back) == repr(cfg)
        assert cfg != dataclasses.replace(cfg, horizon=cfg.horizon + 1)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigError):
            TubeMpcConfig(horizon=0)

    @pytest.mark.parametrize("horizon", [cost_to_travel.MAX_STEPS + 1, 100_000])
    def test_horizon_beyond_the_cap_rejected(self, horizon):
        with pytest.raises(ConfigError, match=f"between 1 and {cost_to_travel.MAX_STEPS}"):
            TubeMpcConfig(horizon=horizon)
