import json
import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import linprog

from tube_dissip import cost_to_travel, qp_solver, tube_mpc
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.dissipativity import eval_storage
from tube_dissip.interval_sets import IntervalBox, contains, subset
from tube_dissip.problem import ConfigError, ProblemSpec, dynamics, transition_feasible, transition_witness
from tube_dissip.qp_solver import _FEAS_TOL, QpStatus, SolverFailure, solve
from tube_dissip.tube_mpc import TubeMpcConfig, TubeSolution, solve_tmpc, sweep_feedback

from .oracles import assert_validated_read_back, program_answer, row_violations, tube_qp_reference

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
            i = 4 if prog.G.shape[1] > 4 else 0
            x[i] = x[i + 1] + 5e-9
            assert np.max(prog.G @ x - h) <= _FEAS_TOL
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
        n = prog.G.shape[1]
        h = prog.h0 - prog.P @ z
        feasible = linprog(np.zeros(n), A_ub=prog.G, b_ub=h, bounds=[(None, None)] * n, method="highs")
        assert feasible.status == 0
        try:
            sol = solve_tmpc(spec, cfg, z)
        except SolverFailure as failure:
            assert "without a Farkas ray" in str(failure)
            assert set(failure.problem) == {"d", "q", "G", "h", "tol"}
        else:
            assert sol.status is QpStatus.OPTIMAL


def record_solves(monkeypatch, spec, cfg):
    """Patch the solve step; the returned list gets the state of each solve of the controller's program."""
    controller = tube_mpc._controller(spec, cfg).prog
    real_solve = cost_to_travel._solve_program
    states = []

    def recording_solve(prog, z):
        if prog is controller:
            states.append(tuple(z))
        return real_solve(prog, z)

    monkeypatch.setattr(cost_to_travel, "_solve_program", recording_solve)
    return states


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


def cold_solves(monkeypatch, spec, cfg, states):
    """The controller's answers at the states with its program's law table removed."""
    controller = tube_mpc._controller(spec, cfg)
    cold = controller._replace(prog=controller.prog._replace(laws=None))
    monkeypatch.setattr(tube_mpc, "_controller", lambda *args: cold)
    return [solve_tmpc(spec, cfg, z) for z in states]


def count_kernel_runs(monkeypatch):
    """Patch the kernel; the returned list gets the arguments of each run."""
    real_kernel = cost_to_travel._dual_active_set
    runs = []

    def counting_kernel(*args):
        runs.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(cost_to_travel, "_dual_active_set", counting_kernel)
    return runs


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
        if name == "laws":
            # solves add laws to the table and change nothing it was built from
            for key in ("s", "Gs", "w0", "rhs", "floor", "box"):
                assert_same_array(getattr(a, key), getattr(b, key), f"laws.{key}")
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


class TestFixedRows:
    """The rows with no free coefficient, split when the program is built, decide as all of them together."""

    @pytest.mark.parametrize("table", ["laws", "no laws"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_split_check_is_the_check_of_every_fixed_row(self, spec, name, table):
        # with a law table the rows the state enters are evaluated in plain
        # floats, without one on the right-hand sides formed for the kernel
        prog = tube_mpc._controller(spec, CONFIGS[name]).prog
        if table == "no laws":
            prog = prog._replace(laws=None)
        violated, violated_in_x = 0, 0
        for z in FIXED_ROW_STATES:
            h = prog.h0 - prog.P @ np.array(z)
            want = np.min(prog.h0[prog.fixed] - prog.P[prog.fixed] @ np.array(z)) < -_FEAS_TOL
            x, y = cost_to_travel._solve_program(prog, z)
            assert isinstance(y, int) == want, z
            if want:
                # the most violated fixed row, the first of ties
                assert x is None and y == int(np.argmin(np.where(prog.fixed, h, np.inf))), z
                violated += 1
                violated_in_x += contains(spec.x_bounds, z)
        # states beyond the band fail the rows that keep z in X
        assert violated > violated_in_x
        if name == "horizon_1":
            # the window rows on T depend on z2 and fail inside X
            assert violated_in_x > 0
        assert prog.fixed_p.size > 0 and np.isfinite(prog.fixed_min)


def install_empty_table(monkeypatch, spec, cfg):
    """The controller's program with an empty law table, made the controller's program."""
    controller = tube_mpc._controller(spec, cfg)
    prog = controller.prog._replace(laws=cost_to_travel._LawTable(controller.prog, spec.x_bounds))
    monkeypatch.setattr(tube_mpc, "_controller", lambda *args: controller._replace(prog=prog))
    return prog


def record_answers(monkeypatch, prog):
    """Patch the solve step; the returned list gets ``(h, x, y, kernel ran)`` of each solve of prog, over all its rows."""
    real_solve = cost_to_travel._solve_program
    runs = count_kernel_runs(monkeypatch)
    answers = []

    def recording_solve(p, z):
        before = len(runs)
        answer = real_solve(p, z)
        if p is prog:
            answers.append((*program_answer(p, z, answer), len(runs) > before))
        return answer

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
        for h, x, y, _ in answers:
            if x is None:
                continue
            # a KKT certificate, whether the answer came from a law or the kernel
            assert np.all(y >= 0.0)
            assert np.max(np.abs(2.0 * prog.d * x + prog.q + prog.G.T @ y)) <= 1e-12
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
        # the laws of single rows and of neighbouring pairs overfill the table
        for i in range(2 * m - 1):
            y = np.zeros(m)
            y[i % m : i % m + 1 + i // m] = 1.0
            laws.learn(y, 0.0, 0.0)
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
            assert prog.laws.lookup(*z) is None, z
        states = rows_only + multipliers_only
        warm = [solve_tmpc(spec, cfg_ic, z) for z in states]
        assert_cold_answers(states, warm, cold_solves(monkeypatch, spec, cfg_ic, states), 2)


SCREEN_STATES = FINE_GRID + [tuple(z) for z in np.random.default_rng(13).uniform(-5, 5, (2000, 2))] + BEYOND_THE_BAND


def full_check(laws, law, z):
    """A law's ``(x, y)`` at z by its full check, or None: the reference the screen must agree with.

    The check and the point are evaluated apart, each column of the block by
    itself, so the stacked pass must give them bit for bit.
    """
    z1, z2 = map(float, z)
    m, n_checks = laws.Gs.shape[0], laws.floor.size
    a, b1, b2 = (row[:n_checks].copy() for row in law.block)
    vals = a + b1 * z1 + b2 * z2
    if not np.all(vals >= laws.floor):
        return None
    a, b1, b2 = (row[n_checks:].copy() for row in law.block)
    return (a + b1 * z1 + b2 * z2) * laws.s, vals[m:]


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
            columns = set(zip(*np.vstack(law.block)[:, : laws.floor.size].tolist(), laws.floor.tolist()))
            assert set(law.screen) <= columns
            assert len(set(law.screen)) == len(law.screen)
            assert len(law.screen) < laws.floor.size // 4

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_law_whose_full_check_holds_passes_its_screen(self, spec, name, monkeypatch):
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        held = 0
        for z in SCREEN_STATES:
            for law in laws.laws:
                if full_check(laws, law, z) is not None:
                    held += 1
                    assert passes_screen(law, z), z
        assert held >= len(FINE_GRID)

    @pytest.mark.parametrize("screens", ["learned", "emptied"])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_lookup_is_the_first_full_check_that_holds(self, spec, name, screens, monkeypatch):
        # with emptied screens every law passes its screen, so only the full
        # check keeps a lookup from answering from the wrong law
        laws = learned_table(monkeypatch, spec, CONFIGS[name])
        if screens == "emptied":
            laws.laws[:] = [law._replace(screen=()) for law in laws.laws]
        firsts = set()
        for z in SCREEN_STATES:
            got = laws.lookup(*map(float, z))
            first, want = reference_lookup(laws, z)
            firsts.add(first)
            assert (got is None) == (want is None), z
            if want is not None:
                assert_same_array(got[0], want[0], "x")
                assert_same_array(got[1], want[1], "y")
        # answers come from several laws, and some states from none
        assert None in firsts and len(firsts - {None}) > 1


@lru_cache(maxsize=None)
def admm_tube(horizon: int, use_initial_cost: bool, containment: bool, z):
    """The ADMM oracle's answer for a default-instance controller: status, objective and corners.

    With ``containment`` the oracle's last box is free inside the terminal
    box, otherwise it is the terminal box.
    """
    spec = ProblemSpec.default()
    cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=use_initial_cost)
    terminal, storage, _, _ = tube_mpc._controller(spec, cfg)
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
        terminal = tube_mpc._controller(spec, cfg).terminal
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
                assert max(row_violations(spec, src, dst, v)) <= _FEAS_TOL
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
        monkeypatch.setattr(tube_mpc, "_solve_tube", lambda *args: (0.0, tube, ((0.0, 0.0),)))
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

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ConfigError):
            TubeMpcConfig(horizon=0)

    @pytest.mark.parametrize("horizon", [cost_to_travel.MAX_STEPS + 1, 100_000])
    def test_horizon_beyond_the_cap_rejected(self, horizon):
        with pytest.raises(ConfigError, match=f"between 1 and {cost_to_travel.MAX_STEPS}"):
            TubeMpcConfig(horizon=horizon)
