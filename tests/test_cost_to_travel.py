import importlib
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import tube_dissip
from tube_dissip import cost_to_travel, qp_solver
from tube_dissip.cost_to_travel import (
    RciNotFound,
    eval_v,
    optimal_rci,
)
from tube_dissip.interval_sets import IntervalBox, subset
from tube_dissip.problem import ProblemSpec, stage_cost, transition_feasible, transition_witness
from tube_dissip.qp_solver import _FEAS_TOL, QpStatus, SolverFailure, solve
from tube_dissip.sampling import feasible_chain, random_box_within

from . import oracles
from .oracles import grid_rci_search, transition_feasible_oracle

INF = float("inf")


def box(ix, iy):
    return IntervalBox.from_intervals(ix, iy)


class TestEvalV:
    def test_stationary_value_at_invariant_box(self, spec, x_star):
        res = eval_v(spec, x_star, x_star, 1)
        assert res.value == pytest.approx(-0.2, abs=1e-8)
        assert res.tube == (x_star, x_star)

    def test_one_step_value_is_source_cost(self, spec):
        a = box((0, 0), (0, 0))
        b = box((1, 1), (0, 2))
        assert transition_feasible_oracle(spec, a, b)
        res = eval_v(spec, a, b, 1)
        assert res.value == pytest.approx(stage_cost(spec, a), abs=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_narrow_target_is_infinite(self, spec):
        res = eval_v(spec, box((0, 1), (0, 1)), box((0, 1), (0, 1.5)), 1)
        assert res.value == INF
        assert res.tube is None and res.aux_controls is None

    def test_source_outside_bounds_is_infinite(self, spec, x_star):
        res = eval_v(spec, box((-6, 0), (0, 1)), x_star, 1)
        assert res.value == INF

    def test_terminal_box_not_state_constrained(self, spec):
        # the target may stick out of the state bounds; only boxes before
        # the terminal index are confined.  From the origin, u = 4 lands in
        # {4} x [3, 5] whatever the disturbance.
        a = box((0, 0), (0, 0))
        target = box((4, 4), (3, 5.5))  # above the upper state bound
        assert not transition_feasible_oracle(spec, target, target)  # not even valid as a source
        res = eval_v(spec, a, target, 1)
        assert math.isfinite(res.value)

    def test_tube_is_stepwise_feasible(self, spec, rng):
        from tube_dissip.interval_sets import subset

        for _ in range(20):
            chain = feasible_chain(spec, rng, 2)
            res = eval_v(spec, chain[0], chain[2], 2)
            if not res.feasible:
                continue
            assert len(res.tube) == 3
            for a, b in zip(res.tube[:-1], res.tube[1:]):
                assert transition_feasible(spec, a, b)
            for boxed in res.tube[:-1]:
                assert subset(boxed, spec.x_bounds, tol=1e-8)

    def test_two_step_middle_box_within_solver_tolerance(self, spec):
        # the solver returns this middle box with its x1-corners inverted by
        # about 1.1e-9, inside its row tolerance; the box is kept, not refused
        a = IntervalBox.from_corners(
            (-3.8193903205287283, -2.501587804116486, -4.106228439663089, 0.15799104003540165)
        )
        c = IntervalBox.from_corners(
            (-2.504035359172815, 2.3453200389678854, -3.0036097069222825, 4.176992151035579)
        )
        res = eval_v(spec, a, c, 2)
        assert res.value == pytest.approx(-1.45046, abs=1e-5)
        assert len(res.tube) == 3 and res.tube[0] == a and res.tube[2] == c
        assert transition_feasible(spec, a, res.tube[1]) and transition_feasible(spec, res.tube[1], c)

    def test_zero_steps_rejected(self, spec, x_star):
        with pytest.raises(ValueError):
            eval_v(spec, x_star, x_star, 0)

    @pytest.mark.parametrize("n_steps", [cost_to_travel.MAX_STEPS + 1, 100_000])
    def test_step_count_beyond_the_cap_rejected(self, spec, x_star, n_steps):
        # rejected before the stacked rows, 22N x 4(N+1) floats, are allocated
        with pytest.raises(ValueError, match=f"between 1 and {cost_to_travel.MAX_STEPS}"):
            eval_v(spec, x_star, x_star, n_steps)

    def test_json_round_trip(self, spec, x_star):
        res = eval_v(spec, x_star, x_star, 2)
        obj = json.loads(json.dumps(res.to_json_dict()))
        assert obj["feasible"] is True and obj["value"] == res.value
        assert tuple(IntervalBox.from_json_obj(b) for b in obj["tube"]) == res.tube
        assert tuple(map(tuple, obj["aux_controls"])) == res.aux_controls
        infeasible = eval_v(spec, box((0, 1), (0, 1)), box((0, 1), (0, 1)), 1)
        obj = json.loads(json.dumps(infeasible.to_json_dict()))
        assert obj == {"feasible": False, "value": None, "tube": None, "aux_controls": None}


class TestOptimalRci:
    def test_reference_instance(self, spec, x_star):
        found, v_star = optimal_rci(spec)
        assert max(abs(a - b) for a, b in zip(found.corners(), x_star.corners())) <= 1e-6
        assert v_star == pytest.approx(-0.2, abs=1e-8)

    def test_matches_grid_refinement_oracle(self, spec):
        corners, value = grid_rci_search(spec)
        found, v_star = optimal_rci(spec)
        assert max(abs(a - b) for a, b in zip(found.corners(), corners)) <= 0.01
        assert v_star == pytest.approx(value, abs=1e-3)

    def test_disturbance_free_variant_against_oracle(self):
        spec0 = ProblemSpec(w_bounds=(0.0, 0.0))
        found, v_star = optimal_rci(spec0)
        corners, value = grid_rci_search(spec0)
        assert max(abs(a - b) for a, b in zip(found.corners(), corners)) <= 0.01
        assert v_star == pytest.approx(value, abs=1e-3)
        # frozen from the refinement oracle: the invariant segment moves to
        # (-5/3, -5/3, -10/3, 0) with value -5/3 once the disturbance is off
        assert max(abs(a - b) for a, b in zip(found.corners(), (-5 / 3, -5 / 3, -10 / 3, 0.0))) <= 1e-6
        assert v_star == pytest.approx(-5 / 3, abs=1e-8)

    def test_infeasible_when_state_band_too_thin(self):
        # any one-step image spans the disturbance width, so a state band
        # thinner than it admits no self-transition box
        thin = ProblemSpec(x_bounds=IntervalBox(lo=(-5.0, 0.0), hi=(5.0, 0.5)))
        with pytest.raises(RciNotFound):
            optimal_rci(thin)


def two_legs(spec, a, mid, c):
    """``V(a, mid, 1) + V(mid, c, 1)``, the cost of the two-step tubes from a to c through mid."""
    return eval_v(spec, a, mid, 1).value + eval_v(spec, mid, c, 1).value


class TestBellmanGap:
    """The chain equation ``V(A, C, 2) = min_B [V(A, B, 1) + V(B, C, 1)]``."""

    def test_stationary_chain(self, spec, x_star):
        direct = eval_v(spec, x_star, x_star, 2).value
        assert two_legs(spec, x_star, x_star, x_star) - direct == pytest.approx(0.0, abs=1e-6)

    def test_gap_nonnegative_for_random_candidates(self, spec, rng):
        candidates = [
            box((-4, -1), (-4, 0)),
            box((-1, -1), (-4, 0)),
            box((0, 3), (-2, 2)),
        ]
        for _ in range(25):
            chain = feasible_chain(spec, rng, 2)
            direct = eval_v(spec, chain[0], chain[2], 2).value
            for mid in candidates:
                assert two_legs(spec, chain[0], mid, chain[2]) - direct >= -1e-6

    def test_extracted_middle_closes_the_gap(self, spec, rng):
        for _ in range(25):
            chain = feasible_chain(spec, rng, 2)
            direct = eval_v(spec, chain[0], chain[2], 2)
            assert direct.feasible
            assert abs(two_legs(spec, chain[0], direct.tube[1], chain[2]) - direct.value) <= 1e-6

    def test_infinite_cases(self, spec, x_star):
        unreachable = box((0, 1), (0, 1))  # too narrow to be any successor
        # no two-step tube reaches it, whatever the middle box
        assert eval_v(spec, x_star, unreachable, 2).value == INF
        assert two_legs(spec, x_star, x_star, unreachable) == INF
        # through it, the legs are infinite while the direct value is finite
        assert two_legs(spec, x_star, unreachable, x_star) == INF
        assert eval_v(spec, x_star, x_star, 2).feasible


class TestMonotonicityOfValues:
    def test_source_shrink_and_target_growth(self, spec, rng):
        from tube_dissip.sampling import monotone_cone_box, random_superbox
        from tube_dissip.acceptance import _cone_subbox

        finite = 0
        for _ in range(150):
            outer = monotone_cone_box(rng, spec)
            inner = _cone_subbox(rng, outer)
            target = random_box_within(rng, spec.x_bounds)
            val = eval_v(spec, inner, target, 1).value
            val_wide = eval_v(spec, outer, target, 1).value
            assert val <= val_wide + 1e-6
            if math.isfinite(val):
                finite += 1
                bigger = random_superbox(rng, target, spec.x_bounds)
                assert eval_v(spec, inner, bigger, 1).value <= val + 1e-6
        assert finite >= 20


# ---------------------------------------------------------------------------
# multi-step values: the reduced program and its dual active-set solve

SPECS = {"bounded U": ProblemSpec.default(), "unbounded U": ProblemSpec(u_bounds=(-INF, INF))}
OUTER = IntervalBox(lo=(-6.0, -6.0), hi=(6.0, 6.0))


@st.composite
def chain_ends(draw, spec, n_steps):
    """The ends of a sampled n-step chain, with the target as drawn, jittered or moved, or two unrelated boxes.

    A moved target is kept at least as tall as the disturbance interval, so
    that mostly the free rows decide it; unrelated boxes may stick out of
    the state bounds.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["chain", "jittered", "moved", "unrelated"]))
    if kind == "unrelated":
        return random_box_within(rng, OUTER), random_box_within(rng, OUTER)
    chain = feasible_chain(spec, rng, n_steps)
    if kind == "chain":
        return chain[0], chain[-1]
    reach = 0.5 if kind == "jittered" else 6.0
    jitter = draw(st.tuples(*[st.floats(-reach, reach)] * 4))
    c1, c2, c3, c4 = (x + d for x, d in zip(chain[-1].corners(), jitter))
    if kind == "jittered":
        assume(c1 <= c2 and c3 <= c4)
    else:
        c1, c2 = sorted((c1, c2))
        c3, c4 = sorted((c3, c4))
        c4 = max(c4, c3 + spec.w_hi - spec.w_lo)
    return chain[0], IntervalBox.from_corners((c1, c2, c3, c4))


def solved_chain(spec, a, c, n_steps):
    stack = cost_to_travel._chain_stack(spec, n_steps)
    ends = np.array(a.corners() + c.corners())
    return stack, oracles.program_answer(stack, ends, cost_to_travel._solve_program(stack, ends))


@pytest.mark.parametrize("n_steps", [2, 3])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestMultiStepKernel:
    @given(data=st.data())
    def test_agrees_with_admm_on_the_edge_control_program(self, spec_name, n_steps, data):
        spec = SPECS[spec_name]
        a, c = data.draw(chain_ends(spec, n_steps))
        res = eval_v(spec, a, c, n_steps)
        sol = solve(oracles.eval_v_qp_reference(spec, a, c, n_steps))
        assert sol.status in (QpStatus.OPTIMAL, QpStatus.INFEASIBLE)
        if res.feasible != (sol.status is QpStatus.OPTIMAL):
            # the verdicts may differ only within the boundary band
            assert abs(oracles.chain_margin(spec, a, c, n_steps)) <= 1e-7
        elif res.feasible:
            assert res.value == pytest.approx(sol.objective, abs=1e-6)

    @given(data=st.data())
    def test_every_step_is_a_transition(self, spec_name, n_steps, data):
        spec = SPECS[spec_name]
        a, c = data.draw(chain_ends(spec, n_steps))
        res = eval_v(spec, a, c, n_steps)
        if not res.feasible:
            return
        assert len(res.tube) == n_steps + 1 and res.tube[0] == a and res.tube[-1] == c
        assert all(subset(mid, spec.x_bounds) for mid in res.tube[1:-1])
        steps = list(zip(res.tube[:-1], res.tube[1:]))
        assert all(transition_feasible(spec, src, dst) for src, dst in steps)
        assert res.aux_controls == tuple(transition_witness(spec, src, dst) for src, dst in steps)
        assert res.value == pytest.approx(sum(stage_cost(spec, box) for box in res.tube[:-1]), abs=1e-9)

    @given(data=st.data())
    def test_every_verdict_carries_a_certificate(self, spec_name, n_steps, data):
        spec = SPECS[spec_name]
        a, c = data.draw(chain_ends(spec, n_steps))
        stack, (h, x, y) = solved_chain(spec, a, c, n_steps)
        G = stack.G
        res = eval_v(spec, a, c, n_steps)
        assert res.feasible == (x is not None)
        if x is not None:
            residual = oracles.separable_kkt_residual(stack.d, stack.q, G, h, x, y)
            assert residual <= 1e-8
            assert res.value == pytest.approx(
                stage_cost(spec, a) + float(stack.d @ (x * x) + stack.q @ x), abs=1e-12
            )
            return
        assert oracles.farkas_ray_ok(G, h, y)
        weight = float(np.sum(y))
        for i in np.flatnonzero(y):
            flipped = y.copy()
            flipped[i] = -flipped[i]
            assert not oracles.farkas_ray_ok(G, h, flipped)
            if y[i] >= 1e-6 * weight:
                dropped = y.copy()
                dropped[i] = 0.0
                assert not oracles.farkas_ray_ok(G, h, dropped)


class TestMultiStepValues:
    def test_fixed_rows_are_checked_at_feas_tol(self, spec, x_star):
        # the source's lower x1-corner below the state bound by 0.5 and by
        # 2 _FEAS_TOL is refused, by 0.5 _FEAS_TOL accepted
        a1, a2, a3, a4 = x_star.corners()
        lo = spec.x_bounds.lo[0]
        for below, feasible in ((0.5, False), (2e-8, False), (5e-9, True)):
            a = IntervalBox.from_corners((lo - below, a2, a3, a4))
            assert eval_v(spec, a, x_star, 2).feasible == feasible

    def test_vacuous_rows_are_dropped(self):
        free = cost_to_travel._chain_stack(SPECS["unbounded U"], 2)
        bounded = cost_to_travel._chain_stack(SPECS["bounded U"], 2)
        assert np.all(np.isfinite(free.h0)) and free.h0.size < bounded.h0.size

    def test_iteration_cap_raises_with_the_reduced_program(self, spec, rng, monkeypatch):
        chain = feasible_chain(spec, rng, 3)
        with monkeypatch.context() as patch:
            patch.setattr(qp_solver, "_STEP_LIMIT", 1)
            with pytest.raises(SolverFailure) as info:
                eval_v(spec, chain[0], chain[3], 3)
        data = {k: np.array(v) for k, v in info.value.problem.items()}
        assert set(data) == {"d", "q", "G", "h", "tol"}
        # the dumped program is the one that was being solved
        x, _ = qp_solver._dual_active_set(data["d"], data["q"], data["G"], data["h"], data["tol"])
        _, (_, x_ref, _) = solved_chain(spec, chain[0], chain[3], 3)
        assert np.array_equal(x, x_ref)

    def test_rays_of_both_kinds_verify(self, spec, rng):
        # unrelated boxes are refused both by a fixed row (a ray on that row
        # alone) and by the free rows (a ray from the kernel)
        kinds = {"fixed": 0, "free": 0}
        for _ in range(200):
            a, c = random_box_within(rng, OUTER), random_box_within(rng, OUTER)
            stack, (h, x, y) = solved_chain(spec, a, c, 2)
            if x is None:
                assert oracles.farkas_ray_ok(stack.G, h, y)
                kinds["fixed" if not np.any(stack.G[y > 0]) else "free"] += 1
        assert min(kinds.values()) >= 10, kinds

    def test_a_step_refused_by_the_one_step_rule_raises(self, spec, x_star, monkeypatch):
        # the kernel's minimiser meets every row, so this needs a broken rule
        monkeypatch.setattr(cost_to_travel, "_step_witness", lambda *args: None)
        with pytest.raises(SolverFailure, match="not a transition"):
            eval_v(spec, x_star, x_star, 2)

    def test_cost_to_travel_holds_no_qp_machinery(self):
        # the ADMM solver and its assembly serve the tests only: no module of
        # the package but qp_solver binds them, cost_to_travel included
        names = ("solve", "QpBuilder", "QpProblem", "build_g_block")
        modules = [tube_dissip] + [
            importlib.import_module(f"tube_dissip.{info.name}")
            for info in pkgutil.iter_modules(tube_dissip.__path__)
        ]
        assert cost_to_travel in modules
        for module in modules:
            if module is not qp_solver:
                assert [name for name in names if hasattr(module, name)] == [], module.__name__

    def test_multi_step_paths_call_no_solver(self, spec, x_star, rng, forbid_solver):
        chains = {n: feasible_chain(spec, rng, n) for n in (2, 3)}
        patched = forbid_solver()
        assert patched == ["tube_dissip.qp_solver"]
        unreachable = box((0, 1), (0, 1))
        for n, chain in chains.items():
            assert eval_v(spec, chain[0], chain[n], n).feasible
            assert not eval_v(spec, x_star, unreachable, n).feasible
        found, v_star = optimal_rci.__wrapped__(spec)
        assert max(abs(u - v) for u, v in zip(found.corners(), x_star.corners())) <= 1e-9
        assert v_star == pytest.approx(-0.2, abs=1e-12)
        with pytest.raises(RciNotFound):
            optimal_rci(ProblemSpec(x_bounds=IntervalBox(lo=(-5.0, 0.0), hi=(5.0, 0.5))))


# ---------------------------------------------------------------------------
# the read-back: one plain-float pass, equal to the validating path


class TestReadBack:
    @pytest.mark.parametrize("n_steps", [2, 3])
    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_chains_read_back_as_validated(self, spec_name, n_steps):
        spec = SPECS[spec_name]
        rng = np.random.default_rng(n_steps)
        feasible = 0
        for _ in range(150):
            chain = feasible_chain(spec, rng, n_steps)
            res = eval_v(spec, chain[0], chain[-1], n_steps)
            if res.feasible:
                feasible += 1
                assert res.tube[0] is chain[0] and res.tube[-1] is chain[-1]
                oracles.assert_validated_read_back(spec, res.tube, res.aux_controls)
        assert feasible >= 140

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_invariant_box_reads_back_as_validated(self, spec_name):
        spec = SPECS[spec_name]
        found, _ = optimal_rci.__wrapped__(spec)
        oracles.assert_validated_read_back(spec, (found,), ())

    @staticmethod
    def read_back(monkeypatch, spec, x, ends=()):
        """``_solve_tube`` of the 2-step chain program answering x, between the boxes ends or alone, with box builds counted."""
        built = {"trusted": 0, "from_corners": 0}
        real_trusted, real_from_corners = IntervalBox._trusted, IntervalBox.from_corners

        def trusted(cls, lo, hi):
            built["trusted"] += 1
            return real_trusted(lo, hi)

        def from_corners(cls, a, snap_tol=0.0):
            built["from_corners"] += 1
            assert snap_tol == _FEAS_TOL
            return real_from_corners(a, snap_tol)

        monkeypatch.setattr(IntervalBox, "_trusted", classmethod(trusted))
        monkeypatch.setattr(IntervalBox, "from_corners", classmethod(from_corners))
        monkeypatch.setattr(cost_to_travel, "_solve_program", lambda prog, p: (np.array(x), None))
        prog = cost_to_travel._chain_stack(spec, 2)
        try:
            solved = cost_to_travel._solve_tube(spec, prog, None, ends[:1], ends[1:])
        except ValueError:
            assert built == {"trusted": 0, "from_corners": 1}
            raise
        finally:
            monkeypatch.undo()
        return solved, built

    def test_ordered_corners_give_a_trusted_box(self, spec, x_star, monkeypatch):
        # x_star's only one-step successor of its shape is x_star itself
        x = list(x_star.corners())
        (cost, tube, witnesses), built = self.read_back(monkeypatch, spec, x, (x_star, x_star))
        assert built == {"trusted": 1, "from_corners": 0}
        assert tube == (x_star, x_star, x_star) and tube[1] is not x_star
        assert cost == pytest.approx(stage_cost(spec, x_star), abs=1e-12)
        oracles.assert_validated_read_back(spec, tube, witnesses)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_corners_inverted_within_feas_tol_snapped_as_from_corners(self, spec, monkeypatch, dim):
        x = [-1.0, -1.0, -4.0, -1.5]
        x[2 * dim] = x[2 * dim + 1] + 0.5 * _FEAS_TOL
        (_, (got,), ()), built = self.read_back(monkeypatch, spec, x)
        assert built == {"trusted": 0, "from_corners": 1}
        want = IntervalBox.from_corners(x, snap_tol=_FEAS_TOL)
        assert repr((got.lo, got.hi)) == repr((want.lo, want.hi))
        assert got.lo[dim] == got.hi[dim]
        oracles.assert_validated_read_back(spec, (got,), ())

    @pytest.mark.parametrize("dim", [0, 1])
    def test_corners_inverted_beyond_feas_tol_raise_as_from_corners(self, spec, monkeypatch, dim):
        x = [-1.0, -1.0, -4.0, -1.5]
        x[2 * dim] = x[2 * dim + 1] + 2.0 * _FEAS_TOL
        with pytest.raises(ValueError) as want:
            IntervalBox.from_corners(x, snap_tol=_FEAS_TOL)
        with pytest.raises(ValueError) as got:
            self.read_back(monkeypatch, spec, x)
        assert str(got.value) == str(want.value) and "empty interval" in str(got.value)

    @pytest.mark.parametrize("index", range(4))
    def test_a_nan_corner_raises(self, spec, monkeypatch, index):
        x = [-1.0, -1.0, -4.0, -1.5]
        x[index] = math.nan
        with pytest.raises(ValueError, match="finite"):
            self.read_back(monkeypatch, spec, x)
