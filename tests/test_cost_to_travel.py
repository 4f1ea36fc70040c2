import dataclasses
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import tube_dissip
from tube_dissip import cost_to_travel, qp_solver, tube_mpc
from tube_dissip.cost_to_travel import (
    CostToTravelResult,
    RciNotFound,
    eval_v,
    optimal_rci,
)
from tube_dissip.interval_sets import IntervalBox, subset
from tube_dissip.problem import (
    ProblemSpec,
    _two_step_rows,
    stage_cost,
    transition_feasible,
    transition_rows,
    transition_witness,
)
from tube_dissip.qp_solver import _FEAS_TOL, SolverFailure
from tube_dissip.sampling import feasible_chain, feasible_pair, random_box_within
from tube_dissip.tube_mpc import TubeMpcConfig

from . import oracles
from .oracles import grid_rci_search, transition_feasible_oracle
from .test_dissipativity import SEPARABILITY_SPECS
from .test_mirror import INSTANCES as MIRROR_INSTANCES
from .test_mirror import mirror_spec

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

    @pytest.mark.parametrize("n_steps", [2.0, True, 1.5, "2", None])
    def test_step_count_that_is_not_an_integer_rejected(self, spec, x_star, n_steps):
        # after a solve at N = 2, 2.0 would find its cached program, and
        # True would read as N = 1
        eval_v(spec, x_star, x_star, 2)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            eval_v(spec, x_star, x_star, n_steps)

    def test_numpy_integer_step_count_accepted(self, spec, x_star):
        assert eval_v(spec, x_star, x_star, np.int64(2)) == eval_v(spec, x_star, x_star, 2)

    def test_json_round_trip(self, spec, x_star):
        res = eval_v(spec, x_star, x_star, 2)
        obj = json.loads(json.dumps(res.to_json_dict()))
        assert obj["feasible"] is True and obj["value"] == res.value
        assert tuple(IntervalBox.from_json_obj(b) for b in obj["tube"]) == res.tube
        assert tuple(map(tuple, obj["aux_controls"])) == res.aux_controls
        infeasible = eval_v(spec, box((0, 1), (0, 1)), box((0, 1), (0, 1)), 1)
        obj = json.loads(json.dumps(infeasible.to_json_dict()))
        assert obj == {"feasible": False, "value": None, "tube": None, "aux_controls": None}


# corners that stress the one-step rule: signed zeros, X's bounds and points
# within X; then points just beyond X and far beyond it
ONE_STEP_COORDS_IN_X = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([-5.0, 5.0, -1.0, -4.0, 5e-324, -5e-324]),
    st.floats(-5.0, 5.0),
)
ONE_STEP_COORDS = st.one_of(ONE_STEP_COORDS_IN_X, st.floats(-7.0, 7.0), st.floats(-1e300, 1e300))
# cost coefficients: the default's, and ones whose stage cost overflows to
# +-inf, or to NaN where a linear and a quadratic term overflow apart
ONE_STEP_COSTS = st.one_of(
    st.just(((0.0, 2.0, 0.0, 0.0), (0.15, 0.05, 0.1, 0.05))),
    st.just(((-1e308,) * 4, (1e308,) * 4)),
    st.tuples(
        st.tuples(*[st.sampled_from([0.0, -0.0, 2.0, -1.5, 1e308, -1e308])] * 4),
        st.tuples(*[st.sampled_from([0.05, 0.15, 1e307, 1e308])] * 4),
    ),
)


# a target that every box within X reaches in one step
WIDE_TARGET = box((-5.0, 5.0), (-1e3, 1e3))


@st.composite
def one_step_case(draw):
    """A spec and a box pair (a, b): a target drawn alone, one wide enough to reach from any box in X, or a sampled transition."""
    cost_linear, cost_quad = draw(ONE_STEP_COSTS)
    spec = ProblemSpec(cost_linear=cost_linear, cost_quad=cost_quad)

    def side(coords):
        lo = draw(coords)
        # a degenerate side one time in three
        hi = lo if draw(st.integers(0, 2)) == 0 else draw(coords)
        return tuple(sorted((lo, hi)))

    kind = draw(st.sampled_from(["drawn", "wide", "sampled"]))
    if kind == "sampled":
        a, b = feasible_pair(spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif kind == "wide":
        a = box(side(ONE_STEP_COORDS_IN_X), side(ONE_STEP_COORDS_IN_X))
        b = WIDE_TARGET
    else:
        a = box(side(ONE_STEP_COORDS), side(ONE_STEP_COORDS))
        b = box(side(ONE_STEP_COORDS), side(ONE_STEP_COORDS))
    return spec, a, b


class TestOneStepValue:
    @given(one_step_case())
    # sources beyond X on one side of one dimension, each refused by the
    # state-bound row of that side alone, and one with signed zeros
    @example((ProblemSpec(), box((-6.0, 0.0), (0.0, 1.0)), WIDE_TARGET))
    @example((ProblemSpec(), box((0.0, 6.0), (0.0, 1.0)), WIDE_TARGET))
    @example((ProblemSpec(), box((0.0, 1.0), (-6.0, 0.0)), WIDE_TARGET))
    @example((ProblemSpec(), box((0.0, 1.0), (0.0, 6.0)), WIDE_TARGET))
    @example((ProblemSpec(), box((-0.0, 0.0), (-0.0, -0.0)), WIDE_TARGET))
    def test_a_one_step_value_is_the_one_step_rules_bit_for_bit(self, case):
        spec, a, b = case
        default = ProblemSpec()
        shared = eval_v(default, box((0, 1), (0, 1)), box((0, 1), (0, 1.5)), 1)
        assert shared.value == INF and shared.tube is None and shared.aux_controls is None
        witness = transition_witness(spec, a, b)
        if witness is None:
            # every +inf answer, at N = 1 and N = 2, is one object
            assert eval_v(spec, a, b, 1) is shared
            two = eval_v(default, a, b, 2)
            assert two is shared or two.feasible
            for name in ("value", "tube", "aux_controls"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(shared, name, 0.0)
            assert shared.value == INF and shared.tube is None and shared.aux_controls is None
            return
        cost = stage_cost(spec, a)
        if not math.isfinite(cost):
            with pytest.raises(SolverFailure, match=re.escape(f"the minimising tube's cost is not finite ({cost})")):
                eval_v(spec, a, b, 1)
            return
        res = eval_v(spec, a, b, 1)
        # the rule's own bits, and those of the sum from 0.0 that priced it before
        assert res.value.hex() == cost.hex() == ((0.0 + cost) + 0.0).hex()
        assert res.tube[0] is a and res.tube[1] is b and len(res.tube) == 2
        (got,) = res.aux_controls
        assert [v.hex() for v in got] == [v.hex() for v in witness]
        # a record set through its slots is the constructor's, field by field:
        # a field either class gains and the slot setters miss fails here
        for built, made in (
            (res, CostToTravelResult(res.value, res.tube, res.aux_controls)),
            (IntervalBox._trusted(a.lo, a.hi), IntervalBox(a.lo, a.hi)),
        ):
            assert built == made and hash(built) == hash(made) and repr(built) == repr(made)


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


def solved_chain(spec, a, c, n_steps, stack=None):
    """A chain's program and its answer ``(h, x, y)`` over all its rows, from the shared table unless given a program.

    A law answer carries no multipliers; its y is taken from the block of
    the law that answered, stored or not, whose full check must hold at the
    ends and give its x bit for bit.
    """
    if stack is None:
        stack = cost_to_travel._chain_stack(spec, n_steps)
    ends = a.corners() + c.corners()
    real_first = cost_to_travel._ChainTable._first
    answered = []

    def recording_first(laws, blocks, p):
        answer = real_first(laws, blocks, p)
        if answer is not None:
            answered.append(next(block for block in blocks if oracles.law_full_check(laws, block, p) is not None))
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cost_to_travel._ChainTable, "_first", recording_first)
        h, x, y = oracles.program_answer(stack, ends, cost_to_travel._solve_program(stack, ends))
    if x is not None and y is None:
        x_law, y_law = oracles.law_full_check(stack.laws, answered[-1], ends)
        assert x.tobytes() == x_law.tobytes()
        y = np.zeros(h.size)
        y[~stack.fixed] = y_law
    return stack, (h, x, y)


@pytest.mark.parametrize("n_steps", [2, 3])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestMultiStepKernel:
    @given(data=st.data())
    def test_answer_passes_the_edge_control_programs_check(self, spec_name, n_steps, data):
        # an optimum, its middle corners and edge controls lifted into the
        # original program, passes its KKT check with the same value; an
        # infeasible verdict has a margin below 0 on that program
        spec = SPECS[spec_name]
        a, c = data.draw(chain_ends(spec, n_steps))
        res = eval_v(spec, a, c, n_steps)
        qp = oracles.eval_v_qp_reference(spec, a, c, n_steps)
        if not res.feasible:
            assert oracles.program_margin(qp) < 0.0
            return
        x = oracles.lifted_chain(res)
        assert oracles.kkt_residual(qp, x) <= 1e-8
        assert res.value == pytest.approx(qp.objective_value(x), abs=1e-8)

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
        G = oracles.program_rows(stack)
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
    @pytest.mark.parametrize("a, c", [
        (box((-1, -1), (-4, -4)), box((-1, -1), (-1, 2))),
        (box((-1, 0), (-4, -4)), box((-1, -1), (-1, 2))),
        (box((-1, 1), (-4, -4)), box((-1, -1), (-1, 5))),
    ], ids=["segments", "source of x1-width 1", "source of x1-width 2"])
    def test_row_14_binds_and_the_answer_passes_the_programs_check(self, spec, a, c):
        # row 14, b3 - alpha*a4 <= w_lo + u_hi, binds only for a high target
        # lower x2-corner over a low source upper x2-corner, which no drawn
        # chain reaches: here on the first step, from a source at x2 = -4
        src, tgt, const = transition_rows(spec)
        assert src[14].tolist() == [0.0, 0.0, 0.0, -spec.alpha] and tgt[14].tolist() == [0.0, 0.0, 1.0, 0.0]
        assert const[14] == spec.w_lo + spec.u_hi
        res = eval_v(spec, a, c, 2)
        assert res.feasible
        slack = const[14] - src[14] @ a.corners() - tgt[14] @ res.tube[1].corners()
        assert abs(slack) <= 1e-12
        qp = oracles.eval_v_qp_reference(spec, a, c, 2)
        x = oracles.lifted_chain(res)
        assert oracles.kkt_residual(qp, x) <= 1e-8
        assert res.value == pytest.approx(qp.objective_value(x), abs=1e-8)

    def test_fixed_rows_are_checked_at_feas_tol(self, spec, x_star):
        # the source's lower x1-corner below the state bound by 0.5 and by
        # 2 _FEAS_TOL is refused, by 0.5 _FEAS_TOL accepted
        a1, a2, a3, a4 = x_star.corners()
        lo = spec.x_bounds.lo[0]
        for below, feasible in ((0.5, False), (2e-8, False), (5e-9, True)):
            a = IntervalBox.from_corners((lo - below, a2, a3, a4))
            assert eval_v(spec, a, x_star, 2).feasible == feasible

    def test_vacuous_rows_are_dropped(self):
        free = cost_to_travel._chain_stack(SPECS["unbounded U"], 3)
        bounded = cost_to_travel._chain_stack(SPECS["bounded U"], 3)
        assert np.all(np.isfinite(free.h0)) and free.h0.size < bounded.h0.size

    def test_iteration_cap_raises_with_the_reduced_program(self, spec, rng, monkeypatch):
        # without a table the kernel runs at every solve
        real_stack = cost_to_travel._chain_stack
        monkeypatch.setattr(cost_to_travel, "_chain_stack", lambda *args: real_stack(*args)._replace(laws=None))
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
            stack, (h, x, y) = solved_chain(spec, a, c, 3)
            if x is None:
                G = oracles.program_rows(stack)
                assert oracles.farkas_ray_ok(G, h, y)
                kinds["fixed" if not np.any(G[y > 0]) else "free"] += 1
        assert min(kinds.values()) >= 10, kinds

    @pytest.mark.parametrize("n_steps", [2, 3])
    def test_value_is_the_sum_of_its_one_step_values(self, spec, n_steps):
        # one stage cost prices every value, so a chain's value is, bit for
        # bit, the left-to-right sum of the one-step values along its tube
        rng = np.random.default_rng(n_steps)
        for _ in range(200):
            chain = feasible_chain(spec, rng, n_steps)
            res = eval_v(spec, chain[0], chain[-1], n_steps)
            assert res.feasible
            legs = 0.0
            for src, dst in zip(res.tube[:-1], res.tube[1:]):
                legs += eval_v(spec, src, dst, 1).value
            assert res.value.hex() == legs.hex()

    def test_invariant_value_is_its_one_step_value(self, spec):
        found, v_star = optimal_rci.__wrapped__(spec)
        assert v_star.hex() == eval_v(spec, found, found, 1).value.hex()

    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    def test_a_value_that_overflows_raises_at_every_n(self, n_steps):
        # X reaches itself, and its stage cost alone overflows: a feasible
        # tube is neither a value of +inf nor a verdict of infeasibility
        huge = ProblemSpec(cost_quad=(1e307,) * 4)
        with pytest.raises(SolverFailure, match=r"cost is not finite \(inf\)"):
            eval_v(huge, huge.x_bounds, huge.x_bounds, n_steps)

    @pytest.mark.parametrize("n_steps, value", [(2, 3.6), (3, 3.373437499999958)])
    def test_an_end_box_whose_corner_sums_overflow_is_answered(self, spec, n_steps, value):
        # the target's corners are finite, but sums of them overflow, with no
        # numpy warning, to bounds or right-hand sides of +inf: rows that
        # always hold.  The value is the one of the same target at 1e300, at
        # the first call and at a second, which at N = 3 the table answers;
        # N = 2 is a closed form and runs no kernel
        a = box((-2, 1), (-4, 1))
        prog = fresh_chain(spec, n_steps)
        assert chain_value(spec, prog, a, box((-1e300, 1e300), (-1e300, 1e300)), n_steps).value == value
        target = box((-1e308, 1e308), (-1e308, 1e308))
        prog = fresh_chain(spec, n_steps)
        with pytest.MonkeyPatch.context() as patch:
            runs = oracles.count_kernel_runs(patch)
            first = chain_value(spec, prog, a, target, n_steps)
            n_runs = len(runs)
            second = chain_value(spec, prog, a, target, n_steps)
        if n_steps == 2:
            assert runs == [] and len(prog.laws) == 0
        else:
            assert n_runs > 0 and len(runs) == n_runs and len(prog.laws) == 1
        for res in (first, second):
            assert res.feasible and res.tube[-1] is target
            assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_a_step_refused_by_the_one_step_rule_raises(self, spec, x_star, monkeypatch):
        # the kernel's minimiser meets every row, so this needs a broken rule
        monkeypatch.setattr(cost_to_travel, "_step_witness", lambda *args: None)
        with pytest.raises(SolverFailure, match="not a transition"):
            eval_v(spec, x_star, x_star, 2)

    def test_cost_to_travel_holds_no_qp_machinery(self):
        # the dense program assembly is kept only for the tests and, with the
        # name solve, which raises, for the names the benchmark's tracer
        # binds: no module of the package but qp_solver binds them,
        # cost_to_travel included
        with pytest.raises(NotImplementedError):
            qp_solver.solve(None)
        names = ("solve", "QpBuilder", "QpProblem", "build_g_block")
        modules = [tube_dissip] + [
            importlib.import_module(f"tube_dissip.{info.name}")
            for info in pkgutil.iter_modules(tube_dissip.__path__)
        ]
        assert cost_to_travel in modules
        for module in modules:
            if module is not qp_solver:
                assert [name for name in names if hasattr(module, name)] == [], module.__name__

    def test_multi_step_values_and_optimal_rci(self, spec, x_star, rng):
        chains = {n: feasible_chain(spec, rng, n) for n in (2, 3)}
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
# the chain programs' table of affine laws and Farkas rays


def fresh_chain(spec, n_steps):
    """The chain program of n_steps with an empty table of its own."""
    stack = cost_to_travel._chain_stack(spec, n_steps)
    return stack._replace(laws=cost_to_travel._ChainTable(stack))


def chain_value(spec, prog, a, c, n_steps):
    """``eval_v`` with prog as the chain program of n_steps."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cost_to_travel, "_chain_stack", lambda *args: prog)
        return eval_v(spec, a, c, n_steps)


def assert_cold_value(got, want):
    """Status, value and every corner of the tube agree within 1e-12."""
    assert got.feasible == want.feasible
    if want.feasible:
        pairs = [(got.value, want.value)]
        pairs += [pair for u, v in zip(got.tube, want.tube, strict=True) for pair in zip(u.corners(), v.corners())]
        assert max(abs(u - v) for u, v in pairs) <= 1e-12


def fill(laws, p, size, accept=lambda y: True):
    """Learn the laws of row_patterns that accept takes, at p, until the table holds size laws."""
    patterns = oracles.row_patterns(laws.prog.G_free.shape[0])
    while len(laws) < size:
        y = next(patterns)
        if accept(y):
            laws.learn(y, p)


@pytest.mark.parametrize("n_steps", [3, 4])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
class TestChainLawTable:
    """Chain values answered from the affine laws and Farkas rays the kernel has returned."""

    def test_law_answers_are_kkt_points_and_the_cold_answers(self, spec_name, n_steps):
        spec = SPECS[spec_name]
        prog = fresh_chain(spec, n_steps)
        free = ~prog.fixed
        G = oracles.program_rows(prog)
        # one entry per optimal answer: whether the kernel ran for it
        kernel_ran = []

        @given(data=st.data())
        def check(data):
            a, c = data.draw(chain_ends(spec, n_steps))
            with pytest.MonkeyPatch.context() as patch:
                runs = oracles.count_kernel_runs(patch)
                _, (h, x, y) = solved_chain(spec, a, c, n_steps, prog)
            if x is not None:
                # a KKT certificate, whether the answer came from a law or the kernel
                assert np.all(y >= 0.0)
                assert np.max(np.abs(2.0 * prog.d * x + prog.q + G.T @ y)) <= 1e-12
                slack = h[free] - prog.G_free @ x
                assert np.min(slack) >= -qp_solver._ROW_TOL
                assert np.max(np.abs(y[free] * slack)) <= 1e-10
                kernel_ran.append(bool(runs))
            warm = chain_value(spec, prog, a, c, n_steps)
            assert_cold_value(warm, chain_value(spec, prog._replace(laws=None), a, c, n_steps))

        check()
        assert 0 < len(prog.laws) <= cost_to_travel._MAX_LAWS
        # most optimal answers come from stored laws, without a kernel run
        assert kernel_ran.count(False) > len(kernel_ran) // 2

    def test_a_stored_ray_answers_only_where_it_certifies(self, spec_name, n_steps):
        # unrelated ends that the free rows refuse, solved with the shared
        # table and with a table that holds one ray: a stored ray answers
        # only where it certifies the new right-hand side, and ends that no
        # stored ray certifies go to the kernel
        spec = SPECS[spec_name]
        stack = cost_to_travel._chain_stack(spec, n_steps)
        free = ~stack.fixed
        rng = np.random.default_rng(n_steps)
        refused = []
        for _ in range(300):
            a, c = random_box_within(rng, OUTER), random_box_within(rng, OUTER)
            _, (_, x, y) = solved_chain(spec, a, c, n_steps, stack._replace(laws=None))
            if x is None and np.any(y[free]):
                refused.append((a, c, y[free]))
        shared = fresh_chain(spec, n_steps)
        G = oracles.program_rows(stack)
        verdicts = {"stored ray": 0, "no stored ray certifies": 0}
        for a, c, _ in refused:
            one_ray = fresh_chain(spec, n_steps)
            one_ray.laws.keep(refused[0][2])
            for prog in (shared, one_ray):
                stored, _ = prog.laws.rays
                rays = np.zeros((stored.shape[0], free.size))
                rays[:, free] = stored
                with pytest.MonkeyPatch.context() as patch:
                    runs = oracles.count_kernel_runs(patch)
                    _, (h, x, y) = solved_chain(spec, a, c, n_steps, prog)
                assert x is None and oracles.farkas_ray_ok(G, h, y)
                certified = [oracles.farkas_ray_ok(G, h, ray) for ray in rays]
                if not runs:
                    assert any(ray.tobytes() == y.tobytes() and ok for ray, ok in zip(rays, certified))
                    verdicts["stored ray"] += 1
                if not any(certified):
                    assert runs
                    verdicts["no stored ray certifies"] += 1
        assert min(verdicts.values()) >= 5, verdicts
        assert 0 < shared.laws.rays[0].shape[0] < len(refused)

    def test_a_ray_refutes_only_where_the_kernel_would_accept_it(self, spec_name, n_steps):
        # a stored ray that certifies the ends refutes nothing once h'y is
        # within the kernel's tolerance of 0, or one of its rows is -inf or
        # NaN: the kernel refuses a start that is not finite
        spec = SPECS[spec_name]
        prog = fresh_chain(spec, n_steps)
        free = ~prog.fixed
        rng = np.random.default_rng(n_steps)
        for _ in range(300):
            a, c = random_box_within(rng, OUTER), random_box_within(rng, OUTER)
            ends = a.corners() + c.corners()
            x, y = cost_to_travel._solve_program(prog, ends)
            if x is None and not isinstance(y, int):
                break
        else:
            pytest.fail("no unrelated ends refused by the free rows")
        h = prog.h0 - prog.P @ ends
        assert prog.laws.refute(h[free]).tobytes() == y.tobytes()
        h_free = h[free]
        near = h_free + (-0.5 * qp_solver._ROW_TOL * y.sum() - h_free @ y) / (y @ y) * y
        assert -qp_solver._ROW_TOL * y.sum() < near @ y < 0.0
        assert prog.laws.refute(near) is None
        for bad in (-INF, math.nan):
            broken = h.copy()
            row = np.flatnonzero(free)[np.argmax(y)]
            broken[row] = bad
            assert prog.laws.refute(broken[free]) is None
            # the same right-hand side, reached through the program's constant on that row
            h0 = prog.h0.copy()
            h0[row] = bad
            with pytest.raises(SolverFailure, match="start is not finite"):
                cost_to_travel._solve_program(prog._replace(h0=h0), ends)

    def test_a_law_answers_alike_alone_and_in_a_table_of_any_size(self, spec_name, n_steps):
        # a law's point at p is bit for bit its full check's, evaluated by
        # itself: at learn time, in a table of 1, and first or last in a table of 64
        spec = SPECS[spec_name]
        stack = cost_to_travel._chain_stack(spec, n_steps)
        rng = np.random.default_rng(10 + n_steps)
        for _ in range(10):
            chain = feasible_chain(spec, rng, n_steps)
            ends = chain[0].corners() + chain[-1].corners()
            _, y = oracles.kernel_answer(stack, ends)
            alone = cost_to_travel._ChainTable(stack)
            at_learn = alone.learn(y, ends)
            assert at_learn is not None
            x, _ = oracles.law_full_check(alone, alone.laws[0], ends)
            assert at_learn[0].tobytes() == x.tobytes()
            assert alone.lookup(ends)[0].tobytes() == x.tobytes()
            first = cost_to_travel._ChainTable(stack)
            first.learn(y, ends)
            fill(first, ends, 64)
            assert first.lookup(ends)[0].tobytes() == x.tobytes()
            last = cost_to_travel._ChainTable(stack)

            def fails_at_ends(pattern):
                # a fresh table's law answers at ends exactly when its full check holds there
                other = np.any((pattern > 0.0) != (y > 0.0))
                return other and cost_to_travel._ChainTable(stack).learn(pattern, ends) is None

            fill(last, ends, 63, fails_at_ends)
            last.learn(y, ends)
            assert len(first) == len(last) == 64
            assert last.lookup(ends)[0].tobytes() == x.tobytes()

    def test_a_full_table_answers_misses_through_the_kernel(self, spec_name, n_steps):
        spec = SPECS[spec_name]
        prog = fresh_chain(spec, n_steps)
        rng = np.random.default_rng(20 + n_steps)
        chains = [feasible_chain(spec, rng, n_steps) for _ in range(100)]
        ends = [(chain[0], chain[-1]) for chain in chains]
        ends += [(random_box_within(rng, OUTER), random_box_within(rng, OUTER)) for _ in range(50)]
        fill(prog.laws, ends[0][0].corners() + ends[0][1].corners(), 64)
        assert len(prog.laws) == cost_to_travel._MAX_LAWS == 64
        with pytest.MonkeyPatch.context() as patch:
            runs = oracles.count_kernel_runs(patch)
            warm = [chain_value(spec, prog, a, c, n_steps) for a, c in ends]
        assert len(prog.laws) == 64 and runs
        cold = prog._replace(laws=None)
        for (a, c), got in zip(ends, warm):
            assert_cold_value(got, chain_value(spec, cold, a, c, n_steps))


LATTICE = (-5.0, -4.0, -2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 5.0)


def lattice_box(rng):
    """A box whose corners are drawn from LATTICE: on such ends more rows can be tight than an optimum needs."""
    (c1, c2), (c3, c4) = np.sort(rng.choice(LATTICE, (2, 2))).tolist()
    return IntervalBox.from_corners((c1, c2, c3, c4))


@pytest.mark.parametrize(("n_steps", "n_ends"), [(2, 2000), (3, 2000), (16, 40)])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_a_chain_law_holds_where_it_was_learned(spec_name, n_steps, n_ends):
    # learn recomputes a law's multipliers by the table's own product, the
    # law as a stack of one, and drops a row that comes out below 0: so
    # after every kernel run that returns an optimum at p, the law learned
    # from it answers there, at once and at a second call, which runs no
    # kernel.  Each end pair gets a table of its own, so every pair runs the
    # kernel; the pairs are sampled chains' ends and lattice boxes, on which
    # a row can be tight with a multiplier of 0
    spec = SPECS[spec_name]
    rng = np.random.default_rng(n_steps)
    ends = []
    for _ in range(n_ends // 2):
        chain = feasible_chain(spec, rng, n_steps)
        ends += [(chain[0], chain[-1]), (lattice_box(rng), lattice_box(rng))]
    optimal = 0
    with pytest.MonkeyPatch.context() as patch:
        runs = oracles.count_kernel_runs(patch)
        for a, c in ends:
            prog = fresh_chain(spec, n_steps)
            p = a.corners() + c.corners()
            before = len(runs)
            x, y = cost_to_travel._solve_program(prog, p)
            if x is None:
                continue
            optimal += 1
            assert len(runs) == before + 1 and y is None and len(prog.laws) == 1
            again, y = cost_to_travel._solve_program(prog, p)
            assert len(runs) == before + 1 and y is None
            assert again.tobytes() == x.tobytes()
    assert optimal >= n_ends // 2



def fresh_tube(spec, cfg):
    """The controller's tube program with an empty table of its own."""
    prog = tube_mpc._controller(spec, cfg).prog
    return prog._replace(laws=cost_to_travel._LawTable(prog, spec.x_bounds))


def empty_table(spec, prog):
    """A new empty table of the kind prog's is."""
    if isinstance(prog.laws, cost_to_travel._LawTable):
        return cost_to_travel._LawTable(prog, spec.x_bounds)
    return cost_to_travel._ChainTable(prog)


def stored_laws(laws):
    """A table's stored laws in the order learned, each as bytes: a chain law's block, a tube law's screen and point.

    The repr of a float gives its bits back, so equal reprs are equal laws, bit for bit.
    """
    if isinstance(laws, cost_to_travel._LawTable):
        return [repr(law).encode() for law in laws.laws]
    return [law.tobytes() for law in laws.laws]


def law_block(laws, key):
    """The block of the law a table stores under key, rebuilt from that active set."""
    return laws._block(np.frombuffer(key, dtype=np.intp))


def kept_bytes(laws):
    """The bytes a table keeps: its rays, and a chain law's block or a tube law's screen and point.

    A tube law's size is its deep size: the two tuples, the tuples in them
    and their floats, each object counted once.
    """
    rays, _ = laws.rays
    if not isinstance(laws, cost_to_travel._LawTable):
        return laws.laws.nbytes + rays.nbytes
    objects = {}
    for part in itertools.chain.from_iterable(laws.laws):
        objects[id(part)] = part
        for item in part:
            objects[id(item)] = item
            objects.update((id(v), v) for v in item)
    return sum(map(sys.getsizeof, objects.values())) + rays.nbytes


@pytest.mark.parametrize("kind", ["chain", "tube"])
def test_threads_filling_one_table_store_whole_laws_once(spec, kind):
    # threads learn the same laws and keep rays, each in its own order, into
    # one shared table while another thread looks laws up in it: every
    # stored law is, bit for bit, a law one thread learned, each learned
    # law is stored once, and a lookup answers only from a whole law's full
    # check.  The chain's laws all fit; of the tube's, the first 64 to
    # arrive are stored
    if kind == "chain":
        prog = fresh_chain(spec, 3)
        chain = feasible_chain(spec, np.random.default_rng(5), 3)
        p, n_patterns = chain[0].corners() + chain[-1].corners(), 48
    else:
        prog = fresh_tube(spec, TubeMpcConfig())
        p, n_patterns = (0.0, 0.0), 80
    laws = prog.laws
    m = laws.prog.G_free.shape[0]
    _, y_opt = oracles.kernel_answer(prog, p)
    patterns = [y_opt, *itertools.islice(oracles.row_patterns(m), n_patterns - 1)]
    # each pattern's law as a table of its own stores it, under its own active set
    want = {}
    for y in patterns:
        alone = empty_table(spec, prog)
        alone.learn(y, p)
        (key,) = alone.stored
        assert key == oracles.law_active_set(laws, y, p).tobytes()
        want[key] = stored_laws(alone)[0]
    # the points of the learned laws whose full check holds at p
    answers = [oracles.law_full_check(laws, law_block(laws, key), p) for key in want]
    points = {answer[0].tobytes() for answer in answers if answer is not None}
    assert points, "no learned law holds at p"
    rays = np.random.default_rng(6).uniform(0.0, 1.0, (80, m))
    done = threading.Event()
    seen = []

    def read():
        while not done.is_set():
            answer = laws.lookup(p)
            if answer is not None:
                seen.append(np.asarray(answer[0]).tobytes())

    def write(seed):
        order = np.random.default_rng(seed).permutation(len(patterns))
        for i in order:
            laws.learn(patterns[i], p)
            laws.keep(rays[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        writers = [threading.Thread(target=write, args=(seed,)) for seed in range(4)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        done.set()
        reader.join(timeout=120)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [reader, *writers])
    assert len(laws) == min(len(want), cost_to_travel._MAX_LAWS) and laws.stored <= set(want)
    assert sorted(stored_laws(laws)) == sorted(want[key] for key in laws.stored)
    assert set(seen) <= points
    kept, floor = laws.rays
    # four threads keep n_patterns rays each, so the table is full of them
    assert kept.shape[0] == floor.size == cost_to_travel._MAX_LAWS
    assert {ray.tobytes() for ray in kept} <= {ray.tobytes() for ray in rays[: len(patterns)]}
    assert np.array_equal(floor, -qp_solver._ROW_TOL * kept.sum(axis=1))
    assert laws.nbytes == kept_bytes(laws) <= cost_to_travel._TABLE_BYTES


# (table, steps or horizon, laws the patterns leave stored, rays that fit after them)
LONG_TABLES = [
    ("chain", 64, 4, 15),
    ("tube", 1, 49, 64),
    ("tube", 2, 64, 64),
    ("tube", 3, 64, 64),
    ("tube", 8, 64, 64),
    ("tube", 16, 64, 30),
    ("tube", 64, 21, 2),
]


@pytest.mark.parametrize(("kind", "steps", "n_laws", "n_rays"), LONG_TABLES, ids=[f"{t[0]}-{t[1]}" for t in LONG_TABLES])
def test_a_long_table_keeps_laws_and_rays_within_its_byte_budget(spec, x_star, kind, steps, n_laws, n_rays):
    # a table stores laws until it holds _MAX_LAWS of them or the next one
    # does not fit its byte budget, and then the rays that fit.  A chain law
    # counts its block; a tube law, which keeps no block, counts the deep
    # size of its screen and point.  At MAX_STEPS a chain law's block is
    # about 214 KiB and a tube law holds about 48 KiB, so a table stores
    # only a few laws.  A law that is not stored still answers at the
    # parameter it was learned at, by its full check
    if kind == "chain":
        prog, p = fresh_chain(spec, steps), x_star.corners() * 2
    else:
        # a state where the kernel's active set has no multiplier at rounding level
        prog, p = fresh_tube(spec, TubeMpcConfig(horizon=steps)), (-1.0, -2.0)
    laws = prog.laws
    m = laws.prog.G_free.shape[0]
    learned, refused = set(), None
    for y in oracles.row_patterns(m):
        act = oracles.law_active_set(laws, y, p)
        known = act.tobytes() in laws.stored
        want = oracles.law_full_check(laws, laws._block(act), p)
        count = len(laws)
        got = laws.learn(y, p)
        # learn takes a stored law not to hold at p, as a lookup came first
        assert (got is None) == (known or want is None)
        if got is not None:
            assert np.asarray(got[0]).tobytes() == want[0].tobytes()
        learned.add(act.tobytes())
        if not known and len(laws) == count:
            refused = laws._nbytes(laws._law(laws._block(act)))
            break
    assert laws.nbytes == kept_bytes(laws) <= cost_to_travel._TABLE_BYTES
    if refused is None:
        # at horizon 1 the patterns give fewer laws than a table holds: it
        # stores every one, and below the kernel's too
        assert laws.stored == learned
    elif len(laws) < cost_to_travel._MAX_LAWS:
        assert laws.nbytes + refused > cost_to_travel._TABLE_BYTES
    assert len(laws) == n_laws
    # the law of the kernel's own answer at p holds there: a full table
    # does not store it, and it answers all the same
    x, y = oracles.kernel_answer(prog, p)
    act = oracles.law_active_set(laws, y, p)
    want = oracles.law_full_check(laws, laws._block(act), p)
    got = laws.learn(y, p)
    assert want is not None and np.asarray(got[0]).tobytes() == want[0].tobytes()
    assert np.max(np.abs(np.asarray(got[0]) - x)) <= 1e-9
    assert (act.tobytes() in laws.stored) == (refused is None)
    # rays fill what is left, up to _MAX_LAWS of them: 15 at the chain's
    # 1,397 free rows, 2 at the horizon-64 tube's 1,423
    law_bytes = laws.nbytes
    for _ in range(100):
        laws.keep(np.ones(m))
    kept, _ = laws.rays
    assert kept.shape[0] == min(cost_to_travel._MAX_LAWS, (cost_to_travel._TABLE_BYTES - law_bytes) // (8 * m)) == n_rays
    assert laws.nbytes == kept_bytes(laws) <= cost_to_travel._TABLE_BYTES


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

    @pytest.mark.parametrize("n_steps", [2, 3])
    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_chains_have_the_reference_bits(self, spec_name, n_steps, monkeypatch):
        # the read-back of each answer, a program's or the two-step closed
        # form's, bit for bit the plain-way read-back of the same answer; the
        # closed form is not called on a pair its rows refuse
        spec = SPECS[spec_name]
        real_solve, real_box = cost_to_travel._solve_program, cost_to_travel._two_step_box
        answers = []

        def recording_solve(prog, p):
            answer = real_solve(prog, p)
            answers.append(answer[0])
            return answer

        def recording_box(*args):
            answers.append(np.array(real_box(*args)))
            return tuple(answers[-1].tolist())

        monkeypatch.setattr(cost_to_travel, "_solve_program", recording_solve)
        monkeypatch.setattr(cost_to_travel, "_two_step_box", recording_box)
        rng = np.random.default_rng(36 + n_steps)
        ends = [feasible_chain(spec, rng, n_steps)[:: n_steps] for _ in range(100)]
        ends += [(random_box_within(rng, spec.x_bounds), random_box_within(rng, OUTER)) for _ in range(100)]
        feasible = 0
        for a, b in ends:
            res = eval_v(spec, a, b, n_steps)
            (x,) = answers or [None]
            answers.clear()
            want = oracles.read_back_reference(spec, x, (a,), (b,))
            if want is None:
                assert res.tube is None and res.value == math.inf
                continue
            feasible += 1
            assert oracles.float_bits((res.tube, res.aux_controls)) == oracles.float_bits(want)
            assert res.value.hex() == oracles.tube_cost_reference(spec, want[0]).hex()
        assert feasible >= 100

    @pytest.mark.parametrize("spec_name", sorted(SPECS))
    def test_invariant_box_reads_back_as_validated(self, spec_name):
        spec = SPECS[spec_name]
        found, _ = optimal_rci.__wrapped__(spec)
        oracles.assert_validated_read_back(spec, (found,), ())

    @staticmethod
    def read_back(monkeypatch, spec, x, ends=()):
        """``_read_tube`` of the free corners x, between the boxes ends or alone, with box builds counted."""
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
        try:
            solved = cost_to_travel._read_tube(spec, x, ends[:1], ends[1:])
        except ValueError:
            assert built == {"trusted": 0, "from_corners": 1}
            raise
        finally:
            monkeypatch.undo()
        return solved, built

    def test_ordered_corners_give_a_trusted_box(self, spec, x_star, monkeypatch):
        # x_star's only one-step successor of its shape is x_star itself
        x = list(x_star.corners())
        (tube, witnesses, _), built = self.read_back(monkeypatch, spec, x, (x_star, x_star))
        assert built == {"trusted": 1, "from_corners": 0}
        assert tube == (x_star, x_star, x_star) and tube[1] is not x_star
        oracles.assert_validated_read_back(spec, tube, witnesses)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_corners_inverted_within_feas_tol_snapped_as_from_corners(self, spec, monkeypatch, dim):
        x = [-1.0, -1.0, -4.0, -1.5]
        x[2 * dim] = x[2 * dim + 1] + 0.5 * _FEAS_TOL
        ((got,), (), _), built = self.read_back(monkeypatch, spec, x)
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

    @pytest.mark.parametrize("x", [[-0.0, 6.0, -7.0, -0.0], [0.0, 5.0, -5.0, 0.0], [-1e-300, 2.0, -3.0, 1e-300]])
    def test_the_clip_gives_the_bits_of_numpy(self, spec, monkeypatch, x):
        # bounds of 0.0 meet corners of -0.0: on a tie numpy keeps the bound
        zero_bounds = dataclasses.replace(spec, x_bounds=IntervalBox.from_intervals((0.0, 5.0), (-5.0, 0.0)))
        ((got,), (), _), _ = self.read_back(monkeypatch, zero_bounds, x)
        want = np.minimum(np.maximum(x, [0.0, 0.0, -5.0, -5.0]), [5.0, 5.0, 0.0, 0.0])
        assert [c.hex() for c in got.corners()] == [c.hex() for c in want.tolist()]

    @pytest.mark.parametrize("index", range(4))
    def test_a_nan_corner_raises(self, spec, monkeypatch, index):
        x = [-1.0, -1.0, -4.0, -1.5]
        x[index] = math.nan
        with pytest.raises(ValueError, match="finite"):
            self.read_back(monkeypatch, spec, x)


# ---------------------------------------------------------------------------
# two steps in closed form, held to the cold N = 2 chain program

TWO_STEP_SPECS = {
    **{f"separability {name}": spec for name, spec in SEPARABILITY_SPECS.items()},
    "alpha 0.8": ProblemSpec(alpha=0.8),
    **{f"mirror {name}": mirror_spec(spec) for name, spec in MIRROR_INSTANCES.items()},
}
BEYOND_X = box((-20.0, 20.0), (-20.0, 20.0))


def two_step_reference(spec, a, c):
    """The cold N = 2 chain program at the ends a and c, read back: ``(tube, witnesses, cost)``, or None."""
    prog = cost_to_travel._chain_stack(spec, 2)._replace(laws=None)
    return cost_to_travel._solve_tube(spec, prog, a.corners() + c.corners(), (a,), (c,))


def assert_reference_answer(spec, a, c):
    """The closed form's status is the program's, its value within 1e-12 of it relative to ``max(1, |value|)``, its middle box within 1e-9."""
    res = eval_v(spec, a, c, 2)
    ref = two_step_reference(spec, a, c)
    assert res.feasible == (ref is not None)
    if ref is not None:
        tube, _, cost = ref
        assert abs(res.value - cost) <= 1e-12 * max(1.0, abs(cost))
        assert max(abs(u - v) for u, v in zip(res.tube[1].corners(), tube[1].corners())) <= 1e-9
    return res


def program_bounds(spec, p):
    """The free rows of the N = 2 program at p as the closed form's bounds, each row matched to one of its two patterns.

    A row bounds one corner of the middle box, with coefficient 1 or alpha
    and either sign, or a lower corner (m1 or m3) minus an upper one (m2
    or m4), with coefficients ``(c, -c)``, c being 1 or alpha.  Returned
    are ``(l1, u1, l2, u2, l3, u3, l4, u4, c14, c32, c34)`` and ``c12``.
    """
    prog = cost_to_travel._chain_stack(spec, 2)
    h = (prog.h0 - prog.P @ np.array(p))[~prog.fixed]
    lo, hi, gap = [-INF] * 4, [INF] * 4, {}
    for g, bound in zip(prog.G_free.tolist(), h.tolist()):
        nonzero = [j for j in range(4) if g[j] != 0.0]
        if len(nonzero) == 1:
            (j,) = nonzero
            assert abs(g[j]) in (1.0, spec.alpha)
            if g[j] > 0.0:
                hi[j] = min(hi[j], bound / g[j])
            else:
                lo[j] = max(lo[j], bound / g[j])
        else:
            (a, b) = sorted(nonzero, key=lambda j: j % 2)
            assert (a, b) in {(0, 1), (0, 3), (2, 1), (2, 3)}
            assert g[a] == -g[b] and g[a] in (1.0, spec.alpha)
            gap[a, b] = min(gap.get((a, b), INF), bound / g[a])
    return (lo[0], hi[0], lo[1], hi[1], lo[2], hi[2], lo[3], hi[3], gap[0, 3], gap[2, 1], gap[2, 3]), gap[0, 1]


@pytest.mark.parametrize("spec_name", sorted(TWO_STEP_SPECS))
class TestTwoStepClosedForm:
    def test_every_free_row_is_a_corner_bound_or_a_difference_bound(self, spec_name):
        # the closed form's bounds are the program's rows, to rounding, on
        # sampled chains and on pairs whose rows admit a middle box
        spec = TWO_STEP_SPECS[spec_name]
        rng = np.random.default_rng(7)
        ends = [feasible_chain(spec, rng, 2)[::2] for _ in range(100)]
        ends += [(random_box_within(rng, spec.x_bounds), random_box_within(rng, OUTER)) for _ in range(300)]
        compared = 0
        for a, c in ends:
            p = a.corners() + c.corners()
            rows = _two_step_rows(spec._step, *p)
            want, c12 = program_bounds(spec, p)
            assert c12 == 0.0
            if rows is None:
                continue
            compared += 1
            for got, bound in zip(rows, want):
                assert got == bound or abs(got - bound) <= 1e-12 * max(1.0, abs(bound)), (got, bound)
        assert compared >= 100

    @given(data=st.data())
    def test_answers_are_the_programs(self, spec_name, data):
        # pairs of chain ends, of boxes in X and of targets beyond X
        spec = TWO_STEP_SPECS[spec_name]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        kind = data.draw(st.sampled_from(["chain", "in X", "beyond X"]))
        if kind == "chain":
            a, c = feasible_chain(spec, rng, 2)[::2]
        else:
            a = random_box_within(rng, spec.x_bounds)
            c = random_box_within(rng, spec.x_bounds if kind == "in X" else BEYOND_X)
        res = assert_reference_answer(spec, a, c)
        assert res.feasible or kind != "chain"

    def test_no_program_is_built_or_solved(self, spec_name, monkeypatch):
        spec = TWO_STEP_SPECS[spec_name]
        for name in ("_chain_stack", "_solve_program", "_dual_active_set"):
            monkeypatch.setattr(cost_to_travel, name, None)
        chain = feasible_chain(spec, np.random.default_rng(3), 2)
        assert eval_v(spec, chain[0], chain[2], 2).feasible


# the sha256 of the float.hex of every answer on oracles.two_step_pinned_pairs
TWO_STEP_DIGEST = "a8bcac68154bba97169fa23115385565dc88087f49a67439a013884e5a7d588c"


def test_two_step_answers_are_pinned():
    # no table, no kernel and no BLAS product is on the path, so each answer
    # is bitwise a function of its arguments: in any order and in a fresh
    # process
    assert oracles.two_step_digest() == TWO_STEP_DIGEST
    assert oracles.two_step_digest(reverse=True) == TWO_STEP_DIGEST
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tube_dissip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "from tests import oracles; print(oracles.two_step_digest())"
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == TWO_STEP_DIGEST


# corners of targets at and near the ends of the float range
FAR_CORNERS = (-sys.float_info.max, -1e308, -5.0, 0.0, 5.0, 1e308, sys.float_info.max)
FAR_SIDES = [(lo, hi) for lo in FAR_CORNERS for hi in FAR_CORNERS if lo <= hi]


def test_targets_near_the_float_range_are_answered():
    # the 784 ordered targets with corners in FAR_CORNERS, from one source:
    # the program raises SolverFailure on 44 of them, on right-hand sides
    # that overflow, and answers the others.  The closed form raises on
    # none; it agrees with every answer of the program, and where the
    # program raised it answers +inf or a tube whose steps pass the rule
    spec = ProblemSpec()
    a = box((-2, 1), (-4, 1))
    raised = 0
    for side1 in FAR_SIDES:
        for side2 in FAR_SIDES:
            c = box(side1, side2)
            try:
                assert_reference_answer(spec, a, c)
            except SolverFailure:
                raised += 1
                res = eval_v(spec, a, c, 2)
                assert not res.feasible or all(transition_feasible(spec, s, t) for s, t in zip(res.tube, res.tube[1:]))
    assert len(FAR_SIDES) ** 2 == 784 and raised == 44
