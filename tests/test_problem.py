import copy
import dataclasses
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tube_dissip.closed_loop import rotated_cost
from tube_dissip.cost_to_travel import eval_v, optimal_rci
from tube_dissip.interval_sets import IntervalBox, subset
from tube_dissip.problem import (
    ConfigError,
    ProblemSpec,
    _step_witness,
    dynamics,
    is_rci,
    stage_cost,
    transition_feasible,
    transition_rows,
    transition_witness,
)
from tube_dissip.qp_solver import _FEAS_TOL
from tube_dissip.sampling import feasible_pair, monotone_cone_box, random_box_within, random_superbox
from tube_dissip.tube_mpc import _controller

from .oracles import (
    build_g_block,
    interpolated_control,
    row_violations,
    step_witness_reference,
    transition_feasible_oracle,
    transition_feasible_rows,
    transition_margin,
)

INF = float("inf")
NAN = float("nan")
SPEC = ProblemSpec.default()
# U unbounded on both sides, above and below
UNBOUNDED_U = {"unbounded U": (-INF, INF), "U unbounded above": (-5.0, INF), "U unbounded below": (-INF, 5.0)}
FEAS_TOL = _FEAS_TOL


def box(ix, iy):
    return IntervalBox.from_intervals(ix, iy)


class TestProblemSpec:
    def test_defaults_reproduce_reference_instance(self, spec):
        assert spec.alpha == 0.5
        assert spec.x_bounds == box((-5, 5), (-5, 5))
        assert spec.u_bounds == (-5.0, 5.0)
        assert spec.w_bounds == (-1.0, 1.0)
        assert spec.cost_linear == (0.0, 2.0, 0.0, 0.0)
        assert spec.cost_quad == (0.15, 0.05, 0.1, 0.05)

    def test_json_round_trip(self, spec):
        assert ProblemSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            ProblemSpec.from_json_dict({"gamma": 1.0})

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ConfigError):
            ProblemSpec(alpha=0.0)

    def test_nonconvex_cost_rejected(self):
        with pytest.raises(ConfigError):
            ProblemSpec(cost_quad=(0.1, 0.0, 0.1, 0.1))

    def test_empty_control_interval_rejected(self):
        with pytest.raises(ConfigError):
            ProblemSpec(u_bounds=(1.0, -1.0))

    @pytest.mark.parametrize("u_bounds", [(INF, INF), (-INF, -INF)])
    def test_control_interval_without_a_real_point_rejected(self, u_bounds):
        # ordered, yet it holds no real number; its rows would read inf - inf
        with pytest.raises(ConfigError):
            ProblemSpec(u_bounds=u_bounds)

    def test_unbounded_control_interval_accepted(self):
        assert ProblemSpec(u_bounds=(-INF, INF)).u_bounds == (-INF, INF)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"u_bounds": (NAN, 1.0)},
            {"u_bounds": (-1.0, NAN)},
            {"w_bounds": (NAN, 1.0)},
            {"w_bounds": (-INF, 1.0)},
            {"w_bounds": (-1.0, INF)},
            {"cost_linear": (0.0, NAN, 0.0, 0.0)},
            {"cost_quad": (0.15, NAN, 0.1, 0.05)},
        ],
    )
    def test_nan_and_unbounded_disturbance_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ProblemSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_bounds": IntervalBox(lo=(-1e308, -5.0), hi=(1e308, 5.0))},
            {"x_bounds": IntervalBox(lo=(-5.0, -1.7e308), hi=(5.0, 1.7e308))},
            {"w_bounds": (-1e308, 1e308)},
        ],
        ids=["x1", "x2", "w"],
    )
    def test_bounds_whose_width_overflows_rejected(self, kwargs):
        # every corner is finite, but hi - lo is inf
        with pytest.raises(ConfigError, match="finite widths"):
            ProblemSpec(**kwargs)

    def test_widest_finite_bounds_accepted(self):
        spec = ProblemSpec(x_bounds=IntervalBox(lo=(-8e307, -5.0), hi=(8e307, 5.0)), w_bounds=(-8e307, 8e307))
        assert spec.x_bounds.hi[0] - spec.x_bounds.lo[0] == 1.6e308


class TestPerSpecValues:
    """The one-step constants and the hash a spec computes once, when it is built."""

    CHANGED = {"alpha": 0.8, "w_bounds": (-0.5, 0.5)}

    @staticmethod
    def pairs(spec, seed=5):
        rng = np.random.default_rng(seed)
        feasible = [feasible_pair(spec, rng) for _ in range(100)]
        unrelated = [(random_box_within(rng, spec.x_bounds), random_box_within(rng, spec.x_bounds)) for _ in range(100)]
        return feasible + unrelated

    def test_equal_specs_hash_equal(self):
        specs = [
            ProblemSpec(),
            ProblemSpec.default(),
            ProblemSpec.from_json_dict(json.loads(json.dumps(SPEC.to_json_dict()))),
            ProblemSpec(x_bounds=IntervalBox((-5, -5), (5, 5)), u_bounds=[-5, 5], cost_linear=[0, 2, 0, 0]),
        ]
        assert all(s == SPEC for s in specs)
        assert {hash(s) for s in specs} == {hash(SPEC)}
        # the hash the dataclass would derive from the fields, and no other
        fields = tuple(getattr(SPEC, f.name) for f in dataclasses.fields(SPEC))
        assert hash(SPEC) == hash(fields)
        assert hash(ProblemSpec(**self.CHANGED)) != hash(SPEC)

    @pytest.mark.parametrize(
        "changes",
        [CHANGED, {"u_bounds": (-3.0, 4.0), "x_bounds": IntervalBox((-4.0, -6.0), (6.0, 4.0))}],
        ids=["alpha and W", "U and X"],
    )
    def test_replace_recomputes_the_constants(self, changes):
        changed = dataclasses.replace(SPEC, **changes)
        fresh = ProblemSpec(**changes)
        assert changed == fresh and hash(changed) == hash(fresh) and hash(changed) != hash(SPEC)
        pairs = self.pairs(fresh)
        witnesses = [transition_witness(changed, a, b) for a, b in pairs]
        assert witnesses == [transition_witness(fresh, a, b) for a, b in pairs]
        # the constants are the new spec's, not the old one's: the verdicts
        # are the row rule's on the new fields
        assert witnesses != [transition_witness(SPEC, a, b) for a, b in pairs]
        for (a, b), w in zip(pairs, witnesses):
            assert (w is not None) == transition_feasible_rows(fresh, a, b, FEAS_TOL), (a, b)

    @pytest.mark.parametrize(
        "copy_spec", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    @pytest.mark.parametrize("kwargs", [{}, CHANGED, {"u_bounds": (-INF, INF)}], ids=["default", "changed", "unbounded U"])
    def test_copies_are_equal_and_usable(self, copy_spec, kwargs):
        spec = ProblemSpec(**kwargs)
        back = copy_spec(spec)
        assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)
        pairs = self.pairs(spec)
        assert [transition_witness(back, a, b) for a, b in pairs] == [transition_witness(spec, a, b) for a, b in pairs]
        a, c = pairs[0][0], pairs[1][1]
        assert repr(eval_v(back, a, c, 2)) == repr(eval_v(spec, a, c, 2))

    def test_repr_and_json_show_only_the_fields(self):
        assert [f.name for f in dataclasses.fields(SPEC)] == [
            "alpha", "x_bounds", "u_bounds", "w_bounds", "cost_linear", "cost_quad",
        ]
        assert repr(SPEC) == (
            "ProblemSpec(alpha=0.5, x_bounds=IntervalBox([-5.0, 5.0] x [-5.0, 5.0]), u_bounds=(-5.0, 5.0), "
            "w_bounds=(-1.0, 1.0), cost_linear=(0.0, 2.0, 0.0, 0.0), cost_quad=(0.15, 0.05, 0.1, 0.05))"
        )
        assert SPEC.to_json_dict() == {
            "alpha": 0.5,
            "x_bounds": [[-5.0, 5.0], [-5.0, 5.0]],
            "u_bounds": [-5.0, 5.0],
            "w_bounds": [-1.0, 1.0],
            "cost_linear": [0.0, 2.0, 0.0, 0.0],
            "cost_quad": [0.15, 0.05, 0.1, 0.05],
        }

    def test_state_bounds_that_are_not_a_box_rejected(self):
        with pytest.raises(ConfigError, match="x_bounds"):
            ProblemSpec(x_bounds=[[-5.0, 5.0], [-5.0, 5.0]])


class TestStageCost:
    def test_invariant_box_value(self, spec, x_star):
        assert stage_cost(spec, x_star) == pytest.approx(-0.2, abs=1e-12)

    def test_origin_singleton(self, spec):
        assert stage_cost(spec, box((0, 0), (0, 0))) == 0.0

    def test_hand_evaluated_segment(self, spec):
        # 2*(-1) + (3 + 1 + 18 + 0)/20
        assert stage_cost(spec, box((-1, -1), (-3, 0))) == pytest.approx(-0.9, abs=1e-12)

    def test_each_corner_takes_its_own_coefficients(self, rng):
        # distinct coefficients per corner, so a corner read from the wrong
        # place in (lo, hi) changes the value
        spec = ProblemSpec(cost_linear=(0.3, -1.1, 0.7, 2.3), cost_quad=(0.15, 0.05, 0.1, 0.4))
        for _ in range(200):
            a = random_box_within(rng, spec.x_bounds)
            c = a.corners()
            terms = [spec.cost_linear[i] * c[i] + spec.cost_quad[i] * c[i] * c[i] for i in range(4)]
            assert stage_cost(spec, a) == ((terms[0] + terms[1]) + terms[2]) + terms[3]

    def test_grows_with_inclusion_on_the_cone(self, spec, rng):
        for _ in range(300):
            inner = monotone_cone_box(rng, spec)
            outer = random_superbox(rng, inner, spec.x_bounds)
            assert stage_cost(spec, inner) <= stage_cost(spec, outer) + 1e-12

    def test_not_monotone_everywhere_inside_bounds(self, spec):
        # counterexample with a positive lower corner: growing the box
        # decreases the cost, so global monotonicity fails on the bounds
        inner = box((3, 4), (0, 1))
        outer = box((-1, 4), (0, 1))
        assert subset(inner, outer) and subset(outer, spec.x_bounds)
        assert stage_cost(spec, inner) > stage_cost(spec, outer)


class TestGBlock:
    def test_reference_rows_present(self, spec):
        a, b, v = (0, 1, 2, 3), (4, 5, 6, 7), (8, 9)
        block = build_g_block(spec, a, b, v)
        # b3 <= a3/2 + v1 - 1
        assert block.has_row({6: 1.0, 2: -0.5, 8: -1.0}, -INF, -1.0)
        # a4 >= 2 (v1 - v2) + a3
        assert block.has_row({8: 2.0, 9: -2.0, 2: 1.0, 3: -1.0}, -INF, 0.0)
        # b4 >= a4/2 + v2 + 1
        assert block.has_row({3: 0.5, 9: 1.0, 7: -1.0}, -INF, -1.0)
        assert not block.has_row({6: 1.0, 2: -0.5, 8: -1.0}, -INF, 0.0)

    def test_disturbance_free_rows(self):
        spec0 = ProblemSpec(w_bounds=(0.0, 0.0))
        block = build_g_block(spec0, (0, 1, 2, 3), (4, 5, 6, 7), (8, 9))
        assert block.has_row({6: 1.0, 2: -0.5, 8: -1.0}, -INF, 0.0)
        assert block.has_row({3: 0.5, 9: 1.0, 7: -1.0}, -INF, 0.0)

    def test_state_bound_rows_cover_source_box(self, spec):
        block = build_g_block(spec, (0, 1, 2, 3), (4, 5, 6, 7), (8, 9))
        assert block.has_row({0: 1.0}, -5.0, INF)
        assert block.has_row({1: 1.0}, -INF, 5.0)
        assert block.has_row({0: 1.0, 1: -1.0}, -INF, 0.0)
        assert block.has_row({2: 1.0, 3: -1.0}, -INF, 0.0)


class TestTransitionFeasible:
    def test_invariant_box_self_transition(self, spec, x_star):
        assert transition_feasible(spec, x_star, x_star)

    def test_singleton_to_shifted_box(self, spec):
        # v1 = v2 = 1 satisfies every row; the pointwise oracle agrees
        a = box((0, 0), (0, 0))
        b = box((1, 1), (0, 2))
        assert transition_feasible(spec, a, b)
        assert transition_feasible_oracle(spec, a, b)

    def test_narrow_targets_unreachable(self, spec, rng):
        # the one-step image of any state spans the full disturbance width
        for _ in range(25):
            a = random_box_within(rng, spec.x_bounds)
            b3 = rng.uniform(-5, 3.5)
            b = box(tuple(sorted(rng.uniform(-5, 5, 2))), (b3, b3 + rng.uniform(0, 1.9)))
            assert not transition_feasible(spec, a, b)
            assert not transition_feasible_oracle(spec, a, b)

    def test_agrees_with_pointwise_oracle(self, spec, rng):
        checked = 0
        for _ in range(400):
            a = random_box_within(rng, spec.x_bounds)
            if rng.uniform() < 0.5:
                b = random_box_within(rng, spec.x_bounds)
            else:
                a2, b = feasible_pair(spec, rng)
                a = a2
            margin = transition_margin(spec, a, b)
            if abs(margin) < 1e-7:
                continue  # boundary cases are tolerance-dependent by design
            checked += 1
            assert transition_feasible(spec, a, b) == (margin > 0.0)
        assert checked > 300

    def test_interpolated_control_witness(self, spec, rng):
        # the edge controls returned by the one-step solve steer every
        # sampled state into the target for both extreme disturbances
        for _ in range(50):
            a, b = feasible_pair(spec, rng)
            res = eval_v(spec, a, b, 1)
            v1, v2 = res.aux_controls[0]
            for x2 in np.linspace(a.lo[1], a.hi[1], 21):
                u = interpolated_control(a, v1, v2, x2)
                for w in (spec.w_lo, spec.w_hi):
                    nxt = dynamics(spec, (a.lo[0], x2), u, w)
                    assert b.lo[0] - 1e-7 <= nxt[0] <= b.hi[0] + 1e-7
                    assert b.lo[1] - 1e-7 <= nxt[1] <= b.hi[1] + 1e-7

    def test_source_outside_bounds_infeasible(self, spec):
        a = box((-6, 0), (0, 1))
        assert not transition_feasible(spec, a, box((-5, 5), (-5, 5)))


class TestTransitionMonotonicity:
    def test_smaller_source_and_larger_target(self, spec, rng):
        tried = 0
        for _ in range(500):
            a_outer = random_box_within(rng, spec.x_bounds)
            c = (
                feasible_pair(spec, rng)[1]
                if rng.uniform() < 0.3
                else random_box_within(rng, spec.x_bounds)
            )
            if not transition_feasible(spec, a_outer, c):
                continue
            tried += 1
            a_inner = random_box_within(rng, a_outer)
            assert transition_feasible(spec, a_inner, c)
            c_outer = IntervalBox(
                lo=(c.lo[0] - rng.uniform(0, 1), c.lo[1] - rng.uniform(0, 1)),
                hi=(c.hi[0] + rng.uniform(0, 1), c.hi[1] + rng.uniform(0, 1)),
            )
            assert transition_feasible(spec, a_outer, c_outer)
        assert tried >= 100


class TestIsRci:
    def test_invariant_box(self, spec, x_star):
        assert is_rci(spec, x_star)

    def test_origin_singleton_is_not(self, spec):
        assert not is_rci(spec, box((0, 0), (0, 0)))

    def test_full_state_box_matches_oracle(self, spec):
        full = spec.x_bounds
        assert is_rci(spec, full) == transition_feasible_oracle(spec, full, full)


# ---------------------------------------------------------------------------
# the closed-form one-step decision against the QP and the pointwise oracle

coords = st.floats(-6.0, 6.0)


@st.composite
def boxes(draw):
    x = sorted(draw(st.tuples(coords, coords)))
    y = sorted(draw(st.tuples(coords, coords)))
    return IntervalBox.from_intervals(x, y)


@st.composite
def transition_pairs(draw, spec=SPEC):
    """Unrelated boxes, partly outside the state bounds, or sampled transitions with a jittered target."""
    if draw(st.booleans()):
        return draw(boxes()), draw(boxes())
    a, b = feasible_pair(spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    jitter = draw(st.tuples(*[st.floats(-0.5, 0.5)] * 4))
    c = [x + d for x, d in zip(b.corners(), jitter)]
    assume(c[0] <= c[1] and c[2] <= c[3])
    return a, IntervalBox.from_corners(c)


def _moved(a: IntervalBox, b: IntervalBox, direction: str, s: float):
    """The pair with one corner moved by s, each way making the step harder."""
    a1, a2, a3, a4 = a.corners()
    b1, b2, b3, b4 = b.corners()
    if direction == "a1-":
        return IntervalBox.from_corners((a1 - s, a2, a3, a4)), b
    if direction == "a2+":
        return IntervalBox.from_corners((a1, a2 + s, a3, a4)), b
    if direction == "b1+":
        return a, IntervalBox.from_corners((min(b1 + s, b2), b2, b3, b4))
    if direction == "b2-":
        return a, IntervalBox.from_corners((b1, max(b2 - s, b1), b3, b4))
    if direction == "b3+":
        return a, IntervalBox.from_corners((b1, b2, min(b3 + s, b4), b4))
    return a, IntervalBox.from_corners((b1, b2, b3, max(b4 - s, b3)))


@st.composite
def boundary_pairs(draw):
    """Sampled transitions moved to within 1e-9 of the exact or of the relaxed boundary.

    A corner moves until the row-by-row rule at level ``tol`` flips (found by
    bisection), then by ``eps`` more.  Moves under 1e-12 are left out: float
    rounding, not the rule, decides pairs within about 1e-15 of the boundary.
    """
    a, b = feasible_pair(SPEC, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    direction = draw(st.sampled_from(["a1-", "a2+", "b1+", "b2-", "b3+", "b4-"]))
    tol = draw(st.sampled_from([0.0, FEAS_TOL]))
    eps = draw(st.floats(1e-12, 1e-9)) * draw(st.sampled_from([-1.0, 1.0]))
    lo, hi = 0.0, 12.0
    assume(transition_feasible_rows(SPEC, *_moved(a, b, direction, lo), tol))
    assume(not transition_feasible_rows(SPEC, *_moved(a, b, direction, hi), tol))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if transition_feasible_rows(SPEC, *_moved(a, b, direction, mid), tol):
            lo = mid
        else:
            hi = mid
    return _moved(a, b, direction, max(lo + eps, 0.0))


class TestClosedFormDecision:
    @given(transition_pairs())
    def test_agrees_with_the_row_rule_and_pointwise_oracle_off_the_boundary(self, pair):
        a, b = pair
        margin = transition_margin(SPEC, a, b)
        assume(abs(margin) > 1e-7)
        assert transition_feasible(SPEC, a, b) == (margin > 0.0)
        assert transition_feasible_rows(SPEC, a, b, 0.0) == (margin > 0.0)

    @given(boundary_pairs())
    def test_follows_the_row_rule_at_the_boundary(self, pair):
        a, b = pair
        witness = transition_witness(SPEC, a, b)
        assert (witness is not None) == transition_feasible_rows(SPEC, a, b, FEAS_TOL)
        if witness is not None:
            # the row sums themselves round at about 1e-15
            assert max(row_violations(SPEC, a, b, witness)) <= FEAS_TOL + 1e-13

    @pytest.mark.parametrize(
        "spec",
        [SPEC, *(ProblemSpec(u_bounds=u) for u in UNBOUNDED_U.values())],
        ids=["bounded U", *UNBOUNDED_U],
    )
    @given(data=st.data())
    def test_eliminated_rows_agree_off_the_boundary(self, spec, data):
        a, b = data.draw(transition_pairs(spec))
        assume(abs(transition_margin(spec, a, b)) > 1e-7)
        src, tgt, const = transition_rows(spec)
        # only rows that can fail are kept: an unbounded side of U leaves no constant of +inf
        assert np.all(np.isfinite(const)) and np.all(np.any(src != 0.0, axis=1) | np.any(tgt != 0.0, axis=1))
        holds = bool(np.all(src @ a.corners() + tgt @ b.corners() <= const))
        assert holds == (transition_witness(spec, a, b) is not None)

    @pytest.mark.parametrize(
        "spec",
        [
            SPEC,
            ProblemSpec(u_bounds=(-INF, INF)),
            ProblemSpec(alpha=0.8),
            # signed zeros tie with the bounds of U and W
            ProblemSpec(u_bounds=(-0.0, 0.0), w_bounds=(0.0, 0.0)),
        ],
        ids=["default", "unbounded U", "alpha 0.8", "U and W zero"],
    )
    def test_rule_is_its_builtin_form_to_the_bit(self, spec):
        # the rule writes each max and min as conditional expressions; ties,
        # signed zeros, infinities and NaN must pick what the builtins pick
        rng = np.random.default_rng(12)
        special = np.array([0.0, -0.0, INF, -INF, NAN, 5.0, -5.0, 1.0, -1.0])
        shape = (20_000, 8)
        kind = rng.uniform(size=shape)
        corners = rng.uniform(-6.0, 6.0, size=shape)
        # small integers tie with the bounds and with each other
        corners = np.where(kind < 0.4, rng.integers(-6, 7, size=shape), corners)
        corners = np.where(kind < 0.2, special[rng.integers(special.size, size=shape)], corners)

        def bits(witness):
            return None if witness is None else struct.pack("<2d", *witness)

        quads = corners.tolist()
        for a, b in (feasible_pair(spec, rng) for _ in range(2_000)):
            quads.append([*a.corners(), *b.corners()])
        accepted = 0
        for quad in quads:
            got = _step_witness(spec._step, *quad)
            assert bits(got) == bits(step_witness_reference(spec._step, *quad)), quad
            accepted += got is not None
        assert 2_000 <= accepted < len(quads)

    def test_witness_is_exact_on_feasible_pairs(self, rng):
        for _ in range(200):
            a, b = feasible_pair(SPEC, rng)
            witness = transition_witness(SPEC, a, b)
            assert witness is not None
            assert max(row_violations(SPEC, a, b, witness)) <= 1e-12

    def test_one_step_paths_call_no_solver(self, spec, cfg_ic, x_star, forbid_solver):
        optimal_rci(spec)
        _controller(spec, cfg_ic)
        patched = forbid_solver()
        assert patched == ["tube_dissip.cost_to_travel", "tube_dissip.qp_solver"]
        unreachable = box((0, 1), (0, 1))
        assert transition_feasible(spec, x_star, x_star)
        assert not transition_feasible(spec, unreachable, unreachable)
        assert is_rci(spec, x_star) and not is_rci(spec, unreachable)
        assert eval_v(spec, x_star, x_star, 1).value == pytest.approx(-0.2, abs=1e-12)
        assert eval_v(spec, unreachable, unreachable, 1).value == INF
        assert rotated_cost(spec, cfg_ic, x_star, x_star) == pytest.approx(0.0, abs=1e-12)
        assert rotated_cost(spec, cfg_ic, unreachable, unreachable) == INF
