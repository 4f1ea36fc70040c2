import copy
import json
import math
import pickle

import numpy as np
import pytest

from tube_dissip.interval_sets import (
    IntervalBox,
    boxes_intersect,
    contains,
    hausdorff,
    subset,
)
from tube_dissip.problem import ConfigError

from .oracles import hausdorff_sampled


def box(ix, iy) -> IntervalBox:
    return IntervalBox.from_intervals(ix, iy)


X_FULL = box((-5, 5), (-5, 5))
X_STAR = box((-1, -1), (-4, 0))


class TestIntervalBox:
    def test_corner_round_trip_is_exact(self):
        a = box((-1.25, 0.5), (-4.0, 0.125))
        assert IntervalBox.from_corners(a.corners()) == a

    def test_degenerate_dimensions_allowed(self):
        assert X_STAR.corners() == (-1.0, -1.0, -4.0, 0.0)
        assert X_STAR.hi[0] - X_STAR.lo[0] == 0.0 and X_STAR.hi[1] - X_STAR.lo[1] == 4.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalBox(lo=(0.0, 0.0), hi=(-1.0, 1.0))

    def test_nonfinite_corner_rejected(self):
        with pytest.raises(ValueError):
            IntervalBox(lo=(0.0, float("nan")), hi=(1.0, 1.0))

    def test_snap_collapses_tiny_inversion_only(self):
        b = IntervalBox.from_corners((1.0 + 5e-10, 1.0, 0.0, 2.0), snap_tol=1e-9)
        assert b.lo[0] == b.hi[0]
        with pytest.raises(ValueError):
            IntervalBox.from_corners((1.1, 1.0, 0.0, 2.0), snap_tol=1e-9)

    @pytest.mark.parametrize(
        "lo, hi",
        [((0, 0, 50), (1, 1, -50)), ((0.0,), (1.0,)), ((0.0, 0.0), (1.0, 1.0, 1.0)), (0.0, (1.0, 1.0)), (None, None)],
    )
    def test_side_that_is_not_a_pair_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="two numbers"):
            IntervalBox(lo, hi)

    @pytest.mark.parametrize(
        "lo, hi",
        [((True, 0.0), (1.0, 1.0)), ((0.0, 0.0), (1.0, True)), (("0", "0"), ("1", "1")), ((0.0, 0.0), (1.0, "1"))],
    )
    def test_side_of_bools_or_strings_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="two numbers"):
            IntervalBox(lo, hi)

    def test_real_numbers_stored_as_floats(self):
        b = IntervalBox((0, np.float64(-1.5)), (np.int64(2), 3.0))
        assert b == IntervalBox((0.0, -1.5), (2.0, 3.0))
        assert all(type(c) is float for c in b.corners())

    @pytest.mark.parametrize("snap_tol", [-1.0, -1e-300, math.nan])
    def test_snap_tol_not_at_least_zero_rejected(self, snap_tol):
        with pytest.raises(ValueError, match="snap_tol"):
            IntervalBox.from_corners((0.0, 1.0, 0.0, 1.0), snap_tol=snap_tol)

    @pytest.mark.parametrize("copy_box", [lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy, copy.copy])
    def test_slotted_box_copies_hashes_and_compares(self, copy_box):
        a = box((-1.25, 0.5), (-4.0, 0.125))
        back = copy_box(a)
        assert type(back) is IntervalBox and back == a and hash(back) == hash(a) == hash(((-1.25, -4.0), (0.5, 0.125)))
        assert repr(back) == repr(a) and back.corners() == a.corners()
        assert back != box((-1.25, 0.5), (-4.0, 0.25)) and {a: 1}[back] == 1
        # slotted: no __dict__, so vars() refuses it, and a frozen box refuses a new value
        assert IntervalBox.__slots__ == ("lo", "hi")
        with pytest.raises(TypeError):
            vars(back)
        with pytest.raises(AttributeError):
            back.lo = (0.0, 0.0)

    def test_json_round_trip(self):
        a = box((-1.5, 2.0), (0.0, 3.25))
        assert IntervalBox.from_json_obj(json.loads(json.dumps(a.to_json_obj()))) == a


class TestHausdorff:
    def test_identity(self):
        assert hausdorff(X_STAR, X_STAR) == 0.0

    def test_shifted_segment(self):
        # sampling oracle pins the value: max-norm distance between the two
        # vertical segments is their horizontal offset
        a = box((-1, -1), (-4, 0))
        b = box((-2, -2), (-4, 0))
        assert hausdorff(a, b) == pytest.approx(1.0, abs=1e-12)
        assert abs(hausdorff(a, b) - hausdorff_sampled(a, b)) <= 2e-3

    def test_box_versus_center_point(self):
        a = box((0, 2), (0, 2))
        b = box((1, 1), (1, 1))
        assert hausdorff(a, b) == pytest.approx(1.0, abs=1e-12)
        assert abs(hausdorff(a, b) - hausdorff_sampled(a, b)) <= 2e-3

    def test_metric_axioms_on_random_boxes(self, rng):
        def rand_box():
            x = np.sort(rng.uniform(-5, 5, 2))
            y = np.sort(rng.uniform(-5, 5, 2))
            return box(x, y)

        for _ in range(1000):
            a, b, c = rand_box(), rand_box(), rand_box()
            dab = hausdorff(a, b)
            assert dab >= 0.0
            assert dab == pytest.approx(hausdorff(b, a), abs=1e-12)
            assert hausdorff(a, a) == 0.0
            assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12
        assert hausdorff(a, b) > 0.0 or a == b

    def test_zero_distance_implies_equal(self, rng):
        a = box((0.5, 1.5), (-2, 2))
        b = box((0.5, 1.5), (-2, 2 + 1e-9))
        assert hausdorff(a, b) > 0.0


class TestSubsetContains:
    def test_invariant_box_inside_bounds(self):
        assert subset(X_STAR, X_FULL)

    def test_reflexive(self):
        assert subset(X_STAR, X_STAR)

    def test_lower_corner_violation(self):
        assert not subset(box((-6, 0), (0, 1)), X_FULL)

    def test_transitivity(self, rng):
        for _ in range(300):
            lo = rng.uniform(-5, 0, 2)
            hi = rng.uniform(0, 5, 2)
            c = IntervalBox(lo=tuple(lo), hi=tuple(hi))
            b = IntervalBox(lo=tuple(lo * rng.uniform(0, 1)), hi=tuple(hi * rng.uniform(0, 1)))
            a = IntervalBox(lo=tuple(b.lo[i] * 0.5 for i in range(2)), hi=tuple(b.hi[i] * 0.5 for i in range(2)))
            assert subset(a, b) and subset(b, c)
            assert subset(a, c)

    def test_nested_distance_formula(self, rng):
        for _ in range(200):
            lo = rng.uniform(-5, -1, 2)
            hi = rng.uniform(1, 5, 2)
            outer = IntervalBox(lo=tuple(lo), hi=tuple(hi))
            inner = IntervalBox(lo=tuple(lo * 0.3), hi=tuple(hi * 0.3))
            expected = max(
                inner.lo[0] - outer.lo[0],
                outer.hi[0] - inner.hi[0],
                inner.lo[1] - outer.lo[1],
                outer.hi[1] - inner.hi[1],
            )
            assert expected >= 0.0
            assert hausdorff(inner, outer) == pytest.approx(expected, abs=1e-12)

    def test_contains_reference_points(self):
        assert contains(X_STAR, (-1, -2))
        assert not contains(X_STAR, (-2, -2))
        assert contains(box((0, 1), (0, 1)), (0, 0))

    @pytest.mark.parametrize(
        "z", [(0.0, 0.0, 99.0), (0.0,), 0.0, (True, 0.0), ("0", 0.0)], ids=["three", "one", "number", "bool", "string"]
    )
    def test_contains_takes_a_point_of_two_numbers(self, z):
        # a third coordinate was ignored, and the point reported inside; a
        # bool was taken as a number, and a string raised TypeError
        with pytest.raises(ConfigError, match="a point is two numbers"):
            contains(box((0, 1), (0, 1)), z)


class TestIntersection:
    def test_disjoint_segments(self):
        assert not boxes_intersect(box((-2, -2), (-4, 0)), X_STAR)

    def test_touching_boxes_intersect(self):
        assert boxes_intersect(box((0, 1), (0, 1)), box((1, 2), (1, 2)))

    def test_nested_boxes_intersect(self):
        assert boxes_intersect(X_STAR, X_FULL)

    @pytest.mark.parametrize("other", [
        box((1 + 1e-9, 2), (0, 1)),
        box((-1, -1e-9), (0, 1)),
        box((0, 1), (1 + 1e-9, 2)),
        box((0, 1), (-1, -1e-9)),
    ], ids=["right", "left", "above", "below"])
    def test_gap_within_tol_counts_as_shared(self, other):
        # a gap of about 1e-9 along one axis: within 2e-9, not within 5e-10
        a = box((0, 1), (0, 1))
        for x, y in ((a, other), (other, a)):
            assert not boxes_intersect(x, y) and not boxes_intersect(x, y, tol=5e-10)
            assert boxes_intersect(x, y, tol=2e-9)


PREDICATES = {
    "subset": lambda tol: subset(X_STAR, X_STAR, tol=tol),
    "contains": lambda tol: contains(X_STAR, (-1.0, -2.0), tol=tol),
    "boxes_intersect": lambda tol: boxes_intersect(X_STAR, X_STAR, tol=tol),
}


@pytest.mark.parametrize("name", sorted(PREDICATES))
class TestTolerance:
    # a negative or NaN tol answered False, a bool was taken as 0 or 1, and
    # a string raised TypeError; each is refused at entry now
    @pytest.mark.parametrize(
        "tol", [-1.0, -1e-300, math.nan, True, False, "1", None, np.float64(-1.0), np.float64(math.nan)],
        ids=["negative", "tiny negative", "nan", "true", "false", "string", "none", "np negative", "np nan"],
    )
    def test_tolerance_that_is_not_a_real_number_at_least_zero_rejected(self, name, tol):
        with pytest.raises(ConfigError, match="tol must be a real number >= 0"):
            PREDICATES[name](tol)

    @pytest.mark.parametrize("tol", [0.0, -0.0, 1e-9, 1, np.float64(1e-9), np.int64(0)])
    def test_real_tolerance_at_least_zero_accepted(self, name, tol):
        assert PREDICATES[name](tol)

    @pytest.mark.parametrize(
        "tol", [0.0, 1, np.int64(0), np.float32(0), np.float64(0.1)], ids=["float", "int", "np int", "np float32", "np float64"]
    )
    def test_answer_is_a_bool_whatever_the_tolerance_type(self, name, tol):
        # a numpy tolerance gave numpy.bool_, which is not True and which
        # json.dumps refuses
        got = PREDICATES[name](tol)
        assert got is True and json.dumps(got) == "true"


@pytest.mark.parametrize("z, inside", [
    ((np.float64(-1.0), np.float64(-2.0)), True),
    ((np.float64(-2.0), -2.0), False),
    ((-1.0, np.int64(-2)), True),
    (np.array([-1.0, 1.0]), False),
], ids=["np float64", "np float64 outside", "np int", "np array"])
def test_contains_answers_a_bool_for_a_numpy_point(z, inside):
    # a point of numpy scalars gave numpy.bool_ at the default tolerance too
    got = contains(X_STAR, z)
    assert got is inside and json.dumps(got) == json.dumps(inside)
