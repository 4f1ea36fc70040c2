import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from tube_dissip.cost_to_travel import eval_v, optimal_rci
from tube_dissip.dissipativity import (
    StorageFunction,
    check_strictness,
    eval_storage,
    storage_min_on_domain,
    verify_separability,
)
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ConfigError, ProblemSpec, stage_cost
from tube_dissip.sampling import feasible_pair

from .oracles import inequality_rows, kkt_residual, relaxed_certificate_grid_min, separability_qp_reference

INF = float("inf")


def box(ix, iy):
    return IntervalBox.from_intervals(ix, iy)


DOUBLED = StorageFunction(offset=16.0, linear_coeffs=(0.0, -3.2, 3.2, 0.0))


class TestEvalStorage:
    def test_value_at_invariant_box(self, spec, reference_storage, x_star):
        # 16 + 1.6 * (-4 - (-1)) = 56/5
        assert eval_storage(reference_storage, spec, x_star) == pytest.approx(11.2, abs=1e-12)

    def test_zero_at_full_state_box(self, spec, reference_storage):
        assert eval_storage(reference_storage, spec, spec.x_bounds) == pytest.approx(0.0, abs=1e-12)

    def test_outside_value_used_beyond_bounds(self, spec, reference_storage):
        outside = box((-6, 0), (0, 1))
        assert eval_storage(reference_storage, spec, outside) == 0.0

    def test_nonnegative_on_domain(self, spec, reference_storage):
        assert storage_min_on_domain(spec, reference_storage) >= -1e-9

    def test_doubled_coefficients_go_negative(self, spec):
        assert storage_min_on_domain(spec, DOUBLED) < -1.0

    def test_equals_the_linear_program_minimum(self, spec, rng):
        # the corner polytope a1 <= a2, a3 <= a4 within the bounds, by LP
        xb = spec.x_bounds
        bounds = [(xb.lo[0], xb.hi[0])] * 2 + [(xb.lo[1], xb.hi[1])] * 2
        order = [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]]
        for _ in range(50):
            sf = StorageFunction(offset=float(rng.uniform(-5, 5)), linear_coeffs=tuple(rng.uniform(-2, 2, 4)))
            res = linprog(sf.linear_coeffs, A_ub=order, b_ub=[0.0, 0.0], bounds=bounds, method="highs")
            assert res.status == 0
            assert storage_min_on_domain(spec, sf) == pytest.approx(sf.offset + res.fun, abs=1e-9)

    def test_json_round_trip(self, reference_storage):
        back = StorageFunction.from_json_dict(json.loads(json.dumps(reference_storage.to_json_dict())))
        assert back == reference_storage


class TestVerifySeparability:
    def test_reference_storage_certificate(self, spec, reference_storage):
        rep = verify_separability(spec, reference_storage)
        assert rep.qp_min_value == pytest.approx(-0.2, abs=1e-8)
        assert rep.gap == pytest.approx(0.0, abs=1e-8)
        assert rep.passed
        assert max(abs(a - b) for a, b in zip(rep.minimizer_a, (-1, -1, -4, 0))) <= 1e-6
        # the reported minimizer attains the reported value (the target-side
        # coordinates are degenerate, so only consistency is asserted)
        a_box = IntervalBox.from_corners(rep.minimizer_a, snap_tol=1e-7)
        ell = reference_storage.linear_coeffs
        direct = (
            stage_cost(spec, a_box)
            + sum(ell[i] * rep.minimizer_a[i] for i in range(4))
            - sum(ell[i] * rep.minimizer_b[i] for i in range(4))
        )
        assert direct == pytest.approx(rep.qp_min_value, abs=1e-7)

    def test_reference_storage_against_grid_oracle(self, spec, reference_storage):
        oracle = relaxed_certificate_grid_min(spec, reference_storage.linear_coeffs)
        assert oracle == pytest.approx(-0.2, abs=1e-3)

    def test_zero_storage_fails(self, spec):
        # minimizing the stage cost alone over the relaxed rows reaches -5 at
        # (-5, -5, 0, 0), far below the optimal self-transition value
        rep = verify_separability(spec, StorageFunction(offset=0.0, linear_coeffs=(0.0, 0.0, 0.0, 0.0)))
        assert rep.qp_min_value == pytest.approx(-5.0, abs=1e-8)
        assert rep.gap == pytest.approx(-4.8, abs=1e-8)
        assert not rep.passed
        oracle = relaxed_certificate_grid_min(spec, (0.0, 0.0, 0.0, 0.0))
        assert oracle == pytest.approx(rep.qp_min_value, abs=1e-3)

    def test_doubled_storage_fails(self, spec):
        rep = verify_separability(spec, DOUBLED)
        assert rep.qp_min_value == pytest.approx(-10.4, abs=1e-8)
        assert rep.gap == pytest.approx(-10.2, abs=1e-8)
        assert not rep.passed
        oracle = relaxed_certificate_grid_min(spec, DOUBLED.linear_coeffs)
        assert oracle == pytest.approx(rep.qp_min_value, abs=1e-3)

    def test_unbounded_candidate_reports_ray(self, spec):
        # a coefficient on the free target corner b4 makes the relaxation
        # unbounded below
        bad = StorageFunction(offset=0.0, linear_coeffs=(0.0, 0.0, 0.0, 1.0))
        rep = verify_separability(spec, bad)
        assert not rep.passed
        assert rep.qp_min_value == -INF
        assert rep.unbounded_ray is not None

    def test_report_json_round_trip(self, spec, reference_storage):
        rep = verify_separability(spec, reference_storage)
        strict = check_strictness(spec, reference_storage, n_samples=5, seed=0)
        obj = json.loads(json.dumps(replace(rep, strictness=strict).to_json_dict()))
        assert obj["passed"] is rep.passed is True and obj["unbounded"] is False
        assert obj["qp_min_value"] == rep.qp_min_value and obj["v_star"] == rep.v_star and obj["gap"] == rep.gap
        assert tuple(obj["minimizer_a"]) == rep.minimizer_a and tuple(obj["minimizer_b"]) == rep.minimizer_b
        assert obj["minimizer_v"] == rep.minimizer_v
        worst = tuple(IntervalBox.from_json_obj(b) for b in obj["strictness"]["worst_pair"])
        assert worst == strict.worst_pair and obj["strictness"]["min_margin"] == strict.min_margin
        # an unbounded candidate's infinite minimum and gap are written as null
        unbounded = StorageFunction(offset=0.0, linear_coeffs=(0.0, 0.0, 0.0, 1.0))
        obj = json.loads(json.dumps(verify_separability(spec, unbounded).to_json_dict()))
        assert obj["qp_min_value"] is None and obj["gap"] is None and obj["unbounded"] is True


SEPARABILITY_SPECS = {
    "bounded U": ProblemSpec.default(),
    "unbounded U": ProblemSpec(u_bounds=(-INF, INF)),
    "half-bounded U": ProblemSpec(u_bounds=(-2.0, INF)),
    "U away from zero": ProblemSpec(u_bounds=(1.0, 3.0)),
}


def random_candidate(rng) -> StorageFunction:
    """Storage coefficients, each zero or of either sign, so every case of the sign rule occurs."""
    coeffs = rng.uniform(-2.0, 2.0, 4) * rng.choice([0.0, 1.0], 4, p=[0.5, 0.5])
    # a bounded relaxation needs ell1 = ell4 = 0, ell2 <= 0 and ell3 >= 0
    if rng.uniform() < 0.6:
        coeffs[0] = coeffs[3] = 0.0
        coeffs[1], coeffs[2] = -abs(coeffs[1]), abs(coeffs[2])
        if rng.uniform() < 0.5:
            # no net weight on v1, as in the reference candidate: bounded for any U
            coeffs[2] = -coeffs[1]
    return StorageFunction(offset=0.0, linear_coeffs=tuple(float(c) for c in coeffs))


@pytest.mark.parametrize("spec_name", sorted(SEPARABILITY_SPECS))
class TestSeparabilityClosedForm:
    """The closed form checked on the relaxed program assembled through QpBuilder.

    A bounded verdict's minimiser passes the program's KKT check, and an
    unbounded verdict's ray keeps every row and lowers the objective, so each
    proves its verdict.
    """

    def test_minimiser_passes_kkt(self, spec_name, rng):
        spec = SEPARABILITY_SPECS[spec_name]
        checked = 0
        for _ in range(150):
            sf = random_candidate(rng)
            rep = verify_separability(spec, sf)
            if rep.unbounded_ray is not None:
                continue
            checked += 1
            qp = separability_qp_reference(spec, sf.linear_coeffs)
            x = np.array(rep.minimizer_a + rep.minimizer_b + (rep.minimizer_v,))
            assert kkt_residual(qp, x) <= 1e-12
            assert qp.objective_value(x) == pytest.approx(rep.qp_min_value, abs=1e-12)
            assert rep.gap == rep.qp_min_value - rep.v_star
        assert checked >= 30, checked

    def test_ray_keeps_every_row_and_lowers_the_objective(self, spec_name, rng):
        spec = SEPARABILITY_SPECS[spec_name]
        checked = 0
        for _ in range(150):
            sf = random_candidate(rng)
            rep = verify_separability(spec, sf)
            if rep.unbounded_ray is None:
                continue
            checked += 1
            assert not rep.passed and rep.qp_min_value == -INF
            qp = separability_qp_reference(spec, sf.linear_coeffs)
            G, _ = inequality_rows(qp)
            ray = np.array(rep.unbounded_ray)
            assert ray.shape == (9,)
            assert np.all(G @ ray <= 0.0)
            assert np.all(qp.H @ ray == 0.0) and qp.g @ ray < 0.0
        assert checked >= 30, checked

    def test_ray_follows_the_sign_rule_with_every_zero_positive(self, spec_name):
        # every ell in {-1, -0.0, 0.0, 1}^4: the ray is the docstring's rule,
        # written out here, and each of its zero entries is +0.0, whatever
        # the sign of a zero coefficient; a bounded candidate reports its gap
        # to V*, the oracle's, and passes by it
        spec = SEPARABILITY_SPECS[spec_name]
        u_lo, u_hi = spec.u_bounds
        _, v_star = optimal_rci(spec)
        verdicts = {"ray": 0, "bounded": 0}
        for ell in itertools.product((-1.0, -0.0, 0.0, 1.0), repeat=4):
            rep = verify_separability(spec, StorageFunction(offset=0.0, linear_coeffs=ell))
            # in the variables (a1..a4, b1..b4, v1)
            want = [0.0] * 9
            for i in (0, 3):
                if ell[i] != 0.0:
                    want[4 + i] = 1.0 if ell[i] > 0.0 else -1.0
            if ell[1] > 0.0:
                want[5] = 1.0
            if ell[2] < 0.0:
                want[6] = -1.0
            # the objective's term on v1 once b2 and b3 sit on their rows
            slope = -(ell[1] + ell[2])
            if not any(want) and slope < 0.0 and u_hi == INF:
                want[5] = want[6] = want[8] = 1.0
            if not any(want) and slope > 0.0 and u_lo == -INF:
                want[5] = want[6] = want[8] = -1.0
            if any(want):
                verdicts["ray"] += 1
                assert [r.hex() for r in rep.unbounded_ray] == [w.hex() for w in want], ell
                assert all(math.copysign(1.0, r) == 1.0 for r in rep.unbounded_ray if r == 0.0)
                assert rep.passed is False and rep.gap == rep.qp_min_value == -INF
                assert rep.minimizer_a is rep.minimizer_b is rep.minimizer_v is None
                continue
            verdicts["bounded"] += 1
            assert rep.unbounded_ray is None, ell
            assert rep.gap == rep.qp_min_value - v_star
            assert rep.passed is (rep.gap >= -1e-6)
            qp = separability_qp_reference(spec, ell)
            x = np.array(rep.minimizer_a + rep.minimizer_b + (rep.minimizer_v,))
            assert kkt_residual(qp, x) <= 1e-8
            assert rep.gap == pytest.approx(qp.objective_value(x) - v_star, abs=1e-9)
        assert min(verdicts.values()) > 0, verdicts


class TestStrictness:
    def test_positive_margins_for_reference_storage(self, spec, reference_storage):
        summary = check_strictness(spec, reference_storage, n_samples=1000, seed=11)
        assert summary.n_samples == 1000
        assert summary.min_margin > 0.0
        assert summary.n_nonpositive == 0

    def test_margin_zero_at_stationary_pair(self, spec, reference_storage, x_star):
        _, v_star = optimal_rci(spec)
        margin = (
            eval_v(spec, x_star, x_star, 1).value
            - v_star
            - eval_storage(reference_storage, spec, x_star)
            + eval_storage(reference_storage, spec, x_star)
        )
        assert margin == pytest.approx(0.0, abs=1e-8)

    def test_hand_computed_margin(self, spec, reference_storage, x_star):
        # L(A) = -0.9, W(A) = 12.8, W(B) = 11.2, V* = -0.2
        a = box((-1, -1), (-3, 0))
        margin = (
            eval_v(spec, a, x_star, 1).value
            - (-0.2)
            - eval_storage(reference_storage, spec, x_star)
            + eval_storage(reference_storage, spec, a)
        )
        assert margin == pytest.approx(0.9, abs=1e-8)

    def test_deterministic_under_fixed_seed(self, spec, reference_storage):
        s1 = check_strictness(spec, reference_storage, n_samples=50, seed=5)
        s2 = check_strictness(spec, reference_storage, n_samples=50, seed=5)
        assert s1 == s2
        s3 = check_strictness(spec, reference_storage, n_samples=50, seed=6)
        assert s3.min_margin != s1.min_margin

    def test_sample_count_validated(self, spec, reference_storage):
        with pytest.raises(ValueError):
            check_strictness(spec, reference_storage, n_samples=0, seed=1)

    @pytest.mark.parametrize("n_samples", [2.5, True, "3"])
    def test_sample_count_is_an_integer(self, spec, reference_storage, n_samples):
        # 2.5 ran, and reported n_samples 2.5
        with pytest.raises(ConfigError, match="n_samples"):
            check_strictness(spec, reference_storage, n_samples=n_samples, seed=1)
        summary = check_strictness(spec, reference_storage, n_samples=np.int64(3), seed=1)
        assert summary == check_strictness(spec, reference_storage, n_samples=3, seed=1)


class TestDissipationBridge:
    def test_storage_increase_bounded_by_supply(self, spec, reference_storage, rng):
        # whenever the certificate passes, sampled transitions satisfy the
        # storage-difference inequality against the stage cost
        assert verify_separability(spec, reference_storage).passed
        _, v_star = optimal_rci(spec)
        for _ in range(100):
            a, b = feasible_pair(spec, rng)
            lhs = eval_storage(reference_storage, spec, b) - eval_storage(reference_storage, spec, a)
            assert lhs <= stage_cost(spec, a) - v_star + 1e-6
