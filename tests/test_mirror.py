"""Mirror symmetry: negating states, controls and disturbances maps an instance onto another of the family.

X, U and W map to their negatives, and a box ``[lo, hi]`` to ``[-hi, -lo]``,
so corners ``(a1, a2, a3, a4)`` map to ``(-a2, -a1, -a4, -a3)``.
``cost_linear`` and a storage's coefficients map as corners do, with their
signs flipped (each term ``q*a`` is unchanged), ``cost_quad``
``(d1, d2, d3, d4)`` to ``(d2, d1, d4, d3)``, and ``alpha`` is unchanged.
The dynamics ``(u, alpha*x2 + u + w)`` are odd, so every verdict and value
of an instance is its mirror's, every box is the mirror of its mirror's,
and ``u0`` is negated.  Only the order in which terms are summed differs,
so values agree to rounding, not bit for bit.
"""

import math

import numpy as np
import pytest

from tube_dissip.cost_to_travel import eval_v, optimal_rci
from tube_dissip.dissipativity import StorageFunction
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec
from tube_dissip.sampling import feasible_chain, random_box_within
from tube_dissip.tube_mpc import TubeMpcConfig, solve_tmpc

# the most a value, an objective or u0 may differ from its mirror's,
# relative to the larger magnitude and at least 1: sums of the same terms in
# another order (measured on these inputs: at most 6.4e-13)
REL_TOL = 1e-12
# the same for a box corner, where a long tube's far boxes carry the
# rounding of its law or kernel answer (measured: 3.9e-12 at horizon 8,
# 7.7e-13 at most below it)
CORNER_TOL = 1e-10

INSTANCES = {
    "default": ProblemSpec(),
    "alpha 0.8": ProblemSpec(alpha=0.8),
    "shifted": ProblemSpec(
        x_bounds=IntervalBox(lo=(-3.0, -6.0), hi=(7.0, 2.0)), u_bounds=(-2.0, 4.0), w_bounds=(-0.5, 1.0)
    ),
}


def flip(c):
    """Corner-indexed coefficients ``(c1, c2, c3, c4)`` as ``(-c2, -c1, -c4, -c3)``, the map of corners and linear costs."""
    c1, c2, c3, c4 = c
    return (-c2, -c1, -c4, -c3)


def mirror_box(b: IntervalBox) -> IntervalBox:
    return IntervalBox.from_corners(flip(b.corners()))


def mirror_spec(spec: ProblemSpec) -> ProblemSpec:
    d1, d2, d3, d4 = spec.cost_quad
    u_lo, u_hi = spec.u_bounds
    w_lo, w_hi = spec.w_bounds
    return ProblemSpec(
        alpha=spec.alpha,
        x_bounds=mirror_box(spec.x_bounds),
        u_bounds=(-u_hi, -u_lo),
        w_bounds=(-w_hi, -w_lo),
        cost_linear=flip(spec.cost_linear),
        cost_quad=(d2, d1, d4, d3),
    )


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def assert_mirrored(box: IntervalBox, image: IntervalBox) -> None:
    assert all(close(u, v, CORNER_TOL) for u, v in zip(flip(box.corners()), image.corners())), (box, image)


def assert_same_value(res, image) -> None:
    """Two eval_v answers, of an instance and of its mirror: the same verdict and value, mirrored tubes."""
    assert res.feasible == image.feasible
    if not res.feasible:
        assert res.value == image.value == math.inf
        return
    assert close(res.value, image.value), (res.value, image.value)
    assert len(res.tube) == len(image.tube)
    for box, mirrored in zip(res.tube, image.tube):
        assert_mirrored(box, mirrored)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_optimal_rci_is_its_mirrors(name):
    spec = INSTANCES[name]
    box, value = optimal_rci(spec)
    image, image_value = optimal_rci(mirror_spec(spec))
    assert close(value, image_value)
    assert_mirrored(box, image)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_cost_to_travel_values_are_their_mirrors(name):
    spec = INSTANCES[name]
    mirror = mirror_spec(spec)
    rng = np.random.default_rng(22)
    n_feasible = 0
    for n_steps in (1, 2, 3):
        # chains the sampler makes feasible, and unrelated pairs, mostly not
        pairs = [(c[0], c[-1]) for c in (feasible_chain(spec, rng, n_steps) for _ in range(20))]
        pairs += [(random_box_within(rng, spec.x_bounds), random_box_within(rng, spec.x_bounds)) for _ in range(20)]
        for a, b in pairs:
            res = eval_v(spec, a, b, n_steps)
            assert_same_value(res, eval_v(mirror, mirror_box(a), mirror_box(b), n_steps))
            n_feasible += res.feasible
    # both verdicts are compared
    assert 60 <= n_feasible < 120


@pytest.mark.parametrize("name", list(INSTANCES))
def test_controller_answers_are_their_mirrors(name):
    spec = INSTANCES[name]
    mirror = mirror_spec(spec)
    (x1_lo, x2_lo), (x1_hi, x2_hi) = spec.x_bounds.lo, spec.x_bounds.hi
    rng = np.random.default_rng(8)
    # X's corners, and states over X widened by 0.5, some beyond it
    states = [(x1_lo, x2_lo), (x1_hi, x2_hi), (x1_lo, x2_hi), (x1_hi, x2_lo)]
    states += [tuple(z) for z in rng.uniform((x1_lo - 0.5, x2_lo - 0.5), (x1_hi + 0.5, x2_hi + 0.5), size=(32, 2))]
    reference = StorageFunction.reference()
    mirrored_storage = StorageFunction(offset=reference.offset, linear_coeffs=flip(reference.linear_coeffs))
    n_optimal = 0
    for horizon in range(1, 9):
        for initial_cost in (True, False):
            cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=initial_cost)
            image_cfg = TubeMpcConfig(horizon=horizon, use_initial_cost=initial_cost, storage=mirrored_storage)
            for z1, z2 in states:
                sol = solve_tmpc(spec, cfg, (z1, z2))
                image = solve_tmpc(mirror, image_cfg, (-z1, -z2))
                assert sol.status == image.status, (horizon, initial_cost, (z1, z2))
                if not sol.feasible:
                    continue
                n_optimal += 1
                assert close(sol.objective, image.objective), (sol.objective, image.objective)
                assert close(sol.u0, -image.u0), (sol.u0, image.u0)
                lo, hi = sol.u0_interval
                image_lo, image_hi = image.u0_interval
                assert close(lo, -image_hi) and close(hi, -image_lo)
                assert len(sol.tube) == len(image.tube) == horizon + 1
                for box, mirrored in zip(sol.tube, image.tube):
                    assert_mirrored(box, mirrored)
    # both verdicts are compared
    assert 0 < n_optimal < 8 * 2 * len(states)
