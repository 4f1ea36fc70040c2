"""The library's block draws against numpy's own generator."""

import numpy as np
import pytest

from tube_dissip import acceptance, closed_loop, dissipativity
from tube_dissip.acceptance import run_acceptance
from tube_dissip.closed_loop import UniformRandomPolicy, simulate
from tube_dissip.dissipativity import StorageFunction, check_strictness
from tube_dissip.problem import ProblemSpec
from tube_dissip.sampling import _Draws, feasible_chain, feasible_pair
from tube_dissip.tube_mpc import TubeMpcConfig

INF = float("inf")
NAN = float("nan")
SPEC = ProblemSpec.default()


def hexes(draw):
    return [float(v).hex() for v in np.atleast_1d(draw)]


def outcome(draw, *args, **kwargs):
    try:
        return hexes(draw(*args, **kwargs))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_draws_are_numpy_draws_across_blocks(seed):
    # scalar, no-argument and size=2 calls, interleaved over several blocks of 256
    ours, theirs = _Draws(seed), np.random.default_rng(seed)
    bounds = np.random.default_rng(seed + 1).uniform(-1e3, 1e3, size=(600, 2))
    for i, (lo, hi) in enumerate(np.sort(bounds, axis=1).tolist()):
        call = i % 3
        if call == 0:
            got, want = ours.uniform(lo, hi), theirs.uniform(lo, hi)
            assert isinstance(got, float)
        elif call == 1:
            got, want = ours.uniform(), theirs.uniform()
        else:
            got, want = ours.uniform(lo, hi, size=2), theirs.uniform(lo, hi, size=2)
            assert len(got) == 2
        assert hexes(got) == hexes(want), i


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, INF), (-INF, 0.0), (INF, INF), (NAN, 1.0), (0.0, NAN), (-1e308, 1e308),
     (1.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (2.0, 2.0)],
)
@pytest.mark.parametrize("size", [None, 2])
def test_errors_are_numpy_errors(lo, hi, size):
    # numpy checks that hi - lo is finite, then that it has no sign bit; a
    # refused call draws nothing, so the streams stay level after it
    ours, theirs = _Draws(3), np.random.default_rng(3)
    assert outcome(ours.uniform, lo, hi, size=size) == outcome(theirs.uniform, lo, hi, size=size)
    assert hexes(ours.uniform(-1.0, 1.0)) == hexes(theirs.uniform(-1.0, 1.0))


def test_samplers_give_the_same_boxes_from_either():
    ours, theirs = _Draws(5), np.random.default_rng(5)
    for _ in range(100):
        assert feasible_pair(SPEC, ours) == feasible_pair(SPEC, theirs)
        assert feasible_chain(SPEC, ours, 2) == feasible_chain(SPEC, theirs, 2)


def test_a_callers_generator_is_read_one_draw_at_a_time():
    # a caller reads its generator after a sampler, so a sampler takes no
    # more doubles from it than its draws need
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    feasible_pair(SPEC, rng)
    n = 0
    while twin.bit_generator.state != rng.bit_generator.state:
        twin.random()
        n += 1
        assert n < 256
    assert n > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_battery_answers_as_with_plain_generators(seed, monkeypatch):
    blocks = run_acceptance(seed)
    monkeypatch.setattr(acceptance, "_Draws", np.random.default_rng)
    assert run_acceptance(seed) == blocks


def test_strictness_and_random_policy_answer_as_with_plain_generators(monkeypatch):
    sf = StorageFunction.reference()
    cfg = TubeMpcConfig()
    strict = check_strictness(SPEC, sf, 200, seed=4)
    trace = simulate(SPEC, cfg, (4.0, -3.0), 12, UniformRandomPolicy(seed=1))
    assert all(isinstance(s.w, float) for s in trace.steps[:-1])
    monkeypatch.setattr(dissipativity, "_Draws", np.random.default_rng)
    monkeypatch.setattr(closed_loop, "_Draws", np.random.default_rng)
    assert check_strictness(SPEC, sf, 200, seed=4) == strict
    assert simulate(SPEC, cfg, (4.0, -3.0), 12, UniformRandomPolicy(seed=1)) == trace
