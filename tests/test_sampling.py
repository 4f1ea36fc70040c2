"""The library's block draws against numpy's own generator, every seeded draw pinned, and boxes from draws of any type."""

import hashlib
import itertools

import numpy as np
import pytest

from tube_dissip import acceptance, closed_loop, dissipativity
from tube_dissip.acceptance import run_acceptance
from tube_dissip.closed_loop import UniformRandomPolicy, simulate
from tube_dissip.dissipativity import StorageFunction, check_strictness
from tube_dissip.interval_sets import ConfigError, IntervalBox
from tube_dissip.problem import ProblemSpec
from tube_dissip.sampling import (
    _Draws,
    feasible_chain,
    feasible_pair,
    monotone_cone_box,
    random_box_within,
    random_superbox,
    successor_box,
)
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


# Every draw of the samplers, pinned: the float.hex of each corner of each
# box they return, from both kinds of generator at fixed seeds on three
# specs, and the final state of each numpy generator, in one sha256.
PINNED_SPECS = [SPEC, ProblemSpec(alpha=0.8), ProblemSpec(w_bounds=(-0.5, 0.5))]
PINNED_DIGEST = "724132ae2476180a9c9df3251a7d1dcfb57d051ca575fa314215a2851a1f28bc"


def every_draw(spec, rng, rounds):
    """The boxes each sampler returns from rng in turn, None for a refused successor."""
    xb = spec.x_bounds
    for _ in range(rounds):
        a = random_box_within(rng, xb)
        cone = monotone_cone_box(rng, spec)
        yield a
        yield random_superbox(rng, a, xb)
        yield cone
        yield acceptance._cone_subbox(rng, cone)
        yield successor_box(spec, rng, a)
        yield from feasible_pair(spec, rng)
        yield from feasible_chain(spec, rng, 2)


def test_seeded_draws_are_pinned():
    digest = hashlib.sha256()
    for spec in PINNED_SPECS:
        for seed in (0, 1):
            for rng in (_Draws(seed), np.random.default_rng(seed)):
                for box in every_draw(spec, rng, 100):
                    corners = () if box is None else box.corners()
                    assert all(type(c) is float for c in corners)
                    digest.update((" ".join(map(float.hex, corners)) + "\n").encode())
                if isinstance(rng, np.random.Generator):
                    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == PINNED_DIGEST


class Scripted:
    """A generator whose ``uniform`` returns the given values in turn, over and over, whatever its bounds; ``size=n`` takes the next n."""

    def __init__(self, *values):
        self.values = itertools.cycle(values)

    def uniform(self, lo=0.0, hi=1.0, size=None):
        if size is None:
            return next(self.values)
        return [next(self.values) for _ in range(size)]


A = IntervalBox(lo=(-2.0, -3.0), hi=(1.0, 0.5))
SAMPLERS = {
    "random_box_within": lambda rng: [random_box_within(rng, SPEC.x_bounds)],
    "random_superbox": lambda rng: [random_superbox(rng, A, SPEC.x_bounds)],
    "monotone_cone_box": lambda rng: [monotone_cone_box(rng, SPEC)],
    "_cone_subbox": lambda rng: [acceptance._cone_subbox(rng, A)],
    "successor_box": lambda rng: [successor_box(SPEC, rng, A)],
    "feasible_pair": lambda rng: list(feasible_pair(SPEC, rng)),
    "feasible_chain": lambda rng: feasible_chain(SPEC, rng, 2),
}
SCRIPTS = {
    "float": (-2.0, 0.5, -1.5, 1.0),
    "float64": tuple(map(np.float64, (-2.0, 0.5, -1.5, 1.0))),
    "int": (-3, 2, -1, 4),
    "nan": (-2.0, NAN, -1.5, 1.0),
    "inf": (-2.0, 0.5, -1.5, INF),
    "inverted": (1.0, -1.0, 2.0, -2.0),
}


def sampled(sampler, rng):
    """The corners of each box the sampler returns (None for a refusal), or the type and text of what it raises."""
    try:
        boxes = SAMPLERS[sampler](rng)
    except ValueError as exc:
        return type(exc), str(exc)
    except RuntimeError as exc:  # a give-up, which may be of a subclass
        return RuntimeError, str(exc)
    for box in boxes:
        assert box is None or all(type(c) is float for c in box.corners())
    return [None if box is None else box.corners() for box in boxes]


# each sampler's box, or its error, from each script, as the samplers gave
# them when every box went through its constructor
OUTCOMES = [
    ('random_box_within', 'float', [(-2.0, 0.5, -1.5, 1.0)]),
    ('random_box_within', 'float64', [(-2.0, 0.5, -1.5, 1.0)]),
    ('random_box_within', 'int', [(-3.0, 2.0, -1.0, 4.0)]),
    ('random_box_within', 'nan', (ValueError, 'box corners must be finite, got lo=(nan, -1.5) hi=(-2.0, 1.0)')),
    ('random_box_within', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(0.5, inf)')),
    ('random_box_within', 'inverted', [(-1.0, 1.0, -2.0, 2.0)]),
    ('random_superbox', 'float', [(-2.0, -1.5, 0.5, 1.0)]),
    ('random_superbox', 'float64', [(-2.0, -1.5, 0.5, 1.0)]),
    ('random_superbox', 'int', [(-3.0, -1.0, 2.0, 4.0)]),
    ('random_superbox', 'nan', (ValueError, 'box corners must be finite, got lo=(-2.0, nan) hi=(-1.5, 1.0)')),
    ('random_superbox', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, 0.5) hi=(-1.5, inf)')),
    ('random_superbox', 'inverted', (ValueError, 'empty interval in dimension 1: [-1.0, -2.0]')),
    ('monotone_cone_box', 'float', [(-2.0, 0.5, -1.5, 1.0)]),
    ('monotone_cone_box', 'float64', [(-2.0, 0.5, -1.5, 1.0)]),
    ('monotone_cone_box', 'int', [(-3.0, 2.0, -1.0, 4.0)]),
    ('monotone_cone_box', 'nan', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(nan, 1.0)')),
    ('monotone_cone_box', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(0.5, inf)')),
    ('monotone_cone_box', 'inverted', (ValueError, 'empty interval in dimension 0: [1.0, -1.0]')),
    ('_cone_subbox', 'float', [(-2.0, 0.5, -1.5, 1.0)]),
    ('_cone_subbox', 'float64', [(-2.0, 0.5, -1.5, 1.0)]),
    ('_cone_subbox', 'int', [(-3.0, 2.0, -1.0, 4.0)]),
    ('_cone_subbox', 'nan', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(nan, 1.0)')),
    ('_cone_subbox', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(0.5, inf)')),
    ('_cone_subbox', 'inverted', (ValueError, 'empty interval in dimension 0: [1.0, -1.0]')),
    ('successor_box', 'float', [(-1.5, 1.0, -2.0, 0.5)]),
    ('successor_box', 'float64', [(-1.5, 1.0, -2.0, 0.5)]),
    ('successor_box', 'int', [(-1.0, 4.0, -3.0, 2.0)]),
    ('successor_box', 'nan', (ValueError, 'box corners must be finite, got lo=(-1.5, -2.0) hi=(1.0, nan)')),
    ('successor_box', 'inf', (ValueError, 'box corners must be finite, got lo=(-1.5, -2.0) hi=(inf, 0.5)')),
    ('successor_box', 'inverted', [None]),
    ('feasible_pair', 'float', [(-2.0, 0.5, -1.5, 1.0), (-1.5, 1.0, -2.0, 0.5)]),
    ('feasible_pair', 'float64', [(-2.0, 0.5, -1.5, 1.0), (-1.5, 1.0, -2.0, 0.5)]),
    ('feasible_pair', 'int', [(-3.0, 2.0, -1.0, 4.0), (-1.0, 4.0, -3.0, 2.0)]),
    ('feasible_pair', 'nan', (ValueError, 'box corners must be finite, got lo=(nan, -1.5) hi=(-2.0, 1.0)')),
    ('feasible_pair', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(0.5, inf)')),
    ('feasible_pair', 'inverted', (RuntimeError, 'failed to sample a feasible transition pair')),
    ('feasible_chain', 'float', [(-2.0, 0.5, -1.5, 1.0), (-1.5, 1.0, -2.0, 0.5), (-2.0, 0.5, -1.5, 1.0)]),
    ('feasible_chain', 'float64', [(-2.0, 0.5, -1.5, 1.0), (-1.5, 1.0, -2.0, 0.5), (-2.0, 0.5, -1.5, 1.0)]),
    ('feasible_chain', 'int', [(-3.0, 2.0, -1.0, 4.0), (-1.0, 4.0, -3.0, 2.0), (-3.0, 2.0, -1.0, 4.0)]),
    ('feasible_chain', 'nan', (ValueError, 'box corners must be finite, got lo=(nan, -1.5) hi=(-2.0, 1.0)')),
    ('feasible_chain', 'inf', (ValueError, 'box corners must be finite, got lo=(-2.0, -1.5) hi=(0.5, inf)')),
    ('feasible_chain', 'inverted', (RuntimeError, 'failed to sample a feasible chain')),
]


@pytest.mark.parametrize("sampler, script, want", OUTCOMES)
def test_boxes_from_draws_of_any_type(sampler, script, want, monkeypatch):
    # a box of float corners in order is built trusted; any other goes
    # through the sampler's constructor, which converts or refuses it
    trusted, real = [], IntervalBox._trusted
    monkeypatch.setattr(IntervalBox, "_trusted", classmethod(lambda cls, lo, hi: trusted.append(lo) or real(lo, hi)))
    assert sampled(sampler, Scripted(*SCRIPTS[script])) == want
    if script == "float":
        assert len(trusted) == len(want) - want.count(None)
    if script in ("float64", "int"):
        assert trusted == []


def test_bounds_off_the_monotone_cone_raise_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for lo, hi in [((0.5, -5.0), (5.0, 5.0)), ((-5.0, 0.5), (5.0, 5.0)), ((-5.0, -5.0), (5.0, -0.5))]:
        spec = ProblemSpec(x_bounds=IntervalBox(lo=lo, hi=hi))
        with pytest.raises(ConfigError, match=r"miss the cone a1 <= 0, a3 <= 0 <= a4"):
            monotone_cone_box(rng, spec)
    assert rng.bit_generator.state == state
    # a cone that only touches the bounds is drawn from
    spec = ProblemSpec(x_bounds=IntervalBox(lo=(0.0, 0.0), hi=(5.0, 5.0)))
    assert monotone_cone_box(rng, spec).lo == (0.0, 0.0)
