"""The entry contract of the public API: each callable, the kind of each scalar argument, and the exception it names.

A kind's rule is written once, in ``interval_sets``, and this file restates
it independently:

- real: a Python or numpy int or float, not a bool, whose float does not
  overflow (``10**400``'s does);
- point: a tuple, list or 1-d array of exactly two (or four) reals; a str,
  bytes, mapping or set of that length is none;
- count: a Python or numpy int, not a bool, within the callable's range;
- seed: a count of at least 0;
- tol: a real at least 0, which NaN is not.

Every row names ConfigError, a ValueError, as its exception.  A callable may
add its own range or finiteness test, which its row states.  Box-, storage-, spec-, config-,
policy-, trace- and generator-typed arguments are out of scope here: boxes
have their tests in ``test_interval_sets``, ``simulate`` type-checks its
policy at entry, tested in ``test_closed_loop``, and ``OUT_OF_SCOPE`` lists
each public callable whose arguments are all of those types.
"""

import importlib
import inspect
import math
import pkgutil
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tube_dissip
from tube_dissip import interval_sets, problem, tube_mpc
from tube_dissip.acceptance import run_acceptance, reference_feedback_law
from tube_dissip.closed_loop import MAX_TRACE_STEPS, ExtremePolicy, UniformRandomPolicy, simulate
from tube_dissip.cost_to_travel import eval_v
from tube_dissip.dissipativity import StorageFunction, check_strictness
from tube_dissip.interval_sets import ConfigError, IntervalBox, boxes_intersect, contains, subset
from tube_dissip.problem import ProblemSpec, dynamics
from tube_dissip.qp_solver import QpStatus
from tube_dissip.sampling import feasible_chain
from tube_dissip.tube_mpc import TubeMpcConfig, solve_tmpc, sweep_feedback

from . import oracles

INF, NAN = math.inf, math.nan
BIG = 10**400
SPEC = ProblemSpec()
CFG = TubeMpcConfig()
STORAGE = StorageFunction.reference()
UNIT = IntervalBox((0.0, 0.0), (1.0, 1.0))
X_STAR = IntervalBox((-1.0, -4.0), (-1.0, 0.0))

# hostile scalars beside plain numbers: bools, strings, None, NaN, +-inf,
# -0.0, numpy scalars, 0-d and 1-d arrays and ints whose float overflows
SCALARS = [
    0, 1, 2, 3, -1, 0.5, -0.5, 2.0, -0.0, NAN, INF, -INF, True, False, np.bool_(True), "1", None,
    np.float64(0.5), np.float32(1.5), np.int64(2), np.uint8(1), np.array(1.0), np.array([1.0]), np.array([0.5, -0.5]),
    BIG, -BIG,
]
scalars = st.sampled_from(SCALARS)
# a count with no upper bound runs as many steps or samples as it names, so
# its draws leave out BIG, which the rule accepts
small_scalars = st.sampled_from([v for v in SCALARS if v is not BIG])


def sequences(size: int):
    """Values for a point of size reals: wrong lengths, tuples, lists and arrays, every scalar, and containers of size that are no point."""
    floats = [float(i + 1) for i in range(size)]
    return st.one_of(
        scalars,
        st.sampled_from(["1" * size, b"\x01" * size, bytearray(size), dict.fromkeys(floats, 0.5), set(floats), frozenset(floats)]),
        st.lists(st.sampled_from([0, 1, -1, 0.5, 2.0, -0.0, np.float64(0.5), np.int64(2)]), min_size=size, max_size=size),
        st.lists(scalars, min_size=size - 1, max_size=size + 1).map(tuple),
        st.lists(scalars, min_size=size, max_size=size),
        st.lists(st.sampled_from([0.5, -1.0, 2.0, NAN, INF]), min_size=size - 1, max_size=size + 1).map(np.array),
        st.just(np.zeros((size, 1))),
    )


def real(v):
    """v as a float, or None unless it is a real by this file's rule."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, float, np.integer, np.floating)):
        return None
    try:
        return float(v)
    except OverflowError:
        return None


def point(v, size: int = 2):
    """v as a tuple of floats, or None unless it is a point of size reals."""
    if not (isinstance(v, (tuple, list)) or (isinstance(v, np.ndarray) and v.ndim == 1)) or len(v) != size:
        return None
    xs = tuple(real(x) for x in v)
    return None if None in xs else xs


def count(v, lo: int = 0, hi: float = INF):
    """v as an int, or None unless it is a count from lo to hi."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)) or not lo <= v <= hi:
        return None
    return int(v)


def grid(v):
    """v as a list of points, or None unless it is a tuple or list of finite points."""
    if not isinstance(v, (tuple, list)):
        return None
    zs = [point(z) for z in v]
    return zs if all(finite(z) for z in zs) else None


def tol(v):
    x = real(v)
    return x if x is not None and x >= 0.0 else None


def finite(p):
    return p is not None and all(math.isfinite(x) for x in p)


def same(a, b) -> bool:
    """Equal floats, NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def solve_accepted(z, sol) -> bool:
    """A solve at z checked on its original tube program: an optimum passes KKT, an infeasible verdict leaves a margin below 0."""
    terminal, storage, _, _ = tube_mpc._controller(SPEC, CFG)
    qp = oracles.tube_qp_reference(SPEC, terminal, storage, CFG, z, False)
    if sol.status is QpStatus.INFEASIBLE:
        return oracles.program_margin(qp) < 0.0
    return oracles.kkt_residual(qp, oracles.lifted_tube(sol, CFG.horizon, False)) <= 1e-8


def transitions_hold(boxes) -> bool:
    return all(oracles.transition_margin(SPEC, a, b) >= -1e-9 for a, b in zip(boxes, boxes[1:]))


def in_enclosures(trace) -> bool:
    return all(oracles._point_to_box_dist(s.y[0], s.y[1], s.enclosure) <= 1e-9 for s in trace.steps)


def strictness_accepted(summary, n) -> bool:
    return type(summary.n_samples) is int and summary.n_samples == n and transitions_hold(summary.worst_pair)


def law_accepted(z, u) -> bool:
    # the law is the default controller's feedback on X
    if not (type(u) is float and math.isfinite(u) and -5.0 <= z[0] <= 5.0 and -5.0 <= z[1] <= 5.0):
        return type(u) is float
    return abs(u - solve_tmpc(SPEC, TubeMpcConfig(use_initial_cost=True), z).u0) <= 1e-6


class Row(NamedTuple):
    """One scalar argument of a public callable, its kind, and what the call must do with a drawn value v.

    ``valid(v)`` is v converted by this file's rule of the kind and the
    callable's own range, or None; ``accept(x, answer)`` checks an answer at
    the converted value x.  An invalid value raises ``exception``.
    """

    callable: str
    argument: str
    kind: str
    values: Any
    call: Callable
    valid: Callable
    accept: Callable
    exception: type = ConfigError


CONTRACT = [
    Row("IntervalBox.from_corners", "snap_tol", "tol", scalars,
        lambda v: IntervalBox.from_corners((0.0, 1.0, 0.0, 1.0), snap_tol=v), tol,
        lambda x, box: box == UNIT),
    Row("subset", "tol", "tol", scalars,
        lambda v: subset(UNIT, IntervalBox((0.25, 0.0), (1.0, 1.0)), tol=v), tol,
        lambda x, got: got is (oracles._directed_hausdorff(UNIT, IntervalBox((0.25, 0.0), (1.0, 1.0)), 0.05) <= x)),
    Row("contains", "z", "point", sequences(2),
        lambda v: contains(UNIT, v), point,
        lambda z, got: got is bool(oracles._point_to_box_dist(z[0], z[1], UNIT) <= 0.0)),
    Row("contains", "tol", "tol", scalars,
        lambda v: contains(UNIT, (1.5, 0.5), tol=v), tol,
        lambda x, got: got is bool(oracles._point_to_box_dist(1.5, 0.5, UNIT) <= x)),
    Row("boxes_intersect", "tol", "tol", scalars,
        lambda v: boxes_intersect(UNIT, IntervalBox((1.5, 0.0), (2.0, 1.0)), tol=v), tol,
        lambda x, got: got is bool(oracles._point_to_box_dist(1.0, 0.5, IntervalBox((1.5, 0.0), (2.0, 1.0))) <= x)),
    Row("ProblemSpec", "alpha", "real, finite and > 0", scalars,
        lambda v: ProblemSpec(alpha=v), lambda v: x if (x := real(v)) is not None and math.isfinite(x) and x > 0 else None,
        lambda x, spec: type(spec.alpha) is float and spec.alpha == x),
    Row("ProblemSpec", "u_bounds", "point, no NaN, lo <= hi, not both at one infinity", sequences(2),
        lambda v: ProblemSpec(u_bounds=v),
        lambda v: p if (p := point(v)) and not any(map(math.isnan, p)) and p[0] <= p[1] and p[0] < INF and p[1] > -INF else None,
        lambda p, spec: spec.u_bounds == p),
    Row("ProblemSpec", "w_bounds", "point, finite, lo <= hi, finite width", sequences(2),
        lambda v: ProblemSpec(w_bounds=v),
        lambda v: p if finite(p := point(v)) and p[0] <= p[1] and math.isfinite(p[1] - p[0]) else None,
        lambda p, spec: spec.w_bounds == p),
    Row("ProblemSpec", "cost_linear", "point of 4, finite", sequences(4),
        lambda v: ProblemSpec(cost_linear=v), lambda v: p if finite(p := point(v, 4)) else None,
        lambda p, spec: spec.cost_linear == p),
    Row("ProblemSpec", "cost_quad", "point of 4, finite and > 0", sequences(4),
        lambda v: ProblemSpec(cost_quad=v), lambda v: p if finite(p := point(v, 4)) and min(p) > 0.0 else None,
        lambda p, spec: spec.cost_quad == p),
    Row("dynamics", "x", "point", sequences(2),
        lambda v: dynamics(SPEC, v, 1.0, 0.5), point,
        lambda x, got: got[0] == 1.0 and same(got[1], (0.5 * x[1] + 1.0) + 0.5)),
    Row("dynamics", "u", "real", scalars,
        lambda v: dynamics(SPEC, (0.0, 2.0), v, 0.5), real,
        lambda u, got: same(got[0], u) and same(got[1], 1.0 + u + 0.5)),
    Row("dynamics", "w", "real", scalars,
        lambda v: dynamics(SPEC, (0.0, 2.0), 1.0, v), real,
        lambda w, got: got[0] == 1.0 and same(got[1], 2.0 + w)),
    Row("eval_v", "n_steps", "count from 1 to 64", scalars,
        lambda v: eval_v(SPEC, X_STAR, X_STAR, v), lambda v: count(v, 1, 64),
        lambda n, res: oracles.kkt_residual(oracles.eval_v_qp_reference(SPEC, X_STAR, X_STAR, n), oracles.lifted_chain(res)) <= 1e-8),
    Row("StorageFunction", "offset", "real, finite", scalars,
        lambda v: StorageFunction(offset=v, linear_coeffs=(0.0, -1.6, 1.6, 0.0)),
        lambda v: x if (x := real(v)) is not None and math.isfinite(x) else None,
        lambda x, sf: type(sf.offset) is float and sf.offset == x),
    Row("StorageFunction", "linear_coeffs", "point of 4, finite", sequences(4),
        lambda v: StorageFunction(offset=16.0, linear_coeffs=v), lambda v: p if finite(p := point(v, 4)) else None,
        lambda p, sf: sf.linear_coeffs == p),
    Row("check_strictness", "n_samples", "count >= 1", small_scalars,
        lambda v: check_strictness(SPEC, STORAGE, v, seed=0), lambda v: count(v, 1),
        lambda n, summary: strictness_accepted(summary, n)),
    Row("check_strictness", "seed", "seed", scalars,
        lambda v: check_strictness(SPEC, STORAGE, 3, seed=v), count,
        lambda seed, summary: strictness_accepted(summary, 3)),
    Row("TubeMpcConfig", "horizon", "count from 1 to 64", st.sampled_from(SCALARS + [64, 65]),
        lambda v: TubeMpcConfig(horizon=v), lambda v: count(v, 1, 64),
        lambda n, cfg: type(cfg.horizon) is int and cfg.horizon == n),
    Row("solve_tmpc", "z", "point, finite", sequences(2),
        lambda v: solve_tmpc(SPEC, CFG, v), lambda v: p if finite(p := point(v)) else None,
        solve_accepted),
    Row("sweep_feedback", "grid", "points, finite", sequences(2),
        lambda v: sweep_feedback(SPEC, CFG, [v]), lambda v: p if finite(p := point(v)) else None,
        lambda z, points: points[0].z == z and points[0].status is solve_tmpc(SPEC, CFG, z).status),
    # the grid itself: a scalar, None or another object that is not iterable is refused before any solve
    Row("sweep_feedback", "grid as a whole", "tuple or list of points, finite",
        st.one_of(scalars, st.lists(sequences(2), max_size=2), st.lists(sequences(2), max_size=2).map(tuple)),
        lambda v: sweep_feedback(SPEC, CFG, v), grid,
        lambda zs, points: [p.z for p in points] == zs and all(p.status is solve_tmpc(SPEC, CFG, p.z).status for p in points)),
    Row("ExtremePolicy", "signs", "nonempty sequence of counts, each -1 or 1",
        st.one_of(sequences(2), st.lists(st.sampled_from([1, -1, np.int64(-1), 0, True, 1.0, BIG]), max_size=3).map(tuple)),
        lambda v: ExtremePolicy(signs=v),
        lambda v: s if isinstance(v, (tuple, list, np.ndarray)) and len(v) and all(count(x, -1, 1) in (-1, 1) for x in v) and (s := tuple(map(int, v))) else None,
        lambda s, policy: policy.describe() == "extreme:" + "".join("+" if x > 0 else "-" for x in s)),
    Row("UniformRandomPolicy", "seed", "seed", scalars,
        lambda v: UniformRandomPolicy(seed=v), count,
        lambda seed, policy: policy.describe() == f"random:{seed}"),
    Row("simulate", "y0", "point, finite", sequences(2),
        lambda v: simulate(SPEC, CFG, v, 2, ExtremePolicy(signs=(1, -1))), lambda v: p if finite(p := point(v)) else None,
        lambda p, trace: trace.y0 == p and len(trace.steps) <= 3 and in_enclosures(trace)),
    Row("simulate", "steps", "count from 0 to MAX_TRACE_STEPS", scalars,
        lambda v: simulate(SPEC, CFG, (2.0, 3.0), v, ExtremePolicy(signs=(1,))), lambda v: count(v, 0, MAX_TRACE_STEPS),
        lambda n, trace: len(trace.steps) == n + 1 and in_enclosures(trace)),
    Row("feasible_chain", "length", "count >= 0", small_scalars,
        lambda v: feasible_chain(SPEC, np.random.default_rng(0), v), count,
        lambda n, chain: len(chain) == n + 1 and transitions_hold(chain)),
    Row("reference_feedback_law", "z", "point", sequences(2),
        reference_feedback_law, point, law_accepted),
    Row("run_acceptance", "seed", "seed", scalars,
        lambda v: run_acceptance(seed=v), count,
        lambda seed, results: len(results) == 8 and all(r.passed for r in results)),
]

# public callables with no scalar argument: every argument is a box, a
# storage form, a spec, a config, a policy, a trace or a generator; or a
# record the library builds and returns, or an exception
OUT_OF_SCOPE = {
    "IntervalBox", "IntervalBox.from_intervals", "IntervalBox.from_json_obj", "hausdorff",
    "ProblemSpec.from_json_dict", "StorageFunction.from_json_dict", "TubeMpcConfig.from_json_dict",
    "optimal_rci", "is_rci", "stage_cost", "transition_feasible", "transition_witness", "transition_rows",
    "eval_storage", "verify_separability", "storage_min_on_domain", "rotated_cost", "check_enclosure_stability",
    "random_box_within", "random_superbox", "monotone_cone_box", "successor_box", "feasible_pair",
    "AdversarialPolicy", "ConfigError", "SolverFailure", "RciNotFound", "QpStatus", "CriterionResult",
    "CostToTravelResult", "SeparabilityReport", "StrictnessSummary", "TubeSolution", "SweepPoint",
    "TraceStep", "SimulationTrace", "EnclosureStabilityReport",
    # the command line, whose config fields test_cli fuzzes
    "main", "build_parser", "RunConfig",
}
# the classmethods that build inputs from arguments, beside the constructors
FACTORIES = {"from_corners", "from_intervals", "from_json_obj", "from_json_dict"}


def test_config_error_is_one_object():
    assert problem.ConfigError is interval_sets.ConfigError is tube_dissip.ConfigError
    assert issubclass(ConfigError, ValueError)


def test_the_table_names_every_public_callable():
    names = set()
    for info in pkgutil.iter_modules(tube_dissip.__path__):
        module = importlib.import_module(f"tube_dissip.{info.name}")
        public = getattr(module, "__all__", None)
        if public is None:
            public = [n for n, v in vars(module).items() if not n.startswith("_") and getattr(v, "__module__", None) == module.__name__]
        for name in public:
            obj = getattr(module, name)
            if inspect.isfunction(inspect.unwrap(obj)) or inspect.isclass(obj):
                names.add(name)
            if inspect.isclass(obj):
                names |= {f"{name}.{m}" for m in FACTORIES if m in vars(obj)}
    covered = {row.callable for row in CONTRACT}
    assert names == covered | OUT_OF_SCOPE
    assert not covered & OUT_OF_SCOPE


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: f"{row.callable}-{row.argument}")
@settings(max_examples=40)
@given(data=st.data())
def test_each_scalar_argument_keeps_its_contract(row, data):
    value = data.draw(row.values, label=f"{row.callable}({row.argument}=...)")
    converted = row.valid(value)
    try:
        answer = row.call(value)
    except row.exception:
        assert converted is None, (row.callable, row.argument, value)
        return
    assert converted is not None, (row.callable, row.argument, value)
    assert row.accept(converted, answer), (row.callable, row.argument, value, answer)
