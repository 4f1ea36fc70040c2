"""End-to-end acceptance checks at pinned tolerances.

Each check returns a :class:`CriterionResult`; ``run_acceptance`` executes the
whole battery deterministically for a given seed.  The same functions back
the command-line ``verify-all`` table and the acceptance test module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_loop import (
    AdversarialPolicy,
    ExtremePolicy,
    check_enclosure_stability,
    simulate,
)
from .cost_to_travel import eval_v, optimal_rci
from .dissipativity import StorageFunction, eval_storage, verify_separability
from .interval_sets import ConfigError, IntervalBox, _point, _seed, boxes_intersect, contains
from .problem import ProblemSpec, dynamics, stage_cost
from .sampling import (
    _Draws,
    _GaveUp,
    _trusted_box,
    feasible_chain,
    feasible_pair,
    monotone_cone_box,
    random_box_within,
    random_superbox,
    successor_box,
)
from .tube_mpc import TubeMpcConfig, solve_tmpc

__all__ = ["CriterionResult", "run_acceptance", "reference_feedback_law"]

# reference values of the default instance
RCI_CORNERS = (-1.0, -1.0, -4.0, 0.0)
V_STAR = -0.2
SINGLETON_WINDOW_TOL = 1e-7


@dataclass(frozen=True)
class CriterionResult:
    key: str
    title: str
    passed: bool
    detail: str


def reference_feedback_law(z) -> float:
    """Closed-form piecewise feedback of the default instance with initial cost, at the point z (ConfigError for any other)."""
    _, z2 = _point(z, "z must be two numbers")
    if -5.0 <= z2 <= -4.0:
        return -0.5 * z2 - 3.0
    if -4.0 <= z2 <= 0.0:
        return -1.0
    return -0.5 * z2 - 1.0


def check_optimal_rci(spec: ProblemSpec) -> CriterionResult:
    box, v_star = optimal_rci(spec)
    err_c = max(abs(a - b) for a, b in zip(box.corners(), RCI_CORNERS))
    err_v = abs(v_star - V_STAR)
    passed = err_c <= 1e-6 and err_v <= 1e-8
    return CriterionResult(
        key="optimal-rci",
        title="optimal invariant box and its cost",
        passed=passed,
        detail=f"corner error {err_c:.2e} (tol 1e-6), value error {err_v:.2e} (tol 1e-8)",
    )


def check_storage_certificate(spec: ProblemSpec) -> CriterionResult:
    rep = verify_separability(spec, StorageFunction.reference())
    err_min = abs(rep.qp_min_value - V_STAR)
    err_a = max(abs(a - b) for a, b in zip(rep.minimizer_a, RCI_CORNERS))
    err_gap = abs(rep.gap)
    passed = err_min <= 1e-8 and err_a <= 1e-6 and err_gap <= 1e-8 and rep.passed
    return CriterionResult(
        key="storage-certificate",
        title="separability certificate of the reference storage",
        passed=passed,
        detail=(
            f"min error {err_min:.2e} (tol 1e-8), source-minimizer error {err_a:.2e} "
            f"(tol 1e-6), gap {rep.gap:.2e} (tol 1e-8), passed={rep.passed}"
        ),
    )


def check_feedback_laws(spec: ProblemSpec) -> CriterionResult:
    cfg = TubeMpcConfig(use_initial_cost=True)
    mismatches = []
    behavioral = 0
    for z1 in np.linspace(-5.0, 5.0, 21):
        for z2 in np.linspace(-5.0, 5.0, 21):
            sol = solve_tmpc(spec, cfg, (z1, z2))
            if not sol.feasible:
                mismatches.append((z1, z2, "infeasible"))
                continue
            lo, hi = sol.u0_interval
            if hi - lo <= SINGLETON_WINDOW_TOL:
                if abs(sol.u0 - reference_feedback_law((z1, z2))) > 1e-5:
                    mismatches.append((z1, z2, sol.u0))
            else:
                behavioral += 1
                for w in (spec.w_lo, spec.w_hi):
                    nxt = dynamics(spec, (z1, z2), sol.u0, w)
                    if not (-5.0 <= nxt[0] <= 5.0 and -4.0 - 1e-9 <= nxt[1] <= 1e-9):
                        mismatches.append((z1, z2, "behavioral", nxt))

    cfg0 = TubeMpcConfig(use_initial_cost=False)
    for z1 in np.linspace(-5.0, 0.0, 11):
        for z2 in np.linspace(-4.0, 0.0, 5):
            sol = solve_tmpc(spec, cfg0, (z1, z2))
            want = -0.5 * z2 - 3.0
            if not sol.feasible or abs(sol.u0 - want) > 1e-5:
                mismatches.append((z1, z2, "no-initial-cost", getattr(sol, "u0", None)))

    passed = not mismatches
    return CriterionResult(
        key="feedback-laws",
        title="pointwise feedback over the state grid",
        passed=passed,
        detail=(
            f"441-point grid with initial cost ({behavioral} points checked behaviorally) "
            f"and 55-point grid without; {len(mismatches)} mismatches (tol 1e-5)"
        ),
    )


def check_instability_witness(spec: ProblemSpec) -> CriterionResult:
    cfg0 = TubeMpcConfig(use_initial_cost=False)
    trace = simulate(spec, cfg0, (-1.0, -2.0), 2, ExtremePolicy(signs=(-1,)))
    if len(trace.steps) < 2:
        return CriterionResult(
            key="instability-witness",
            title="enclosure escape without the initial cost",
            passed=False,
            detail=f"trace from (-1, -2) ends at step {trace.failure_step}: controller infeasible",
        )
    x_star, _ = optimal_rci(spec)
    y1 = trace.steps[1].enclosure
    err = max(abs(a - b) for a, b in zip(y1.corners(), (-2.0, -2.0, -4.0, 0.0)))
    disjoint = not boxes_intersect(y1, x_star)
    predicted = trace.steps[0].tube[1]
    err_pred = max(abs(a - b) for a, b in zip(predicted.corners(), (-2.0, -2.0, -4.0, 0.0)))
    report = check_enclosure_stability(trace, spec)
    passed = err <= 1e-6 and disjoint and err_pred <= 1e-6 and report.verdict == "unstable"
    return CriterionResult(
        key="instability-witness",
        title="enclosure escape without the initial cost",
        passed=passed,
        detail=(
            f"enclosure error {err:.2e} (tol 1e-6), disjoint={disjoint}, "
            f"verdict={report.verdict}"
        ),
    )


def check_closed_loop_stability(spec: ProblemSpec) -> CriterionResult:
    cfg = TubeMpcConfig(use_initial_cost=True)
    x_star, _ = optimal_rci(spec)
    problems = []
    for y0 in ((5.0, -5.0), (-5.0, 5.0)):
        trace = simulate(spec, cfg, y0, 10, AdversarialPolicy())
        if trace.failure_step is not None:
            problems.append((y0, "controller infeasible"))
            continue
        y1 = trace.steps[1].y
        if not (-5.0 <= y1[0] <= 5.0 and -4.0 - 1e-9 <= y1[1] <= 1e-9):
            problems.append((y0, "first step outside the absorbing band"))
        if not contains(x_star, trace.steps[2].y, tol=1e-9):
            problems.append((y0, "second step outside the invariant box"))
        for s in trace.steps[2:]:
            if s.dist_to_terminal > 1e-9:
                problems.append((y0, f"enclosure distance {s.dist_to_terminal:.2e} at k={s.k}"))
        for a, b in zip(trace.steps[:-1], trace.steps[1:]):
            if a.dist_to_terminal > 1e-9 and not b.lyapunov < a.lyapunov:
                problems.append((y0, f"decrease certificate stalls at k={a.k}"))
        report = check_enclosure_stability(trace, spec)
        if not (report.stable and report.absorption_step is not None and report.absorption_step <= 2):
            problems.append((y0, f"verdict {report.verdict}"))
    return CriterionResult(
        key="closed-loop-stability",
        title="adversarial closed loop absorbed by the invariant box",
        passed=not problems,
        detail="both corner starts absorbed by step 2 with strict decrease"
        if not problems
        else f"violations: {problems[:3]}",
    )


_CANDIDATE_X1 = ((-4.0, -1.0), (-1.0, -1.0), (-2.0, 0.0), (0.0, 3.0))
_CANDIDATE_X2 = ((-4.0, 0.0), (-2.0, 2.0), (0.0, 4.0))


def _undrawn(i: int, n: int, exc: Exception) -> str:
    """The detail of a sampled criterion whose i-th of n samples could not be drawn, for the reason exc."""
    return f"could not draw sample {i + 1} of {n}: {exc}"


def _candidate_boxes() -> list[IntervalBox]:
    return [IntervalBox.from_intervals(ix, iy) for ix in _CANDIDATE_X1 for iy in _CANDIDATE_X2]


def check_chain_inequality(spec: ProblemSpec, seed: int, n_pairs: int = 200) -> CriterionResult:
    rng = _Draws(seed)
    candidates = _candidate_boxes()
    tol = 1e-6
    violations = []
    undrawn = None
    for i in range(n_pairs):
        try:
            chain = feasible_chain(spec, rng, 2)
        except _GaveUp as exc:
            undrawn = _undrawn(i, n_pairs, exc)
            break
        a, c = chain[0], chain[2]
        direct = eval_v(spec, a, c, 2)
        if math.isinf(direct.value):
            violations.append((a, c, "direct chain infeasible"))
            continue
        for mid in candidates:
            left = eval_v(spec, a, mid, 1).value
            if math.isinf(left):
                continue
            right = eval_v(spec, mid, c, 1).value
            if direct.value > left + right + tol:
                violations.append((a, c, mid, "two-leg bound violated"))
        extracted = direct.tube[1]
        split = eval_v(spec, a, extracted, 1).value + eval_v(spec, extracted, c, 1).value
        if abs(split - direct.value) > tol:
            violations.append((a, c, "extracted middle not tight", split - direct.value))
    return CriterionResult(
        key="chain-inequality",
        title="two-leg bound and tightness at the extracted middle box",
        passed=not violations and undrawn is None,
        detail=undrawn or f"{n_pairs} chains x {len(candidates)} candidate middles, "
        f"{len(violations)} violations (tol 1e-6)",
    )


def check_monotonicity(spec: ProblemSpec, seed: int, n_pairs: int = 500) -> CriterionResult:
    """Nested-pair inequalities, sampled where the stage cost grows with inclusion.

    The source-side inequality needs the stage cost to be monotone under
    nesting, which for the default coefficients holds on the cone of boxes
    with nonpositive lower corners and nonnegative upper x2-corner; samples
    are drawn there, and state bounds that miss the cone fail the check.
    The target-side inequality is unconditional.
    """
    rng = _Draws(seed)
    tol = 1e-6
    violations = 0
    finite_source = 0
    undrawn = None
    for i in range(n_pairs):
        try:
            outer = monotone_cone_box(rng, spec)
        except ConfigError as exc:
            undrawn = _undrawn(i, n_pairs, exc)
            break
        inner = _cone_subbox(rng, outer)
        n_steps = 2 if i % 5 == 0 else 1
        if rng.uniform() < 0.7:
            target = successor_box(spec, rng, inner)
            if target is None:
                target = random_box_within(rng, spec.x_bounds)
        else:
            target = random_box_within(rng, spec.x_bounds)
        target_sup = random_superbox(rng, target, spec.x_bounds)

        val = eval_v(spec, inner, target, n_steps).value
        val_wide_source = eval_v(spec, outer, target, n_steps).value
        val_wide_target = eval_v(spec, inner, target_sup, n_steps).value
        if math.isfinite(val_wide_source):
            finite_source += 1
            if not val <= val_wide_source + tol:
                violations += 1
        if not val_wide_target <= val + tol:
            if math.isfinite(val):
                violations += 1
    return CriterionResult(
        key="monotonicity",
        title="value shrinks with the source box and grows with the target box",
        passed=violations == 0 and undrawn is None,
        detail=undrawn or f"{n_pairs} nested samples ({finite_source} with finite widened-source value), "
        f"{violations} violations (tol 1e-6)",
    )


def _cone_subbox(rng, outer: IntervalBox) -> IntervalBox:
    (a1p, a3p), (a2p, a4p) = outer.lo, outer.hi
    a1 = rng.uniform(a1p, min(0.0, a2p))
    a2 = rng.uniform(a1, a2p)
    a3 = rng.uniform(a3p, min(0.0, a4p))
    a4 = rng.uniform(max(0.0, a3), a4p)
    return _trusted_box(a1, a2, a3, a4) or IntervalBox.from_corners((a1, a2, a3, a4))


def check_dissipation_inequality(spec: ProblemSpec, seed: int, n_pairs: int = 500) -> CriterionResult:
    rng = _Draws(seed)
    sf = StorageFunction.reference()
    _, v_star = optimal_rci(spec)
    tol = 1e-6
    worst = -math.inf
    violations = 0
    undrawn = None
    for i in range(n_pairs):
        try:
            a, b = feasible_pair(spec, rng)
        except _GaveUp as exc:
            undrawn = _undrawn(i, n_pairs, exc)
            break
        lhs = eval_storage(sf, spec, b) - eval_storage(sf, spec, a)
        rhs = stage_cost(spec, a) - v_star
        if lhs > rhs + tol:
            violations += 1
        worst = max(worst, lhs - rhs)
    return CriterionResult(
        key="dissipation-inequality",
        title="storage increase bounded by stage cost above the optimum",
        passed=violations == 0 and undrawn is None,
        detail=undrawn or f"{n_pairs} sampled transitions, worst slack {worst:.3e}, "
        f"{violations} violations (tol 1e-6)",
    )


def run_acceptance(seed: int = 0, spec: ProblemSpec | None = None) -> list[CriterionResult]:
    """The battery at a seed, a non-negative integer (ConfigError for any other), on spec or the default instance."""
    seed = _seed(seed)
    spec = spec if spec is not None else ProblemSpec.default()
    return [
        check_optimal_rci(spec),
        check_storage_certificate(spec),
        check_feedback_laws(spec),
        check_instability_witness(spec),
        check_closed_loop_stability(spec),
        check_chain_inequality(spec, seed=seed + 1),
        check_monotonicity(spec, seed=seed + 2),
        check_dissipation_inequality(spec, seed=seed + 3),
    ]
