"""The package's public names and each module's ``__all__``, pinned.

A change that adds, removes or renames a public name has to change this
file too, so the public API only moves on purpose.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import tube_dissip

# what ``import tube_dissip`` alone binds: the names re-exported by
# ``__init__`` and the submodules that importing them loads
PACKAGE_NAMES = {
    "AdversarialPolicy",
    "ConfigError",
    "CostToTravelResult",
    "EnclosureStabilityReport",
    "ExtremePolicy",
    "IntervalBox",
    "ProblemSpec",
    "QpStatus",
    "RciNotFound",
    "SeparabilityReport",
    "SimulationTrace",
    "SolverFailure",
    "StorageFunction",
    "StrictnessSummary",
    "TraceStep",
    "TubeMpcConfig",
    "TubeSolution",
    "UniformRandomPolicy",
    "boxes_intersect",
    "check_enclosure_stability",
    "check_strictness",
    "closed_loop",
    "contains",
    "cost_to_travel",
    "dissipativity",
    "dynamics",
    "eval_storage",
    "eval_v",
    "hausdorff",
    "interval_sets",
    "is_rci",
    "optimal_rci",
    "problem",
    "qp_solver",
    "rotated_cost",
    "sampling",
    "simulate",
    "solve_tmpc",
    "stage_cost",
    "storage_min_on_domain",
    "subset",
    "sweep_feedback",
    "transition_feasible",
    "tube_mpc",
    "verify_separability",
}

MODULE_ALL = {
    "acceptance": ["CriterionResult", "run_acceptance", "reference_feedback_law"],
    "closed_loop": [
        "ExtremePolicy",
        "UniformRandomPolicy",
        "AdversarialPolicy",
        "DisturbancePolicy",
        "TraceStep",
        "SimulationTrace",
        "EnclosureStabilityReport",
        "simulate",
        "check_enclosure_stability",
        "rotated_cost",
    ],
    "cost_to_travel": ["MAX_STEPS", "CostToTravelResult", "RciNotFound", "eval_v", "optimal_rci"],
    "dissipativity": [
        "StorageFunction",
        "SeparabilityReport",
        "StrictnessSummary",
        "eval_storage",
        "verify_separability",
        "check_strictness",
        "storage_min_on_domain",
    ],
    "problem": [
        "ProblemSpec",
        "ConfigError",
        "transition_rows",
        "transition_witness",
        "transition_feasible",
        "stage_cost",
        "is_rci",
        "dynamics",
    ],
    "qp_solver": ["QpStatus", "SolverFailure"],
    "sampling": [
        "random_box_within",
        "random_superbox",
        "monotone_cone_box",
        "successor_box",
        "feasible_pair",
        "feasible_chain",
    ],
    "tube_mpc": ["TubeMpcConfig", "TubeSolution", "SweepPoint", "solve_tmpc", "sweep_feedback"],
}


def test_package_public_names():
    # in a fresh interpreter, since other tests import more submodules
    code = "import json, tube_dissip; print(json.dumps(sorted(n for n in dir(tube_dissip) if not n.startswith('_'))))"
    src = str(Path(tube_dissip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert set(json.loads(out.stdout)) == PACKAGE_NAMES
    assert len(PACKAGE_NAMES) == 45


def test_module_all_entries():
    got = {}
    for info in pkgutil.iter_modules(tube_dissip.__path__):
        module = importlib.import_module(f"tube_dissip.{info.name}")
        if hasattr(module, "__all__"):
            got[info.name] = list(module.__all__)
            assert [name for name in module.__all__ if not hasattr(module, name)] == [], info.name
    assert got == MODULE_ALL
    assert sum(map(len, MODULE_ALL.values())) == 46


def test_qp_status_members():
    # the two verdicts a solve gives, by the strings their JSON carries
    assert {status.name: status.value for status in tube_dissip.QpStatus} == {
        "OPTIMAL": "optimal",
        "INFEASIBLE": "infeasible",
    }


# the public checks that test a relation at a tolerance their caller names:
# set inclusion, membership and intersection
TOLERANCE_CHECKS = {"boxes_intersect", "contains", "subset"}


def test_no_public_function_takes_a_setting():
    # every transition is decided at one fixed tolerance, so no public
    # function takes a tolerance or a solver setting but the relation checks
    checked = set()
    for info in pkgutil.iter_modules(tube_dissip.__path__):
        module = importlib.import_module(f"tube_dissip.{info.name}")
        public = getattr(module, "__all__", None)
        if public is None:
            public = [name for name, value in vars(module).items()
                      if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__]
        for name in public:
            fn = getattr(module, name)
            if not inspect.isfunction(inspect.unwrap(fn)):
                continue
            checked.add(name)
            params = set(inspect.signature(fn).parameters)
            if name in TOLERANCE_CHECKS:
                assert "tol" in params, name
            else:
                assert not {"feas_tol", "settings", "tol", "exclusion_tol", "max_iter", "max_tries"} & params, name
    # optimal_rci is a cache around a function, and is checked as one
    assert TOLERANCE_CHECKS | {"optimal_rci", "eval_v", "solve_tmpc", "simulate"} <= checked
