import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import settings

import tube_dissip
from tube_dissip import qp_solver
from tube_dissip.dissipativity import StorageFunction
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec
from tube_dissip.tube_mpc import TubeMpcConfig

# the same examples on every run, no example database on disk, and no
# per-example deadline: timings on a loaded host say nothing about correctness
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=150)
settings.load_profile("tier1")

# every module of the package, imported before any test module: Hypothesis
# also draws literal constants from the package modules in sys.modules, so
# a run of some of the tests draws the examples that the whole suite draws
MODULES = [tube_dissip] + [
    importlib.import_module(f"tube_dissip.{info.name}") for info in pkgutil.iter_modules(tube_dissip.__path__)
]


@pytest.fixture(scope="session")
def spec() -> ProblemSpec:
    return ProblemSpec.default()


@pytest.fixture(scope="session")
def x_star() -> IntervalBox:
    """The optimal invariant box of the default instance, exact corners."""
    return IntervalBox(lo=(-1.0, -4.0), hi=(-1.0, 0.0))


@pytest.fixture(scope="session")
def reference_storage() -> StorageFunction:
    return StorageFunction.reference()


@pytest.fixture(scope="session")
def cfg_ic() -> TubeMpcConfig:
    return TubeMpcConfig(use_initial_cost=True)


@pytest.fixture(scope="session")
def cfg_noic() -> TubeMpcConfig:
    return TubeMpcConfig(use_initial_cost=False)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture()
def forbid_solver(monkeypatch):
    """A call that makes the kernel ``qp_solver._dual_active_set`` fail the test wherever the package looks it up.

    Package modules import the kernel by name, so it is replaced in every
    module that holds it; the call returns the names of those modules.
    """

    def forbidden(*args, **kwargs):
        raise AssertionError("the QP kernel was called")

    def install() -> list[str]:
        kernel = qp_solver._dual_active_set
        patched = [m.__name__ for m in MODULES if getattr(m, "_dual_active_set", None) is kernel]
        for name in patched:
            monkeypatch.setattr(importlib.import_module(name), "_dual_active_set", forbidden)
        return patched

    return install
