import numpy as np
import pytest
from hypothesis import settings

from tube_dissip.dissipativity import StorageFunction
from tube_dissip.interval_sets import IntervalBox
from tube_dissip.problem import ProblemSpec
from tube_dissip.tube_mpc import TubeMpcConfig

# the same examples on every run, no example database on disk, and no
# per-example deadline: timings on a loaded host say nothing about correctness
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=150)
settings.load_profile("tier1")


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
