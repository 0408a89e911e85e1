import numpy as np
import pytest

from manipplan.kinematics import load_chain

from .oracles import planar_arm


@pytest.fixture(scope="session")
def ur10():
    return load_chain("ur10")


@pytest.fixture(scope="session")
def planar2r():
    return planar_arm([1.0, 1.0], name="planar2r")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
