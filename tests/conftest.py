import numpy as np
import pytest

import ratapprox as ra
from ratapprox.geometry import Disk, FunctionSpec


@pytest.fixture(scope="session")
def unit_circle_500():
    return np.exp(2j * np.pi * np.arange(500) / 500)


@pytest.fixture(scope="session")
def exp_disk_samples():
    return ra.sample_function(FunctionSpec.EXP, Disk(0j, 1.0), 500)


@pytest.fixture(scope="session")
def exp_disk_fit(exp_disk_samples):
    """Degree-6 rational model of exp on the unit disk at tol 1e-12."""
    return ra.cleanup(ra.aaa_fit(exp_disk_samples, tol=1e-12, max_degree=150),
                      exp_disk_samples)
