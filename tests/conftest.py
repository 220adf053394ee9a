import os
import subprocess
import sys

import numpy as np
import pytest

import ratapprox as ra
from ratapprox.geometry import Disk, FunctionSpec

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="session")
def run_python():
    """run(*args, **env) runs a fresh interpreter that imports ratapprox
    from this checkout.  The BLAS thread variables are removed from its
    environment before env is added."""
    src = os.path.dirname(os.path.dirname(ra.__file__))

    def run(*args, **env):
        full = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        full["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, full.get("PYTHONPATH")) if p)
        full.update(env)
        return subprocess.run([sys.executable, *args], env=full,
                              capture_output=True, text=True, timeout=120)

    return run


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
