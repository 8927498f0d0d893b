"""Shared fixtures: the two benchmark maps with pipeline-chosen scales.

Heavy artifacts (orbit records, induced partitions) are built once per
session and shared across test modules.  Scale selection runs the same
delta ladder the command-line pipeline uses, so tests exercise partitions
at the exact parameters a user would get.
"""

import os

import pytest

import cusp_induce
from cusp_induce import critical_orbit as co
from cusp_induce import hyperbolicity as hy
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from cusp_induce.cli import _DELTA_LADDER

# Tests that start `python -m cusp_induce.cli` must reach the package
# imported here, also from a checkout where it is not installed.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(cusp_induce.__file__)),
    os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped: running, or ended
    and not waited for (the Birkhoff ensemble's workers, scan's pool)."""
    yield
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} ended, unreaped"
    pytest.fail(f"the test left a child process behind: {state}")


@pytest.fixture(scope="session")
def cheb():
    return mm.chebyshev_map()


@pytest.fixture(scope="session")
def lorenz():
    return mm.lorenz_map()


@pytest.fixture(scope="session")
def unimodal2():
    return mm.unimodal_map(a=2.0, ell=2.0)


@pytest.fixture(scope="session")
def singular():
    return mm.singular_unimodal_map()


@pytest.fixture(scope="session")
def cheb_records(cheb):
    return co.orbit_records(cheb, 200)


@pytest.fixture(scope="session")
def lorenz_records(lorenz):
    return co.orbit_records(lorenz, 200)


@pytest.fixture(scope="session")
def cheb_scales(cheb):
    delta, rep = hy.choose_delta(cheb, _DELTA_LADDER)
    return delta, rep.q0


@pytest.fixture(scope="session")
def lorenz_scales(lorenz):
    delta, rep = hy.choose_delta(lorenz, _DELTA_LADDER)
    return delta, rep.q0


@pytest.fixture(scope="session")
def cheb_partition(cheb, cheb_scales):
    delta, q0 = cheb_scales
    return ind.build_partition(cheb, delta=delta, q0=q0)


@pytest.fixture(scope="session")
def lorenz_partition(lorenz, lorenz_scales):
    delta, q0 = lorenz_scales
    return ind.build_partition(lorenz, delta=delta, q0=q0)
