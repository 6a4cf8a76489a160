import os

# Pin BLAS and OpenMP pools to one thread before numpy loads, as the benchmark
# does: on a busy 2-vCPU host a second BLAS thread slows the timed criteria.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import pytest  # noqa: E402

import semifd as sf  # noqa: E402


@pytest.fixture(scope="session")
def braid3():
    return sf.enumerate_monoid(sf.braid(3), 8)


@pytest.fixture(scope="session")
def free2():
    return sf.enumerate_monoid(sf.free(2), 8)


@pytest.fixture(scope="session")
def nat1():
    return sf.enumerate_monoid(sf.nat(1), 14)


@pytest.fixture(scope="session")
def nat2():
    return sf.enumerate_monoid(sf.nat(2), 12)
