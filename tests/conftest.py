"""Pin BLAS to one thread before any test module imports numpy.

OpenBLAS threads even tiny triangular solves, and on a machine with few
cores its thread hand-offs stall calls by milliseconds at random, which
makes the timing assertions flaky. An explicit setting in the environment
still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest


@pytest.fixture(autouse=True)
def _fresh_stage_tables():
    """Start every test with no kept Markov stage table, so no test's
    timing or call count depends on the tests that ran before it."""
    from transectplan import planners

    planners._stage_table.cache_clear()
