"""Session setup shared by the test modules."""

import pytest

import trajcal.cli as cli


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the bundled OpenBLAS at one thread, as every ``trajcal`` command
    does, so a fit's time does not depend on what else shares the machine.
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` still wins, and no
    environment variable is set: child interpreters see the caller's."""
    cli._one_blas_thread()
