"""Calibration of stochastic simulators over joint (parameter, seed) spaces.

The package searches a continuous parameter box and a discrete set of random
seeds at the same time, so that a simulator run can be matched against a
single observed trajectory rather than an ensemble average.  A Gaussian
process with a low-rank seed covariance emulates the objective surface,
Thompson sampling picks batches of candidate runs, and the candidate grid is
refined around the current best observation as evidence accumulates.
"""

from .dataspace import Bounds, Dataset, DesignPoint, latin_hypercube, rescale, sse
from .emulator import SeedKernelGP
from .errors import NotFittedError, NumericalError, ProgressError
from .expansion import ExpansionConfig
from .grid import AdaptiveGrid, FixedGrid, LHSGrid
from .simulator import SirConfig, sir_run, toy_objective
from .workflow import RunTrace, WorkflowConfig, component_stream, run

__version__ = "0.1.0"

__all__ = [
    "AdaptiveGrid",
    "Bounds",
    "Dataset",
    "DesignPoint",
    "ExpansionConfig",
    "FixedGrid",
    "LHSGrid",
    "NotFittedError",
    "NumericalError",
    "ProgressError",
    "RunTrace",
    "SeedKernelGP",
    "SirConfig",
    "WorkflowConfig",
    "component_stream",
    "latin_hypercube",
    "rescale",
    "run",
    "sir_run",
    "sse",
    "toy_objective",
    "__version__",
]
