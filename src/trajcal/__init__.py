"""Calibration of stochastic simulators over joint (parameter, seed) spaces.

The package searches a continuous parameter box and a discrete set of random
seeds at the same time, so that a simulator run can be matched against a
single observed trajectory rather than an ensemble average.  A Gaussian
process with a low-rank seed covariance emulates the objective surface,
Thompson sampling picks batches of candidate runs, and the candidate grid is
refined around the current best observation as evidence accumulates.
"""

from .dataspace import (
    Bounds,
    Dataset,
    DesignPoint,
    ObjectiveTransform,
    fit_transform,
    latin_hypercube,
    rescale,
    sse,
)
from .emulator import SeedKernelGP, draw_mvn
from .errors import NotFittedError, NumericalError, ProgressError
from .expansion import (
    ExpansionConfig,
    ExpansionState,
    check_for_expansion,
    expand,
    reseed_incumbents,
    sample_from_expansion,
)
from .grid import (
    AdaptiveGrid,
    CandidateGrid,
    FixedGrid,
    GridConfig,
    LHSGrid,
    likelihood_values,
    mh_densify,
    resample_indices,
)
from .kernels import cross_cov, normalize_rows, safe_cholesky, seed_matrix
from .simulator import SirConfig, Trajectory, sir_run, to_table, toy_objective
from .workflow import (
    RunTrace,
    WorkflowConfig,
    component_stream,
    run,
    thompson_select,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveGrid",
    "Bounds",
    "CandidateGrid",
    "Dataset",
    "DesignPoint",
    "ExpansionConfig",
    "ExpansionState",
    "FixedGrid",
    "GridConfig",
    "LHSGrid",
    "NotFittedError",
    "NumericalError",
    "ObjectiveTransform",
    "ProgressError",
    "RunTrace",
    "SeedKernelGP",
    "SirConfig",
    "Trajectory",
    "WorkflowConfig",
    "check_for_expansion",
    "component_stream",
    "cross_cov",
    "draw_mvn",
    "expand",
    "fit_transform",
    "latin_hypercube",
    "likelihood_values",
    "mh_densify",
    "normalize_rows",
    "rescale",
    "reseed_incumbents",
    "resample_indices",
    "run",
    "safe_cholesky",
    "sample_from_expansion",
    "seed_matrix",
    "sir_run",
    "sse",
    "thompson_select",
    "to_table",
    "toy_objective",
    "__version__",
]
