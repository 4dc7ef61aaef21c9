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
    rmse,
    sse,
    unrescale,
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
    ProposalParams,
    likelihood_values,
    mh_densify,
    resample_indices,
)
from .kernels import (
    ContinuousKernelParams,
    JointKernel,
    SeedKernelParams,
    cross_cov,
    normalize_rows,
    safe_cholesky,
)
from .simulator import SirConfig, Trajectory, ground_truth, sir_run, to_table, toy_objective
from .workflow import (
    RunTrace,
    WorkflowConfig,
    best_observed,
    component_stream,
    run,
    thompson_select,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveGrid",
    "Bounds",
    "CandidateGrid",
    "ContinuousKernelParams",
    "Dataset",
    "DesignPoint",
    "ExpansionConfig",
    "ExpansionState",
    "FixedGrid",
    "GridConfig",
    "JointKernel",
    "LHSGrid",
    "NotFittedError",
    "NumericalError",
    "ObjectiveTransform",
    "ProgressError",
    "ProposalParams",
    "RunTrace",
    "SeedKernelGP",
    "SeedKernelParams",
    "SirConfig",
    "Trajectory",
    "WorkflowConfig",
    "best_observed",
    "check_for_expansion",
    "component_stream",
    "cross_cov",
    "draw_mvn",
    "expand",
    "fit_transform",
    "ground_truth",
    "latin_hypercube",
    "likelihood_values",
    "mh_densify",
    "normalize_rows",
    "rescale",
    "reseed_incumbents",
    "resample_indices",
    "rmse",
    "run",
    "safe_cholesky",
    "sample_from_expansion",
    "sir_run",
    "sse",
    "thompson_select",
    "to_table",
    "toy_objective",
    "unrescale",
    "__version__",
]
