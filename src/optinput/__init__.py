"""Power-constrained optimal input design for kernel-regularized FIR models.

The package turns the nonconvex input-design problem (pick one period of an
N-periodic input with fixed energy so an FIR estimate is as accurate as
possible) into a convex program over the first n circular correlations of the
input, solves it for the D, A, and E accuracy criteria, and maps the solution
back to time-domain input sequences.  Estimation utilities, analytic
optimality checks, and a Monte Carlo benchmark round out the pipeline.
"""

from .design_map import (
    CorrelationVector,
    build_S,
    build_W,
    decompose_check,
    nullspace_basis,
    quadratic_map,
    recover_input,
    vertices,
    weights_to_r,
)
from .design_solver import (
    Certificate,
    DesignProblem,
    DesignSolution,
    SolverOptions,
    brute_force_design,
    check_rdagger_optimality,
    eval_criterion,
    gradient_in_r,
    q_of_r,
    solve,
)
from .estimator import (
    DataRecord,
    FirEstimate,
    InputSequence,
    bayesian_mse,
    eb_objective,
    estimate_noise_variance,
    fit_hyperparameters,
    ls_estimate,
    rls_estimate,
)
from .kernels import KernelSpec, build_kernel, dc_inverse, kernel_inverse
from .linalg import SymMatrix

__version__ = "0.1.0"

__all__ = [
    "CorrelationVector",
    "build_S",
    "build_W",
    "decompose_check",
    "nullspace_basis",
    "quadratic_map",
    "recover_input",
    "vertices",
    "weights_to_r",
    "Certificate",
    "DesignProblem",
    "DesignSolution",
    "SolverOptions",
    "brute_force_design",
    "check_rdagger_optimality",
    "eval_criterion",
    "gradient_in_r",
    "q_of_r",
    "solve",
    "DataRecord",
    "FirEstimate",
    "InputSequence",
    "bayesian_mse",
    "eb_objective",
    "estimate_noise_variance",
    "fit_hyperparameters",
    "ls_estimate",
    "rls_estimate",
    "KernelSpec",
    "build_kernel",
    "dc_inverse",
    "kernel_inverse",
    "SymMatrix",
    "__version__",
]
