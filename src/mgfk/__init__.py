"""V-cycle multigrid for symmetric Toeplitz tridiagonal and Kronecker
block-tridiagonal systems, applied to fractional Feynman-Kac time stepping."""

from .errors import (
    ConvergenceFailure,
    DimensionError,
    EligibilityError,
    EstimationError,
    GridSizeError,
    MgfkError,
)
from .stencil import (
    AVERAGING,
    COMPACT_MASS,
    IDENTITY,
    LAPLACIAN,
    TensorOperator2D,
    ToeplitzStencil,
    grid_depth,
    lambda_max,
)
from .coarsen import (
    GeometricRule,
    closed_form_constants,
    closed_form_tridiag,
    fk_operator_2d,
    fk_stencil_1d,
    galerkin_step,
    galerkin_step_2d,
    mu_coefficient,
)
from .multigrid import (
    MgHierarchy,
    SolveReport,
    build_hierarchy,
    measure_contraction,
    smooth,
    solve,
    vcycle,
)
from .fsd import FsdCoefficients, weights
from .feynman_kac import Evolution, Problem, preset

__version__ = "0.1.0"
