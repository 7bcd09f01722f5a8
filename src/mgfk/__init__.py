"""V-cycle multigrid for Kronecker sums of symmetric Toeplitz tridiagonal
stencils (tridiagonal in 1D, block-tridiagonal in 2D), applied to fractional
Feynman-Kac time stepping."""

from .errors import (
    ConvergenceFailure,
    DimensionError,
    EligibilityError,
    GridSizeError,
    MgfkError,
)
from .stencil import (
    AVERAGING,
    COMPACT_MASS,
    IDENTITY,
    LAPLACIAN,
    KroneckerSum,
    ToeplitzStencil,
    grid_depth,
    lambda_max,
)
from .coarsen import (
    closed_form_constants,
    closed_form_tridiag,
    fk_operator,
    galerkin_step,
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
