"""Coarse-operator construction.

Two strategies are supported:

* Galerkin (algebraic): the coarse operator is restriction * fine *
  prolongation.  For a tridiagonal Toeplitz stencil this collapses to two
  sums of its band values, so no matrix product is ever formed.
* Geometric: the operator is re-discretised with the mesh spacing doubled
  (``KroneckerSum.rediscretised``).

Closed-form level-k stencils (``closed_form_tridiag``) are provided as a
cross-check of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .stencil import COMPACT_MASS, IDENTITY, LAPLACIAN, KroneckerSum, ToeplitzStencil


def galerkin_step(stencil: ToeplitzStencil) -> ToeplitzStencil:
    """Galerkin coarse stencil: restriction * fine * prolongation,

        a_0' = (6 a_0 + 8 a_1) / 8,    a_1' = (a_0 + 4 a_1) / 8.
    """
    a0, a1 = stencil.bands
    return 0.125 * ToeplitzStencil((6.0 * a0 + 8.0 * a1, a0 + 4.0 * a1))


@dataclass(frozen=True)
class LevelConstants:
    """Closed-form constants of the k-fold Galerkin coarse stencils.

    ``c`` grows like 8**k / 6; the thetas are the coefficients expressing the
    level-k images of the identity and the Laplacian:

        identity -> theta1 * I + theta3 * tridiag(1, 2, 1)
        laplacian -> theta2 * tridiag(-1, 2, -1)
    """

    k: int
    c: float
    theta1: float
    theta2: float
    theta3: float


def c_constant(k: int) -> int:
    """Exact integer value of 2**(k-2) * (2**(2k-2) - 1) / 3 for k >= 1."""
    if k < 1:
        raise ValueError(f"level index must be >= 1, got {k}")
    if k == 1:
        return 0
    q, r = divmod((4 ** (k - 1) - 1) * 2 ** (k - 2), 3)
    assert r == 0
    return q


def closed_form_constants(k: int) -> LevelConstants:
    scale = 8.0 ** (k - 1)
    c = float(c_constant(k))
    half = 2.0 ** (k - 1)
    return LevelConstants(
        k=k,
        c=c,
        theta1=(2.0 * c + half) / scale,
        theta2=half / scale,
        theta3=c / scale,
    )


def closed_form_tridiag(a0: float, a1: float, k: int) -> ToeplitzStencil:
    """Level-k Galerkin coarse stencil of tridiag(a1, a0, a1) in closed form.

    Must agree with (k-1) applications of ``galerkin_step``; ``k = 1`` is the
    fine stencil itself.
    """
    c = float(c_constant(k))
    half = 2.0 ** (k - 1)
    scale = 8.0 ** (k - 1)
    new_a0 = ((4.0 * c + half) * a0 + 8.0 * c * a1) / scale
    new_a1 = (c * a0 + (2.0 * c + half) * a1) / scale
    return ToeplitzStencil((new_a0, new_a1))


def mu_coefficient(kappa_alpha: float, alpha: float, tau: float, h: float) -> float:
    """Diffusion-to-grid ratio kappa_alpha * tau**alpha / h**2."""
    return kappa_alpha * tau**alpha / h**2


def fk_operator(ndim: int, l0: float, mu: float) -> KroneckerSum:
    """Feynman-Kac system operator l0 * M^{(x)d} + mu * sum_k M (x)..L..(x) M, whose
    mass M is the compact H of the 1D scheme and the identity of the 2D one."""
    return KroneckerSum(ndim, l0, mu, COMPACT_MASS if ndim == 1 else IDENTITY, LAPLACIAN)


# benchmarks/workloads.py builds its theory workload through this name
fk_operator_2d = partial(fk_operator, 2)
