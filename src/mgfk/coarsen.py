"""Coarse-operator construction.

Two strategies are supported:

* Galerkin (algebraic): the coarse operator is restriction * fine *
  prolongation.  For a tridiagonal Toeplitz stencil this collapses to two
  sums of its band values, so no matrix product is ever formed.
* Geometric: the operator is re-discretised with the mesh spacing doubled
  (``KroneckerSum.rediscretised``).

Closed-form level-k stencils and exact integer coefficients are provided
as cross-checks of the recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .stencil import COMPACT_MASS, IDENTITY, LAPLACIAN, KroneckerSum, ToeplitzStencil


def galerkin_step_unscaled(stencil: ToeplitzStencil) -> ToeplitzStencil:
    """One coarsening step with the unnormalised integer-weight transfers:

        a_0' = 6 a_0 + 8 a_1,    a_1' = a_0 + 4 a_1

    The true Galerkin coarse operator is this divided by 8.
    """
    a0, a1 = stencil.bands
    return ToeplitzStencil((6.0 * a0 + 8.0 * a1, a0 + 4.0 * a1))


def galerkin_step(stencil: ToeplitzStencil) -> ToeplitzStencil:
    """Galerkin coarse stencil: restriction * fine * prolongation.

    Equals the unscaled step divided by 8.
    """
    return 0.125 * galerkin_step_unscaled(stencil)


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


def _div_exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{num} not divisible by {den}")
    return q


def _coeff_j0(m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m == 0:
        return 4 * c + half
    if m < half:
        return 8 * c - (m * m - 1) * (2**k - m)
    n = 2**k - m
    return _div_exact((n - 1) * n * (n + 1), 3)


def _coeff_j1(m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m == 0:
        return c
    if m < half:
        return 2 * c + m * m * half - _div_exact(2 * (m - 1) * m * (m + 1), 3)
    if m < 2 * half:
        n = 2**k - m
        p = m - half
        return (
            2 * c
            + n * n * half
            - _div_exact(2 * (n - 1) * n * (n + 1), 3)
            - _div_exact((p - 1) * p * (p + 1), 6)
        )
    n = 3 * half - m
    return _div_exact((n - 1) * n * (n + 1), 6)


def _coeff_jge2(j: int, m: int, k: int) -> int:
    c, half = c_constant(k), 2 ** (k - 1)
    if m < (j - 1) * half:
        p = m - (j - 2) * half
        return _div_exact((p - 1) * p * (p + 1), 6)
    if m < j * half:
        p = m - (j - 1) * half
        q = j * half - m
        return (
            2 * c
            + p * p * half
            - _div_exact((q - 1) * q * (q + 1), 6)
            - _div_exact(2 * (p - 1) * p * (p + 1), 3)
        )
    if m < (j + 1) * half:
        p = (j + 1) * half - m
        q = m - j * half
        return (
            2 * c
            + p * p * half
            - _div_exact((q - 1) * q * (q + 1), 6)
            - _div_exact(2 * (p - 1) * p * (p + 1), 3)
        )
    p = (j + 2) * half - m
    return _div_exact((p - 1) * p * (p + 1), 6)


def coefficient(j: int, m: int, k: int) -> int:
    """Exact integer coefficient of fine band a_m in unscaled coarse band a_j
    after (k-1) unnormalised coarsening steps (k >= 2)."""
    if k < 2:
        raise ValueError(f"coefficient tables require k >= 2, got {k}")
    if j < 0 or m < 0:
        raise ValueError("band indices must be non-negative")
    half = 2 ** (k - 1)
    if j == 0:
        return _coeff_j0(m, k) if m < 2 * half else 0
    if j == 1:
        return _coeff_j1(m, k) if m < 3 * half else 0
    if m < (j - 2) * half or m >= (j + 2) * half:
        return 0
    return _coeff_jge2(j, m, k)


def mu_coefficient(kappa_alpha: float, alpha: float, tau: float, h: float) -> float:
    """Diffusion-to-grid ratio kappa_alpha * tau**alpha / h**2."""
    return kappa_alpha * tau**alpha / h**2


def fk_operator(ndim: int, l0: float, mu: float) -> KroneckerSum:
    """Feynman-Kac system operator l0 * M^{(x)d} + mu * sum_k M (x)..L..(x) M, whose
    mass M is the compact H of the 1D scheme and the identity of the 2D one."""
    return KroneckerSum(ndim, l0, mu, COMPACT_MASS if ndim == 1 else IDENTITY, LAPLACIAN)


# benchmarks/workloads.py builds its theory workload through this name
fk_operator_2d = partial(fk_operator, 2)
