"""Quadrature weights for the fractional substantial derivative.

The order-nu discretisation of the derivative of order alpha uses the Taylor
coefficients l_k of W(z)**alpha, where

    W(z) = sum_{i=1..nu} (1 - z)**i / i

is the standard backward-difference generating polynomial of order nu.  At
nu = 1 this reduces to the binomial weights (-1)**k * C(alpha, k).  The
tempering by the complex rate rho enters only through d_k = exp(-rho*k*tau)
* l_k; the l_k themselves depend on (alpha, nu) alone.

Coefficients are produced by the J.C.P. Miller power recurrence, which needs
O(nu) work per coefficient and is numerically stable for these polynomials
(``executor.fill_weights``); l_0 alone needs none, and loads no executor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import require_memory
from .executor import fill_weights


def generating_poly(nu: int) -> np.ndarray:
    """Coefficients of W(z) = sum_{i=1..nu} (1 - z)**i / i, low order first."""
    if nu not in (1, 2, 3, 4):
        raise ValueError(f"order nu must be in 1..4, got {nu}")
    w = np.zeros(nu + 1)
    for i in range(1, nu + 1):
        for j in range(i + 1):
            w[j] += comb(i, j) * (-1.0) ** j / i
    return w


def weights(alpha: float, nu: int, count: int) -> np.ndarray:
    """First count+1 quadrature weights l_0 .. l_count for order nu.

    Parameters
    ----------
    alpha : float
        Fractional order, 0 < alpha < 1.
    nu : int
        Accuracy order of the quadrature, 1..4.
    count : int
        Largest index generated; the result has length count + 1.

    ``nu`` and ``count`` must be Python or numpy integers, not ``bool``.
    """
    for name, val in (("nu", nu), ("count", count)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    alpha, nu, count = float(alpha), int(nu), int(count)
    w = generating_poly(nu)
    out = np.zeros(count + 1)
    out[0] = w[0] ** alpha
    fill_weights(alpha, w, out)
    return out


def tempered(l: np.ndarray, rho: complex, tau: float) -> np.ndarray:
    """Tempered weights d_k = exp(-rho * k * tau) * l_k."""
    k = np.arange(len(l))
    return np.exp(-rho * tau * k) * l


@dataclass(frozen=True)
class FsdCoefficients:
    """Weight tables for one (alpha, nu, rho, tau, N) configuration."""

    alpha: float
    nu: int
    rho: complex
    tau: float
    l: np.ndarray
    d: np.ndarray

    @classmethod
    def build(cls, alpha: float, nu: int, rho: complex, tau: float, count: int):
        if not 0.0 < tau < np.inf:
            raise ValueError(f"time step must be positive and finite, got {tau}")
        if not np.isfinite(rho):
            raise ValueError(f"rho must be finite, got {rho}")
        require_memory((8 + 16) * (count + 1), f"the {count + 1} real and complex weights")
        l = weights(alpha, nu, count)
        with np.errstate(over="ignore", invalid="ignore"):
            d = tempered(l, rho, tau)
        finite = np.isfinite(d)
        if np.count_nonzero(finite) < finite.size:
            k = np.argmin(finite)
            raise ValueError(f"tempered weight d_{k} = exp(-rho k tau) l_{k} is not finite "
                             f"at rho={rho}, tau={tau}")
        return cls(alpha=alpha, nu=nu, rho=complex(rho), tau=tau, l=l, d=d)


def write_csv(coeffs: FsdCoefficients, path) -> None:
    """Dump the tables as ``k, l_k, Re d_k, Im d_k`` rows.

    Values are written with ``repr`` so a round-trip parse is bit-exact.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "l_k", "Re d_k", "Im d_k"])
        for k, (lk, dk) in enumerate(zip(coeffs.l, coeffs.d)):
            writer.writerow([k, repr(float(lk)), repr(float(dk.real)), repr(float(dk.imag))])
