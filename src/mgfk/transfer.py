"""Matrix-free grid transfers: full weighting, linear interpolation, cutting.

Fine and coarse grids have 2**k - 1 points per dimension.  ``restrict`` and
``prolong`` apply the 1-2-1 pair along every axis of a grid, one axis-0
kernel per axis with the axes rotated in between, so the prolongation is
2**ndim times the transpose of the restriction.
"""

from __future__ import annotations

import numpy as np

from .errors import GridSizeError
from .stencil import grid_depth


def _fine_sizes(m_fine: int) -> int:
    k = grid_depth(m_fine)
    if k < 2:
        raise GridSizeError(f"fine grid size {m_fine} has no coarser level")
    return (m_fine - 1) // 2


def restrict(x: np.ndarray) -> np.ndarray:
    """Full weighting along every axis: coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4."""
    x = np.asarray(x)
    axes = (*range(1, x.ndim), 0)  # moves the first axis last; ndim times is the identity
    for _ in axes:
        mc = _fine_sizes(x.shape[0])
        x = (0.25 * (x[0 : 2 * mc - 1 : 2] + 2.0 * x[1::2] + x[2::2])).transpose(axes)
    return x


def prolong(x: np.ndarray) -> np.ndarray:
    """Linear interpolation along every axis; in 1D the columns are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points copy the coarse value; in-between
    points take the average of their flanking coarse values (zero outside).
    """
    x = np.asarray(x)
    axes = (*range(1, x.ndim), 0)  # moves the first axis last; ndim times is the identity
    for _ in axes:
        grid_depth(x.shape[0])
        out = np.zeros((2 * x.shape[0] + 1,) + x.shape[1:], dtype=x.dtype)
        out[1::2] = x
        out[2:-1:2] = 0.5 * (x[:-1] + x[1:])
        out[0] = 0.5 * x[0]
        out[-1] = 0.5 * x[-1]
        x = out.transpose(axes)
    return x


def cut(v: np.ndarray) -> np.ndarray:
    """Select the fine entries that coincide with coarse grid points."""
    v = np.asarray(v)
    _fine_sizes(v.shape[0])
    return v[1::2].copy()
