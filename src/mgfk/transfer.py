"""Matrix-free grid transfers: full weighting and linear interpolation.

Fine and coarse grids have 2**k - 1 points per dimension.  ``Restriction``
and ``Prolongation`` apply the 1-2-1 pair along every axis of a grid, axis
0 first, between buffers they are bound to: the input, one intermediate per
axis but the last, and the output.  Each builds its work once, as a tuple
``calls`` of ``(ufunc, args)`` on the strided views each axis reads and
writes, with the weights as 0-d arrays of the output's dtype; a call runs
that tuple, and the V-cycle splices it into its own.  The prolongation is
2**ndim times the transpose of the restriction.  ``restrict`` and
``prolong`` bind the pair to fresh buffers for one call.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, GridSizeError
from .stencil import grid_depth, run_calls


def _fine_sizes(m_fine: int) -> int:
    k = grid_depth(m_fine)
    if k < 2:
        raise GridSizeError(f"fine grid size {m_fine} has no coarser level")
    return (m_fine - 1) // 2


def _stages(x: np.ndarray, out: np.ndarray) -> list:
    """(axis, input, output) per axis: ``x``, the intermediates, ``out``."""
    stages, src = [], x
    for axis in range(x.ndim):
        last = axis == x.ndim - 1
        dst = out if last else np.empty(out.shape[: axis + 1] + x.shape[axis + 1 :], out.dtype)
        stages.append((axis, src, dst))
        src = dst
    return stages


def _along(a: np.ndarray, axis: int, s: slice) -> np.ndarray:
    return a[(slice(None),) * axis + (s,)]


class Restriction:
    """Full weighting along every axis: coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4,
    evaluated as ``2 x_odd``, ``+ x_lo``, ``+ x_hi``, ``* 0.25``."""

    def __init__(self, x: np.ndarray, out: np.ndarray):
        self.out = out
        two, quarter = np.array(2.0, out.dtype), np.array(0.25, out.dtype)
        calls = []
        for axis, src, dst in _stages(x, out):
            lo = _along(src, axis, slice(0, -2, 2))
            odd = _along(src, axis, slice(1, None, 2))
            hi = _along(src, axis, slice(2, None, 2))
            calls += [
                (np.multiply, (odd, two, dst)),
                (np.add, (lo, dst, dst)),
                (np.add, (dst, hi, dst)),
                (np.multiply, (dst, quarter, dst)),
            ]
        self.calls = tuple(calls)

    def __call__(self) -> np.ndarray:
        run_calls(self.calls)
        return self.out


class Prolongation:
    """Linear interpolation along every axis; in 1D the columns are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points copy the coarse value; in-between
    points take the average of their flanking coarse values (zero outside),
    so the two edge points take half of the edge coarse values.
    """

    def __init__(self, x: np.ndarray, out: np.ndarray):
        self.out = out
        half = np.array(0.5, out.dtype)
        calls = []
        for axis, src, dst in _stages(x, out):
            n = src.shape[axis]
            odd, mid = _along(dst, axis, slice(1, None, 2)), _along(dst, axis, slice(2, -1, 2))
            lo, hi = _along(src, axis, slice(None, -1)), _along(src, axis, slice(1, None))
            src_edges = _along(src, axis, slice(None, None, max(n - 1, 1)))  # first and last
            edges = _along(dst, axis, slice(None, None, 2 * n))
            calls += [
                (np.copyto, (odd, src)),
                (np.add, (lo, hi, mid)),
                (np.multiply, (mid, half, mid)),
                (np.multiply, (src_edges, half, edges)),
            ]
        self.calls = tuple(calls)

    def __call__(self) -> np.ndarray:
        run_calls(self.calls)
        return self.out


def _grid(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 0:
        raise DimensionError("expected a grid, got a scalar")
    return x


def restrict(x: np.ndarray) -> np.ndarray:
    """``Restriction`` of ``x`` into a new array."""
    x = _grid(x)
    out = np.empty(tuple(_fine_sizes(n) for n in x.shape), np.result_type(x, 0.25))
    return Restriction(x, out)()


def prolong(x: np.ndarray) -> np.ndarray:
    """``Prolongation`` of ``x`` into a new array."""
    x = _grid(x)
    for n in x.shape:
        grid_depth(n)
    return Prolongation(x, np.empty(tuple(2 * n + 1 for n in x.shape), np.result_type(x, 0.5)))()
