"""Matrix-free grid transfers: full weighting and linear interpolation.

Grids are 1D or 2D, with 2**k - 1 points per axis.  ``Restriction`` and
``Prolongation`` apply the 1-2-1 pair on each axis between flat arrays
holding the grids in the run layout of ``stencil.run_shape`` (in 2D rows
of n + 1 cells, a zero pad cell after the points), so a fine row is
exactly two coarse rows long.  In 2D a row pass first combines whole rows,
on (rows, n + 1) views with contiguous rows, into an intermediate; then,
as in 1D, coarse cell q of a whole run sits at 2q + 1 of the other, so
each operation on the last axis is one 1D stride-2 call.  The restriction
then fills the coarse pad cells with zeros; the prolongation takes its
edge values from zero cells, as (0 + x) * 0.5 (the zero rows around the
coarse run, the pad cells, the intermediate's leading zero cell), and
leaves zero pad cells.  Each builds its work once, as a tuple ``calls`` of
``(ufunc, args)`` with the weights as 0-d arrays of the output's dtype; a
call runs that tuple, and the V-cycle splices it into its own.  The
prolongation is 2**ndim times the transpose of the restriction.
``restrict`` and ``prolong`` bind the pair to fresh buffers for one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, GridSizeError
from .stencil import grid_depth, interior, pads, run_calls, run_shape


def _coarse_size(m_fine: int) -> int:
    if grid_depth(m_fine) < 2:
        raise GridSizeError(f"fine grid size {m_fine} has no coarser level")
    return (m_fine - 1) // 2


class Restriction:
    """Full weighting on each axis: coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4,
    evaluated as ``2 x_odd``, ``+ x_lo``, ``+ x_hi``, ``* 0.25``.

    ``x`` is the run of the fine grid of ``shape``, ``out`` that of the coarse
    grid.  In 2D the row pass weighs the fine rows into an intermediate of
    coarse rows, one cell longer for the last-axis pass's reads.
    """

    def __init__(self, x: np.ndarray, out: np.ndarray, shape: tuple):
        self.out = out
        coarse = tuple(_coarse_size(m) for m in shape)
        two, quarter = np.array(2.0, out.dtype), np.array(0.25, out.dtype)

        def weigh(lo, odd, hi, dst):
            return [
                (np.multiply, (odd, two, dst)),
                (np.add, (lo, dst, dst)),
                (np.add, (dst, hi, dst)),
                (np.multiply, (dst, quarter, dst)),
            ]

        calls, src = [], x
        if len(shape) == 2:
            (m, n), mc = shape, coarse[0]
            rows = x.reshape(m, n + 1)
            src = np.zeros(mc * (n + 1) + 1, out.dtype)
            calls += weigh(rows[0:-1:2], rows[1::2], rows[2::2], src[:-1].reshape(mc, n + 1))
        calls += weigh(src[0:-1:2], src[1::2], src[2::2], out)  # coarse q from fine 2q + 1
        calls += [(pad.fill, (0.0,)) for pad in pads(out, coarse)]
        self.calls = tuple(calls)

    def __call__(self) -> np.ndarray:
        run_calls(self.calls)
        return self.out


class Prolongation:
    """Linear interpolation on each axis; in 1D the columns are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points copy the coarse value; in-between
    points take the average of their flanking coarse values, zero outside,
    so the two edge points take half of the edge coarse values.

    ``x`` is the run of the coarse grid with one zero row (in 1D one zero
    cell) on either side, ``stencil.PaddedApply.framed``; ``out`` is the run
    of the fine grid of ``shape``.  In 2D the row pass interpolates the
    coarse rows into an intermediate of fine rows after one leading zero
    cell, which the last-axis pass reads as the first point's neighbour.
    """

    def __init__(self, x: np.ndarray, out: np.ndarray, shape: tuple):
        self.out = out
        half = np.array(0.5, out.dtype)

        calls, src = [], x
        if len(shape) == 2:
            m, (mc, nc) = shape[0], (_coarse_size(k) for k in shape)
            rows = x.reshape(mc + 2, nc + 1)
            src = np.zeros(1 + m * (nc + 1), out.dtype)
            fine = src[1:].reshape(m, nc + 1)
            even, odd = fine[0::2], fine[1::2]
            calls += [
                (np.copyto, (odd, rows[1:-1])),
                (np.add, (rows[:-1], rows[1:], even)),
                (np.multiply, (even, half, even)),
            ]
        even, odd = out[0::2], out[1::2]  # fine 2q + 1 from coarse q
        calls += [
            (np.copyto, (odd, src[1 : odd.size + 1])),
            (np.add, (src[: even.size], src[1 : even.size + 1], even)),
            (np.multiply, (even, half, even)),
        ]
        self.calls = tuple(calls)

    def __call__(self) -> np.ndarray:
        run_calls(self.calls)
        return self.out


def _grid(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected a 1D or 2D grid, got shape {x.shape}")
    return x


def restrict(x: np.ndarray) -> np.ndarray:
    """``Restriction`` of ``x`` into a new array."""
    x = _grid(x)
    coarse = tuple(_coarse_size(m) for m in x.shape)
    dtype = np.result_type(x, 0.25)
    fine = np.zeros(math.prod(run_shape(x.shape)), dtype)
    interior(fine, x.shape)[...] = x
    out = np.empty(math.prod(run_shape(coarse)), dtype)
    return interior(Restriction(fine, out, x.shape)(), coarse).copy()


def prolong(x: np.ndarray) -> np.ndarray:
    """``Prolongation`` of ``x`` into a new array."""
    x = _grid(x)
    for m in x.shape:
        grid_depth(m)
    shape = tuple(2 * m + 1 for m in x.shape)
    dtype = np.result_type(x, 0.5)
    rows = run_shape(x.shape)
    block = math.prod(rows[1:])
    framed = np.zeros(math.prod(rows) + 2 * block, dtype)
    interior(framed[block:-block], x.shape)[...] = x
    out = np.empty(math.prod(run_shape(shape)), dtype)
    return interior(Prolongation(framed, out, shape)(), shape).copy()
