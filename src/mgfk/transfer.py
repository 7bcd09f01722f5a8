"""Matrix-free grid transfers: full weighting and linear interpolation.

Fine and coarse grids have 2**k - 1 points per axis.  ``Restriction`` and
``Prolongation`` apply the 1-2-1 pair along every axis, axis 0 first,
between flat arrays holding the grids in the run layout of
``stencil.run_shape`` (rows of m + 1 cells, a zero pad cell after the
points), so a fine row is exactly two coarse rows long.  The axes before
the last run on row-block views with contiguous rows, into one
intermediate per axis; on the last axis, coarse cell q of a whole run sits
at 2q + 1 of the other, so each operation is one 1D stride-2 call.  The
restriction then fills the coarse pad cells with zeros; the prolongation
takes its edge values from zero cells, as (0 + x) * 0.5 (the zero rows
around the coarse run, the pad cells, one leading zero cell per
intermediate), and leaves zero pad cells.  Each builds its work once, as a
tuple ``calls`` of ``(ufunc, args)`` with the weights as 0-d arrays of the
output's dtype; a call runs that tuple, and the V-cycle splices it into
its own.  The prolongation is 2**ndim times the transpose of the
restriction.  ``restrict`` and ``prolong`` bind the pair to fresh buffers
for one call.
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


def _blocks(a: np.ndarray, rows: tuple, axis: int) -> np.ndarray:
    """The first cells of flat ``a`` as (outer, rows[axis], inner) blocks of ``rows``."""
    outer, inner = math.prod(rows[:axis]), math.prod(rows[axis + 1 :])
    return a[: outer * rows[axis] * inner].reshape(outer, rows[axis], inner)


class Restriction:
    """Full weighting along every axis: coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4,
    evaluated as ``2 x_odd``, ``+ x_lo``, ``+ x_hi``, ``* 0.25``.

    ``x`` is the run of the fine grid of ``shape``, ``out`` that of the coarse
    grid.
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
        for axis, mc in enumerate(coarse[:-1]):
            rows = run_shape(coarse[: axis + 1] + shape[axis + 1 :])
            src_rows = run_shape(coarse[:axis] + shape[axis:])
            dst = np.zeros(math.prod(rows) + 1, out.dtype)  # one cell more for the last axis's reads
            s, o = _blocks(src, src_rows, axis), _blocks(dst, rows, axis)
            lo, odd, hi = (s[:, i : i + 2 * mc - 1 : 2] for i in (0, 1, 2))
            calls += weigh(lo, odd, hi, o[:, :mc])
            src = dst
        calls += weigh(src[0:-1:2], src[1::2], src[2::2], out)  # coarse q from fine 2q + 1
        calls += [(pad.fill, (0.0,)) for pad in pads(out, coarse)]
        self.calls = tuple(calls)

    def __call__(self) -> np.ndarray:
        run_calls(self.calls)
        return self.out


class Prolongation:
    """Linear interpolation along every axis; in 1D the columns are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points copy the coarse value; in-between
    points take the average of their flanking coarse values, zero outside,
    so the two edge points take half of the edge coarse values.

    ``x`` is the run of the coarse grid with one zero row block (in 1D one
    zero cell) on either side, ``stencil.PaddedApply.framed``; ``out`` is
    the run of the fine grid of ``shape``.
    """

    def __init__(self, x: np.ndarray, out: np.ndarray, shape: tuple):
        self.out = out
        coarse = tuple(_coarse_size(m) for m in shape)
        half = np.array(0.5, out.dtype)

        calls, src = [], x
        for axis in range(len(shape) - 1):
            src_rows = run_shape(shape[:axis] + coarse[axis:])
            rows = run_shape(shape[: axis + 1] + coarse[axis + 1 :])
            # src starts one block early: axis 0's zero row, later axes' leading zeros
            n = src_rows[axis] + (axis == 0)  # on axis 0 the zero row after the run too
            lo_rows = src_rows[:axis] + (n,) + src_rows[axis + 1 :]
            inner = math.prod(rows[axis + 1 :])
            lo = _blocks(src, lo_rows, axis)
            hi = _blocks(src[inner:], lo_rows, axis)
            lead = math.prod(rows[axis + 2 :])  # the next axis's block: 1 before the last
            dst = np.zeros(lead + math.prod(rows), out.dtype)
            o = _blocks(dst[lead:], rows, axis)
            even, odd = o[:, 0::2], o[:, 1::2]
            calls += [
                (np.copyto, (odd, hi[:, : odd.shape[1]])),
                (np.add, (lo, hi, even)),
                (np.multiply, (even, half, even)),
            ]
            src = dst
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
    if x.ndim == 0:
        raise DimensionError("expected a grid, got a scalar")
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
