"""Matrix-free grid transfers: full weighting and linear interpolation.

Grids are 1D or 2D, with 2**k - 1 points per axis.  ``restriction`` and
``prolongation`` apply the 1-2-1 pair on each axis between flat arrays
holding the grids in the run layout of ``stencil.run_shape`` (in 2D rows
of n + 1 cells, a zero pad cell after the points), so a fine row is
exactly two coarse rows long.  Each returns one ``stencil.Kernel`` per
axis, which the V-cycle splices into its tape; the weights, 2 and 1/4 or
1/2, are fixed in the kernels' kinds, in ``stencil.run_numpy`` and in the
executor alike.  In 2D a row pass first combines whole rows, on
(rows, n + 1) views with contiguous rows, into an intermediate: zeros of
the length ``intermediates`` gives, which the caller passes in (a
V-cycle's are carved from its plane's arena, ``multigrid._plane``); then, as
in 1D, coarse cell q of a whole run sits at 2q + 1 of the other, so the
last-axis pass is one 1-D stride-2 pass: a kernel of single-element rows,
which the executor runs as one flat loop over the elements.  The
restriction then fills the coarse pad cells with zeros; the prolongation
takes its edge values from zero cells, as (0 + x) * 0.5 (the zero rows
around the coarse run, the pad cells, the intermediate's leading zero
cell), and leaves zero pad cells.
The prolongation is 2**ndim times the transpose of the restriction.
``restrict`` and ``prolong`` bind the pair to fresh buffers for one call,
its intermediate among them, and run it through ``stencil.run_numpy``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, GridSizeError
from .stencil import PROLONG, RESTRICT, Kernel, grid_depth, interior, pad_period, run_numpy, run_shape


def _coarse_size(m_fine: int) -> int:
    if grid_depth(m_fine) < 2:
        raise GridSizeError(f"fine grid size {m_fine} has no coarser level")
    return (m_fine - 1) // 2


def intermediates(shape: tuple) -> tuple:
    """The lengths of the intermediates of the 2D row passes of
    ``restriction`` and ``prolongation`` of a fine grid of ``shape``, in
    that order; a 1D grid's passes take none (``()``)."""
    if len(shape) == 1:
        return ()
    (m, n), (mc, nc) = shape, (_coarse_size(k) for k in shape)
    return mc * (n + 1) + 1, 1 + m * (nc + 1)


def restriction(x: np.ndarray, out: np.ndarray, shape: tuple, tmp: np.ndarray | None) -> tuple:
    """The kernels of full weighting on each axis,
    coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4, evaluated as
    ``2 x_odd``, ``+ x_lo``, ``+ x_hi``, ``* 0.25``.

    ``x`` is the run of the fine grid of ``shape``, ``out`` that of the coarse
    grid.  In 2D the row pass weighs the fine rows into ``tmp``, zeros of
    the first length of ``intermediates``: coarse rows, and one cell more
    for the last-axis pass's reads.  In 1D ``tmp`` is ``None``.
    """
    coarse = tuple(_coarse_size(m) for m in shape)
    kernels, src = (), x
    if len(shape) == 2:  # row q from fine rows 2q, 2q + 1, 2q + 2
        (m, n), mc, src = shape, coarse[0], tmp
        kernels = (Kernel(RESTRICT, tmp[:-1].reshape(mc, n + 1), x.reshape(m, n + 1)),)
    # coarse q from fine 2q + 1
    return kernels + (Kernel(RESTRICT, out, src, pad=pad_period(coarse)),)


def prolongation(x: np.ndarray, out: np.ndarray, shape: tuple, tmp: np.ndarray | None) -> tuple:
    """The kernels of linear interpolation on each axis; in 1D the columns
    are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points copy the coarse value; in-between
    points take the average of their flanking coarse values, zero outside,
    so the two edge points take half of the edge coarse values.

    ``x`` is the run of the coarse grid with one zero row (in 1D one zero
    cell) on either side, ``multigrid.LevelWork.framed``; ``out`` is the run
    of the fine grid of ``shape``.  In 2D the row pass interpolates the
    coarse rows into ``tmp``, zeros of the second length of
    ``intermediates``: fine rows after one leading zero cell, which the
    last-axis pass reads as the first point's neighbour.  In 1D ``tmp`` is
    ``None``.
    """
    kernels, src = (), x
    if len(shape) == 2:  # row 2q + 1 is coarse row q + 1 of x, row 2q the mean of rows q, q + 1
        m, (mc, nc), src = shape[0], (_coarse_size(k) for k in shape), tmp
        kernels = (Kernel(PROLONG, tmp[1:].reshape(m, nc + 1), x.reshape(mc + 2, nc + 1)),)
    return kernels + (Kernel(PROLONG, out, src),)  # fine 2q + 1 from coarse q


def _intermediate(shape: tuple, which: int, dtype) -> np.ndarray | None:
    """A new zeroed intermediate of the restriction (``which`` 0) or the
    prolongation (1) of a fine grid of ``shape``; ``None`` in 1D."""
    lengths = intermediates(shape)
    return np.zeros(lengths[which], dtype) if lengths else None


def _grid(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise DimensionError(f"expected a 1D or 2D grid, got shape {x.shape}")
    return x


def restrict(x: np.ndarray) -> np.ndarray:
    """``restriction`` of ``x`` into a new array."""
    x = _grid(x)
    coarse = tuple(_coarse_size(m) for m in x.shape)
    dtype = np.result_type(x, 0.25)
    fine = np.zeros(math.prod(run_shape(x.shape)), dtype)
    interior(fine, x.shape)[...] = x
    out = np.empty(math.prod(run_shape(coarse)), dtype)
    run_numpy(restriction(fine, out, x.shape, _intermediate(x.shape, 0, dtype)))
    return interior(out, coarse).copy()


def prolong(x: np.ndarray) -> np.ndarray:
    """``prolongation`` of ``x`` into a new array."""
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
    run_numpy(prolongation(framed, out, shape, _intermediate(shape, 1, dtype)))
    return interior(out, shape).copy()
