"""Matrix-free grid transfers: full weighting and linear interpolation.

Grids are 1D or 2D, with 2**k - 1 points per axis.  ``restriction`` and
``prolongation`` apply the 1-2-1 pair on each axis between flat arrays
holding the grids in the run layout of ``stencil.run_shape``, rows of one
part or two (``multigrid.LevelWork``), each part n points and a zero pad
cell.  Part p's fine pad cell, 2(p(nc + 1) + nc) + 1 in its row, lies on
coarse part p's, so a fine row is two coarse rows long, and what crosses
from one part into the next lands on pad cells only.  Each returns one
``executor.Kernel``, which the V-cycle splices into its tape; the weights,
2 and 1/4 or 1/2, are fixed in the kernels' kinds.  Along a row coarse
cell q sits at 2q + 1 of the fine one, so a 1D transfer is one stride-2
pass, one flat loop over the elements.  A 2D transfer is one kernel over the rows of its output: per
output row it first combines whole rows of its input into a row buffer
(``row_buffer`` cells, carved from the tape's arena), then runs that pass
along the row from the buffer; no grid between the two passes is stored.
The restriction skips the last cell of each row and fills the coarse pad
cells with zeros; the prolongation adds the interpolant onto its output,
the fine iterate of a V-cycle, and takes its edge values from zero cells,
as (0 + x) * 0.5 (the frame around the coarse run, the pad cells, the
buffer's zero cell before the first row), so the pad cells stay zero.
The prolongation is 2**ndim times the transpose of the restriction.
"""

from __future__ import annotations

import numpy as np

from .errors import GridSizeError
from .executor import PROLONG, RESTRICT, Kernel
from .stencil import grid_depth, pad_period


def _coarse_size(m_fine: int) -> int:
    if grid_depth(m_fine) < 2:
        raise GridSizeError(f"fine grid size {m_fine} has no coarser level")
    return (m_fine - 1) // 2


def row_buffer(shape: tuple, parts: int) -> int:
    """The length of the row buffer of the 2D transfers of a fine grid of
    ``shape`` in rows of ``parts`` parts, a fine row but its last cell, at
    least a coarse row and one cell; 0 for a 1D grid, whose transfers take none."""
    return parts * (shape[-1] + 1) - 1 if len(shape) == 2 else 0


def restriction(x: np.ndarray, out: np.ndarray, shape: tuple, row: np.ndarray | None) -> Kernel:
    """The kernel of full weighting on each axis,
    coarse_i = (x_{2i-1} + 2 x_{2i} + x_{2i+1}) / 4, evaluated as
    ``2 x_odd``, ``+ x_lo``, ``+ x_hi``, ``* 0.25``.

    ``x`` is the run of the fine grid of ``shape``, ``out`` that of the coarse
    grid, in rows of as many parts.  In 2D each coarse row q weighs fine
    rows 2q, 2q + 1, 2q + 2 into ``row``, an array of ``row_buffer`` cells;
    in 1D ``row`` is ``None``.
    """
    coarse = tuple(_coarse_size(m) for m in shape)
    if len(shape) == 2:
        x, out = x.reshape(shape[0], -1), out.reshape(coarse[0], -1)
    return Kernel(RESTRICT, out, x, row, pad=pad_period(coarse))


def prolongation(x: np.ndarray, out: np.ndarray, shape: tuple, row: np.ndarray | None) -> Kernel:
    """The kernel of linear interpolation on each axis, added onto ``out``;
    in 1D the columns are (1/2) * [1, 2, 1]^T.

    Fine points sitting on coarse points take the coarse value; in-between
    points take the average of their flanking coarse values, zero outside,
    so the two edge points take half of the edge coarse values.

    ``x`` is the run of the coarse grid with one zero row (in 1D one zero
    cell) on either side, ``multigrid.LevelWork.framed``; ``out`` is the run
    of the fine grid of ``shape``, in rows of as many parts.  In 2D fine
    row 2q + 1 takes coarse row q + 1 of ``x`` and row 2q the mean of rows q
    and q + 1, formed in ``row``, an array of ``row_buffer`` cells, after
    one cell that holds the last cell of the row before (zero before the
    first), the first point's neighbour; in 1D ``row`` is ``None``.
    """
    if len(shape) == 2:
        x, out = x.reshape(_coarse_size(shape[0]) + 2, -1), out.reshape(shape[0], -1)
    return Kernel(PROLONG, out, x, row)
