"""The incremental coverage sweep over the grid's cell rows.

The solver needs, at sweep row i and for every position j <= i (positions
count queries in decreasing y), the total weight of ground points that lie
strictly above the i-th highest query and inside the closed quadrant of the
j-th highest query.  Cell weights make this incremental: moving the sweep
from row i to i+1 adds, for each query, the strip-i cells named at or left
of its rank x (``cells.CellKey``), a prefix of strip i in name order.  The
sweep keeps the positions reached so far in rank-x order (``by_x``), one
insort per advance, and the DP scans a prefix of that same list.  It reads
the grid as built (``CellGrid.per_row``), each strip's cells as the grid
summed them, ints, zero-weight ones adding nothing, so one advance costs
time linear in the row index plus the row's stored cells.  The grid also
stores the rank x's (``CellGrid.qx``) and caches the cells' absolute total
(``CellGrid.total``).  ``build_row_sums``, a zero filter over the rows, is
on no solve path.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import replace
from operator import itemgetter
from typing import Sequence

from .cells import CellGrid


def build_row_sums(grid: CellGrid) -> CellGrid:
    """``grid`` without its zero-weight cells, which add nothing; a row that has none is kept as it is."""
    weight = itemgetter(1)
    rows = tuple(row if all(map(weight, row)) else tuple(filter(weight, row)) for row in grid.per_row)
    return replace(grid, per_row=rows)


class CoverageSweep:
    """Single-owner cursor over a grid's rows; restarting reproduces identical values.

    After advancing to row i, ``cov[j]`` equals the total weight of ground
    points strictly above the i-th highest query that the j-th highest query
    covers, for every j <= i; ``cov[i]`` itself is always 0, since no cell
    is added to a position before it is reached.  ``by_x`` holds a
    ``(rank x, position)`` pair for each position 1..min(i, m), ascending.
    ``x_by_pos[j]`` must be position j's rank x, as ``CellGrid.qx`` or a
    rank-normalized instance gives it, so no two pairs tie on x.  Not safe
    to share mid-sweep between threads.
    """

    def __init__(self, grid: CellGrid, x_by_pos: Sequence):
        self.m = len(grid.per_row)
        self.per_row = grid.per_row
        self.current = 1
        self.cov: list[int] = [0] * (self.m + 2)
        self._x_by_pos = x_by_pos
        self.by_x = [(x_by_pos[1], 1)]

    def advance(self) -> None:
        """Move from row i to i+1 by adding strip i's cells in name order."""
        i = self.current
        if i > self.m:
            raise ValueError("cannot advance past the sentinel row")
        pairs = self.per_row[i - 1]
        cov = self.cov
        ptr, cum, npairs = 0, 0, len(pairs)
        for x, j in self.by_x:  # queries by rank x, each covering the cells named up to it
            while ptr < npairs and pairs[ptr][0] <= x:
                cum += pairs[ptr][1]
                ptr += 1
            cov[j] += cum
        self.current = i + 1
        if i < self.m:
            insort(self.by_x, (self._x_by_pos[i + 1], i + 1))
