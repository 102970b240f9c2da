"""Zero-free cell rows for the DP and the incremental coverage sweep.

The solver needs, at sweep row i and for every position j <= i (positions
count queries in decreasing y), the total weight of ground points that lie
strictly above the i-th highest query and inside the closed quadrant of the
j-th highest query.  Cell weights make this incremental: moving the sweep
from row i to i+1 adds exactly the strip-i cells left of each query, which
is a prefix of strip i in column order.  The DP reads the grid itself
(``CellGrid.per_row``), each strip's nonzero cells as the grid summed them,
ints, so one advance costs time linear in the row index plus the row's
stored cells.  ``CellGrid.qx`` and ``CellGrid.total`` carry what the DP
engines derive from the grid, each computed once per solve on first use.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Sequence

from .cells import CellGrid


def build_row_sums(grid: CellGrid) -> CellGrid:
    """``grid`` without its zero-weight cells, which add nothing; a row that has none is kept as it is."""
    rows = tuple(row if all(w for _, w in row) else tuple([c for c in row if c[1]]) for row in grid.per_row)
    return replace(grid, per_row=rows)


class CoverageSweep:
    """Single-owner cursor over a grid's rows; restarting reproduces identical values.

    After advancing to row i, ``cov[j]`` equals the total weight of ground
    points strictly above the i-th highest query that the j-th highest query
    covers, for every j <= i; ``cov[i]`` itself is always 0.  Not safe to
    share mid-sweep between threads.
    """

    def __init__(self, grid: CellGrid, x_by_pos: Sequence):
        self.m = grid.m
        self.per_row = grid.per_row
        self.current = 1
        self.cov: list[int] = [0] * (self.m + 2)
        self._x_by_pos = x_by_pos
        self._pi = [1]
        self._xs = [x_by_pos[1]]

    def advance(self) -> None:
        """Move from row i to i+1 by adding strip i's cells in column order."""
        i = self.current
        if i > self.m:
            raise ValueError("cannot advance past the sentinel row")
        pi = self._pi
        pairs = self.per_row[i - 1]
        cov = self.cov
        ptr, cum, npairs = 0, 0, len(pairs)
        for s1, j in enumerate(pi, 1):
            while ptr < npairs and pairs[ptr][0] <= s1:
                cum += pairs[ptr][1]
                ptr += 1
            cov[j] += cum
        self.current = i + 1
        cov[i + 1] = 0
        if i + 1 <= self.m:
            x = self._x_by_pos[i + 1]
            s = bisect_left(self._xs, x)
            self._xs.insert(s, x)
            self._pi.insert(s, i + 1)
