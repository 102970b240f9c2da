"""Per-strip cell weights and the incremental coverage sweep.

The solver needs, at sweep row i and for every position j <= i (positions
count queries in decreasing y), the total weight of ground points that lie
strictly above the i-th highest query and inside the closed quadrant of the
j-th highest query.  Cell weights make this incremental: moving the sweep
from row i to i+1 adds exactly the strip-i cells left of each query, which
is a prefix of strip i in column order.  Rows store each strip's nonzero
cells as the grid summed them, ints, so one advance costs time linear in
the row index plus the row's stored cells.  The rows also carry the grid's
scale and what the DP engines derive from them, each computed once per solve
on first use: the queries' x-ranks and the cells' absolute total.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .cells import CellGrid
from .model import QueryPoint
from .ranking import _axis_transform


@dataclass(frozen=True)
class RowSums:
    """rows[i-1] holds strip i's nonzero cells as (col, weight) pairs, in column order."""

    m: int
    rows: tuple[tuple[tuple[int, int], ...], ...]
    stair: tuple[QueryPoint, ...] = field(default=(), compare=False, repr=False)  # ``CellGrid.stair``
    scale: int = 1  # ``CellGrid.scale``

    # What the DP engines derive from the staircase and the rows, computed on
    # first use and kept for the rest of the solve; not fields, so not compared.
    @cached_property
    def qx(self) -> list[int]:
        """``[0, x_1, ..., x_m, x_sentinel]``: x-ranks by staircase position.

        Queries are ranked by ``(x, id)`` as in the rank transform; the
        sentinel at position m + 1 lies right of all of them.
        """
        stair = self.stair
        ranks, _ = _axis_transform([q.x for q in stair], [q.id for q in stair], ())
        return [0, *ranks, 2 * len(stair) + 2]

    @cached_property
    def total(self) -> int:
        """The sum of the cells' absolute weights, which bounds the tree's fields."""
        return sum(abs(w) for strip in self.rows for _, w in strip)


def build_row_sums(grid: CellGrid) -> RowSums:
    """Each strip's cells as the grid summed them; zero-weight cells add nothing and are not stored."""
    rows = tuple(tuple([cell for cell in items if cell[1] != 0]) for items in grid.per_row)
    return RowSums(grid.m, rows, grid.stair, grid.scale)


class CoverageSweep:
    """Single-owner cursor over rows; restarting reproduces identical values.

    After advancing to row i, ``cov[j]`` equals the total weight of ground
    points strictly above the i-th highest query that the j-th highest query
    covers, for every j <= i; ``cov[i]`` itself is always 0.  Not safe to
    share mid-sweep between threads.
    """

    def __init__(self, row_sums: RowSums, x_by_pos: Sequence):
        self.m = row_sums.m
        self.row_sums = row_sums
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
        pairs = self.row_sums.rows[i - 1]
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
