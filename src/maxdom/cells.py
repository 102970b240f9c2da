"""Cell partition of the covered region and the representative compression.

The region covered by at least one query splits into axis-aligned cells:
horizontal strips between consecutive query y-values, each strip cut at the
x-values of the queries above it.  All points inside one cell are covered by
exactly the same set of queries, so for every pick set the cell's total
weight stands for all of its points: the nonzero cells are the compressed
ground set, with at most min(n, m^2) entries.  The grid keeps every
non-empty cell, zero-weight ones too, and the DP reads it as built.

``build_grid`` sums the points' int weights (``PointColumns.int_weights``)
over slices of the point columns by ``_sum_cells``, which each part of a
split solve also runs over its batches of parsed points, under one
staircase (``ranking.staircase``) sorted before the parts start, and which
refuses a batch holding a weight that is not an int;
``add_parts`` adds the parts' cell sums into the grid that ``build_grid``
gives the whole.  Both read the query columns and ids, and build no query
object.  A cell is named by its strip and by the rank x (``CellGrid.qx``,
as in ``rank_transform``) of the query at its right edge, the leftmost
query above the strip that covers it, so an instance gridded in its own
coordinates and its rank-normalized form give the same cells and sums.
``compress`` places one point inside each nonzero cell, in rank coordinates
read off the cell's name and strip alone, for the rank-normalized instance;
no solve calls it, and acceptance criteria 2 and 3 hold the compression to
its weights and its size.
``_sum_cells`` names a cell by one walk up the strips over a union-find
(``_root``) of the rank x's of the queries still above the strip: a query
leaves it once the walk has climbed past the query's y-value.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, mul
from typing import NamedTuple, Sequence

from .model import Instance, QueryColumns, WeightedPoint, _all_ints, exact
from .ranking import staircase

_SLICE = 4096  # points ``build_grid`` keys at a time: bounds its memory whatever n is


class CellKey(NamedTuple):
    row: int  # strip index: between the row-th and (row+1)-th highest query
    col: int  # the rank x of the query at the cell's right edge (``CellGrid.qx``)


@dataclass(frozen=True)
class CellGrid:
    """Per-strip weight totals of the non-empty cells, zero-weight ones included.

    The one stored form of the cells, and the DP's input as built: the DP
    reads ``per_row``, ``qx`` and ``total``, and a zero-weight cell adds
    nothing to it.
    """

    per_row: tuple[tuple[tuple[int, int], ...], ...]  # per_row[i-1]: strip i's (col, weight), col-sorted; m strips
    retained: int = 0  # ground points summed into the cells
    scale: int = 1  # a cell holds its points' weights summed times this (``PointColumns.int_weights``)
    # The query ids by staircase position, strip i below stair[i - 1], and
    # their rank x's (``ranking.staircase``): found once for the whole solve,
    # not part of the cells.
    stair: Sequence[int] = field(default=(), compare=False, repr=False)
    qx: Sequence[int] = field(default=(), compare=False, repr=False)

    @property
    def cells(self) -> dict[CellKey, int]:
        """``{CellKey(row, col): weight}`` of the stored cells, built from ``per_row`` on each access."""
        return {CellKey(i, col): w for i, row in enumerate(self.per_row, 1) for col, w in row}

    # Computed on first use and kept for the rest of the solve; not a field, so not compared.
    @cached_property
    def total(self) -> int:
        """The sum of the cells' absolute weights, which bounds the tree's fields."""
        return sum(abs(w) for row in self.per_row for _, w in row)


@dataclass(frozen=True)
class CompressedP:
    """One representative point per non-empty cell with nonzero total weight."""

    points: tuple[WeightedPoint, ...]


def _root(parent: list, t: int) -> int:
    """The first index that ``parent`` maps to itself on the way from ``t``, each step halving the path.

    ``parent`` is a "next alive" union-find (Tarjan, JACM 1975): an index
    maps to itself while its query is above the strip, and to a neighbour
    once the query has left, so the root is the nearest query still above.
    """
    while parent[t] != t:
        parent[t] = t = parent[parent[t]]
    return t


def _sum_cells(Q: QueryColumns, qx, batches) -> tuple[tuple, int, int]:
    """``(per_row, retained, count)`` of ``(xs, ys, ws)`` batches of int-weight points under the queries ``Q``.

    ``qx`` is their staircase's rank x's (``ranking.staircase``) and
    ``count`` how many points the batches hold.  A batch whose weights are
    not all ints (``model._all_ints``, ``PointColumns.int_weights``' rule
    for scale 1) raises ``ValueError`` before any of its keys is summed, so
    every sum is at scale 1, as ``add_parts`` adds a split solve's parts.
    Each point is keyed by its strip, the number of query y-values below
    it, and its x-slot r, the number of query x-values left of it:
    ``strip * (m + 1) + r``, two C-level bisect maps a batch.  Only each
    key's weight sum and point count are kept, O(min(n, m^2)) entries however
    many points there are; int sums do not depend on the order of the points.
    At the end the keys are walked strip by strip from the bottom up, strip
    0 first, with ``after`` holding one index per rank x 2, 4, ..., 2m and
    the sentinel 2m + 2.  Every query starts above the strip; before a
    strip's keys are read, the queries below the strip leave, each linking
    its index to the next one up.  The r queries left of a point hold the
    rank x's 2..2r, so the cell's name is the nearest rank x above 2r + 1
    still above the strip, ``_root`` of index r; a root at the sentinel
    means no query above the strip covers the point.  A strip costs one
    link per leaving query and its keys' ``_root`` steps, not a pass over
    the queries above it.  All the keys are walked as one ascending run:
    within a strip a rising r never meets a lower root, so a cell's keys
    are adjacent, each cell's sum is closed when the name changes, and the
    strip's row comes out sorted, with no per-strip dict or sort.
    """
    m = len(Q)
    ys_asc, xs_asc = sorted(Q.ys), sorted(Q.xs)
    width = m + 1
    sums: dict[int, int] = {}
    get = sums.get
    counts: Counter = Counter()
    for xs, ys, ws in batches:
        if not _all_ints(ws):
            raise ValueError("a point weight that is not an int")
        strips = map(bisect_left, repeat(ys_asc), ys)
        keys = list(map(add, map(mul, strips, repeat(width)), map(bisect_left, repeat(xs_asc), xs)))
        counts.update(keys)
        for key, w in zip(keys, ws):
            sums[key] = get(key, 0) + w
    per_row: list[tuple[tuple[int, int], ...]] = [()] * m
    retained = 0
    after = list(range(width))  # after[j]: j if the query of rank x 2j + 2 is above the strip, else a later index
    row = m  # the strip's staircase position: strip s lies below the query at position m - s
    stop = 0  # the first key past the strip
    cols: list[int] = []  # the strip's cells so far, names rising, and their sums
    cell_sums: list[int] = []
    last = -1  # the index of the strip's last cell, -1 before its first
    for key in sorted(sums):
        if key >= stop:  # the first key of a higher strip
            if cols:
                per_row[row - 1] = _pairs(cols, cell_sums)
                cols, cell_sums, last = [], [], -1
            strip = key // width
            stop = strip * width + width
            for x in qx[m - strip + 1 : row + 1]:
                after[x // 2 - 1] = x // 2
            row = m - strip
        j = _root(after, key % width)
        if j < m:  # else right of every query above the strip: uncovered
            if j == last:
                cell_sums[-1] += sums[key]
            else:
                last = j
                cols.append(2 * j + 2)
                cell_sums.append(sums[key])
            retained += counts[key]
    if cols:
        per_row[row - 1] = _pairs(cols, cell_sums)
    return tuple(per_row), retained, counts.total()


def _pairs(cols: list[int], cell_sums: list[int]) -> tuple[tuple[int, int], ...]:
    """``tuple(zip(cols, cell_sums))``, built from a list of its exact size.

    A tuple built from the ``zip`` itself is grown and then cut to size,
    and CPython's tuple free lists then keep more and more blocks from one
    grid to the next: 0.3 MB more peak memory over m-heavy's ten solves.
    """
    return tuple(list(zip(cols, cell_sums)))


def build_grid(inst: Instance) -> CellGrid:
    """Sum ``inst.P.int_weights()`` per cell, ``_SLICE`` points at a time, skipping uncovered points.

    The cells and their sums are those of ``inst``'s ranked form, whichever
    coordinates it is given in.
    """
    ws, scale = inst.P.int_weights()
    stair, qx = staircase(inst.Q)
    batches = ([col[i : i + _SLICE] for col in (inst.P.xs, inst.P.ys, ws)] for i in range(0, inst.n, _SLICE))
    per_row, retained, _count = _sum_cells(inst.Q, qx, batches)
    return CellGrid(per_row, retained, scale, stair, qx)


def add_parts(stair, qx, parts) -> CellGrid:
    """The grid under the staircase ``stair`` and ``qx`` of a ground set in parts, from each part's ``_sum_cells``.

    ``parts`` holds ``_sum_cells(Q, qx, ...)`` over each part of the
    int-weight points, ``(stair, qx)`` being ``staircase(Q)``; the result
    equals ``build_grid`` of all of them.
    """
    per_row = []
    for rows in zip(*(part_rows for part_rows, _, _ in parts)):
        sums: dict[int, int] = {}
        get = sums.get
        for row in rows:
            for col, w in row:
                sums[col] = get(col, 0) + w
        per_row.append(tuple(sorted(sums.items())))
    retained = sum(part_retained for _, part_retained, _ in parts)
    return CellGrid(tuple(per_row), retained, stair=stair, qx=qx)


def compress(grid: CellGrid, rinst: Instance) -> CompressedP:
    """Replace each nonzero-weight cell by one interior representative point.

    The representative of cell ``(i, col)`` sits at ``(col - 1, 2 (m - i) + 1)``
    in the rank coordinates of the rank-normalized ``rinst``: strip i lies
    between the y's 2 (m - i) and 2 (m - i + 1) of the queries at staircase
    positions i + 1 and i, and the cell's left edge, 0 or the rank x of a
    query above the strip left of ``col``, is even and so at most
    ``col - 2``.  So the point is covered by exactly the queries that cover
    the cell, and carries the cell's total divided by the grid's scale
    (``model.exact``): for every subset of queries, the covered
    representatives carry exactly the weight of the covered original points.
    """
    m = rinst.m
    points = (
        WeightedPoint(col - 1, 2 * (m - i) + 1, exact(w, grid.scale))
        for i, row in enumerate(grid.per_row, 1)
        for col, w in row
        if w
    )
    return CompressedP(tuple(points))
