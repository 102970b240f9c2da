"""Cell partition of the covered region and the representative compression.

The region covered by at least one query splits into axis-aligned cells:
horizontal strips between consecutive query y-values, each strip cut at the
x-values of the queries above it.  All points inside one cell are covered by
exactly the same set of queries, so for every pick set the cell's total
weight stands for all of its points: the non-empty cells are the compressed
ground set, with at most min(n, m^2) entries.

``build_grid`` sums the points' int weights (``PointColumns.int_weights``)
over slices of the point columns, and ``sum_batches`` over batches of parsed
points that are not kept; both run ``_sum_cells``.  An instance gridded in
its own coordinates and its rank-normalized form give the same cells and
sums, since a point's key counts the queries strictly below or left of it,
which the rank transform preserves.  ``cell_boxes`` and ``compress`` read
cell corners off the query coordinates, so they take a rank-normalized
instance; they serve ``maxdom compress`` and rendering.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import add, mul
from typing import NamedTuple

from .model import Instance, QueryPoint, WeightedPoint, exact
from .ranking import y_sorted_queries

_SLICE = 4096  # points ``build_grid`` keys at a time: bounds its memory whatever n is


class CellKey(NamedTuple):
    row: int  # strip index: between the row-th and (row+1)-th highest query
    col: int  # x-slot among the queries above the strip, leftmost slot first


@dataclass(frozen=True)
class CellGrid:
    """Sparse per-cell weight totals; zero-weight non-empty cells are kept."""

    m: int
    cells: dict[CellKey, int]
    per_row: tuple[tuple[tuple[int, int], ...], ...]  # per_row[i-1]: (col, weight), col-sorted
    retained: int = 0  # ground points summed into the cells
    scale: int = 1  # a cell holds its points' weights summed times this (``PointColumns.int_weights``)
    # The queries by staircase position (``y_sorted_queries``), in the gridded
    # instance's own coordinates; strip i lies below stair[i - 1].  Sorted once
    # here for the whole solve.  Not part of the cells, so not compared.
    stair: tuple[QueryPoint, ...] = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class CompressedP:
    """One representative point per non-empty cell with nonzero total weight."""

    points: tuple[WeightedPoint, ...]
    provenance: tuple[CellKey, ...]


def _merge_into(prefix: list, new) -> None:
    """Merge the values of ``new`` into the sorted list ``prefix``, in place.

    A few values are inserted one at a time; more are appended and sorted,
    which timsort does as one merge of the sorted run with the sorted tail.
    Either way a call moves O(len(prefix)) entries, however many values it
    merges, instead of one shift of the list per value.
    """
    if len(new) <= 8:
        for x in new:
            insort(prefix, x)
    else:
        prefix += new
        prefix.sort()


def _sum_cells(stair, batches) -> tuple[tuple, int, int]:
    """``(per_row, retained, count)`` of ``(xs, ys, ws)`` batches of int-weight points under ``stair``.

    ``count`` is how many points the batches hold.  Each point is keyed by
    its strip, the number of query y-values below it, and its x-rank, the
    number of query x-values left of it: ``strip * (m + 1) + xrank``, two
    C-level bisect maps a batch.  Only each key's weight sum and point count
    are kept, O(min(n, m^2)) entries however many points there are; int sums
    do not depend on the order of the points.  At the end the keys are walked
    strip by strip: a query lies left of a point exactly when its own x-rank
    is below the point's, so a key's slot is a bisect of the x-ranks of the
    queries above the strip, brought up to date only at strips with keys.
    """
    m = len(stair)
    ys_asc = [q.y for q in reversed(stair)]
    xs_asc = sorted(q.x for q in stair)
    width = m + 1
    sums: dict[int, int] = {}
    get = sums.get
    counts: Counter = Counter()
    for xs, ys, ws in batches:
        strips = map(bisect_left, repeat(ys_asc), ys)
        keys = list(map(add, map(mul, strips, repeat(width)), map(bisect_left, repeat(xs_asc), xs)))
        counts.update(keys)
        for key, w in zip(keys, ws):
            sums[key] = get(key, 0) + w
    stair_ranks = [bisect_left(xs_asc, q.x) for q in stair]
    per_row: list[tuple[tuple[int, int], ...]] = [()] * m
    retained = 0
    prefix: list = []  # x-ranks of the ``done`` highest queries, sorted
    done = 0
    for strip, keys in groupby(sorted(sums, reverse=True), key=lambda key: key // width):
        row = m - strip
        _merge_into(prefix, stair_ranks[done:row])
        done = row
        cells: dict[int, int] = {}
        for key in keys:
            slot = bisect_left(prefix, key % width)
            if slot < row:  # else right of every query above the strip: uncovered
                cells[slot + 1] = cells.get(slot + 1, 0) + sums[key]
                retained += counts[key]
        if cells:
            per_row[row - 1] = tuple(sorted(cells.items()))
    return tuple(per_row), retained, counts.total()


def _grid(per_row, retained: int, stair, scale: int = 1) -> CellGrid:
    """The ``CellGrid`` of the per-strip cells ``per_row`` under the staircase ``stair``."""
    cells = {CellKey(i, col): w for i, row in enumerate(per_row, 1) for col, w in row}
    return CellGrid(len(stair), cells, tuple(per_row), retained, scale, stair)


def build_grid(inst: Instance) -> CellGrid:
    """Sum ``inst.P.int_weights()`` per cell, ``_SLICE`` points at a time, skipping uncovered points.

    The cells and their sums are those of ``inst``'s ranked form, whichever
    coordinates it is given in.
    """
    stair = y_sorted_queries(inst)
    ws, scale = inst.P.int_weights()
    cols = (inst.P.xs, inst.P.ys, ws)
    batches = ([col[i : i + _SLICE] for col in cols] for i in range(0, inst.n, _SLICE))
    per_row, retained, _count = _sum_cells(stair, batches)
    return _grid(per_row, retained, stair, scale)


def sum_batches(queries: Instance, batches) -> tuple[tuple, int, int]:
    """``(per_row, retained, count)`` of ``build_grid`` over ``(xs, ys, ws)`` int-weight batches, not kept."""
    return _sum_cells(y_sorted_queries(queries), batches)


def add_parts(inst: Instance, parts) -> CellGrid:
    """The grid of ``inst``'s queries over a ground set in parts, from each part's ``(per_row, retained)``.

    ``parts`` holds those two fields of ``sum_batches`` over each part of
    the int-weight points; the result equals ``build_grid`` of all of them.
    """
    per_row = []
    for rows in zip(*(part_rows for part_rows, _ in parts)):
        sums: dict[int, int] = {}
        get = sums.get
        for row in rows:
            for col, w in row:
                sums[col] = get(col, 0) + w
        per_row.append(tuple(sorted(sums.items())))
    retained = sum(part_retained for _, part_retained in parts)
    return _grid(per_row, retained, y_sorted_queries(inst))


def cell_boxes(grid: CellGrid, rinst: Instance) -> dict[CellKey, tuple]:
    """``(x_lo, y_lo, x_hi, y_hi)`` for every non-empty cell of a rank-normalized instance."""
    qs = y_sorted_queries(rinst)
    boxes: dict[CellKey, tuple] = {}
    xs_prefix: list = []  # x-values of the ``done`` highest queries, sorted
    done = 0
    for i in range(1, grid.m + 1):
        row = grid.per_row[i - 1]
        if not row:
            continue
        _merge_into(xs_prefix, [q.x for q in qs[done:i]])
        done = i
        y_hi = qs[i - 1].y
        y_lo = qs[i].y if i < grid.m else 0
        for col, _w in row:
            x_lo = xs_prefix[col - 2] if col >= 2 else 0
            boxes[CellKey(i, col)] = (x_lo, y_lo, xs_prefix[col - 1], y_hi)
    return boxes


def compress(grid: CellGrid, rinst: Instance) -> CompressedP:
    """Replace each nonzero-weight cell by one interior representative point.

    Representatives sit one unit up-right of the cell's lower-left corner, so
    they keep odd coordinates and are covered by exactly the queries that
    cover the cell, and carry the cell's total divided by the grid's scale
    (``model.exact``): for every subset of queries, the covered
    representatives carry exactly the weight of the covered original points.
    """
    boxes = cell_boxes(grid, rinst)
    points: list[WeightedPoint] = []
    provenance: list[CellKey] = []
    for key in sorted(boxes):
        w = grid.cells[key]
        if w == 0:
            continue
        x_lo, y_lo, _x_hi, _y_hi = boxes[key]
        points.append(WeightedPoint(x_lo + 1, y_lo + 1, exact(w, grid.scale)))
        provenance.append(key)
    return CompressedP(tuple(points), tuple(provenance))
