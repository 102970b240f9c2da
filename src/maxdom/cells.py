"""Cell partition of the covered region and the representative compression.

The region covered by at least one query splits into axis-aligned cells:
horizontal strips between consecutive query y-values, each strip cut at the
x-values of the queries above it.  All points inside one cell are covered by
exactly the same set of queries, so for every pick set the cell's total
weight stands for all of its points: the non-empty cells are the compressed
ground set, with at most min(n, m^2) entries.

``build_grid`` sums the cells over slices of the point columns and
``sum_batches`` over batches of parsed points that are not kept; both run
``_sum_cells``, which adds each cell's weights in input order.  An instance
gridded in its own coordinates, as the solve path does, and its
rank-normalized form, as the reference path grids, give the same cells and
sums, float ones too, since a point's key counts the queries strictly below
or left of it, which the rank transform preserves.  ``cell_boxes`` and
``compress`` read cell corners off the query coordinates, so they take a
rank-normalized instance; they serve ``maxdom compress`` and rendering.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import add, mul
from typing import NamedTuple

from .model import Instance, QueryPoint, WeightedPoint
from .ranking import y_sorted_queries

_SLICE = 4096  # points ``build_grid`` keys at a time: bounds its memory whatever n is


class CellKey(NamedTuple):
    row: int  # strip index: between the row-th and (row+1)-th highest query
    col: int  # x-slot among the queries above the strip, leftmost slot first


@dataclass(frozen=True)
class CellGrid:
    """Sparse per-cell weight totals; zero-weight non-empty cells are kept."""

    m: int
    cells: dict[CellKey, float]
    per_row: tuple[tuple[tuple[int, float], ...], ...]  # per_row[i-1]: (col, weight), col-sorted
    retained: int = 0  # ground points summed into the cells
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


def _find_cells(keys, ranks: list, blocks: list, cell_of: dict) -> None:
    """Set ``cell_of[key]`` for each of ``keys`` to its cell's ``row * (m + 1) + col``, or 0 if uncovered.

    Key ``strip * (m + 1) + xrank`` (``_sum_cells``) lies in row
    ``m - strip``, and its slot counts the ``row`` highest queries whose
    x-rank (``ranks``, in staircase order) is below ``xrank``: those left of
    the point, all ``row`` of them where it is uncovered.  The count adds up
    bisects of at most log2(m) + 1 blocks of a Fenwick tree, ``blocks[i]``
    being ``ranks[i - (i & -i) : i]`` sorted, made at its first use and kept
    for later calls: O(log^2 m) a key however tall the staircase, and
    O(m log m) values in all.
    """
    width = len(ranks) + 1
    for key in keys:
        strip, xrank = divmod(key, width)
        row = i = width - 1 - strip
        slot = 0
        while i:
            block = blocks[i]
            if block is None:
                block = blocks[i] = sorted(ranks[i - (i & -i) : i])
            slot += bisect_left(block, xrank)
            i &= i - 1
        cell_of[key] = row * width + slot + 1 if slot < row else 0


def _sum_cells(stair, batches) -> tuple[tuple, int, int]:
    """``(per_row, retained, count)`` of the ``(xs, ys, ws)`` point batches under the staircase ``stair``.

    ``count`` is how many points the batches hold.  A point's key is
    ``strip * (m + 1) + xrank``, the query y-values below it and x-values
    left of it, in two C-level bisect maps a batch.  The keys a batch is the
    first to hold are mapped to their cells (``_find_cells``), and each
    point's weight is added to its cell's sum in input order, so that a
    float sum is that of its points in file order.  Only O(min(n, m^2)) keys
    and cells are held, however many points there are.
    """
    width = len(stair) + 1
    ys_asc = [q.y for q in reversed(stair)]
    xs_asc = sorted(q.x for q in stair)
    ranks = [bisect_left(xs_asc, q.x) for q in stair]
    blocks: list = [None] * width
    cell_of: dict[int, int] = {}
    sums: dict[int, float] = {}
    get = sums.get
    count = uncovered = 0
    for xs, ys, ws in batches:
        strips = map(bisect_left, repeat(ys_asc), ys)
        keys = list(map(add, map(mul, strips, repeat(width)), map(bisect_left, repeat(xs_asc), xs)))
        _find_cells(set(keys).difference(cell_of), ranks, blocks, cell_of)
        cells = list(map(cell_of.__getitem__, keys))
        count += len(cells)
        uncovered += cells.count(0)
        for cell, w in zip(cells, ws):
            sums[cell] = get(cell, 0) + w
    sums.pop(0, None)
    per_row: list[tuple[tuple[int, float], ...]] = [()] * (width - 1)
    for row, group in groupby(sorted(sums), key=lambda cell: cell // width):
        per_row[row - 1] = tuple((cell % width, sums[cell]) for cell in group)
    return tuple(per_row), count - uncovered, count


def _grid(per_row, retained: int, stair) -> CellGrid:
    """The ``CellGrid`` of the per-strip cells ``per_row`` under the staircase ``stair``."""
    cells = {CellKey(i, col): w for i, row in enumerate(per_row, 1) for col, w in row}
    return CellGrid(len(stair), cells, tuple(per_row), retained, stair)


def build_grid(inst: Instance) -> CellGrid:
    """Sum point weights per cell, ``_SLICE`` points at a time, skipping uncovered points.

    The cells and their sums are those of ``inst``'s ranked form, whichever
    coordinates it is given in.
    """
    stair = y_sorted_queries(inst)
    cols = (inst.P.xs, inst.P.ys, inst.P.ws)
    batches = ([col[i : i + _SLICE] for col in cols] for i in range(0, inst.n, _SLICE))
    per_row, retained, _count = _sum_cells(stair, batches)
    return _grid(per_row, retained, stair)


def sum_batches(queries: Instance, batches) -> tuple[tuple, int, int]:
    """``(per_row, retained, count)`` of ``build_grid`` over ``(xs, ys, ws)`` point batches, which are not kept."""
    return _sum_cells(y_sorted_queries(queries), batches)


def add_parts(inst: Instance, parts) -> CellGrid:
    """The grid of ``inst``'s queries over a ground set in parts, from each part's ``(per_row, retained)``.

    ``parts`` holds those two fields of ``build_grid`` or ``sum_batches``
    over each part of the points.  A cell is non-empty if it is in any part
    and holds the sum of the parts' weights, added in the order of
    ``parts``; the result equals ``build_grid`` of all the points exactly
    where those sums are exact, as on int weights.
    """
    per_row = []
    for rows in zip(*(part_rows for part_rows, _ in parts)):
        sums: dict[int, float] = {}
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
    xs_prefix: list[float] = []  # x-values of the ``done`` highest queries, sorted
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
    cover the cell.  For every subset of queries, the covered representatives
    carry exactly the weight of the covered original points.
    """
    boxes = cell_boxes(grid, rinst)
    points: list[WeightedPoint] = []
    provenance: list[CellKey] = []
    for key in sorted(boxes):
        w = grid.cells[key]
        if w == 0:
            continue
        x_lo, y_lo, _x_hi, _y_hi = boxes[key]
        points.append(WeightedPoint(x_lo + 1, y_lo + 1, w))
        provenance.append(key)
    return CompressedP(tuple(points), tuple(provenance))
