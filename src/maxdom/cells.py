"""Cell partition of the covered region and the representative compression.

The region covered by at least one query splits into axis-aligned cells:
horizontal strips between consecutive query y-values, each strip cut at the
x-values of the queries above it.  All points inside one cell are covered by
exactly the same set of queries, so for every pick set the cell's total
weight stands for all of its points: the non-empty cells are the compressed
ground set, with at most min(n, m^2) entries.

``build_grid`` sums the cells in one pass over the point columns: one bisect
on the sorted query y-values finds a point's strip, one bisect on that
strip's query x-prefix finds its cell, and points covered by no query are
skipped.  An instance gridded in its own coordinates, as the solve path
does, and its rank-normalized form, as the reference path grids, give the
same cells, because each bisect counts the queries strictly below or left of
the point, which the rank transform preserves.  ``cell_boxes`` and
``compress`` read cell corners off the query coordinates, so they take a
rank-normalized instance; they serve ``maxdom compress`` and rendering.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .model import Instance, QueryPoint, WeightedPoint
from .ranking import y_sorted_queries


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


def _strips(inst: Instance, tags, stair):
    """Bucket ``inst``'s points by strip; yield ``(row, slots, tags)`` per strip with points.

    Row ``i`` (0..m) holds the points with exactly ``i`` queries at or above
    them, in input order; row 0 lies above every query.  ``slots[t]`` counts
    the ``i`` highest queries strictly left of the row's ``t``-th point and
    ``tags[t]`` is that point's entry of ``tags``.  A point is covered iff
    its slot is below its row; it then lies in cell ``(row, slot + 1)``.
    ``stair`` is ``y_sorted_queries(inst)``, the staircase order; the
    sorted x-values above a strip are brought up to date only at strips
    with points, so a tall staircase over few points costs O(m) per such
    strip rather than an insert per query.

    Each strip keeps its points' x-values and tags in a container of the
    same kind as their column, an ``array`` of its typecode for an int64
    column and a list otherwise, so that an array column's values are not
    held as one ``int`` object each while the strips fill.
    """
    stair_xs = [q.x for q in stair]
    m = len(stair_xs)
    ys_asc = [q.y for q in reversed(stair)]
    strip_xs = _buckets(inst.P.xs, m + 1)
    strip_tags = _buckets(tags, m + 1)
    for x, y, tag in zip(inst.P.xs, inst.P.ys, tags):
        row = m - bisect_left(ys_asc, y)
        strip_xs[row].append(x)
        strip_tags[row].append(tag)
    prefix: list = []  # x-values of the ``done`` highest queries, sorted
    done = 0
    for row, xs in enumerate(strip_xs):
        if xs:
            _merge_into(prefix, stair_xs[done:row])
            done = row
            yield row, list(map(bisect_left, repeat(prefix), xs)), strip_tags[row]


def _buckets(col, count: int) -> list:
    """``count`` empty containers for values of ``col``: arrays of its typecode, or lists."""
    if isinstance(col, array):
        return list(map(array.__copy__, repeat(array(col.typecode), count)))
    return [[] for _ in range(count)]


def build_grid(inst: Instance) -> CellGrid:
    """Sum point weights per cell in input order, skipping uncovered points.

    The cells are those of ``inst``'s ranked form, whichever coordinates it
    is given in.
    """
    cells: dict[CellKey, float] = {}
    per_row: list[tuple[tuple[int, float], ...]] = [()] * inst.m
    retained = 0
    stair = y_sorted_queries(inst)
    for row, slots, ws in _strips(inst, inst.P.ws, stair):
        sums: dict[int, float] = {}
        get = sums.get
        for slot, w in zip(slots, ws):
            sums[slot] = get(slot, 0) + w
        sums.pop(row, None)  # right of every query above the strip: uncovered
        retained += len(slots) - slots.count(row)
        if row:
            items = tuple((slot + 1, sums[slot]) for slot in sorted(sums))
            per_row[row - 1] = items
            cells.update((CellKey(row, col), w) for col, w in items)
    return CellGrid(inst.m, cells, tuple(per_row), retained, stair)


def add_parts(inst: Instance, parts) -> CellGrid:
    """The grid of ``inst``'s queries over a ground set in parts, from each part's ``(per_row, retained)``.

    ``parts`` holds those two fields of ``build_grid`` over each part of the
    points.  A cell is non-empty if it is in any part and holds the sum of
    the parts' weights, added in the order of ``parts``; the result equals
    ``build_grid`` of all the points exactly where those sums are exact, as
    on int weights.
    """
    per_row = []
    for rows in zip(*(part_rows for part_rows, _ in parts)):
        sums: dict[int, float] = {}
        get = sums.get
        for row in rows:
            for col, w in row:
                sums[col] = get(col, 0) + w
        per_row.append(tuple(sorted(sums.items())))
    cells = {CellKey(i, col): w for i, row in enumerate(per_row, 1) for col, w in row}
    retained = sum(part_retained for _, part_retained in parts)
    return CellGrid(inst.m, cells, tuple(per_row), retained, y_sorted_queries(inst))


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
