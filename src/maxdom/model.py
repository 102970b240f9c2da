"""Core domain types and closed-quadrant coverage semantics.

A query point covers the closed lower-left quadrant ``(-inf, x] x (-inf, y]``.
A weighted point counts toward a selection's value when at least one chosen
query covers it, and it counts exactly once no matter how many chosen queries
cover it.  An empty cover has weight zero.  Weights may be negative.

This module owns the ground-set format.  An ``Instance`` holds its points as
``PointColumns``: three parallel columns of x, y and w values, which the
parser, the generators, the serializer and the cell grid read directly, so a
solve builds no per-point object, and neither does the ranked reference
solve.  A column whose values are all ints that fit in 64 bits is an
``array('q')``, 8 bytes a value; any other column is a tuple, so floats,
mixed columns and larger ints keep their values and types.  ``Instance.P``
still reads as a sequence of ``WeightedPoint`` for the oracle,
``weight_of_dom`` and rendering; those objects are built on first per-point
access and cached.

All types are immutable after construction and all functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum, isfinite, nan
from sys import float_info
from typing import Iterable


def _finite(v) -> bool:
    """False for a nan or an infinity; an int is always finite and is never converted to float."""
    return isinstance(v, int) or isfinite(v)


@dataclass(frozen=True, slots=True)
class WeightedPoint:
    """A ground-set point carrying a (possibly negative) weight."""

    x: float
    y: float
    w: float

    def __post_init__(self) -> None:
        if not (_finite(self.x) and _finite(self.y) and _finite(self.w)):
            raise ValueError(f"non-finite weighted point ({self.x}, {self.y}, {self.w})")


@dataclass(frozen=True, slots=True)
class QueryPoint:
    """A candidate pick; ``id`` is its stable index in the input order."""

    x: float
    y: float
    id: int

    def __post_init__(self) -> None:
        if not (_finite(self.x) and _finite(self.y)):
            raise ValueError(f"non-finite query point ({self.x}, {self.y})")


def _column(values):
    """``values`` as an ``array('q')`` if every one is an int that fits in int64, else as a tuple.

    An ``array('q')`` is kept as given, not copied, so its owner must not
    change it afterwards.
    """
    if isinstance(values, array) and values.typecode == "q":
        return values
    if not isinstance(values, (list, tuple)):
        values = tuple(values)
    try:
        return array("q", values)
    except (TypeError, OverflowError):
        return tuple(values)


def _sum(values, add=sum):
    """``add(values)``, or nan on overflow: a float beside an int beyond the float range, or ``fsum`` past it."""
    try:
        return add(values)
    except OverflowError:
        return nan


class PointColumns(Sequence):
    """Ground points stored as parallel ``xs``, ``ys`` and ``ws`` columns.

    Each column is an ``array('q')`` when all its values are ints that fit
    in int64, and a tuple otherwise; equality compares values, not storage.

    Reads as an immutable sequence of ``WeightedPoint`` (length, indexing,
    iteration, equality with any sequence of points).  The point objects are
    built once, on the first per-point access, and cached; code that reads
    the columns never builds them.  Every value must be finite, and where a
    weight is a float, the weights' absolute total must be below half the
    float maximum, so that no float sum of them overflows.
    """

    __slots__ = ("xs", "ys", "ws", "_points")

    def __init__(self, xs: Iterable, ys: Iterable, ws: Iterable):
        xs, ys, ws = _column(xs), _column(ys), _column(ws)
        if not len(xs) == len(ys) == len(ws):
            raise ValueError("point columns differ in length")
        # an int64 array holds only ints, so it is finite and stands in as the int 0
        sums = [_sum(c) if type(c) is tuple else 0 for c in (xs, ys, ws)]
        if not all(map(_finite, sums)):  # a finite sum leaves no nan or infinity
            for x, y, w in zip(xs, ys, ws):
                if not (_finite(x) and _finite(y) and _finite(w)):
                    raise ValueError(f"non-finite weighted point ({x}, {y}, {w})")
        limit = float_info.max / 2  # only all-int weights, whose sum is an int, skip the float check
        if not isinstance(sums[2], int) and not _sum(map(abs, ws), fsum) < limit:
            raise ValueError(f"float weights of absolute total at least {limit:.3g}: their sums could overflow")
        self.xs, self.ys, self.ws = xs, ys, ws
        self._points: tuple[WeightedPoint, ...] | None = None

    @classmethod
    def of(cls, points: Iterable) -> "PointColumns":
        """``points`` itself if it is already columnar, else its columns."""
        if isinstance(points, cls):
            return points
        pts = tuple(points)
        cols = cls([p.x for p in pts], [p.y for p in pts], [p.w for p in pts])
        cols._points = pts
        return cols

    def points(self) -> tuple[WeightedPoint, ...]:
        """The cached ``WeightedPoint`` view, built on first use."""
        if self._points is None:
            self._points = tuple(map(WeightedPoint, self.xs, self.ys, self.ws))
        return self._points

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, index):
        return self.points()[index]

    def __iter__(self):
        return iter(self.points())

    def __eq__(self, other) -> bool:
        if isinstance(other, PointColumns):
            return all(
                a == b if type(a) is type(b) else tuple(a) == tuple(b)
                for a, b in zip((self.xs, self.ys, self.ws), (other.xs, other.ys, other.ws))
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and self.points() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.points())

    def __repr__(self) -> str:
        return f"PointColumns(xs={self.xs!r}, ys={self.ys!r}, ws={self.ws!r})"


@dataclass(frozen=True)
class Instance:
    """A problem input: ground set ``P``, query candidates ``Q``, pick budget ``k``.

    ``P`` may be given as any sequence of ``WeightedPoint``; it is stored as
    ``PointColumns``.  ``dataclasses.replace`` passes the stored columns on,
    so changing ``k`` builds no point objects.  ``k`` may exceed ``len(Q)``;
    that is equivalent to ``k == len(Q)``.
    """

    P: PointColumns
    Q: tuple[QueryPoint, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", PointColumns.of(self.P))
        object.__setattr__(self, "Q", tuple(self.Q))
        if len(self.Q) < 1:
            raise ValueError("instance needs at least one query point")
        if self.k < 0:
            raise ValueError("budget k must be non-negative")
        ids = {q.id for q in self.Q}
        if len(ids) != len(self.Q):
            raise ValueError("query ids must be unique")

    @property
    def n(self) -> int:
        return len(self.P)

    @property
    def m(self) -> int:
        return len(self.Q)

    @staticmethod
    def from_columns(xs: Iterable, ys: Iterable, ws: Iterable, queries: Iterable[tuple], k: int) -> "Instance":
        """Build from point columns and ``(x, y)`` query rows, assigning query ids by position."""
        Q = tuple(QueryPoint(x, y, i) for i, (x, y) in enumerate(queries))
        return Instance(PointColumns(xs, ys, ws), Q, k)

    @staticmethod
    def from_rows(points: Iterable[tuple], queries: Iterable[tuple], k: int) -> "Instance":
        """Build from ``(x, y, w)`` and ``(x, y)`` rows, assigning query ids by position."""
        xs, ys, ws = [], [], []
        for x, y, w in points:
            xs.append(x)
            ys.append(y)
            ws.append(w)
        return Instance.from_columns(xs, ys, ws, queries, k)


@dataclass(frozen=True)
class Solution:
    """A feasible pick set (query ids) together with its covered weight.

    ``layer_values`` holds the dynamic program's best value with at most
    1, 2, ..., min(k, m) picks (so its last entry is ``value``); the oracle
    leaves it ``None``.
    """

    chosen: frozenset[int]
    value: float
    layer_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", frozenset(self.chosen))


def dominates_closed(q, p) -> bool:
    """True iff ``p`` lies in the closed lower-left quadrant of ``q``."""
    return p.x <= q.x and p.y <= q.y


def weight_of_dom(points: Sequence[WeightedPoint], chosen: Iterable[QueryPoint]) -> float:
    """Total weight of the points covered by at least one query in ``chosen``.

    Each covered point contributes once.  Returns 0 when nothing is covered,
    in particular for an empty ``chosen``.
    """
    queries = tuple(chosen)
    if not queries:
        return 0
    total = 0
    for p in points:
        px, py = p.x, p.y
        for q in queries:
            if px <= q.x and py <= q.y:
                total += p.w
                break
    return total
