"""Core domain types and closed-quadrant coverage semantics.

A query point covers the closed lower-left quadrant ``(-inf, x] x (-inf, y]``.
A weighted point counts toward a selection's value when at least one chosen
query covers it, and it counts exactly once no matter how many chosen queries
cover it.  An empty cover has weight zero.  Weights may be negative.

The quadrants are closed, so a query covers a point at exactly its own
place.  The paper's dominance is strict and leaves that point out; the two
agree unless a point sits exactly on a query.  The file ``1 1 1 / 5 5 7 /
5 5``, one point of weight 7 at the place of its one query, solves to 7 here
and to 0 under the paper's definition.

This module owns the ground-set format.  An ``Instance`` holds its points as
``PointColumns``: three parallel columns of x, y and w values, and its
queries as ``QueryColumns`` of x, y and id values, which every stage reads
directly, so no solve builds a per-point or per-query object.  A column of
ints that fit in 64 bits is an ``array('q')``; any other column (``Decimal``s
from a file, library floats or ``Fraction``s, larger ints) is a tuple.

Weights are summed exactly: ``PointColumns.int_weights`` scales them once by
their least common denominator, every stage that sums weights adds those
ints, and only a reported value is divided by the scale (``exact``).

All types are immutable after construction and all functions here are pure,
so everything is safe to share across threads.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from math import inf, lcm, nan
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # a file gives ints and Decimals; library callers may pass floats and Fractions too
    from decimal import Decimal
    from fractions import Fraction


@cache
def _fraction():
    """``fractions.Fraction``, imported on first use, so that a process that only sums ints never loads it."""
    from fractions import Fraction
    return Fraction


def exact(num: int, scale: int) -> int | Fraction:
    """``num / scale`` exactly: ``num`` itself where ``scale`` is 1, else a ``Fraction``."""
    return num if scale == 1 else _fraction()(num, scale)


def _finite(v) -> bool:
    """False for a nan or an infinity of any type; no value is converted to float."""
    return v == v and abs(v) != inf


@dataclass(frozen=True, slots=True)
class WeightedPoint:
    """A ground-set point carrying a (possibly negative) weight."""

    x: int | float | Decimal | Fraction
    y: int | float | Decimal | Fraction
    w: int | float | Decimal | Fraction

    def __post_init__(self) -> None:
        if not (_finite(self.x) and _finite(self.y) and _finite(self.w)):
            raise ValueError(f"non-finite weighted point ({self.x}, {self.y}, {self.w})")


@dataclass(frozen=True, slots=True)
class QueryPoint:
    """A candidate pick; ``id`` is its stable index in the input order."""

    x: int | float | Decimal | Fraction
    y: int | float | Decimal | Fraction
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


def _all_ints(values) -> bool:
    """Whether every one of ``values`` is an ``int`` (a bool is not), so that they sum at scale 1.

    One C-level pass over the values' types, not a Python loop per value;
    a column's ``array`` (int64, ``_column``) holds only ints as it is.
    """
    return type(values) is array or set(map(type, values)) <= {int}


def _sum(values):
    """``sum(values)``, or nan where it raises: a float beside a ``Decimal`` or a huge int."""
    try:
        return sum(values)
    except (ArithmeticError, TypeError):
        return nan


class _Columns(Sequence):
    """Parallel columns, one per field of the row class ``_row``, read as an immutable sequence of its objects.

    Each column is an ``array('q')`` when all its values are ints that fit
    in int64, and a tuple otherwise; equality compares values, not storage.
    The row objects are built once, on the first per-row access, and
    cached; code that reads the columns never builds them.  Every value
    must be finite.
    """

    __slots__ = ("_points",)
    _row: type
    _fields: tuple[str, ...]  # ``_row``'s fields; the column of field ``x`` is the attribute ``xs``

    def _store(self, *cols) -> None:
        if len(set(map(len, cols))) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")
        for field, col in zip(self._fields, cols):
            setattr(self, field + "s", col)
        # An int64 array or a range holds only ints, so it is finite, and a
        # finite sum leaves no nan or infinity; else each row checks its own.
        finite = all(_finite(_sum(c)) for c in cols if type(c) is tuple)
        self._points = None if finite else tuple(map(self._row, *cols))

    def columns(self) -> tuple:
        return tuple(getattr(self, field + "s") for field in self._fields)

    @classmethod
    def of(cls, rows: Iterable):
        """``rows`` itself if it is already columnar, else its columns, with ``rows`` kept as their view."""
        if isinstance(rows, cls):
            return rows
        rows = tuple(rows)
        cols = cls(*([getattr(r, field) for r in rows] for field in cls._fields))
        cols._points = rows
        return cols

    def points(self) -> tuple:
        """The cached view of ``_row`` objects, built on first use."""
        if self._points is None:
            self._points = tuple(map(self._row, *self.columns()))
        return self._points

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, index):
        return self.points()[index]

    def __iter__(self):
        return iter(self.points())

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return tuple(map(tuple, self.columns())) == tuple(map(tuple, other.columns()))
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and self.points() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.points())

    def __repr__(self) -> str:
        cols = ", ".join(f"{field}s={col!r}" for field, col in zip(self._fields, self.columns()))
        return f"{type(self).__name__}({cols})"


class PointColumns(_Columns):
    """Ground points stored as parallel ``xs``, ``ys`` and ``ws`` columns, read as a sequence of ``WeightedPoint``."""

    __slots__ = ("xs", "ys", "ws", "_int_weights")
    _row = WeightedPoint
    _fields = ("x", "y", "w")

    def __init__(self, xs: Iterable, ys: Iterable, ws: Iterable):
        self._store(_column(xs), _column(ys), _column(ws))
        self._int_weights: tuple | None = None

    def int_weights(self) -> tuple:
        """``(ints, scale)``: the weights times their least common denominator ``scale``, computed once.

        Exact for ints, floats, ``Decimal``s and ``Fraction``s alike
        (``as_integer_ratio``); a column of ints is returned as it is, scale 1.
        Columns that ``_moved`` made from these share this pair, not a copy.
        """
        if self._int_weights is None:
            ws = self.ws
            if _all_ints(ws):
                self._int_weights = ws, 1
            else:
                ratios = [w.as_integer_ratio() for w in ws]
                scale = lcm(*[den for _, den in ratios])
                self._int_weights = [num * (scale // den) for num, den in ratios], scale
        return self._int_weights


def _moved(P: PointColumns, xs: list[int], ys: list[int]) -> PointColumns:
    """``P``'s weights at the int coordinates ``xs`` and ``ys``, one per point, sharing ``P.int_weights()``.

    The weights are ``P``'s own column, already checked finite, so they are
    neither checked nor scaled again.
    """
    moved = PointColumns.__new__(PointColumns)
    moved.xs, moved.ys, moved.ws = _column(xs), _column(ys), P.ws
    moved._points, moved._int_weights = None, P.int_weights()
    return moved


class QueryColumns(_Columns):
    """Query candidates stored as parallel ``xs``, ``ys`` and ``ids`` columns, read as a sequence of ``QueryPoint``.

    ``ids`` defaults to the positions, which are kept as a ``range``.
    """

    __slots__ = ("xs", "ys", "ids")
    _row = QueryPoint
    _fields = ("x", "y", "id")

    def __init__(self, xs: Iterable, ys: Iterable, ids: Iterable | None = None):
        xs = _column(xs)
        positions = range(len(xs))
        self._store(xs, _column(ys), positions if ids is None or ids == positions else _column(ids))

    def by_id(self) -> Sequence[int]:
        """The query indices in increasing id order."""
        return self.ids if type(self.ids) is range else sorted(range(len(self)), key=self.ids.__getitem__)


@dataclass(frozen=True)
class Instance:
    """A problem input: ground set ``P``, query candidates ``Q``, pick budget ``k``.

    ``P`` may be given as any sequence of ``WeightedPoint`` and ``Q`` as any
    sequence of ``QueryPoint``; they are stored as ``PointColumns`` and
    ``QueryColumns``.  ``dataclasses.replace`` passes the stored columns
    on, so changing ``k`` builds no point or query objects.  ``k`` may
    exceed ``len(Q)``; that is equivalent to ``k == len(Q)``.
    """

    P: PointColumns
    Q: QueryColumns
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "P", PointColumns.of(self.P))
        object.__setattr__(self, "Q", QueryColumns.of(self.Q))
        if len(self.Q) < 1:
            raise ValueError("instance needs at least one query point")
        if self.k < 0:
            raise ValueError("budget k must be non-negative")
        if type(self.Q.ids) is not range and len(set(self.Q.ids)) != len(self.Q):
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
        qxs, qys = list(zip(*queries, strict=True)) or ((), ())
        return Instance(PointColumns(xs, ys, ws), QueryColumns(qxs, qys), k)

    @staticmethod
    def from_rows(points: Iterable[tuple], queries: Iterable[tuple], k: int) -> "Instance":
        """Build from ``(x, y, w)`` and ``(x, y)`` rows, assigning query ids by position."""
        xs, ys, ws = list(zip(*points)) or ((), (), ())
        return Instance.from_columns(xs, ys, ws, queries, k)


@dataclass(frozen=True)
class Solution:
    """A feasible pick set (query ids) together with its exact covered weight (``exact``).

    ``layer_values`` holds the dynamic program's best value with at most
    1, 2, ..., min(k, m) picks (so its last entry is ``value``); the oracle
    leaves it ``None``.
    """

    chosen: frozenset[int]
    value: int | Fraction
    layer_values: tuple[int | Fraction, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "chosen", frozenset(self.chosen))


def dominates_closed(q, p) -> bool:
    """True iff ``p`` lies in the closed lower-left quadrant of ``q``."""
    return p.x <= q.x and p.y <= q.y


def weight_of_dom(points: Sequence[WeightedPoint], chosen: Iterable[QueryPoint]) -> int | Fraction:
    """Total weight of the points covered by at least one query in ``chosen``, exactly.

    Each covered point contributes once.  Returns 0 when nothing is covered,
    in particular for an empty ``chosen``.
    """
    queries = tuple(chosen)
    if not queries:
        return 0
    P = PointColumns.of(points)
    ws, scale = P.int_weights()
    return exact(covered_total(zip(P.xs, P.ys, ws), queries), scale)


def covered_total(points: Iterable[tuple], queries: Sequence[QueryPoint]) -> int:
    """Sum of the weights of the ``(x, y, w)`` ``points`` that some query in ``queries`` covers, each once."""
    total = 0
    for px, py, w in points:
        for q in queries:
            if px <= q.x and py <= q.y:
                total += w
                break
    return total
