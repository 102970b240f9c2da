"""Core domain types and closed-quadrant coverage semantics.

A query point covers the closed lower-left quadrant ``(-inf, x] x (-inf, y]``.
A weighted point counts toward a selection's value when at least one chosen
query covers it, and it counts exactly once no matter how many chosen queries
cover it.  An empty cover has weight zero.  Weights may be negative.

This module owns the ground-set format.  An ``Instance`` holds its points as
``PointColumns``: three parallel columns of x, y and w values, which every
stage reads directly, so no solve builds a per-point object.  A column of
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
        if type(self.x) is int and type(self.y) is int:  # finite as it is; a bool is not an ``int`` here
            return
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


class PointColumns(Sequence):
    """Ground points stored as parallel ``xs``, ``ys`` and ``ws`` columns.

    Each column is an ``array('q')`` when all its values are ints that fit
    in int64, and a tuple otherwise; equality compares values, not storage.

    Reads as an immutable sequence of ``WeightedPoint`` (length, indexing,
    iteration, equality with any sequence of points).  The point objects are
    built once, on the first per-point access, and cached; code that reads
    the columns never builds them.  Every value must be finite.
    """

    __slots__ = ("xs", "ys", "ws", "_points", "_int_weights")

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
        self.xs, self.ys, self.ws = xs, ys, ws
        self._points: tuple[WeightedPoint, ...] | None = None
        self._int_weights: tuple | None = None

    @classmethod
    def of(cls, points: Iterable) -> "PointColumns":
        """``points`` itself if it is already columnar, else its columns."""
        if isinstance(points, cls):
            return points
        pts = tuple(points)
        cols = cls([p.x for p in pts], [p.y for p in pts], [p.w for p in pts])
        cols._points = pts
        return cols

    def int_weights(self) -> tuple:
        """``(ints, scale)``: the weights times their least common denominator ``scale``, computed once.

        Exact for ints, floats, ``Decimal``s and ``Fraction``s alike
        (``as_integer_ratio``); a column of ints is returned as it is, scale 1.
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
        qxs, qys = list(zip(*queries, strict=True)) or ((), ())
        Q = tuple(map(QueryPoint, qxs, qys, range(len(qxs))))
        return Instance(PointColumns(xs, ys, ws), Q, k)

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
