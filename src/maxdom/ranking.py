"""Rank-space normalization of an instance, and the query staircase order.

``rank_transform`` replaces coordinates per axis by small integers chosen so
that

* queries receive pairwise distinct even coordinates ``2, 4, ..., 2m``,
* every ground point receives an odd coordinate, and
* closed dominance between every (query, point) pair is exactly preserved.

The parity split guarantees that no ground point shares a coordinate with
any query, so every later boundary comparison is strict and exact.  Ties
among queries on an axis are broken by query id, their position in Q,
making the transform deterministic across runs and platforms.  The result
is a plain ``Instance`` whose points stay columnar.  The solve path never
ranks the points, nor does ``maxdom verify``; ``solver.solve_reference``, the
tests' reference, and compression do.

``staircase`` is the one definition of the staircase order, by decreasing
``(y, id)``, and of the queries' rank x's, by ``(x, id)``, which the cell
grid and the DP share: stable C-level sorts of the positions ``range(m)``,
with no per-query object.  ``y_sorted_queries`` is the object view of the
same order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate, repeat
from math import inf

from .model import Instance, PointColumns, QueryColumns, QueryPoint, _moved


def y_sorted_queries(inst: Instance) -> tuple[QueryPoint, ...]:
    """Queries by decreasing ``(y, id)``, position t the t-th highest: the object view of ``staircase``'s order."""
    return tuple(map(inst.Q.__getitem__, staircase(inst.Q)[0]))


def staircase(Q: QueryColumns) -> tuple[list[int], list[int]]:
    """``(stair, qx)``: the query positions by decreasing ``(y, id)``, and ``[0, x_1, ..., x_m, 2m + 2]``, their
    rank x's by ``(x, id)`` as in ``rank_transform``, sentinel last; a query's id is its position."""
    stair = sorted(reversed(range(len(Q))), key=Q.ys.__getitem__, reverse=True)  # stable: ties by falling position
    x_rank = _even_ranks(Q.xs)
    return stair, [0, *map(x_rank.__getitem__, stair), 2 * len(Q) + 2]


def _even_ranks(values) -> list[int]:
    """Each position's rank 2, 4, ..., 2m by ``(value, position)`` among ``values``."""
    rank = [0] * len(values)
    # a stable sort keeps ties by rising position
    for place, t in enumerate(sorted(range(len(values)), key=values.__getitem__), start=1):
        rank[t] = 2 * place
    return rank


def _axis_transform(q_values, p_values):
    """Per-axis rank mapping: queries to even ranks by ``(value, position)``, points to odd ranks.

    A point lands just below the first query value >= its own, so a tie on
    the original axis keeps the point covered by every tied query.  The
    points take C-level maps: a bisect, then the odd rank it indexes.
    """
    odd = range(1, 2 * len(q_values) + 2, 2)
    places = map(bisect_left, repeat(sorted(q_values)), p_values)
    return _even_ranks(q_values), list(map(odd.__getitem__, places))


def rank_transform(inst: Instance) -> Instance:
    """Map an instance to rank space, preserving every closed-dominance pair.

    Only the coordinates move: the ranked points keep the instance's weight
    column and share its int scaling (``model._moved``), so nothing rescales
    the weights.
    """
    Q, P = inst.Q, inst.P
    qx, px = _axis_transform(Q.xs, P.xs)
    qy, py = _axis_transform(Q.ys, P.ys)
    return Instance(_moved(P, px, py), QueryColumns(qx, qy), inst.k)


def drop_uncovered(inst: Instance) -> Instance:
    """Remove ground points covered by no query; the optimum is unchanged.

    A point survives iff some query lies weakly above and right of it, which
    one pass over the x-sorted queries with a suffix maximum of y decides.
    No solve or command path calls it; it is kept for the acceptance gates.
    """
    x_keys, ys = zip(*sorted(zip(inst.Q.xs, inst.Q.ys)))
    suff_max_y = [*accumulate(reversed(ys), max)][::-1] + [-inf]
    P = inst.P
    # the queries weakly right of a point start at bisect_left(x_keys, x)
    keep = [i for i, (x, y) in enumerate(zip(P.xs, P.ys)) if suff_max_y[bisect_left(x_keys, x)] >= y]
    return replace(inst, P=PointColumns(*([col[i] for i in keep] for col in (P.xs, P.ys, P.ws))))
