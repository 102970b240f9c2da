"""Rank-space normalization of an instance, and the query staircase order.

``rank_transform`` replaces coordinates per axis by small integers chosen so
that

* queries receive pairwise distinct even coordinates ``2, 4, ..., 2m``,
* every ground point receives an odd coordinate, and
* closed dominance between every (query, point) pair is exactly preserved.

The parity split guarantees that no ground point shares a coordinate with
any query, so every later boundary comparison is strict and exact.  Ties
among queries on an axis are broken by query id, making the transform
deterministic across runs and platforms.  The result is a plain
``Instance`` whose points stay columnar.  The solve path never ranks the
points; ``solver.solve_reference`` and compression do.

``staircase`` is the one definition of the staircase order, by decreasing
``(y, id)``, and of the queries' rank x's, by ``(x, id)``, which the cell
grid and the DP share: stable C-level sorts of the query columns' indices,
with no per-query object.  ``y_sorted_queries`` is the object view of the
same order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import replace
from itertools import accumulate, repeat
from math import inf

from .model import Instance, PointColumns, QueryColumns, QueryPoint, _moved


def y_sorted_queries(inst: Instance) -> tuple[QueryPoint, ...]:
    """Queries by decreasing ``(y, id)``, position t the t-th highest: the object view of ``staircase``'s order."""
    by_id = dict(zip(inst.Q.ids, inst.Q))
    return tuple(map(by_id.__getitem__, staircase(inst.Q)[0]))


def staircase(Q: QueryColumns) -> tuple[Sequence, list[int]]:
    """``(stair, qx)``: the query ids by decreasing ``(y, id)``, and ``[0, x_1, ..., x_m, 2m + 2]``, their rank x's
    by ``(x, id)`` as in ``rank_transform``, sentinel last."""
    by_id = Q.by_id()
    order = sorted(reversed(by_id), key=Q.ys.__getitem__, reverse=True)  # stable: ties by falling id
    x_rank = _even_ranks(Q.xs, by_id)
    # a range of ids is the indices themselves
    stair = order if type(Q.ids) is range else list(map(Q.ids.__getitem__, order))
    return stair, [0, *map(x_rank.__getitem__, order), 2 * len(order) + 2]


def _even_ranks(values, by_id) -> list[int]:
    """Each index's rank 2, 4, ..., 2m by ``(value, id)`` among ``values``, ``by_id`` being the indices by id."""
    rank = [0] * len(by_id)
    # a stable sort keeps ties by rising id
    for place, t in enumerate(sorted(by_id, key=values.__getitem__), start=1):
        rank[t] = 2 * place
    return rank


def _axis_transform(q_values, by_id, p_values):
    """Per-axis rank mapping: queries to even ranks by ``(value, id)``, points to odd ranks.

    A point lands just below the first query value >= its own, so a tie on
    the original axis keeps the point covered by every tied query.  The
    points take C-level maps: a bisect, then the odd rank it indexes.
    """
    odd = range(1, 2 * len(q_values) + 2, 2)
    places = map(bisect_left, repeat(sorted(q_values)), p_values)
    return _even_ranks(q_values, by_id), list(map(odd.__getitem__, places))


def rank_transform(inst: Instance) -> Instance:
    """Map an instance to rank space, preserving every closed-dominance pair.

    Only the coordinates move: the ranked points keep the instance's weight
    column and share its int scaling (``model._moved``), so nothing rescales
    the weights.
    """
    Q, P = inst.Q, inst.P
    by_id = Q.by_id()
    qx, px = _axis_transform(Q.xs, by_id, P.xs)
    qy, py = _axis_transform(Q.ys, by_id, P.ys)
    return Instance(_moved(P, px, py), QueryColumns(qx, qy, Q.ids), inst.k)


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
