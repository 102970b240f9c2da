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
points; ``solver.solve_reference``, compression and rendering do.

``y_sorted_queries`` is the one definition of the staircase order, by
decreasing ``(y, id)``, which the cell grid and the DP share.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from operator import attrgetter

from .model import Instance, PointColumns, QueryPoint


def y_sorted_queries(inst: Instance) -> tuple[QueryPoint, ...]:
    """Queries by decreasing ``(y, id)``; position t is the t-th highest."""
    return tuple(sorted(inst.Q, key=attrgetter("y", "id"), reverse=True))


def _axis_transform(q_values, q_ids, p_values):
    """Per-axis rank mapping: queries to even ranks, points to odd ranks."""
    m = len(q_values)
    order = sorted(range(m), key=list(zip(q_values, q_ids)).__getitem__)
    q_coord = [0] * m
    for rank, t in enumerate(order, start=1):
        q_coord[t] = 2 * rank
    sorted_vals = [q_values[t] for t in order]
    # A point lands just below the first query value >= its own, so a tie on
    # the original axis keeps the point covered by every tied query.
    p_coord = [2 * bisect_left(sorted_vals, v) + 1 for v in p_values]
    return q_coord, p_coord


def rank_transform(inst: Instance) -> Instance:
    """Map an instance to rank space, preserving every closed-dominance pair."""
    Q, P = inst.Q, inst.P
    ids = [q.id for q in Q]
    qx, px = _axis_transform([q.x for q in Q], ids, P.xs)
    qy, py = _axis_transform([q.y for q in Q], ids, P.ys)
    new_q = tuple(QueryPoint(qx[t], qy[t], Q[t].id) for t in range(len(Q)))
    return Instance(PointColumns(px, py, P.ws), new_q, inst.k)


def drop_uncovered(inst: Instance) -> Instance:
    """Remove ground points covered by no query; the optimum is unchanged.

    A point survives iff some query lies weakly above and right of it, which
    one pass over the x-sorted queries with a suffix maximum of y decides.
    """
    m = inst.m
    by_x = sorted((q.x, q.y) for q in inst.Q)
    x_keys = [x for x, _ in by_x]
    suff_max_y = [float("-inf")] * (m + 1)
    for t in range(m - 1, -1, -1):
        suff_max_y[t] = max(by_x[t][1], suff_max_y[t + 1])
    P = inst.P
    # the queries weakly right of a point start at bisect_left(x_keys, x)
    keep = [i for i, (x, y) in enumerate(zip(P.xs, P.ys)) if suff_max_y[bisect_left(x_keys, x)] >= y]
    return replace(inst, P=PointColumns(*([col[i] for i in keep] for col in (P.xs, P.ys, P.ws))))
