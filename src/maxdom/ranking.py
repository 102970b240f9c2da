"""Rank-space normalization of an instance.

Coordinates are replaced per axis by small integers chosen so that

* queries receive pairwise distinct even coordinates ``2, 4, ..., 2m``,
* every ground point receives an odd coordinate, and
* closed dominance between every (query, point) pair is exactly preserved.

The parity split guarantees that no ground point shares a coordinate with
any query, so every later boundary comparison is strict and exact.  Ties
among queries on an axis are broken by query id, making the transform
deterministic across runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from .model import Instance, QueryPoint, WeightedPoint


@dataclass(frozen=True)
class RankedInstance:
    """An instance in rank space.

    ``Q`` keeps the input order of the original queries (ids preserved) and
    ``y_order`` lists indices into ``Q`` by strictly decreasing y.
    """

    P: tuple[WeightedPoint, ...]
    Q: tuple[QueryPoint, ...]
    k: int
    y_order: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.Q)


def y_sorted_queries(rinst: RankedInstance) -> tuple[QueryPoint, ...]:
    """Queries in strictly decreasing y; position t is the t-th highest."""
    return tuple(rinst.Q[i] for i in rinst.y_order)


def _axis_transform(q_values, q_ids, p_values):
    """Per-axis rank mapping: queries to even ranks, points to odd ranks."""
    m = len(q_values)
    order = sorted(range(m), key=lambda t: (q_values[t], q_ids[t]))
    q_coord = [0] * m
    for rank, t in enumerate(order, start=1):
        q_coord[t] = 2 * rank
    sorted_vals = [q_values[t] for t in order]
    # A point lands just below the first query value >= its own, so a tie on
    # the original axis keeps the point covered by every tied query.
    p_coord = [2 * bisect_left(sorted_vals, v) + 1 for v in p_values]
    return q_coord, p_coord


def rank_transform(inst: Instance) -> RankedInstance:
    """Map an instance to rank space, preserving every closed-dominance pair."""
    Q, P = inst.Q, inst.P
    ids = [q.id for q in Q]
    qx, px = _axis_transform([q.x for q in Q], ids, P.xs)
    qy, py = _axis_transform([q.y for q in Q], ids, P.ys)
    new_q = tuple(QueryPoint(qx[t], qy[t], Q[t].id) for t in range(len(Q)))
    new_p = tuple(map(WeightedPoint, px, py, P.ws))
    y_order = tuple(sorted(range(len(Q)), key=lambda t: -qy[t]))
    return RankedInstance(new_p, new_q, inst.k, y_order)


def drop_uncovered(rinst: RankedInstance) -> RankedInstance:
    """Remove ground points covered by no query; the optimum is unchanged.

    A point survives iff some query lies weakly above and right of it, which
    one pass over the x-sorted queries with a suffix maximum of y decides.
    """
    m = rinst.m
    by_x = sorted((q.x, q.y) for q in rinst.Q)
    x_keys = [x for x, _ in by_x]
    suff_max_y = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suff_max_y[t] = max(by_x[t][1], suff_max_y[t + 1])
    keep = []
    for p in rinst.P:
        t = bisect_left(x_keys, p.x)  # queries right of p start here (parity: no equality)
        if t < m and suff_max_y[t] > p.y:
            keep.append(p)
    return replace(rinst, P=tuple(keep))

