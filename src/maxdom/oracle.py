"""Exhaustive ground-truth solver for verification at desk scale."""

from __future__ import annotations

from itertools import combinations
from math import comb

from .model import Instance, Solution, covered_total, exact


def oracle_solve(inst: Instance, limit: int = 1_000_000) -> Solution:
    """Try every pick set of size at most k on the original coordinates.

    Enumeration goes by size and then by id-lexicographic order, and only a
    strict improvement replaces the incumbent, so the reported witness is the
    first maximizer in that order (the empty set when nothing beats zero).
    Every pick set's weight is summed over the scaled int weights
    (``PointColumns.int_weights``) and only the best one is divided back.
    Deliberately free of shortcuts so it stays obviously correct; refuses
    instances whose subset count exceeds ``limit``.
    """
    k = min(inst.k, inst.m)
    total = sum(comb(inst.m, t) for t in range(k + 1))
    if total > limit:
        raise ValueError(f"{total} subsets exceed the oracle limit of {limit}")
    queries = sorted(inst.Q, key=lambda q: q.id)
    ws, scale = inst.P.int_weights()
    points = list(zip(inst.P.xs, inst.P.ys, ws))
    best, best_value = frozenset(), 0
    for size in range(1, k + 1):
        for combo in combinations(queries, size):
            value = covered_total(points, combo)
            if value > best_value:
                best, best_value = frozenset(q.id for q in combo), value
    return Solution(best, exact(best_value, scale))
