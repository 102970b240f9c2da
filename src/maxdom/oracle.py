"""Exhaustive ground-truth solver for verification at desk scale."""

from __future__ import annotations

from collections.abc import Callable
from itertools import repeat
from operator import le, sub

from .model import Instance, Solution, exact
from .solver import DP_BUDGET_S

# _DIGITS[j] maps a byte to b"1" where its bit j is set, else to b"0"
_DIGITS = tuple((b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8))
# Up to this many points ``_cover`` sums the new bits one at a time, past it from bit planes.
# ``scripts/calibrate_engines.py`` times whole oracle_solve calls with each weigh on uniform
# n = 32 to 128, m = 24, k = 4, eight instances a shape, for int weights in -10..10 and in
# -1000..1000 (hundredths), and fits the n where the bit-by-bit time reaches the bit-plane
# time: 71 to 84 over nine runs, median 80, 2-core x86-64 KVM guest, CPython 3.11.7.
# desk-sized files, n <= 40, stay on the bit-by-bit sum.
_BIT_BY_BIT_MAX_N = 80
# Nanoseconds per 64-bit word of one walk step's int operations, priced as
# (n // 64 + 1) * (planes + 2) words a step (``oracle_solve``).  The walk alone, its masks
# built beforehand, on n = 200,000 to 3,000,000 random points with 1 to 18 weight planes,
# 2-core x86-64 KVM guest, CPython 3.11.7: 2.29 to 4.50 ns over nine shapes, median 3.25.
WALK_WORD_NS = 3.25
# Nanoseconds of one walk step's Python work, whatever its words: the loop, the call and
# the weigh.  ``scripts/calibrate_engines.py`` times the walk alone on uniform n = 8 to
# 8,000, m = 24, k = 4, and fits the median over the shapes of a step's time less its
# priced words: 1,034 to 1,327 ns over six runs on the guest above.
WALK_STEP_NS = 1100.0
# The most 64-bit words that the cover masks, m * (n // 64 + 1), may take.
MASK_WORD_BUDGET = 1_000_000


def _cover(inst: Instance) -> tuple[list[int], Callable[[int], int]]:
    """``(masks, weigh)``: one int per query by position, bit i set where it covers point i,
    and the function from a set of point bits to the sum of their scaled int weights.

    Up to ``_BIT_BY_BIT_MAX_N`` points the set bits are summed one at a time.
    Past that, the weight is read from the bit planes of each weight's excess
    over the least weight ``lo``: lo · popcount(bits) + the sum of
    2^b · popcount(bits & plane_b), so no step costs time quadratic in n.
    """

    def bits_of(data: bytes, j: int = 0) -> int:
        """The int whose bit i is bit ``j`` of ``data[i]``, read in one ``int(s, 2)``."""
        return int(b"0" + data[::-1].translate(_DIGITS[j]), 2)

    P, Q = inst.P, inst.Q
    ws = P.int_weights()[0]
    masks = [
        bits_of(bytes(map(le, P.xs, repeat(x)))) & bits_of(bytes(map(le, P.ys, repeat(y))))
        for x, y in zip(Q.xs, Q.ys)
    ]
    if len(ws) <= _BIT_BY_BIT_MAX_N:
        def weigh(new: int) -> int:
            total = 0
            while new:
                low = new & -new
                total += ws[low.bit_length() - 1]
                new ^= low
            return total
        return masks, weigh
    lo = min(ws)
    width = ((max(ws) - lo).bit_length() + 7) // 8
    data = b"".join(map(int.to_bytes, map(sub, ws, repeat(lo)), repeat(width), repeat("little")))
    planes = [(b, plane) for b in range(8 * width) if (plane := bits_of(data[b // 8 :: width], b % 8))]

    def weigh(new: int) -> int:
        return lo * new.bit_count() + sum((new & plane).bit_count() << b for b, plane in planes)
    return masks, weigh


def oracle_solve(inst: Instance) -> Solution:
    """Try every pick set of size at most k on the original coordinates.

    Each query's cover is one int of point bits (``_cover``).  A depth-first
    walk in id order (a query's id is its position) extends its pick set by
    one query a step: the union takes one OR, and the step's gain is the
    weight of the newly covered bits only, in the scaled int weights
    (``PointColumns.int_weights``); only the best value is divided back.
    The walk visits the sets of each size in id-lexicographic order, and a
    set replaces the incumbent on a strict gain or on an equal value with
    fewer picks, so the witness is the first maximizer by size and then by
    id order (the empty set when nothing beats zero).
    ``model.covered_total`` stays the definition of a pick set's weight,
    since it reads the closed quadrant straight off the points; the tests
    hold the bitset weight and this walk to it.

    Builds no mask at k = 0, whose one pick set is the empty one.  Else,
    before any mask is built, refuses masks of more than
    ``MASK_WORD_BUDGET`` 64-bit words, m * (n // 64 + 1), and prices the
    walk: a step, one per nonempty pick set, costs ``WALK_STEP_NS`` plus
    its ORs, ANDs and popcounts of ints of n // 64 + 1 words over every
    bit plane of the weights' range, (n // 64 + 1) * (planes + 2) *
    ``WALK_WORD_NS`` ns.  The pick sets are counted size by size, and the
    walk is refused as soon as those counted are priced over
    ``solver.DP_BUDGET_S``, so the count stays within what the budget
    allows however large C(m, k) is.
    """
    m, k = inst.m, min(inst.k, inst.m)
    if not k:
        return Solution(frozenset(), exact(0, inst.P.int_weights()[1]))
    width = inst.n // 64 + 1  # 64-bit words of one mask
    if m * width > MASK_WORD_BUDGET:
        raise ValueError(
            f"refusing the oracle: its masks would take {m * width} 64-bit words, "
            f"over the budget of {MASK_WORD_BUDGET}"
        )
    ws = inst.P.int_weights()[0]
    planes = (max(ws, default=0) - min(ws, default=0)).bit_length()  # as _cover reads them
    step_s = (WALK_STEP_NS + width * (planes + 2) * WALK_WORD_NS) * 1e-9
    subsets, sets = 0, 1  # sets: C(m, size), from C(m, 0) on
    for size in range(1, k + 1):
        sets = sets * (m - size + 1) // size
        subsets += sets
        if subsets * step_s > DP_BUDGET_S:
            raise ValueError(
                f"refusing the oracle: its walk over the {subsets} subsets of up to {size} picks "
                f"is estimated at {subsets * step_s:.3g} s, over the budget of {DP_BUDGET_S:g} s"
            )
    masks, weigh = _cover(inst)
    picks = [0] * k  # picks[:size]: the current pick set, as query ids
    best, best_value = [], 0

    def walk(start: int, union: int, value: int, size: int) -> None:
        """Visit in preorder each pick set of ``size`` to k picks that starts with ``picks[:size - 1]``,
        whose cover is ``union`` and weight ``value``, and goes on from query ``start``."""
        nonlocal best, best_value
        for i in range(start, len(masks)):
            mask = masks[i]
            picks[size - 1] = i
            v = value + weigh(mask & ~union)
            if v > best_value or (v == best_value and size < len(best)):
                best, best_value = picks[:size], v
            if size < k:
                walk(i + 1, union | mask, v, size + 1)

    walk(0, 0, 0, 1)
    return Solution(frozenset(best), exact(best_value, inst.P.int_weights()[1]))
