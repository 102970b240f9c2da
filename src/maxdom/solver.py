"""Layered dynamic program over the query staircase, plus the full pipeline.

The pipeline sums the ground points' int weights into the cells of the
covered region straight from the instance's point columns
(``cells.build_grid``), drops the zero-weight cells and runs the DP on the
grid's rows: O(n log m) on the n-side, with no per-point object, and the
cell sums are themselves the compressed ground set.  ``solve_reference``
reaches the same cell sums the ranked way (rank every point, drop the
uncovered ones, grid in rank space) and runs the same DP; ``verify`` and the
tests compare the pipeline against it.  ``maxdom solve`` of a large
all-integer file parses and grids its point lines in parts, one process per
CPU (``grid_parts``), and hands the parts' cells to the same pipeline.

The DP takes any instance, ranked or not: it walks the queries in the
staircase order (``CellGrid.stair``) and compares their x-ranks
(``CellGrid.qx``), ties broken by id as in the rank transform.  Layer l
computes, for every position i in decreasing-y order, the best covered
weight achievable with at most l picks drawn from the queries in the closed
upper-left region of position i, measured on the points strictly above
position i.  A transition picks the lowest selected query j, whose quadrant
contributes the sweep's cov(i, j), and inherits the rest from layer l-1 at
j.  A sentinel position m + 1, right of and below every query, turns its
entry into the global optimum; it exists only inside the DP.

Two engines return the same int layer tables and picks: ``dp_layers``, the
paper's simple algorithm ("sweep"), in O(m^2) time per layer, and
``tree_layers`` ("tree"), all k layers in one sweep over a segment tree in
O(k (c + m) log m) time for c nonzero cells.  ``_solution`` divides the
reported values by the grid's scale once.  ``run_pipeline`` defaults to
``"auto"``, which runs whichever engine ``_estimates`` predicts faster (the
paper's min{}), and refuses a solve estimated over ``DP_BUDGET_S`` or
``DP_SLOT_BUDGET``; ``maxdom bench`` times the simple DP by name.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter

from .cells import CellGrid, _merge_into, add_parts, build_grid, sum_batches
from .coverage import CoverageSweep, build_row_sums
from .instances import point_batches, point_ranges
from .model import Instance, Solution, exact
from .ranking import drop_uncovered, rank_transform


def dp_layers(inst: Instance, grid: CellGrid):
    """All layer tables and predecessor links; layer 0 is identically zero.

    ``grid`` must hold the per-strip cells of ``inst``, as
    ``build_row_sums(build_grid(inst))`` gives them; every layer consumes a
    fresh ``CoverageSweep`` over them.

    Returns ``(tables, preds, k_eff)`` where ``tables[l][i]`` is the layer-l
    optimum at position i (1-based, sentinel last) and ``preds[l][i]`` the
    maximizing position.  Ties resolve to the self-link first and then to the
    smallest position, so an all-zero optimum reconstructs to the empty pick
    set; the optimum value is independent of tie-breaking.
    """
    qx = grid.qx
    last = len(qx) - 1
    k_eff = min(inst.k, last - 1)
    tables: list[list[int]] = [[0] * (last + 1)]
    preds: list[list[int] | None] = [None]
    for _layer in range(1, k_eff + 1):
        sweep = CoverageSweep(grid, qx)
        advance = sweep.advance
        cov = sweep.cov  # mutated in place by advance, never reassigned
        t_prev = tables[-1]
        t_cur = [0] * (last + 1)
        pred = [0] * (last + 1)
        t_cur[1] = t_prev[1]
        pred[1] = 1
        for i in range(2, last + 1):
            advance()
            xi = qx[i]
            best = t_prev[i]  # self-link: keep the layer-(l-1) set, pick nothing at i
            bj = i
            for j in range(1, i):
                if qx[j] <= xi:
                    v = t_prev[j] + cov[j]
                    if v > best:
                        best = v
                        bj = j
            t_cur[i] = best
            pred[i] = bj
        tables.append(t_cur)
        preds.append(pred)
    return tables, preds, k_eff


def _field_bytes(total: int) -> int:
    """Bytes per lane field of the tree over int cell weights of total absolute weight ``total``.

    With W = ``total``, every value a field holds lies in [0, 3W + 1] once
    biased by 2W + 1 (``_tree_tables``), and the field's top bit must stay
    clear: 1, 2, 4 or 8 bytes, or as many as it takes.
    """
    need = ((3 * total + 1).bit_length() + 8) // 8  # one bit more, in whole bytes
    return need if need > 8 else 1 << (need - 1).bit_length()


def _strip_adds(qx: list[int], per_row) -> list:
    """Per strip, its nonzero cells as ``(leaf, weight)`` pairs.

    ``per_row`` is the zero-free grid's per-strip ``(col, weight)`` pairs.  Leaves
    index the queries by x-rank (``qx[i] // 2 - 1``).  A cell's leaf is that
    of the leftmost query above its strip that covers it, so the queries
    covering the cell are exactly those above the strip at that leaf or
    right of it.  The sorted leaves above a strip are brought up to date
    only at strips with cells, as ``cells._sum_cells`` does for points.
    """
    leaves = [x // 2 - 1 for x in qx]
    prefix: list[int] = []  # leaves of the ``done`` highest queries, sorted
    done = 0
    adds = []
    for s, strip in enumerate(per_row, 1):
        if not strip:
            adds.append(())
            continue
        _merge_into(prefix, leaves[done + 1 : s + 1])
        done = s
        adds.append([(prefix[col - 1], w) for col, w in strip])
    return adds


def tree_layers(inst: Instance, grid: CellGrid):
    """``dp_layers``' tables and picks from one segment-tree sweep that carries all k layers.

    The sweep visits the positions in staircase order over a segment tree
    whose leaves are the queries' x-ranks.  For layer l, leaf j holds
    ``t_{l-1}[j] + cov(i, j)`` once position j is inserted: before position
    i, every nonzero cell of strip i - 1 adds its weight to the leaves at or
    right of its own leaf, ``t_l[i]`` is the better of its self-link
    ``t_{l-1}[i]`` and the maximum over the leaves left of it, and position
    i is then inserted.  One tree holds all k layers, each node value
    packing one field per layer into one int (``_tree_tables``): O(k (c + m)
    log m) time in all, c the nonzero cells.

    Returns ``dp_layers``' ``(tables, preds, k_eff)``, but ``preds[l]``
    holds only the link that the optimal walk follows (``_tree_preds``).
    """
    qx = grid.qx
    k_eff = min(inst.k, len(qx) - 2)
    adds = _strip_adds(qx, grid.per_row)
    tables, corner = _tree_tables(qx, adds, k_eff, grid.total)
    preds = _tree_preds(qx, adds, tables, corner, k_eff)
    return tables, preds, k_eff


def _tree_width(m: int) -> int:
    """The segment tree's leaf count: a power of two, at least m."""
    return 1 << (m - 1).bit_length()


def _unpack(rows: list[int], k: int, nbytes: int) -> list[list[int]]:
    """Per field l < k, the list of field l of every row: ``rows`` are ints of k ``nbytes``-byte fields.

    Fields of 1, 2, 4 or 8 bytes go through one ``array`` over all the rows'
    bytes; wider fields are cut from them.
    """
    data = b"".join([r.to_bytes(k * nbytes, "little") for r in rows])
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(nbytes)
    if code is not None and array(code).itemsize == nbytes:
        flat = array(code, data)
        if sys.byteorder == "big":
            flat.byteswap()
        return [flat[l::k].tolist() for l in range(k)]
    flat = [int.from_bytes(data[s : s + nbytes], "little") for s in range(0, len(data), nbytes)]
    return [flat[l::k] for l in range(k)]


def _tree_tables(qx: list[int], adds, k_eff: int, total: int) -> tuple[list[list[int]], list[int]]:
    """``tree_layers``' tables and corner sums from the staircase x-ranks, the int strip adds and their total.

    A suffix add of w from leaf j is kept as a point add at leaf j: with
    ``A[j]`` the adds made at leaf j so far, a leaf's value is its base plus
    ``A`` summed over the leaves up to it.  The base is -W - 1 (W =
    ``total``) until the leaf is inserted, so the value stays negative, and
    is then set so that the value is the inserted entry.  Node ``p`` keeps
    two ints of one field per layer, field l - 1 for layer l: ``S[p]``, the
    sum of ``A`` over its leaves in every field, and ``M[p]``, per layer the
    maximum over its leaves j of j's base plus ``A`` summed from ``p``'s
    first leaf to j, so that ``S[p] = S[a] + S[a + 1]`` and ``M[p] =
    fmax(M[a], M[a + 1] + S[a])`` over its children ``a`` and ``a + 1``.
    An add updates the leaf's ``S`` and ``M`` by ``w * ones`` and recomputes
    its ancestors.  The maximum over the leaves left of a leaf folds its
    left siblings from the nearest, ``res = fmax(M[s], res + S[s])``, and
    their ``S`` sum to the adds left of it, which its insert subtracts.

    A sum of distinct cells lies in [-N, P], N and P the cells' total
    negative and positive weight (W = N + P).  Every value that ``M`` and
    the fold hold is one such sum less another, in [-W, W], or -W - 1 plus
    one, in [-2W - 1, -1]: biased by 2W + 1, every field stays in
    [0, 3W + 1], so its top bit is a guard (``_field_bytes``) and the
    fieldwise maximum of two node values takes a fixed handful of int
    operations, whatever k is: subtract fieldwise with the guards set, so a
    guard survives where the first is at least as large; spread the
    surviving guards to masks over their fields; and select under the
    masks.  No operation multiplies a node value.

    Every layer table is nondecreasing in l (the self-link), so layer l's
    maximum left of position i never falls as l grows, and ``t_l[i]`` is
    the larger of 0 and that maximum: one fieldwise maximum with 0 gives all
    of position i's entries at once.  Its insert is the same row shifted up
    one field, layer 1's field holding ``t_0[i] = 0``.  The rows stay packed
    and are unpacked once, at the end.

    No cell of strips 1..i - 1 lies at position i's leaf, so the adds left
    of the leaf that its insert subtracts are ``corner[i]`` in every field,
    the weight of strips 1..i - 1 at leaves up to it, which ``_tree_preds``
    needs.  Returns ``(tables, corner)``, ``corner`` indexed by position.
    """
    last = len(qx) - 1
    size = _tree_width(last - 1)
    leaf = [size + x // 2 - 1 for x in qx]  # the sentinel's is past the end when m == size
    bias = 2 * total + 1
    nbytes = _field_bytes(total)
    f = 8 * nbytes
    g = f - 1
    ones = sum(1 << (f * l) for l in range(k_eff))  # 1 in every field
    guards = ones << g
    full = (ones << f) - ones  # every field's bits
    zero = bias * ones
    S = [0] * (2 * size)
    M = [(bias - total - 1) * ones] * (2 * size)
    rows = [0]  # rows[i]: t_1[i], ..., t_k[i], packed
    corner = [0] * last
    for i in range(1, last + 1):
        if i > 1:
            for p, w in adds[i - 2]:  # strip i - 1: suffix add from leaf p
                d = w * ones
                p += size
                S[p] += d
                M[p] += d
                while p > 1:
                    p >>= 1
                    a = 2 * p
                    s = S[a]
                    S[p] += d
                    x = M[a]
                    y = M[a + 1] + s
                    t = ((x | guards) - y) & guards
                    M[p] = y ^ ((x ^ y) & (t - (t >> g)))
        p = leaf[i]
        if p < 2 * size:
            res = None  # every layer's maximum left of the leaf, plus the bias
            left = 0  # the adds left of the leaf, times ``ones``
            while p > 1:
                if p & 1:  # the left sibling lies wholly left of the leaf
                    x = M[p - 1]
                    s = S[p - 1]
                    if res is None:
                        res = x
                    else:
                        y = res + s
                        t = ((x | guards) - y) & guards
                        res = y ^ ((x ^ y) & (t - (t >> g)))
                    left += s
                p >>= 1
        else:  # the sentinel, m a power of two: every leaf lies left of it
            res = M[1]
        if res is None:  # no leaf left of position i: it keeps t_0[i] = 0 everywhere
            row = zero
        else:
            t = ((res | guards) - zero) & guards
            row = zero ^ ((res ^ zero) & (t - (t >> g)))
        rows.append(row - zero)
        if i < last:  # insert position i: layer l's leaf value becomes t_{l-1}[i]
            if ones:  # none at k = 0, where the picks need no corner sums
                corner[i] = left // ones
            p = leaf[i]
            M[p] = (((row << f) | bias) & full) - left
            while p > 1:
                p >>= 1
                a = 2 * p
                x = M[a]
                y = M[a + 1] + S[a]
                t = ((x | guards) - y) & guards
                new = y ^ ((x ^ y) & (t - (t >> g)))
                if new == M[p]:
                    break
                M[p] = new
    del S, M  # the tables take their place
    return [[0] * (last + 1), *_unpack(rows, k_eff, nbytes)], corner


def _tree_preds(qx: list[int], adds, tables, corner, k_eff: int):
    """``dp_layers``' predecessor links along the optimal walk, one per layer.

    With ``P(s, x)`` the weight of strips 1..s at leaves up to x, the walk
    needs ``cov(i, j) = P(i - 1, leaf_j) - P(j - 1, leaf_j)``.  The second
    terms are ``corner[j]``, as ``_tree_tables`` records them.  The walk's
    rows come in decreasing i, so the per-leaf weights of strips 1..i - 1
    are kept by taking strips off as i falls, and each row's first terms
    are one ``accumulate`` over them.  The pick is ``dp_layers``'
    tie-break: the self-link first, then the smallest j.  Returns ``preds``
    with ``preds[l]`` a one-entry ``{i: j}`` mapping.
    """
    last = len(qx) - 1
    leaves = [x // 2 - 1 for x in qx]
    dense = [0] * last  # per leaf, the weight of strips 1..upto
    upto = last - 1
    for strip in adds:
        for p, w in strip:
            dense[p] += w
    preds: list[dict[int, int] | None] = [None] * (k_eff + 1)
    i, row_i = last, 0
    for layer in range(k_eff, 0, -1):
        if row_i != i:  # a self-link keeps i, and so its row
            row_i = i
            for strip in adds[i - 1 : upto]:
                for p, w in strip:
                    dense[p] -= w
            upto = i - 1
            prefix = list(accumulate(dense))
        t_prev = tables[layer - 1]
        xi = qx[i]
        best, bj = t_prev[i], i
        for j in range(1, i):
            if qx[j] < xi:
                v = t_prev[j] + prefix[leaves[j]] - corner[j]
                if v > best:
                    best, bj = v, j
        preds[layer] = {i: bj}
        i = bj
    return preds


def _chosen_ids(stair, preds, k_eff: int) -> frozenset[int]:
    """Walk predecessor links from the sentinel, skipping self-links."""
    ids = []
    i = len(stair) + 1
    for layer in range(k_eff, 0, -1):
        j = preds[layer][i]
        if j != i:
            ids.append(stair[j - 1].id)
        i = j
    return frozenset(ids)


def _solution(grid: CellGrid, tables, preds, k_eff: int) -> Solution:
    """The optimum, its pick set and each layer's optimum off the DP's int tables, divided by the scale once."""
    stair, scale = grid.stair, grid.scale
    last = len(stair) + 1
    layers = tuple(exact(tables[l][last], scale) for l in range(1, k_eff + 1))
    return Solution(_chosen_ids(stair, preds, k_eff), layers[-1] if layers else 0, layers)


def _dp_pairs(qx: list[int], k_eff: int) -> int:
    """Transitions the DP visits: (layer, i, j) with j < i in y-order and x_j <= x_i.

    Counted from the query order alone, one bisect and one sorted insert per
    position (sentinel included), so counting adds nothing to the DP loops.
    """
    seen: list = []
    per_layer = 0
    for x in qx[1:]:
        per_layer += bisect_right(seen, x)
        insort(seen, x)
    return per_layer * k_eff


# Nanoseconds per unit of each engine's work estimate (``_estimates``), from
# ``scripts/calibrate_engines.py`` on a 2-core x86-64 KVM guest under CPython
# 3.11.7 (``--reps 5``, seeds 1 and 2).  SWEEP_NS: the mean of two runs'
# medians over nine shapes, 109.2 and 106.0.  TREE_NODE_NS and TREE_LANE_NS
# (the prefix-sum tree): four later runs fit 416.8 + 5.45 k, 350.0 + 6.83 k,
# 304.4 + 3.86 k and 371.0 + 5.17 k over the same shapes at k = 1..32, while
# the machine ran faster and their sweep medians read 75.4, 70.1, 63.4 and
# 62.4; each is the mean ratio to its run's sweep median (5.317 and 0.0784)
# times SWEEP_NS.  Only their ratios steer ``auto``; the budget scales with
# all three.
SWEEP_NS = 107.6
TREE_NODE_NS = 572.1
TREE_LANE_NS = 8.43
# A solve whose chosen engine is estimated beyond this is refused before any
# DP work: a few minutes of calibrated work.
DP_BUDGET_S = 180.0
# A solve whose chosen engine would hold more list slots than this
# (``_slots``) is refused as well.  A slot took 12-15 bytes under
# tracemalloc (uniform shapes up to m = 4,096 and k = 256) and can take
# about 32 (a pointer and a float of its own): 0.6-1.6 GB.  The tree's peak
# came to 6-11 bytes per slot that ``_slots`` counts, at fields of 1 to 33
# words (uniform m = 256 to 4,096, k = 8 to 256).
DP_SLOT_BUDGET = 50_000_000


def _estimates(m: int, k_eff: int, cells: int, words: int = 1) -> dict[str, float]:
    """Predicted dp-stage seconds of each engine, from closed-form work counts.

    The simple DP (``dp_layers``, "sweep") scans k * m^2 (layer, i, j)
    slots; the segment tree (``tree_layers``, "tree") walks c + 2m root
    paths of depth ``m.bit_length()`` = ceil(log2(m + 1)), c the nonzero
    cells, each node visit costing a fixed part plus one per lane and
    64-bit word of its field (``words``, 1 up to 64 bits).  The sweep wins
    a tie.
    """
    paths = (cells + 2 * m) * m.bit_length()
    return {
        "sweep": SWEEP_NS * 1e-9 * k_eff * m * m,
        "tree": (TREE_NODE_NS + TREE_LANE_NS * k_eff * words) * 1e-9 * paths,
    }


def _slots(m: int, k_eff: int, words: int = 1) -> dict[str, int]:
    """List slots each engine holds at its peak, a field of the tree counted per 64-bit word.

    Both hold the k + 1 layer tables of m + 2 entries and as many entries
    again: the sweep's predecessor links, the tree's rows by position, whose
    ints are ``words`` 64-bit words wide.  Each node of the tree adds two
    ints of k fields (``_tree_tables``' ``M`` and ``S``): a lane counts
    once at one word, where both of its fields of at most 8 bytes fit the
    bytes of one slot, and twice for every further word.  ``words`` is 1, a
    lower bound, before the cells are known and where the tree cannot run
    (``run_pipeline``).
    """
    tables = (k_eff + 1) * (m + 2)
    return {
        "sweep": 2 * tables,
        "tree": tables * (1 + words) + 2 * _tree_width(m) * k_eff * (2 * words - 1),
    }


# Engine name -> the name of its function, looked up in the module at each
# solve so that a wrapper set on it (perfbench's tracer) sees the calls.
_ENGINES = {"sweep": "dp_layers", "tree": "tree_layers"}


def _choose(engine: str, estimates: dict[str, float], slots: dict[str, int]) -> str:
    """The engine to run: ``"auto"`` picks the cheapest estimate within both budgets.

    Refuses with ``ValueError`` when no engine it may pick is within
    ``DP_BUDGET_S`` and ``DP_SLOT_BUDGET``, naming the fastest one and the
    budget that it is over.
    """
    if engine != "auto" and engine not in _ENGINES:
        raise ValueError(f"unknown dp engine {engine!r}; known: auto, {', '.join(_ENGINES)}")
    names = list(_ENGINES) if engine == "auto" else [engine]
    fits = [e for e in names if estimates[e] <= DP_BUDGET_S and slots[e] <= DP_SLOT_BUDGET]
    if fits:
        return min(fits, key=estimates.__getitem__)
    engine = min(names, key=estimates.__getitem__)
    if estimates[engine] > DP_BUDGET_S:
        raise ValueError(
            f"refusing to solve: the {engine} dp is estimated at {estimates[engine]:.3g} s, "
            f"over the budget of {DP_BUDGET_S:g} s"
        )
    raise ValueError(
        f"refusing to solve: the {engine} dp would hold {slots[engine]:.3g} list slots, "
        f"over the budget of {DP_SLOT_BUDGET:.3g}"
    )


@dataclass
class PipelineResult:
    """A solve with its stage timings, grid statistics and DP work counts."""

    solution: Solution
    retained: int  # ground points covered by some query, i.e. summed into cells
    cells: int  # non-empty cells, zero-weight ones included
    compressed_size: int  # nonzero-weight cells, the compressed ground set
    dp_pairs: int  # eligible (layer, i, j) transitions, see ``_dp_pairs``
    stage_seconds: dict[str, float]
    engine: str  # the DP that ran: "sweep" (``dp_layers``) or "tree" (``tree_layers``)
    estimates: dict[str, float]  # predicted dp seconds per engine, see ``_estimates``


def run_pipeline(inst: Instance, engine: str = "auto", parts=None) -> PipelineResult:
    """sum the cells -> layered DP -> reconstruct.

    The cells are summed straight from ``inst``'s point columns in its own
    coordinates; the nonzero cells are the compressed ground set, whose size
    is reported as ``compressed_size``.  Where ``parts`` is given, it holds
    the cells of ``inst``'s queries over each part of the ground set, as
    ``grid_parts`` returns them, and the grid stage adds them instead.

    ``engine`` is ``"auto"`` (the default), which runs whichever engine
    ``_estimates`` predicts faster once the cells are known, ``"sweep"``
    (the paper's simple DP) or ``"tree"``; both give the same tables and
    picks.  For either, ``dp`` times the tables and
    picks and ``reconstruct`` reads the solution off them and counts
    ``dp_pairs``.  A solve whose engine is estimated over ``DP_BUDGET_S`` or
    would hold more than ``DP_SLOT_BUDGET`` list slots raises ``ValueError``
    before any DP work, and before the grid when even an instance with no
    cells and the narrowest tree fields would be over.
    """
    k_eff = min(inst.k, inst.m)
    # No cells and one-word fields are a lower bound: what is over the budget
    # even so is refused ungridded.
    _choose(engine, _estimates(inst.m, k_eff, 0), _slots(inst.m, k_eff))
    t0 = perf_counter()
    grid = build_grid(inst) if parts is None else add_parts(inst, parts)
    cells = sum(map(len, grid.per_row))
    grid = build_row_sums(grid)
    nonzero = sum(map(len, grid.per_row))
    estimates = _estimates(inst.m, k_eff, nonzero)
    # Fields wider than one word only price the tree higher, so its field
    # width matters only where the tree may run: named, or cheaper unpriced.
    words = 1
    if engine == "tree" or (engine == "auto" and estimates["tree"] < estimates["sweep"]):
        words = -(-_field_bytes(grid.total) // 8)
        estimates = _estimates(inst.m, k_eff, nonzero, words)
    engine = _choose(engine, estimates, _slots(inst.m, k_eff, words))
    t1 = perf_counter()
    tables, preds, k_eff = globals()[_ENGINES[engine]](inst, grid)
    t2 = perf_counter()
    solution = _solution(grid, tables, preds, k_eff)
    dp_pairs = _dp_pairs(grid.qx, k_eff)
    t3 = perf_counter()
    return PipelineResult(
        solution,
        grid.retained,
        cells,
        nonzero,
        dp_pairs,
        {"grid": t1 - t0, "dp": t2 - t1, "reconstruct": t3 - t2},
        engine,
        estimates,
    )


def _grid_range(path, start: int, stop: int, queries: Instance) -> tuple:
    """``(per_row, retained, count)`` of the point lines in bytes ``[start, stop)``.

    ``per_row`` and ``retained`` are those of their grid over ``queries``
    and ``count`` is how many there are: what a child sends back, summed
    batch by batch as it is parsed (``cells.sum_batches``).  Raises
    ``ValueError`` for a value that is not an int64: the parts' cell sums
    are added as they are, while decimal weights would first need one scale
    common to every part.
    """
    return sum_batches(queries, map(_int64, point_batches(path, start, stop)))


def _int64(batch: tuple) -> list:
    """``batch``'s columns as int64 arrays; ``ValueError`` for a value that is not an int64."""
    try:
        return [array("q", col) for col in batch]
    except (TypeError, OverflowError):
        raise ValueError("a point value that is not an int64") from None


def grid_parts(path, _parts: int | None = None):
    """``(n, queries, parts)`` for the instance file at ``path``, parsed and gridded in parts, or None.

    The point lines are cut into one byte range per usable CPU, or
    ``_parts`` (``instances.point_ranges``).  This process parses and grids
    the first range; one forked child does each other one and sends back
    ``_grid_range``'s result, pickled over a pipe.  ``queries`` is the
    file's queries and k with no points, ``parts`` each part's
    ``(per_row, retained)``, and ``add_parts(queries, parts)`` is
    ``build_grid(parse(path))`` exactly.  None, leaving the file to
    ``parse``, where the file is small or not plain enough to be split,
    ``fork`` is missing or this process runs other threads (a lock one of
    them holds would stay held in the child), a part's column is not int64,
    a part fails in any way or the parts' point counts do not add up to n;
    the children are reaped in every case.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    parts = _parts or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count())
    children = []  # (pid, the read end of its pipe)
    results = None
    try:
        plan = point_ranges(path, parts)
        if plan is None:
            return None
        n, queries, ranges = plan
        import pickle  # here, so that a process that never splits does not hold the module

        for start, stop in ranges[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the part, then exit at once, whatever happened
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        pickle.dump(_grid_range(path, start, stop, queries), out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [_grid_range(path, *ranges[0], queries)]
        results += [pickle.load(reader) for _, reader in children]
    except Exception:  # whatever went wrong, ``parse`` of the whole file reports it
        results = None
    finally:
        for pid, reader in children:
            reader.close()
            if results is None:
                os.kill(pid, signal.SIGKILL)
            if os.waitpid(pid, 0)[1]:
                results = None
    if results is None or sum(count for _, _, count in results) != n:
        return None
    return n, queries, [(per_row, retained) for per_row, retained, _ in results]


def solve_pipeline(inst: Instance) -> Solution:
    """End-to-end solve; see ``run_pipeline`` for the engine choice, timings and statistics."""
    return run_pipeline(inst).solution


def solve_reference(inst: Instance) -> Solution:
    """The ranked reference solve that ``verify`` and the tests compare against.

    Every point is rank-transformed, uncovered points are dropped and the
    ranked points are gridded; the cell sums, and so the value and the picks,
    equal ``solve_pipeline``'s.
    """
    rr = drop_uncovered(rank_transform(inst))
    grid = build_row_sums(build_grid(rr))
    return _solution(grid, *dp_layers(rr, grid))
