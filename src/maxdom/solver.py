"""Layered dynamic program over the query staircase, plus the full pipeline.

The pipeline sums the ground points into the cells of the covered region in
one pass over the instance's point columns (``cells.build_grid``), turns the
cells into per-strip prefix sums and runs the DP on them.  The n-side is
thus one bucketing pass, O(n log m), that builds no per-point object; the
cell sums are themselves the compressed ground set, so nothing is compressed
or gridded a second time.  ``solve_reference`` reaches the same cell sums the
ranked way (rank every point, drop the uncovered ones, grid in rank space)
and runs the same DP; ``verify`` and the tests compare the pipeline against
it.

The DP takes any instance, ranked or not: it walks the queries in the
staircase order of ``ranking.y_sorted_queries`` and compares their x-ranks,
ties broken by id as in the rank transform.  Layer l computes, for every
position i in decreasing-y order (sentinel last), the best covered weight
achievable with at most l picks drawn from the queries in the closed
upper-left region of position i, measured on the points strictly above
position i.  A transition picks the lowest selected query j, whose quadrant
contributes the sweep's cov(i, j), and inherits the rest from layer l-1 at
j.  A sentinel position m + 1, right of and below every query, turns its
entry into the global optimum; it exists only inside the DP and is never
reported.

Two engines return the same layer tables and picks.  ``dp_layers``, the
paper's simple algorithm ("sweep"), consumes one fresh coverage sweep per
layer and scans every pair: O(m^2) time per layer, O(n + m) space plus the
O(k*m) predecessor links used for reconstruction.  ``tree_layers`` ("tree")
runs all k layers in one sweep over a max segment tree on the x-ranks, each
node holding one value per layer: O(k (c + m) log m) time for c nonzero
cells.  Its picks come from ``_tree_preds``, which rebuilds only the
coverage rows that the optimal walk visits.  ``run_pipeline`` defaults to
``"auto"``, which runs whichever engine ``_estimates`` predicts faster from
m, k and c (the paper's min{}), and refuses a solve estimated over
``DP_BUDGET_S`` or ``DP_SLOT_BUDGET``; ``maxdom bench`` times the simple DP
by name.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter

from .cells import _merge_into, build_grid
from .coverage import CoverageSweep, RowSums, build_row_sums
from .model import Instance, Solution
from .ranking import _axis_transform, drop_uncovered, rank_transform, y_sorted_queries


def _staircase_x(inst: Instance) -> list[int]:
    """``[0, x_1, ..., x_m, x_sentinel]``: x-ranks by staircase position.

    Queries are ranked by ``(x, id)`` as in the rank transform; the sentinel
    at position m + 1 lies right of all of them.
    """
    qs = y_sorted_queries(inst)
    ranks, _ = _axis_transform([q.x for q in qs], [q.id for q in qs], ())
    return [0, *ranks, 2 * len(qs) + 2]


def dp_layers(inst: Instance, row_sums: RowSums):
    """All layer tables and predecessor links; layer 0 is identically zero.

    ``row_sums`` must hold the per-strip sums of ``inst``'s cells; every
    layer consumes a fresh ``CoverageSweep`` over them.

    Returns ``(tables, preds, k_eff)`` where ``tables[l][i]`` is the layer-l
    optimum at position i (1-based, sentinel last) and ``preds[l][i]`` the
    maximizing position.  Ties resolve to the self-link first and then to the
    smallest position, so an all-zero optimum reconstructs to the empty pick
    set; the optimum value is independent of tie-breaking.
    """
    qx = _staircase_x(inst)
    last = len(qx) - 1
    k_eff = min(inst.k, last - 1)
    tables: list[list[float]] = [[0] * (last + 1)]
    preds: list[list[int] | None] = [None]
    for _layer in range(1, k_eff + 1):
        sweep = CoverageSweep(row_sums, qx)
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


def _strip_adds(qx: list[int], row_sums: RowSums) -> list:
    """Per strip, its nonzero cells as ``(leaf, weight)`` pairs.

    Leaves index the queries by x-rank (``qx[i] // 2 - 1``).  A cell's leaf
    is that of the leftmost query above its strip that covers it, so the
    queries covering the cell are exactly those above the strip at that
    leaf or right of it.  The sorted leaves above a strip are brought up to
    date only at strips with cells, as ``cells`` does for points.
    """
    leaves = [x // 2 - 1 for x in qx]
    prefix: list[int] = []  # leaves of the ``done`` highest queries, sorted
    done = 0
    adds = []
    for s, pairs in enumerate(row_sums.rows, 1):
        if not pairs:
            adds.append(())
            continue
        _merge_into(prefix, leaves[done + 1 : s + 1])
        done = s
        prev = 0
        strip = []
        for col, cum in pairs:
            strip.append((prefix[col - 1], cum - prev))
            prev = cum
        adds.append(strip)
    return adds


def tree_layers(inst: Instance, row_sums: RowSums):
    """``dp_layers``' tables and picks from one segment-tree sweep that carries all k layers.

    The sweep visits the positions in staircase order over a max segment
    tree whose leaves are the queries' x-ranks.  For layer l, leaf j holds
    ``t_{l-1}[j] + cov(i, j)`` once position j is inserted: before position
    i, every nonzero cell of strip i - 1 adds its weight to the leaves at or
    right of its own leaf, ``t_l[i]`` is the better of its self-link
    ``t_{l-1}[i]`` and the maximum over the leaves left of it, and position
    i is then inserted.  Leaves not yet inserted start below any reachable
    value, so they never win.  The layers differ only in the values inserted
    at the leaves, so one tree holds them all: each node keeps one lane per
    layer and one add tag that all lanes share.  A cell's suffix add costs
    O(log m) tag updates plus O(k) per ancestor recomputed; position i takes
    every lane's prefix maximum in one walk up from its leaf, derives
    ``t_1[i] .. t_k[i]`` from them at once and inserts ``t_0[i] ..
    t_{k-1}[i]``.  O(k (c + m) log m) time in all, c the nonzero cells.

    Returns ``dp_layers``' ``(tables, preds, k_eff)``, but ``preds[l]``
    holds only the link that the optimal walk follows (``_tree_preds``).
    """
    qx = _staircase_x(inst)
    k_eff = min(inst.k, len(qx) - 2)
    adds = _strip_adds(qx, row_sums)
    tables = _tree_tables(qx, adds, k_eff)
    return tables, _tree_preds(qx, adds, tables, k_eff), k_eff


def _floor(adds) -> float:
    """A value below every reachable leaf, for the leaves not yet inserted.

    An inserted leaf holds at least -W, W the total absolute weight, and the
    adds move a leaf not yet inserted by at most W: it stays below -W.
    """
    return -1 - 2 * sum(abs(w) for strip in adds for _, w in strip)


def _tree_width(m: int) -> int:
    """The segment tree's leaf count: a power of two, at least m."""
    return 1 << (m - 1).bit_length()


def _tree_tables(qx: list[int], adds, k_eff: int) -> list[list[float]]:
    """``tree_layers``' tables from the staircase x-ranks and the strip adds.

    Lane l - 1 of a node stands for layer l.  The maximum of lane l over
    node ``p``'s subtree is ``lanes[p][l] + off[p] + tag[p]`` plus the tags
    of ``p``'s strict ancestors: ``tag[p]`` holds the adds applied to
    ``p``'s whole subtree and ``off[p]`` a scalar folded out of the lanes
    when they were last recomputed.  A tag update thus touches one scalar,
    and a recompute one list of k.  ``t_l[i]`` is the better of
    ``t_{l-1}[i]`` and lane l - 1's maximum left of position i, so all of
    position i's entries come from one ``accumulate``.
    """
    last = len(qx) - 1
    size = _tree_width(last - 1)
    leaf = [size + x // 2 - 1 for x in qx]  # the sentinel's is past the end when m == size
    lanes = [[_floor(adds)] * k_eff] * (2 * size)  # shared: every write stores a new list
    off = [0] * (2 * size)
    tag = [0] * (2 * size)
    zeros = [0] * (k_eff + 1)
    rows = [zeros]  # rows[i]: t_0[i], ..., t_k[i]
    for i in range(1, last + 1):
        if i > 1:
            for p, w in adds[i - 2]:  # strip i - 1: suffix add from leaf p
                p += size
                while not p & 1 and p > 1:  # p's sibling is covered too: add to the parent
                    p >>= 1
                tag[p] += w
                while p > 1:
                    if not p & 1:
                        tag[p + 1] += w
                    p >>= 1
                    a, b = 2 * p, 2 * p + 1
                    base = off[a] + tag[a]
                    d = off[b] + tag[b] - base
                    lanes[p] = [u if u > (v := y + d) else v for u, y in zip(lanes[a], lanes[b])]
                    off[p] = base
        p = leaf[i]
        if p < 2 * size:
            res = None  # every lane's maximum left of the leaf, less ``shift``
            below = 0  # tags of the path from the leaf up to p
            while p > 1:
                below += tag[p]
                if p & 1:  # the left sibling lies wholly left of the leaf
                    c = off[p - 1] + tag[p - 1] - below
                    if res is None:
                        res, shift = lanes[p - 1], c
                    else:
                        d = c - shift
                        res = [u if u > (v := y + d) else v for u, y in zip(res, lanes[p - 1])]
                p >>= 1
            below += tag[1]  # now the tags of the whole path
            if res is not None:
                shift += below
        else:  # the sentinel, m a power of two: every leaf lies left of it
            res, shift = lanes[1], off[1] + tag[1]
        if res is None:  # no leaf left of position i: it keeps t_0[i] = 0 everywhere
            ts = zeros
        else:
            ts = list(accumulate([0, *[u + shift for u in res]], max))
        rows.append(ts)
        if i < last:  # insert position i: lane l's leaf value becomes t_l[i]
            p = leaf[i]
            lanes[p] = ts[:-1]
            off[p] = -below  # cancels the tags on the leaf's path
            while p > 1:
                p >>= 1
                a, b = 2 * p, 2 * p + 1
                base = off[a] + tag[a]
                d = off[b] + tag[b] - base
                new = [u if u > (v := y + d) else v for u, y in zip(lanes[a], lanes[b])]
                if base == off[p] and new == lanes[p]:
                    break
                lanes[p] = new
                off[p] = base
    return [list(t) for t in zip(*rows)]


def _tree_preds(qx: list[int], adds, tables, k_eff: int):
    """``dp_layers``' predecessor links along the optimal walk, one per layer.

    Each step rebuilds the one row cov(i, .) it needs with a Fenwick tree
    over the leaves: strips i - 1 down to 1 are added in turn, and cov(i, j)
    is read right after strip j as the weight at leaves up to j's.  The pick
    is ``dp_layers``' tie-break: the self-link first, then the smallest j.
    Returns ``preds`` with ``preds[l]`` a one-entry ``{i: j}`` mapping.
    """
    last = len(qx) - 1
    preds: list[dict[int, int] | None] = [None] * (k_eff + 1)
    i, row_i = last, 0
    for layer in range(k_eff, 0, -1):
        if row_i != i:  # a self-link keeps i, and so its row
            row_i = i
            fen = [0] * last  # 1-based over the m leaves
            row = [0] * i
            for j in range(i - 1, 0, -1):
                for p, w in adds[j - 1]:
                    p += 1
                    while p < last:
                        fen[p] += w
                        p += p & -p
                p = qx[j] // 2  # leaf of j, plus one
                while p:
                    row[j] += fen[p]
                    p -= p & -p
        t_prev = tables[layer - 1]
        best, bj = t_prev[i], i
        for j in range(1, i):
            if qx[j] < qx[i] and t_prev[j] + row[j] > best:
                best, bj = t_prev[j] + row[j], j
        preds[layer] = {i: bj}
        i = bj
    return preds


def _chosen_ids(inst: Instance, preds, k_eff: int) -> frozenset[int]:
    """Walk predecessor links from the sentinel, skipping self-links."""
    qs = y_sorted_queries(inst)
    ids = []
    i = len(qs) + 1
    for layer in range(k_eff, 0, -1):
        j = preds[layer][i]
        if j != i:
            ids.append(qs[j - 1].id)
        i = j
    return frozenset(ids)


def _solution(inst: Instance, tables, preds, k_eff: int) -> Solution:
    """The optimum, its pick set and each layer's optimum, read off the DP's output."""
    last = inst.m + 1
    layers = tuple(tables[l][last] for l in range(1, k_eff + 1))
    return Solution(_chosen_ids(inst, preds, k_eff), tables[k_eff][last], layers)


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
# 3.11.7, the mean of two runs (``--reps 5``, seeds 1 and 2).  SWEEP_NS: the
# medians over nine shapes, 109.2 and 106.0.  TREE_NODE_NS and TREE_LANE_NS:
# the least-squares fits over the same shapes at k = 1..32, 881.3 + 65.23 k
# and 900.4 + 63.98 k.  Only their ratios steer ``auto``; the budget scales
# with all three.
SWEEP_NS = 107.6
TREE_NODE_NS = 891.0
TREE_LANE_NS = 64.6
# A solve whose chosen engine is estimated beyond this is refused before any
# DP work: a few minutes of calibrated work.
DP_BUDGET_S = 180.0
# A solve whose chosen engine would hold more list slots than this
# (``_slots``) is refused as well.  A slot took 12-15 bytes under
# tracemalloc (uniform shapes up to m = 4,096 and k = 256) and can take
# about 32 (a pointer and a float of its own): 0.6-1.6 GB.
DP_SLOT_BUDGET = 50_000_000


def _estimates(m: int, k_eff: int, cells: int) -> dict[str, float]:
    """Predicted dp-stage seconds of each engine, from closed-form work counts.

    The simple DP (``dp_layers``, "sweep") scans k * m^2 (layer, i, j)
    slots; the segment tree (``tree_layers``, "tree") walks c + 2m root
    paths of depth ``m.bit_length()`` = ceil(log2(m + 1)), c the nonzero
    cells, each node visit costing a fixed part plus one per lane.  The
    sweep wins a tie.
    """
    paths = (cells + 2 * m) * m.bit_length()
    return {
        "sweep": SWEEP_NS * 1e-9 * k_eff * m * m,
        "tree": (TREE_NODE_NS + TREE_LANE_NS * k_eff) * 1e-9 * paths,
    }


def _slots(m: int, k_eff: int) -> dict[str, int]:
    """List slots each engine holds at its peak.

    Both hold the k + 1 layer tables of m + 2 entries and as many slots
    again: the sweep's predecessor links, the tree's rows by position.  The
    tree adds k lanes in each of its nodes.
    """
    tables = 2 * (k_eff + 1) * (m + 2)
    return {"sweep": tables, "tree": tables + 2 * _tree_width(m) * k_eff}


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
    row_sum_entries: int  # stored (col, cum) pairs, one per nonzero-weight cell
    dp_pairs: int  # eligible (layer, i, j) transitions, see ``_dp_pairs``
    stage_seconds: dict[str, float]
    engine: str  # the DP that ran: "sweep" (``dp_layers``) or "tree" (``tree_layers``)
    estimates: dict[str, float]  # predicted dp seconds per engine, see ``_estimates``


def run_pipeline(inst: Instance, engine: str = "auto") -> PipelineResult:
    """sum the cells -> layered DP -> reconstruct.

    The cells are summed straight from ``inst``'s point columns in its own
    coordinates; the nonzero cells are the compressed ground set, whose size
    is reported as ``compressed_size``.  The work counts are taken after the
    timed stages.

    ``engine`` is ``"auto"`` (the default), which runs whichever engine
    ``_estimates`` predicts faster once the cells are known, ``"sweep"``
    (the paper's simple DP) or ``"tree"``; both give the same tables and, on
    exact weights, the same picks.  For either, ``dp`` times the tables and
    picks and ``reconstruct`` reads the solution off them.  A solve whose
    engine is estimated over ``DP_BUDGET_S`` or would hold more than
    ``DP_SLOT_BUDGET`` list slots raises ``ValueError`` before any DP work,
    and before the grid when even an instance with no cells would be over.
    """
    k_eff = min(inst.k, inst.m)
    slots = _slots(inst.m, k_eff)
    # No cells is a lower bound: what is over the budget even so is refused ungridded.
    _choose(engine, _estimates(inst.m, k_eff, 0), slots)
    t0 = perf_counter()
    grid = build_grid(inst)
    row_sums = build_row_sums(grid)
    nonzero = sum(map(len, row_sums.rows))  # one stored pair per nonzero cell
    estimates = _estimates(inst.m, k_eff, nonzero)
    engine = _choose(engine, estimates, slots)
    t1 = perf_counter()
    tables, preds, k_eff = globals()[_ENGINES[engine]](inst, row_sums)
    t2 = perf_counter()
    solution = _solution(inst, tables, preds, k_eff)
    t3 = perf_counter()
    return PipelineResult(
        solution,
        grid.retained,
        len(grid.cells),
        nonzero,
        nonzero,
        _dp_pairs(_staircase_x(inst), k_eff),
        {"grid": t1 - t0, "dp": t2 - t1, "reconstruct": t3 - t2},
        engine,
        estimates,
    )


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
    return _solution(rr, *dp_layers(rr, build_row_sums(build_grid(rr))))
