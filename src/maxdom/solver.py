"""Layered dynamic program over the query staircase, plus the full pipeline.

The pipeline ranks the m queries, sums the ground points into the cells of
the covered region in one pass over the instance's point columns
(``cells.build_grid``), turns the cells into per-strip prefix sums and runs
the DP on them.  The n-side is thus one bucketing pass, O(n log m), that
builds no per-point object; the cell sums are themselves the compressed
ground set, so nothing is compressed or gridded a second time.
``solve_reference`` reaches the same cell sums the ranked way (rank every
point, drop the uncovered ones, grid in rank space) and runs the same DP;
``verify`` and the tests compare the pipeline against it.

Layer l computes, for every position i in decreasing-y order (sentinel
last), the best covered weight achievable with at most l picks drawn from
the queries in the closed upper-left region of position i, measured on the
points strictly above position i.  A transition picks the lowest selected
query j, whose quadrant contributes the sweep's cov(i, j), and inherits the
rest from layer l-1 at j.  The sentinel placed right of and below everything
turns the final entry into the global optimum.

One fresh coverage sweep is consumed per layer, so no quadratic coverage
table is ever materialized: total space stays O(n + m) plus the O(k*m)
predecessor links used for reconstruction.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from time import perf_counter

from .cells import build_grid
from .coverage import CoverageSweep, RowSums, build_row_sums
from .model import Instance, QueryPoint, Solution
from .ranking import RankedInstance, drop_uncovered, rank_transform, y_sorted_queries

SENTINEL_ID = -1


def add_sentinel(rinst: RankedInstance) -> RankedInstance:
    """Append the below-right sentinel query; it is never reported in solutions."""
    m = rinst.m
    sentinel = QueryPoint(2 * m + 3, -1, SENTINEL_ID)
    return replace(rinst, Q=rinst.Q + (sentinel,), y_order=rinst.y_order + (m,))


def dp_layers(rinst: RankedInstance, row_sums: RowSums, k: int | None = None):
    """All layer tables and predecessor links; layer 0 is identically zero.

    ``rinst`` must be sentinel-extended and ``row_sums`` must hold the
    per-strip sums of its cells; every layer consumes a fresh
    ``CoverageSweep`` over them.

    Returns ``(tables, preds, k_eff)`` where ``tables[l][i]`` is the layer-l
    optimum at position i (1-based, sentinel last) and ``preds[l][i]`` the
    maximizing position.  Ties resolve to the self-link first and then to the
    smallest position, so an all-zero optimum reconstructs to the empty pick
    set; the optimum value is independent of tie-breaking.
    """
    qs = y_sorted_queries(rinst)
    last = len(qs)
    if qs[-1].id != SENTINEL_ID:
        raise ValueError("sentinel missing: call add_sentinel before solving")
    k_eff = rinst.k if k is None else k
    k_eff = min(k_eff, last - 1)
    qx = [0] + [q.x for q in qs]
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


def _chosen_ids(rinst: RankedInstance, preds, k_eff: int) -> frozenset[int]:
    """Walk predecessor links from the sentinel, skipping self-links."""
    qs = y_sorted_queries(rinst)
    ids = []
    i = len(qs)
    for layer in range(k_eff, 0, -1):
        j = preds[layer][i]
        if j != i:
            ids.append(qs[j - 1].id)
        i = j
    return frozenset(ids)


def _solution(rinst: RankedInstance, tables, preds, k_eff: int) -> Solution:
    """The optimum, its pick set and each layer's optimum, read off the DP's output."""
    last = len(rinst.Q)
    layers = tuple(tables[l][last] for l in range(1, k_eff + 1))
    return Solution(_chosen_ids(rinst, preds, k_eff), tables[k_eff][last], layers)


def _dp_pairs(rinst: RankedInstance, k_eff: int) -> int:
    """Transitions the DP visits: (layer, i, j) with j < i in y-order and x_j <= x_i.

    Counted from the query order alone, one bisect and one sorted insert per
    query, so counting adds nothing to the DP loops.
    """
    seen: list = []
    per_layer = 0
    for q in y_sorted_queries(rinst):
        per_layer += bisect_right(seen, q.x)
        insort(seen, q.x)
    return per_layer * k_eff


@dataclass
class PipelineResult:
    """A solve with its stage timings, grid statistics and DP work counts."""

    solution: Solution
    n: int
    m: int
    k: int
    retained: int  # ground points covered by some query, i.e. summed into cells
    cells: int  # non-empty cells, zero-weight ones included
    compressed_size: int  # nonzero-weight cells, the compressed ground set
    row_sum_entries: int  # stored (col, cum) pairs, one per nonzero-weight cell
    dp_pairs: int  # eligible (layer, i, j) transitions, see ``_dp_pairs``
    stage_seconds: dict[str, float]


def run_pipeline(inst: Instance) -> PipelineResult:
    """rank the queries -> sum the cells -> sentinel -> layered DP.

    The cells are summed straight from ``inst``'s point columns in its own
    coordinates; the nonzero cells are the compressed ground set, whose size
    is reported as ``compressed_size``.  The work counts are taken after the
    timed stages.
    """
    t0 = perf_counter()
    rr = rank_transform(Instance((), inst.Q, inst.k))  # only the queries need ranks
    t1 = perf_counter()
    grid = build_grid(inst)
    row_sums = build_row_sums(grid)
    rs = add_sentinel(rr)
    t2 = perf_counter()
    tables, preds, k_eff = dp_layers(rs, row_sums)
    t3 = perf_counter()
    solution = _solution(rs, tables, preds, k_eff)
    t4 = perf_counter()
    return PipelineResult(
        solution,
        inst.n,
        inst.m,
        inst.k,
        grid.retained,
        len(grid.cells),
        sum(1 for w in grid.cells.values() if w != 0),
        sum(map(len, row_sums.rows)),
        _dp_pairs(rs, k_eff),
        {"transform": t1 - t0, "grid": t2 - t1, "dp": t3 - t2, "reconstruct": t4 - t3},
    )


def solve_pipeline(inst: Instance) -> Solution:
    """End-to-end solve; see ``run_pipeline`` for timings and statistics."""
    return run_pipeline(inst).solution


def solve_reference(inst: Instance) -> Solution:
    """The ranked reference solve that ``verify`` and the tests compare against.

    Every point is rank-transformed, uncovered points are dropped and the
    ranked points are gridded; the cell sums, and so the value and the picks,
    equal ``solve_pipeline``'s.
    """
    rr = drop_uncovered(rank_transform(inst))
    rs = add_sentinel(rr)
    return _solution(rs, *dp_layers(rs, build_row_sums(build_grid(rr))))
