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

One fresh coverage sweep is consumed per layer, so no quadratic coverage
table is ever materialized: total space stays O(n + m) plus the O(k*m)
predecessor links used for reconstruction.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from time import perf_counter

from .cells import build_grid
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


def dp_layers(inst: Instance, row_sums: RowSums, k: int | None = None):
    """All layer tables and predecessor links; layer 0 is identically zero.

    ``row_sums`` must hold the per-strip sums of ``inst``'s cells; every
    layer consumes a fresh ``CoverageSweep`` over them.  ``k`` overrides
    ``inst.k``.

    Returns ``(tables, preds, k_eff)`` where ``tables[l][i]`` is the layer-l
    optimum at position i (1-based, sentinel last) and ``preds[l][i]`` the
    maximizing position.  Ties resolve to the self-link first and then to the
    smallest position, so an all-zero optimum reconstructs to the empty pick
    set; the optimum value is independent of tie-breaking.
    """
    qx = _staircase_x(inst)
    last = len(qx) - 1
    k_eff = min(inst.k if k is None else k, last - 1)
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


def _dp_pairs(inst: Instance, k_eff: int) -> int:
    """Transitions the DP visits: (layer, i, j) with j < i in y-order and x_j <= x_i.

    Counted from the query order alone, one bisect and one sorted insert per
    position (sentinel included), so counting adds nothing to the DP loops.
    """
    seen: list = []
    per_layer = 0
    for x in _staircase_x(inst)[1:]:
        per_layer += bisect_right(seen, x)
        insort(seen, x)
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
    """sum the cells -> layered DP -> reconstruct.

    The cells are summed straight from ``inst``'s point columns in its own
    coordinates; the nonzero cells are the compressed ground set, whose size
    is reported as ``compressed_size``.  The work counts are taken after the
    timed stages.
    """
    t0 = perf_counter()
    grid = build_grid(inst)
    row_sums = build_row_sums(grid)
    t1 = perf_counter()
    tables, preds, k_eff = dp_layers(inst, row_sums)
    t2 = perf_counter()
    solution = _solution(inst, tables, preds, k_eff)
    t3 = perf_counter()
    return PipelineResult(
        solution,
        inst.n,
        inst.m,
        inst.k,
        grid.retained,
        len(grid.cells),
        sum(1 for w in grid.cells.values() if w != 0),
        sum(map(len, row_sums.rows)),
        _dp_pairs(inst, k_eff),
        {"grid": t1 - t0, "dp": t2 - t1, "reconstruct": t3 - t2},
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
    return _solution(rr, *dp_layers(rr, build_row_sums(build_grid(rr))))
