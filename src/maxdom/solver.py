"""Layered dynamic program over the query staircase, plus the full pipeline.

The pipeline sums the ground points' int weights into the cells of the
covered region straight from the instance's point columns
(``cells.build_grid``) and runs the DP on the grid's rows as built:
O(n log m) on the n-side, with no per-point object, and the nonzero cell
sums are themselves the compressed ground set.  ``solve_reference``
reaches the same cell sums the ranked way (rank every point and grid in rank
space, where the grid skips the uncovered points) and runs the same DP;
the tests compare the pipeline against it.  ``maxdom verify`` runs both
engines on one grid instead.  ``maxdom solve``
of a large file whose weights are all ints parses and grids its point lines
in parts, one process per CPU, under one staircase sorted before the parts
start, and adds the parts' cells into the grid (``grid_parts``) that it
hands to the same pipeline.

The DP takes any instance, ranked or not: it walks the queries in the
staircase order (``CellGrid.stair``, their ids, which are their positions
in Q) and compares their rank x's (``CellGrid.qx``), ties broken by id as
in the rank transform.  Layer l computes, for every position i in
decreasing-y order, the best covered weight achievable with at most l
picks drawn from the queries in the closed upper-left region of position
i, measured on the points strictly above position i.  A transition picks the lowest selected query j, whose quadrant
contributes the sweep's cov(i, j), and inherits the rest from layer l-1 at
j.  A sentinel position m + 1, right of and below every query, turns its
entry into the global optimum; it exists only inside the DP.

Two engines return the same int layer tables and the same list ``alone``,
each query's covered weight on its own: ``dp_layers``, the paper's simple
algorithm ("sweep"), in O(m^2) time per layer, and ``tree_layers``
("tree"), all k layers in one sweep over a segment tree in O(k (c + m) log
m) time for c nonzero cells.  Neither keeps predecessor links: one walk
(``_walk``) finds the picks off either engine's tables, back along the
optimal path from the sentinel, recomputing cov(i, j) from ``alone`` at the
rows it visits until it meets the value the tables hold there.
``_solution`` runs it and divides the reported values by the grid's scale
once.  ``_costs`` prices both engines, seconds and list slots, and
``_choose`` picks one: ``run_pipeline`` defaults to ``"auto"``, which runs
whichever engine is priced faster on the grid (the paper's min{}), and
refuses a solve priced over ``DP_BUDGET_S`` or
``DP_SLOT_BUDGET``, already before the grid where even no cells would be
over; ``maxdom solve`` runs that pre-grid pricing off the file's header
before it reads a point line (``_price_header``), and ``solve_reference``
prices its sweep before it ranks a point.  Acceptance criterion 7
(``bench``) times the simple DP by name.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from time import perf_counter

from .cells import CellGrid, _sum_cells, add_parts, build_grid
from .coverage import CoverageSweep
from .instances import _read_header, point_batches, point_ranges
from .model import Instance, Solution, exact
from .ranking import rank_transform, staircase


def dp_layers(inst: Instance, grid: CellGrid):
    """All layer tables, layer 0 identically zero, and each query's weight on its own.

    ``grid`` must hold the per-strip cells of ``inst``, as ``build_grid(inst)``
    gives them, zero-weight cells and all; every layer consumes a fresh
    ``CoverageSweep`` over them.  At position i a layer scans the sweep's
    ``by_x``, the positions reached so far by rank x, up to the first x at
    or past x_i, so it visits exactly the transitions into i: the j < i
    with x_j < x_i, in x order (rank x's are distinct).

    Returns ``(tables, alone, k_eff)`` where ``tables[l][i]`` is the layer-l
    optimum at position i (1-based, sentinel last) and ``alone[j]`` is
    cov(m + 1, j), the weight that position j's query covers on its own: the
    last layer's sweep holds it after its final advance.  ``alone`` is empty
    at ``k_eff == 0``, where no layer runs and the walk (``_walk``) takes
    nothing.
    """
    qx = grid.qx
    last = len(qx) - 1
    k_eff = min(inst.k, last - 1)
    tables: list[list[int]] = [[0] * (last + 1)]
    alone: list[int] = []
    for _layer in range(1, k_eff + 1):
        sweep = CoverageSweep(grid, qx)
        advance = sweep.advance
        cov = alone = sweep.cov  # mutated in place by advance, never reassigned
        by_x = sweep.by_x  # grown in place by advance
        t_prev = tables[-1]
        t_cur = [0] * (last + 1)
        t_cur[1] = t_prev[1]
        for i in range(2, last + 1):
            advance()
            xi = qx[i]
            best = t_prev[i]  # self-link: keep the layer-(l-1) set, pick nothing at i
            for x, j in by_x:
                if x >= xi:
                    break
                v = t_prev[j] + cov[j]
                if v > best:
                    best = v
            t_cur[i] = best
        tables.append(t_cur)
    return tables, alone, k_eff


def _field_bytes(total: int) -> int:
    """Bytes per lane field of the tree over int cell weights of total absolute weight ``total``.

    With W = ``total``, every value a field holds lies in [0, 3W + 1] once
    biased by 2W + 1 (``tree_layers``), and the field's top bit must stay
    clear: 1, 2, 4 or 8 bytes, or as many as it takes.
    """
    need = ((3 * total + 1).bit_length() + 8) // 8  # one bit more, in whole bytes
    return need if need > 8 else 1 << (need - 1).bit_length()


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


def tree_layers(inst: Instance, grid: CellGrid):
    """``dp_layers``' tables, ``alone`` and k_eff from one segment-tree sweep that carries all k layers.

    The sweep visits the positions in staircase order over a segment tree
    whose leaves are the queries' rank x's (x at leaf ``x // 2 - 1``).  For
    layer l, leaf j holds ``t_{l-1}[j] + cov(i, j)`` once position j is
    inserted: before position i, every nonzero cell of strip i - 1 adds its
    weight to the leaves at or right of its name's (a zero-weight one is
    skipped), ``t_l[i]`` is the better of its self-link ``t_{l-1}[i]`` and
    the maximum over the leaves left of it, and position i is then
    inserted.  One tree holds all k layers, each node value packing one
    field per layer into one int: O(k (c + m) log m) time in all, c the
    nonzero cells.

    A suffix add of w from leaf j is kept as a point add at leaf j: with
    ``A[j]`` the adds made at leaf j so far, a leaf's value is its base plus
    ``A`` summed over the leaves up to it.  The base is -W - 1 (W =
    ``grid.total``) until the leaf is inserted, so the value stays negative, and
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

    The sentinel's row reads the root, ``M[1]``: no leaf right of the last
    query's is ever inserted, so its value stays at or below -1 and leaves
    the fieldwise maximum with 0 as it is.  Once strip m is added, layer
    1's field of position j's leaf holds ``t_0[j] + cov(m + 1, j)``, which
    is ``alone[j]``: field 0 of the leaf's ``M`` less the bias, plus the
    sign-extended field 0 of ``S`` summed over the leaves left of it, one
    ``accumulate``, so ``alone`` is 0 at position 0 and at the sentinel, and
    empty at k_eff = 0.
    """
    qx, per_row, total = grid.qx, grid.per_row, grid.total
    last = len(qx) - 1
    k_eff = min(inst.k, last - 1)
    size = _tree_width(last - 1)
    leaf = [size + x // 2 - 1 for x in qx[:last]]  # by position, the sentinel's aside
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
    for i in range(1, last + 1):
        if i > 1:
            for x, w in per_row[i - 2]:  # strip i - 1: suffix add from rank x's leaf
                if not w:
                    continue
                d = w * ones
                p = x // 2 + size - 1
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
        if i == last:  # the sentinel: every query's leaf lies left of it
            res = M[1]
        else:
            p = leaf[i]
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
        if res is None:  # no leaf left of position i: it keeps t_0[i] = 0 everywhere
            row = zero
        else:
            t = ((res | guards) - zero) & guards
            row = zero ^ ((res ^ zero) & (t - (t >> g)))
        rows.append(row - zero)
        if i < last:  # insert position i: layer l's leaf value becomes t_{l-1}[i]
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
    alone = []
    if k_eff:
        mask, half = (1 << f) - 1, 1 << g
        before = list(accumulate([((s & mask) ^ half) - half for s in S[size : size + last - 1]], initial=0))
        alone = [0, *[(M[p] & mask) - bias + before[p - size] for p in leaf[1:]], 0]
    del S, M  # the tables take their place
    return [[0] * (last + 1), *_unpack(rows, k_eff, nbytes)], alone, k_eff


def _walk(grid: CellGrid, tables, alone, k_eff: int) -> frozenset[int]:
    """The ids of the picks along the optimal path from the sentinel, read off either engine's tables.

    At row i of layer l the walk looks for the value ``tables[l][i]`` that
    the tables already hold.  Where it equals the self-link ``t_{l-1}[i]``,
    the walk keeps i and picks nothing.  Otherwise it scans the eligible j
    in increasing order and stops at the first whose ``t_{l-1}[j] + cov(i,
    j)`` equals it: the smallest argmax, so an all-zero optimum walks to the
    empty pick set, and the optimum value is independent of tie-breaking.
    A row where no j reaches the value raises ``RuntimeError``: the tables
    are not the DP's.  The scan needs ``cov(i, j) = alone[j] - S_i(qx[j])``,
    with ``S_i(x)`` the weight of strips i..m at rank x's up to x.  Its rows
    come in decreasing i, so the per-rank weights of strips i..m are kept by
    adding strips as i falls, and each scanned row's ``S_i`` is one
    ``accumulate`` over them.
    """
    qx, per_row, stair = grid.qx, grid.per_row, grid.stair
    last = len(qx) - 1
    dense = [0] * qx[last]  # per rank x below the sentinel's, the weight of strips upto..m
    below = [0] * qx[last]  # S_last: no strip
    upto = last
    ids = []
    i = last
    for layer in range(k_eff, 0, -1):
        t_prev = tables[layer - 1]
        target = tables[layer][i]
        if target == t_prev[i]:  # the self-link: keep i
            continue
        xi = qx[i]
        if upto != i:
            for strip in per_row[i - 1 : upto - 1]:
                for x, w in strip:
                    dense[x] += w
            upto = i
            below = list(accumulate(islice(dense, xi)))  # a scan reads S_i below x_i only
        for j in range(1, i):
            x = qx[j]
            if x < xi and t_prev[j] + alone[j] - below[x] == target:
                break
        else:
            raise RuntimeError(f"no pick reaches layer {layer}'s value {target} at position {i}")
        ids.append(stair[j - 1])
        i = j
    return frozenset(ids)


def _solution(grid: CellGrid, tables, alone, k_eff: int) -> Solution:
    """The optimum, its pick set (``_walk``) and each layer's optimum off the DP's int tables, divided by the scale once."""
    layers = tuple(exact(tables[l][-1], grid.scale) for l in range(1, k_eff + 1))  # at the sentinel, last
    return Solution(_walk(grid, tables, alone, k_eff), layers[-1] if layers else 0, layers)


def _dp_pairs(qx, k_eff: int) -> int:
    """Transitions the DP visits: (layer, i, j) with j < i in y-order and x_j <= x_i.

    Counted off the rank x's alone, sentinel last and included: each
    position counts the earlier x's below its own by a bisect into them,
    kept ascending as ``CoverageSweep.by_x`` keeps them.  Rank x's are
    distinct, so below is at or below.
    """
    xs, per_layer = [], 0
    for x in qx[1:]:
        at = bisect_left(xs, x)
        per_layer += at
        xs.insert(at, x)
    return per_layer * k_eff


# Nanoseconds per unit of each engine's work estimate (``_costs``), from
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
# (``_costs``) is refused as well.  A sweep slot, one table entry, took 19
# bytes under tracemalloc (uniform n = 20,000, m = 512, k = 32) and can take
# about 32 (a pointer and an int of its own): up to 1.6 GB.  The tree's peak
# came to 6-11 bytes per slot that ``_costs`` counts, at fields of 1 to 33
# words (uniform m = 256 to 4,096, k = 8 to 256).
DP_SLOT_BUDGET = 50_000_000


def _costs(m: int, k_eff: int, cells: int = 0, total: int = 0) -> tuple[dict[str, float], dict[str, int]]:
    """Each engine's predicted dp-stage seconds and peak list slots, from closed-form work counts.

    The simple DP (``dp_layers``, "sweep") is priced at k * m^2 (layer,
    i, j) slots, which bound the pairs it scans, those with x_j < x_i, and
    its advances; the segment tree (``tree_layers``, "tree") walks c + 2m
    root paths of depth ``m.bit_length()`` = ceil(log2(m + 1)), c the nonzero
    cells, each node visit costing a fixed part plus one per lane and
    64-bit word of its field (``_field_bytes(total)``, ``total`` the cells'
    absolute total).  No cells and a total of 0, one-byte fields, price an
    instance before its grid: a lower bound for both engines.

    Both hold the k + 1 layer tables of m + 2 entries; the walk's
    (``_walk``) lists of m + 2 entries are not counted.  The tree holds as
    many entries again, its rows by position, whose ints are a field wide.
    Each node of the tree adds two ints of k fields
    (``tree_layers``' ``M`` and ``S``): a lane counts once at one word,
    where both of its fields of at most 8 bytes fit the bytes of one slot,
    and twice for every further word.  The sweep's time budget binds before
    its slots do: over ``DP_SLOT_BUDGET`` slots at k <= m needs m above
    7,000, hours of sweep.
    """
    words = -(-_field_bytes(total) // 8)
    tables = (k_eff + 1) * (m + 2)
    estimates = {
        "sweep": SWEEP_NS * 1e-9 * k_eff * m * m,
        "tree": (TREE_NODE_NS + TREE_LANE_NS * k_eff * words) * 1e-9 * (cells + 2 * m) * m.bit_length(),
    }
    slots = {
        "sweep": tables,
        "tree": tables * (1 + words) + 2 * _tree_width(m) * k_eff * (2 * words - 1),
    }
    return estimates, slots


# Engine name -> the name of its function, looked up in the module at each
# solve so that a wrapper set on it (perfbench's tracer) sees the calls.
_ENGINES = {"sweep": "dp_layers", "tree": "tree_layers"}


def _choose(engine: str, estimates: dict[str, float], slots: dict[str, int]) -> str:
    """The engine to run: ``"auto"`` picks the cheapest estimate within both budgets, the sweep on a tie.

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
    dp_pairs: int | None  # eligible (layer, i, j) transitions where the sweep ran, see ``_dp_pairs``
    stage_seconds: dict[str, float]
    engine: str  # the DP that ran: "sweep" (``dp_layers``) or "tree" (``tree_layers``)
    estimates: dict[str, float]  # predicted dp seconds per engine, see ``_costs``


def run_pipeline(inst: Instance, engine: str = "auto", grid: CellGrid | None = None) -> PipelineResult:
    """sum the cells -> layered DP -> reconstruct.

    The cells are summed straight from ``inst``'s point columns in its own
    coordinates (``build_grid``) and handed to the engine as built; the
    nonzero cells are the compressed ground set, whose size is reported as
    ``compressed_size``, counted in the same pass as ``cells``.  Where
    ``grid`` is given, it is the grid of ``inst``'s queries over the ground
    set, as ``grid_parts`` returns it, and the grid stage only counts its
    cells.

    ``engine`` is ``"auto"`` (the default), which runs whichever engine
    ``_costs`` predicts faster on the grid, ``"sweep"`` (the
    paper's simple DP) or ``"tree"``; both give the same tables and
    ``alone``.  For either, ``dp`` times the tables and ``reconstruct``
    walks the picks and reads the solution off them (``_solution``); where
    the sweep ran it also counts ``dp_pairs``, None for the tree, which
    visits no pairs.  The engine is priced
    twice: before the grid, with no cells, and on the grid.  A solve whose
    engine is estimated over ``DP_BUDGET_S`` or would hold more than
    ``DP_SLOT_BUDGET`` list slots raises ``ValueError`` at the first pricing
    that is over, so before any DP work.
    """
    k_eff = min(inst.k, inst.m)
    _choose(engine, *_costs(inst.m, k_eff))
    t0 = perf_counter()
    grid = build_grid(inst) if grid is None else grid
    weights = [w for row in grid.per_row for _, w in row]  # every stored cell's, zero-weight ones too
    nonzero = len(weights) - weights.count(0)
    estimates, slots = _costs(inst.m, k_eff, nonzero, grid.total)
    engine = _choose(engine, estimates, slots)
    t1 = perf_counter()
    tables, alone, k_eff = globals()[_ENGINES[engine]](inst, grid)
    t2 = perf_counter()
    solution = _solution(grid, tables, alone, k_eff)
    dp_pairs = _dp_pairs(grid.qx, k_eff) if engine == "sweep" else None
    t3 = perf_counter()
    return PipelineResult(
        solution,
        grid.retained,
        len(weights),
        nonzero,
        dp_pairs,
        {"grid": t1 - t0, "dp": t2 - t1, "reconstruct": t3 - t2},
        engine,
        estimates,
    )


def _price_header(path, k: int | None) -> None:
    """``run_pipeline``'s pre-grid pricing of the file at ``path`` off its header and ``k``, the file's own where None.

    Nothing is priced where the header cannot be read or k is negative, so that ``parse`` reports the file.
    """
    try:
        with open(path, "rb") as f:
            (_n, m, file_k), _end = _read_header(f)
    except (ValueError, OSError):
        return
    k = file_k if k is None else k
    if k >= 0:
        _choose("auto", *_costs(m, min(k, m)))


def _grid_range(path, start: int, stop: int, Q, qx) -> tuple:
    """``(per_row, retained, count)`` of the point lines in bytes ``[start, stop)`` under the queries ``Q`` and their rank x's ``qx``.

    What a part of ``grid_parts`` computes, and a child sends back: the
    cells' sums, summed batch by batch as the lines are parsed
    (``cells._sum_cells``), and how many point lines there are.  A batch
    whose weights are not all ints raises ``ValueError`` there: the parts'
    cell sums are added as they are, while decimal weights would first need
    one scale common to every part.  Coordinates may be any numbers
    ``parse`` reads.
    """
    return _sum_cells(Q, qx, point_batches(path, start, stop))


def grid_parts(path):
    """``(n, queries, grid, peaks)`` for the instance file at ``path``, parsed and gridded in parts, or None.

    The point lines are cut into at most one byte range per usable CPU,
    and the queries read, by ``instances.point_ranges``: ``queries`` is the file's
    queries and k with no points.  Their staircase and rank x's
    (``ranking.staircase``) are found once, before any fork.  This
    process parses and grids the first range; one forked child does each
    other one and sends back ``_grid_range``'s result, pickled over a pipe.
    ``grid`` adds up the parts (``add_parts``) and equals
    ``build_grid(parse(path))`` exactly.  Each child is reaped by
    ``os.wait4``, and ``peaks`` holds each child's ``ru_maxrss`` as it
    reports it, empty where the file was one part.  ``maxdom solve`` prices
    the file (``_price_header``) before it calls this and sets ``--k`` on
    what it returns.  None, leaving the file to ``parse``, where the file is
    small or not plain enough to be split, ``fork`` is missing or this
    process runs other threads (a lock one of them holds would stay held in
    the child), a part holds a weight that is not an int (``_grid_range``),
    a part fails in any way or the parts' point counts do not add up to n;
    the children are reaped in every case.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    parts = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        plan = point_ranges(path, parts)
    except Exception:  # whatever is wrong with the file, ``parse`` of the whole file reports it
        return None
    if plan is None:
        return None
    n, queries, ranges = plan
    stair, qx = staircase(queries.Q)
    import pickle  # here, so that a process that never splits does not hold the module

    children = []  # (pid, the read end of its pipe)
    results = None
    peaks = []
    try:
        for start, stop in ranges[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: send the part, then exit at once, whatever happened
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as out:
                        pickle.dump(_grid_range(path, start, stop, queries.Q, qx), out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [_grid_range(path, *ranges[0], queries.Q, qx)]
        results += [pickle.load(reader) for _, reader in children]
    except Exception:  # whatever went wrong, ``parse`` of the whole file reports it
        results = None
    finally:
        for pid, reader in children:
            reader.close()
            if results is None:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            if status:
                results = None
            peaks.append(usage.ru_maxrss)
    if results is None or sum(count for _, _, count in results) != n:
        return None
    return n, queries, add_parts(stair, qx, results), peaks


def solve_pipeline(inst: Instance) -> Solution:
    """End-to-end solve; see ``run_pipeline`` for the engine choice, timings and statistics."""
    return run_pipeline(inst).solution


def solve_reference(inst: Instance) -> Solution:
    """The ranked reference solve that the tests compare the pipeline against.

    Every point is rank-transformed and the ranked points are gridded, the
    uncovered ones skipped; the cell sums, and so the value and the picks,
    equal ``solve_pipeline``'s.  The sweep that it runs is priced first, as
    ``run_pipeline`` prices an engine, and refused with the same
    ``ValueError`` where it is over budget: its seconds and slots do not
    depend on the cells, so the price off m and k is its full price.
    """
    _choose("sweep", *_costs(inst.m, min(inst.k, inst.m)))
    rr = rank_transform(inst)
    grid = build_grid(rr)
    return _solution(grid, *dp_layers(rr, grid))
