"""Time both DP engines and the oracle's walk, and print the nanoseconds per unit of their work estimates.

    PYTHONPATH=src python3 scripts/calibrate_engines.py [--reps 3]

For each shape it grids one ``uniform`` instance and times ``dp_layers``
(the simple DP) at the shape's k and ``tree_layers`` (the segment tree) at
every k of ``TREE_KS`` (``replace(inst, k=...)``), each best of ``--reps``,
on the grid as ``build_grid`` built it, zero-weight cells and all, as a
solve hands it to them.  ``cells`` counts the nonzero ones, as
``solver._costs`` does.
Both engines return their tables and no picks, which the walk finds later
(``solver._walk``); the grid stores the x-ranks, the cells' total is kept on
it after the first repetition, and the shapes' weights (-10..10) fit
one-word fields.  Each time is divided by the engine's unit
count, read off ``solver._costs`` (``units``): k * m^2 for the sweep and
P = (c + 2m) * ceil(log2(m + 1)) node visits for the tree.  The median
over the shapes is the value for ``solver.SWEEP_NS``; a least-squares line
through the tree's (k, ns per node visit) points gives
``solver.TREE_NODE_NS`` (its intercept) and ``solver.TREE_LANE_NS`` (its
slope).

Then it times the oracle's walk alone on one ``uniform`` instance per n of
``WALK_NS``, at m = 24 and k = 4: ``oracle_solve`` with ``oracle._cover``
handing back the instance's masks, built beforehand.  A step, one per
nonempty pick set, is priced at ``WALK_STEP_NS`` plus
(n // 64 + 1) * (planes + 2) * ``WALK_WORD_NS``; the median over the shapes
of a step's time less its priced words is the value for
``oracle.WALK_STEP_NS``, and each shape's time over its price is printed.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from math import comb
from statistics import linear_regression, median
from time import perf_counter

import maxdom.oracle
from maxdom.cells import build_grid
from maxdom.instances import GeneratorSpec, generate
from maxdom.oracle import WALK_STEP_NS, WALK_WORD_NS, oracle_solve
from maxdom.solver import (
    SWEEP_NS,
    TREE_LANE_NS,
    TREE_NODE_NS,
    _costs,
    dp_layers,
    tree_layers,
)

# (n, m, k): m from 64 to 2048, and few to many cells per query
SHAPES = (
    (500, 64, 8),
    (20_000, 64, 8),
    (2_000, 128, 8),
    (500, 256, 16),
    (20_000, 256, 4),
    (500, 512, 16),
    (5_000, 512, 8),
    (2_000, 1024, 4),
    (2_000, 2048, 8),
)
TREE_KS = (1, 2, 4, 8, 16, 32)
# n of the walk's shapes: bit-by-bit weighs up to 128 points, bit planes past it
WALK_NS = (8, 40, 128, 129, 500, 2_000, 8_000)
WALK_M, WALK_K = 24, 4


def units(m: int, k: int, cells: int) -> tuple[float, float]:
    """The sweep's and the tree's unit counts: ``solver._costs``' estimates over their prices per unit."""
    seconds = _costs(m, k, cells)[0]
    return seconds["sweep"] / (SWEEP_NS * 1e-9), seconds["tree"] / ((TREE_NODE_NS + TREE_LANE_NS * k) * 1e-9)


def best_of(reps: int, fn) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sweep_ns, tree_ks, tree_ns = [], [], []
    print(
        f"{'n':>8}{'m':>6}{'k':>4}{'cells':>7}  {'sweep_s':>9}{'ns/unit':>9}"
        "  tree ns/unit at k = " + " ".join(f"{k:>5}" for k in TREE_KS)
    )
    for n, m, k in SHAPES:
        inst = generate(GeneratorSpec("uniform", n, m, k, seed=args.seed))
        grid = build_grid(inst)
        cells = sum(1 for row in grid.per_row for _, w in row if w)
        sweep_s = best_of(args.reps, lambda: dp_layers(inst, grid))
        sweep_ns.append(sweep_s * 1e9 / units(m, k, cells)[0])
        tree = []
        for tk in TREE_KS:
            at_k = replace(inst, k=tk)
            tree.append(best_of(args.reps, lambda: tree_layers(at_k, grid)) * 1e9 / units(m, tk, cells)[1])
        tree_ks += TREE_KS
        tree_ns += tree
        print(
            f"{n:>8}{m:>6}{k:>4}{cells:>7}  {sweep_s:>9.4f}{sweep_ns[-1]:>9.1f}"
            + " " * 20 + " ".join(f"{t:>5.0f}" for t in tree),
            flush=True,
        )
    slope, intercept = linear_regression(tree_ks, tree_ns)
    print(f"SWEEP_NS {median(sweep_ns):.1f}  TREE_NODE_NS {intercept:.1f}  TREE_LANE_NS {slope:.2f}")
    print(f"{'n':>8}{'m':>6}{'k':>4}{'steps':>7}  {'walk_s':>9}{'ns/step':>9}{'words':>7}{'/price':>8}")
    step_ns = [walk_step(n, args) for n in WALK_NS]
    print(f"WALK_STEP_NS {median(step_ns):.0f}")


def walk_step(n: int, args) -> float:
    """Time the oracle's walk alone on one shape, print its line and return a step's ns less its priced words."""
    inst = generate(GeneratorSpec("uniform", n, WALK_M, WALK_K, seed=args.seed))
    built = maxdom.oracle._cover(inst)
    cover, maxdom.oracle._cover = maxdom.oracle._cover, lambda _inst: built
    try:
        walk_s = best_of(args.reps, lambda: oracle_solve(inst))
    finally:
        maxdom.oracle._cover = cover
    steps = sum(comb(WALK_M, t) for t in range(1, WALK_K + 1))
    ws = inst.P.int_weights()[0]
    words = (n // 64 + 1) * ((max(ws) - min(ws)).bit_length() + 2)
    ns = walk_s * 1e9 / steps
    priced = WALK_STEP_NS + words * WALK_WORD_NS
    print(f"{n:>8}{WALK_M:>6}{WALK_K:>4}{steps:>7}  {walk_s:>9.4f}{ns:>9.0f}{words:>7}{ns / priced:>8.2f}", flush=True)
    return ns - words * WALK_WORD_NS


if __name__ == "__main__":
    main()
