"""Time both DP engines and print the nanoseconds per unit of their work estimates.

    PYTHONPATH=src python3 scripts/calibrate_engines.py [--reps 3]

For each shape it grids one ``uniform`` instance and times ``dp_layers``
(the simple DP) at the shape's k and the segment tree's tables at every k of
``TREE_KS`` (``replace(inst, k=...)``), each best of ``--reps``.  The tree is
timed as ``tree_layers`` without its picks (``_tree_preds``), since its
constants price the tree walks only; the x-ranks and the cells' total are
kept on the row sums after the first repetition, and the shapes' weights
(-10..10) fit one-word fields.  Each time is divided by
the engine's unit count from ``solver._estimates``: k * m^2 for the sweep
and P = (c + 2m) * ceil(log2(m + 1)) node visits for the tree.  The median
over the shapes is the value for ``solver.SWEEP_NS``; a least-squares line
through the tree's (k, ns per node visit) points gives
``solver.TREE_NODE_NS`` (its intercept) and ``solver.TREE_LANE_NS`` (its
slope).
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from statistics import linear_regression, median
from time import perf_counter

from maxdom.cells import build_grid
from maxdom.coverage import build_row_sums
from maxdom.instances import GeneratorSpec, generate
from maxdom.solver import _strip_adds, _tree_tables, dp_layers

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


def tree_tables(inst, grid):
    """``tree_layers``' tables without its picks: the work the tree's constants price."""
    qx = grid.qx
    adds = _strip_adds(qx, grid.per_row)
    tables, _corner = _tree_tables(qx, adds, min(inst.k, inst.m), grid.total)
    return tables


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
        grid = build_row_sums(build_grid(inst))
        cells = sum(map(len, grid.per_row))
        sweep_s = best_of(args.reps, lambda: dp_layers(inst, grid))
        sweep_ns.append(sweep_s * 1e9 / (k * m * m))
        paths = (cells + 2 * m) * m.bit_length()
        tree = []
        for tk in TREE_KS:
            at_k = replace(inst, k=tk)
            tree.append(best_of(args.reps, lambda: tree_tables(at_k, grid)) * 1e9 / paths)
        tree_ks += TREE_KS
        tree_ns += tree
        print(
            f"{n:>8}{m:>6}{k:>4}{cells:>7}  {sweep_s:>9.4f}{sweep_ns[-1]:>9.1f}"
            + " " * 20 + " ".join(f"{t:>5.0f}" for t in tree),
            flush=True,
        )
    slope, intercept = linear_regression(tree_ks, tree_ns)
    print(f"SWEEP_NS {median(sweep_ns):.1f}  TREE_NODE_NS {intercept:.1f}  TREE_LANE_NS {slope:.2f}")

if __name__ == "__main__":
    main()
