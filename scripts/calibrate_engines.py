"""Time both DP engines and print the seconds per unit of their work estimates.

    PYTHONPATH=src python3 scripts/calibrate_engines.py [--reps 3]

For each shape it grids one ``uniform`` instance, times ``dp_layers`` (the
simple DP) and ``tree_layers`` (the segment tree), best of ``--reps``, and
divides each time by the engine's unit count from ``solver._estimates``:
k * m^2 for the sweep, k * (c + 2m) * ceil(log2(m + 1)) for the tree.  The
medians over the shapes are the values for ``solver.SWEEP_NS`` and
``solver.TREE_NS``.
"""

from __future__ import annotations

import argparse
from statistics import median
from time import perf_counter

from maxdom.cells import build_grid
from maxdom.coverage import build_row_sums
from maxdom.instances import GeneratorSpec, generate
from maxdom.solver import dp_layers, tree_layers

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
    sweep_ns, tree_ns = [], []
    print(f"{'n':>8}{'m':>6}{'k':>4}{'cells':>7}  {'sweep_s':>9}{'ns/unit':>9}  {'tree_s':>9}{'ns/unit':>9}")
    for n, m, k in SHAPES:
        inst = generate(GeneratorSpec("uniform", n, m, k, seed=args.seed))
        row_sums = build_row_sums(build_grid(inst))
        cells = sum(map(len, row_sums.rows))
        sweep_s = best_of(args.reps, lambda: dp_layers(inst, row_sums))
        tree_s = best_of(args.reps, lambda: tree_layers(inst, row_sums))
        sweep_ns.append(sweep_s * 1e9 / (k * m * m))
        tree_ns.append(tree_s * 1e9 / (k * (cells + 2 * m) * m.bit_length()))
        print(
            f"{n:>8}{m:>6}{k:>4}{cells:>7}  {sweep_s:>9.4f}{sweep_ns[-1]:>9.1f}"
            f"  {tree_s:>9.4f}{tree_ns[-1]:>9.1f}",
            flush=True,
        )
    print(f"median ns/unit: sweep {median(sweep_ns):.1f}, tree {median(tree_ns):.1f}")


if __name__ == "__main__":
    main()
