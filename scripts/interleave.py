#!/usr/bin/env python3
"""Time two source trees' ``maxdom`` against each other in one process, one operation at a time.

    python3 scripts/interleave.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B [--rounds R] [--call FUNC]
    python3 scripts/interleave.py PARENT_TREE CHANGE_TREE --shape S --seeds A-B [--rounds R] [--call FUNC]
    python3 scripts/interleave.py PARENT_TREE CHANGE_TREE --files PATH ... [--rounds R] [--call FUNC]

Each tree's ``src/maxdom`` is imported under its own package name
(``maxdom_parent`` and ``maxdom_change``), so both run in this process, on
the same heap and at the same CPU speed: runs in separate processes swing by
15-30 % with the speed phases of some machines (``perfbench/speed.py``).
For each seed from A to B the workload's files are written as
``scripts/same_records.py`` writes them (PARENT_TREE's
``perfbench/workloads.py``, run as a script), into a temporary directory
that is removed at the end; with ``--shape``, the named shape of
``shapes.py`` is written the same way; with ``--files`` instead, the
operation of each given file is ``solve``.  Then, ``--rounds`` times,
every file's operation runs once on each tree, the tree that goes first
alternating from one operation to the next: ``cli.main([command, FILE])`` with its output
discarded, or, with ``--call`` (any ``module.function`` of the package),
that function of one argument: the file's path for a function of
``instances``, such as ``--call instances.parse``, and otherwise the
``Instance`` that the tree's own ``instances.parse`` reads from the file,
parsed once before the rounds and outside the timings, so that ``--call
cells.build_grid`` times the grid alone.  Each pair gives the ratio
of the change's time to the parent's.  Prints the median ratio, its
quartiles, the pairs in which the change was faster and each tree's median
time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter_ns

from same_records import script_of, seeds, write_files

NAMES = ("maxdom_parent", "maxdom_change")


def load(tree: Path, name: str) -> None:
    """Import ``tree``'s ``src/maxdom`` package as ``name``, with its ``cli`` module."""
    init = tree / "src" / "maxdom" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")


def operation(name: str, call: str | None, command: str, path: str):
    """A no-argument callable that runs one operation on the package ``name``; a failed ``cli.main`` raises.

    A ``call`` outside ``instances`` is handed the instance that ``name``'s
    ``instances.parse`` reads from ``path``, parsed here, not in the callable.
    """
    if call is None:
        main = sys.modules[f"{name}.cli"].main
        argv = [command, path]

        def run():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            if code:  # a failed operation's time says nothing about the change
                raise RuntimeError(f"{name}: maxdom {command} {path} exited {code}")

        return run
    module, _, func = call.rpartition(".")
    func = getattr(importlib.import_module(f"{name}.{module}"), func)
    arg = path if module == "instances" else importlib.import_module(f"{name}.instances").parse(path)
    return lambda: func(arg)


def timed(run) -> int:
    t0 = perf_counter_ns()
    run()
    return perf_counter_ns() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs=2, type=Path, metavar="TREE", help="PARENT_TREE CHANGE_TREE")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="n-heavy, m-heavy or desk-verify, written for each of --seeds")
    source.add_argument("--shape", help="a shape of shapes.py, written for each of --seeds")
    source.add_argument("--files", nargs="+", metavar="PATH", help="instance files to time instead of a workload's")
    ap.add_argument("--seeds", type=seeds, metavar="A-B")
    ap.add_argument("--rounds", type=int, default=5, help="passes over every file (default 5)")
    ap.add_argument("--call", help="time this module.function of the package on each file (its parsed instance "
                    "outside instances) instead of cli.main")
    args = ap.parse_args()
    if not args.files and args.seeds is None:
        ap.error("--workload and --shape need --seeds")
    trees = [tree.resolve() for tree in args.trees]
    for tree, package in zip(trees, NAMES):
        load(tree, package)
    name, script = (None, None) if args.files else script_of(args, trees[0])
    times: list[list[int]] = [[], []]
    with tempfile.TemporaryDirectory(prefix="interleave_") as tmp:
        if args.files:
            files = [("solve", path) for path in args.files]
        else:
            files = [op for seed in args.seeds
                     for op in write_files(script, trees[0], name, seed, Path(tmp) / str(seed))]
        ops = [[operation(package, args.call, command, path) for package in NAMES] for command, path in files]
        for _ in range(args.rounds):
            for pair in ops:
                first = len(times[0]) % 2  # the tree that goes first alternates
                for side in (first, 1 - first):
                    times[side].append(timed(pair[side]))
            gc.collect()  # outside the timings, as perfbench's worker does between rounds
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    won = sum(r < 1 for r in ratios)
    print(f"{name or 'files'} {args.call or 'cli.main'}: change/parent ratio {median(ratios):.3f} "
          f"(IQR {q1:.3f}-{q3:.3f}), change faster in {won} of {len(ratios)} pairs")
    for tree, ts in zip(trees, times):
        print(f"{tree}: median {median(ts) / 1e6:.3f} ms per operation")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
