"""Command-line front door: solve, verify, compress, generate, bench, render.

Every record is one line of JSON, with each value that is not an int written
as a JSON number of its exact decimal expansion (``_dumps``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import replace
from functools import cache
from pathlib import Path
from time import perf_counter

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import bench as bench_mod
from .cells import build_grid, compress
from .instances import FAMILIES, GeneratorSpec, decimal_text, generate, parse, serialize_text
from .model import Instance, weight_of_dom
from .oracle import oracle_solve
from .ranking import rank_transform
from .render import render_svg
from .solver import grid_parts, run_pipeline, solve_pipeline, solve_reference


def _load(args) -> Instance:
    inst = parse(args.path)
    if getattr(args, "k", None) is not None:
        inst = replace(inst, k=args.k)
    return inst


_MARK = "\0"  # stands in for a non-int value in ``_dumps``; no other string in a record holds it


def _dumps(record: dict) -> str:
    """``json.dumps(record)``, with each non-int value, such as a ``Fraction``, as its exact decimal text."""
    texts = []  # the values' texts, in the order json meets them
    text = json.dumps(record, default=lambda v: texts.append(decimal_text(v)) or _MARK)
    return "".join(p + t for p, t in zip(text.split(json.dumps(_MARK)), [*texts, ""]))


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _peak_rss_mb(children: bool = False) -> float | None:
    """Peak resident memory so far in MB, or None where it cannot be read.

    This process's, from ``VmHWM`` in ``/proc/self/status`` where that
    exists, since Linux's ``ru_maxrss`` keeps the peak of the process that
    exec'd this one, and else from ``getrusage``; with ``children``, the
    largest of its reaped child processes' (0 if none), from ``getrusage``.
    """
    if not children:
        with suppress(OSError), open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)  # in kB
    if resource is None:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss  # bytes on macOS, KiB elsewhere
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def cmd_solve(args) -> int:
    t0 = perf_counter()
    split = grid_parts(args.path) if args.algo == "dp" else None
    if split is None:
        parts = None
        inst = parse(args.path)
        n = inst.n
    else:
        n, inst, parts = split  # inst: the queries and k, with no points
    if args.k is not None:
        inst = replace(inst, k=args.k)
    t1 = perf_counter()
    if args.algo == "oracle":
        sol = oracle_solve(inst)
        stages = {"oracle": perf_counter() - t1}
        retained = cells = compressed_size = dp_pairs = engine = estimates = None
    else:
        res = run_pipeline(inst, parts=parts)
        sol, stages = res.solution, res.stage_seconds
        retained, cells, compressed_size = res.retained, res.cells, res.compressed_size
        dp_pairs = res.dp_pairs
        engine, estimates = res.engine, {e: round(t, 6) for e, t in res.estimates.items()}
    total = perf_counter() - t0
    record = {
        "algo": args.algo,
        "file": str(args.path),
        "n": n,
        "m": inst.m,
        "k": inst.k,
        "value": sol.value,
        "chosen": sorted(sol.chosen),
        "layers": sol.layer_values,
        "compressed_size": compressed_size,
        "retained": retained,
        "cells": cells,
        "row_sum_entries": compressed_size,  # one stored cell per nonzero cell
        "dp_pairs": dp_pairs,
        "engine": engine,
        "estimates_s": estimates,
        "stages": {s: round(t, 6) for s, t in {"parse": t1 - t0, **stages}.items()},
        "total_seconds": round(total, 6),
        "parts": 1 if parts is None else len(parts),  # processes that parsed and gridded the points
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_children_mb": _peak_rss_mb(children=True),
    }
    print(_dumps(record))
    return 0


def cmd_verify(args) -> int:
    inst = _load(args)
    sol_oracle = oracle_solve(inst, limit=args.limit)
    sol_dp = solve_pipeline(inst)
    sol_ref = solve_reference(inst)
    values = {
        "value_dp": sol_dp.value,
        "value_dp_no_compress": sol_ref.value,
        "recomputed_from_chosen": weight_of_dom(inst.P, [q for q in inst.Q if q.id in sol_dp.chosen]),
    }
    disagree = [key for key, value in values.items() if value != sol_oracle.value]
    record = {"value_oracle": sol_oracle.value, **values, "equal": not disagree}
    if disagree:  # only a failing record carries the explanation
        layers = enumerate(zip(sol_dp.layer_values, sol_ref.layer_values))
        record["disagree"] = disagree
        record["first_layer_mismatch"] = next((i for i, (a, b) in layers if a != b), None)
    print(_dumps(record))
    return 1 if disagree else 0


def cmd_compress(args) -> int:
    inst = _load(args)
    rr = rank_transform(inst)
    grid = build_grid(rr)  # skips the uncovered points
    comp = compress(grid, rr)
    bound = min(inst.n, inst.m**2)
    record = {
        "n": inst.n,
        "m": inst.m,
        "k": inst.k,
        "retained": grid.retained,
        "nonempty_cells": sum(map(len, grid.per_row)),
        "compressed_size": len(comp.points),
        "bound": bound,
        "bound_ok": len(comp.points) <= bound,
    }
    if args.out:
        Path(args.out).write_text(serialize_text(Instance(comp.points, rr.Q, inst.k)))
        record["out"] = str(args.out)
    print(json.dumps(record))
    return 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(args.family, args.n, args.m, args.k, (args.wmin, args.wmax), args.seed)
    text = serialize_text(generate(spec))
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    rows = bench_mod.sweep(
        args.family,
        _ints(args.n),
        _ints(args.m),
        _ints(args.k),
        reps=args.reps,
        seed=args.seed,
    )
    flagged = False
    print(f"{'family':<22}{'n':>9}{'m':>6}{'k':>4}  {'stage':<12}{'seconds':>10}")
    for r in rows:
        mark = ""
        if r["stage"] != "total" and r["seconds"] < bench_mod.UNDER_TIMED:
            mark, flagged = " *", True
        print(
            f"{r['family']:<22}{r['n']:>9}{r['m']:>6}{r['k']:>4}  "
            f"{r['stage']:<12}{r['seconds']:>10.6f}{mark}"
        )
    if flagged:
        print(f"* under-timed cell (< {bench_mod.UNDER_TIMED}s); treat with caution")
    ns, ms, ks = _ints(args.n), _ints(args.m), _ints(args.k)
    for axis, values, others in (("m", ms, (ns, ks)), ("k", ks, (ns, ms))):
        if len(set(values)) >= 3 and all(len(set(o)) == 1 for o in others):
            xs, ys = bench_mod.stage_series(rows, "dp", axis)
            print(f"dp-stage log-log slope vs {axis}: {bench_mod.fit_loglog(xs, ys):.3f}")
    if args.csv:
        Path(args.csv).write_text(bench_mod.to_csv(rows))
        print(f"csv written to {args.csv}")
    return 0


def cmd_render(args) -> int:
    inst = _load(args)
    chosen = None
    if args.chosen:
        chosen = set(_ints(args.chosen))
    elif args.solve:
        chosen = solve_pipeline(inst).chosen
    svg = render_svg(inst, chosen, scale=args.scale)
    out = args.out or f"{args.path}.svg"
    Path(out).write_text(svg)
    print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdom",
        description=(
            "Pick at most k query points whose closed lower-left quadrants cover "
            "the maximum total weight of a planar weighted point set."
        ),
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("path", type=Path)
    p.add_argument("--k", type=int, default=None, help="override the file's budget")
    p.add_argument("--algo", choices=("dp", "oracle"), default="dp")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check the solver against the oracle")
    p.add_argument("path", type=Path)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--limit", type=int, default=1_000_000, help="oracle subset cap")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compress", help="inspect the representative compression")
    p.add_argument("path", type=Path)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", type=Path, default=None, help="write the compressed instance (rank coordinates)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("generate", help="emit a deterministic instance")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--wmin", type=int, default=-10)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="stage timings over a size sweep")
    p.add_argument("--family", choices=FAMILIES, default="uniform")
    p.add_argument("--n", default="2000", help="comma-separated n values")
    p.add_argument("--m", default="64,128,256", help="comma-separated m values")
    p.add_argument("--k", default="8", help="comma-separated k values")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", type=Path, default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="write an SVG of cells, representatives, and picks")
    p.add_argument("path", type=Path)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--scale", type=int, default=14)
    p.add_argument("--solve", action="store_true", help="overlay the solver's pick set")
    p.add_argument("--chosen", default=None, help="overlay these query ids (comma separated)")
    p.set_defaults(func=cmd_render)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building takes far longer than a parse, and
    # parse_args leaves the parser unchanged, so calls share it safely.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
