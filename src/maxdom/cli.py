"""Command-line front door: solve, verify, generate.

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

from .instances import FAMILIES, GeneratorSpec, _decimal, decimal_text, generate, parse, serialize, serialize_blocks
from .model import Instance, QueryPoint, weight_of_dom
from .oracle import oracle_solve
from .solver import _price_header, grid_parts, run_pipeline, solve_pipeline, solve_reference


def _with_k(inst: Instance, args) -> Instance:
    """``inst`` with ``--k`` as its budget, where that is given."""
    return inst if args.k is None else replace(inst, k=args.k)


_MARK = "\0"  # stands in for a non-int value in ``_dumps``; no other string in a record holds it


def _dumps(record: dict) -> str:
    """``json.dumps(record)``, with each non-int value, such as a ``Fraction``, as its exact decimal text.

    So is an int past 64 bits, alone or in a list or tuple, which ``str`` may refuse
    (``sys.get_int_max_str_digits``): it goes to ``decimal_text`` as an
    exact ``Decimal``.
    """
    texts = []  # the values' texts, in the order json meets them
    record = {key: _wide_as_decimal(value) for key, value in record.items()}
    text = json.dumps(record, default=lambda v: texts.append(decimal_text(v)) or _MARK)
    return "".join(p + t for p, t in zip(text.split(json.dumps(_MARK)), [*texts, ""]))


def _wide_as_decimal(value):
    """``value``, with an int past 64 bits, or each such int of a list or tuple, as a ``Decimal`` of the same value."""
    if type(value) in (list, tuple):
        return list(map(_wide_as_decimal, value))
    return _decimal()(value) if type(value) is int and value.bit_length() > 64 else value


def _peak_rss_mb() -> float | None:
    """This process's peak resident memory so far in MB, or None where it cannot be read.

    From ``VmHWM`` in ``/proc/self/status`` where that exists, since Linux's
    ``ru_maxrss`` keeps the peak of the process that exec'd this one, and
    else from ``getrusage``.  The parts that a split solve forks report
    their own peaks when they are reaped (``grid_parts``).
    """
    with suppress(OSError), open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 1)  # in kB
    return None if resource is None else _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _mb(maxrss: int) -> float:
    """A ``ru_maxrss`` value in MB: bytes on macOS, KiB elsewhere."""
    return round(maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1)


def cmd_solve(args) -> int:
    t0 = perf_counter()
    _price_header(args.path, args.k)  # an over-budget solve is refused before any point line is read
    split = grid_parts(args.path)
    if split is None:
        inst = parse(args.path)
        n, grid, peaks = inst.n, None, ()
    else:
        n, inst, grid, peaks = split  # inst: the queries and the file's k, with no points
    inst = _with_k(inst, args)
    t1 = perf_counter()
    res = run_pipeline(inst, grid=grid)
    sol = res.solution
    total = perf_counter() - t0
    record = {
        "file": str(args.path),
        "n": n,
        "m": inst.m,
        "k": inst.k,
        "value": sol.value,
        "chosen": sorted(sol.chosen),
        "layers": sol.layer_values,
        "compressed_size": res.compressed_size,
        "retained": res.retained,
        "cells": res.cells,
        "dp_pairs": res.dp_pairs,
        "engine": res.engine,
        "estimates_s": {e: round(t, 6) for e, t in res.estimates.items()},
        "stages": {s: round(t, 6) for s, t in {"parse": t1 - t0, **res.stage_seconds}.items()},
        "total_seconds": round(total, 6),
        "parts": len(peaks) + 1,  # processes that parsed and gridded the points
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_children_mb": max(map(_mb, peaks), default=None),
    }
    print(_dumps(record))
    return 0


def cmd_verify(args) -> int:
    inst = _with_k(parse(args.path), args)
    sol_oracle = oracle_solve(inst)
    sol_dp = solve_pipeline(inst)
    sol_ref = solve_reference(inst)
    # query objects for the picks alone
    picks = [QueryPoint(*q) for q in zip(*inst.Q.columns()) if q[2] in sol_dp.chosen]
    values = {
        "value_dp": sol_dp.value,
        "value_dp_no_compress": sol_ref.value,
        "recomputed_from_chosen": weight_of_dom(inst.P, picks),
    }
    disagree = [key for key, value in values.items() if value != sol_oracle.value]
    record = {"value_oracle": sol_oracle.value, **values, "equal": not disagree}
    if disagree:  # only a failing record carries the explanation
        layers = enumerate(zip(sol_dp.layer_values, sol_ref.layer_values))
        record["disagree"] = disagree
        record["first_layer_mismatch"] = next((i for i, (a, b) in layers if a != b), None)
    print(_dumps(record))
    return 1 if disagree else 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(args.family, args.n, args.m, args.k, (args.wmin, args.wmax), args.seed)
    inst = generate(spec)
    if args.out:
        serialize(inst, args.out)
        print(args.out)
    else:
        sys.stdout.writelines(serialize_blocks(inst))
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
    p.set_defaults(func=cmd_solve)

    # verify reads the path as argv gives it, building no Path per call;
    # solve's record writes the path back out as pathlib spells it (``./a``
    # as ``a``), so solve keeps it.
    p = sub.add_parser(
        "verify", help="cross-check the solver against the oracle, refused where its walk is priced over the budget"
    )
    p.add_argument("path")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_verify)

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
