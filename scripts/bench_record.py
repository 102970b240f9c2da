#!/usr/bin/env python3
"""Write two sets of benchmark results, and the verdicts on them, as one JSON file.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --out FILE

PARENT_DIR and CHANGE_DIR hold ``<workload>.<seed>.json`` result files, as
``perfbench/series.py`` writes them.  The figures and the verdicts are
``perfbench/compare.py``'s own: its ``load``, ``values``, ``quartiles``,
``verdict`` and ``fail_share``, imported from that file.  For every workload and every
end-to-end metric of ``BENCHMARK.json``, FILE holds each side's median and
quartiles, the judged figures and, for a time, the raw ones, each with its
verdict, the pairs the change won and the pairs compared.  Each workload
also gets each side's run count, failed share and median speed factor.  At
the top: the git revision of this repository (HEAD, and whether the working
tree differs from it), both null outside a git checkout, and the Python
version that runs the script.  A result file that is empty, or holds no line
starting with ``{``, has no result to load: each such file is named on
stderr, nothing is written, and the script exits 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def _compare():
    """``perfbench/compare.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_compare", ROOT / "perfbench" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(*args: str) -> str | None:
    """The output of ``git`` run in this repository, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _without_result(directory: Path) -> list[Path]:
    """The result files in ``directory`` with no line that ``compare.load`` reads as a record."""
    return [
        path
        for path in sorted(directory.glob("*.json"))
        if not any(line.startswith("{") for line in path.read_text().strip().splitlines())
    ]


def _side(compare, values: list[float]) -> dict:
    q1, q2, q3 = compare.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3}


def workload_record(compare, metrics: list[dict], parent: dict, change: dict) -> dict:
    """One workload's figures and verdicts; ``parent`` and ``change`` are ``compare.load``'s runs of it."""
    record: dict = {"runs": {"parent": len(parent), "change": len(change)}, "metrics": {}}
    for metric in metrics:
        for raw in (False, True) if metric["unit"] == "s" else (False,):
            pv, cv = compare.values(parent, metric["name"], raw), compare.values(change, metric["name"], raw)
            if not pv or not cv:
                continue
            pairs = [(pv[seed], cv[seed]) for seed in sorted(pv.keys() & cv.keys())]
            word, share = compare.verdict(metric, list(pv.values()), list(cv.values()), pairs)
            record["metrics"][metric["name"] + (" raw" if raw else "")] = {
                "parent": _side(compare, list(pv.values())),
                "change": _side(compare, list(cv.values())),
                "verdict": word,
                "won": round(share * len(pairs)),
                "pairs": len(pairs),
            }
    for name, runs in (("parent", parent), ("change", change)):
        factors = compare.values(runs, "speed_factor", raw=True)
        record.setdefault("speed_factor", {})[name] = median(factors.values()) if factors else None
        record.setdefault("failed_share", {})[name] = compare.fail_share(runs)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write two sets of benchmark results and their verdicts as JSON")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    empty = _without_result(args.parent) + _without_result(args.change)
    for path in empty:
        print(f"error: {path}: no result line", file=sys.stderr)
    if empty:
        return 1
    compare = _compare()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = compare.load(args.parent), compare.load(args.change)
    revision = _git("rev-parse", "HEAD")
    record = {
        "git_revision": revision,
        "git_dirty": None if revision is None else bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "workloads": {
            workload: workload_record(compare, metrics, parent[workload], change[workload])
            for workload in sorted(parent.keys() & change.keys())
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
