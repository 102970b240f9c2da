#!/usr/bin/env python3
"""Check that two source trees give the same ``maxdom`` records on the benchmark's own files.

    python3 scripts/same_records.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B [--args "--k 1"]
    python3 scripts/same_records.py PARENT_TREE CHANGE_TREE --shape S --seeds A-B [--args "--k 1"]

For each seed from A to B (or the one seed ``--seeds A``) the workload's
files are written as the benchmark writes them, once per tree: the first
tree's ``perfbench/workloads.py`` runs as a script with that tree's ``src``
on ``PYTHONPATH``, into a temporary directory that is removed after the
seed.  With ``--shape`` instead, the script is this directory's
``shapes.py``, run the same way, which writes the named shape's one file.
Every file whose bytes differ between the two trees counts as a
difference.  Every operation on the first tree's files (``maxdom solve
FILE`` or ``maxdom verify FILE``, followed by the ``--args`` arguments, if
any) then runs once per tree, each in a fresh ``python -m maxdom`` process
with that tree's ``src`` on ``PYTHONPATH``, the two at the same time.  Their
exit statuses, their stderr and their JSON records are compared, the records
without the keys that hold times, memory or the process count (``UNTIMED``).
One line is printed per differing file or value; at the end, the number of
files and of operations, the ``parts`` that each tree's solves used, and the
keys found in one tree's records only.  Exits 1 where any file or value
differs, else 0: a key on one side only is listed but is not a difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from decimal import Decimal
from pathlib import Path

# Record keys that hold times, memory or the process count, which may differ between two runs.
UNTIMED = ("stages", "total_seconds", "peak_rss_mb", "peak_rss_children_mb", "parts")


def seeds(text: str) -> range:
    """``"A-B"`` as the seeds A to B, ``"A"`` as A alone."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def write_files(script: Path, tree: Path, workload: str, seed: int, out_dir: Path) -> list:
    """The benchmark's ``[command, path]`` operations for one seed, their files written by ``script`` with ``tree``'s ``maxdom``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--dir", str(out_dir)]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True, text=True).stdout
    return json.loads(out)["ops"]


def script_of(args, tree: Path) -> tuple[str, Path]:
    """``--workload`` or ``--shape``, and the script that writes its files.

    A workload's is ``tree``'s ``perfbench/workloads.py``, a shape's the
    ``shapes.py`` beside this script.
    """
    if args.shape:
        return args.shape, Path(__file__).resolve().parent / "shapes.py"
    return args.workload, tree / "perfbench" / "workloads.py"


def start(tree: Path, command: str, path: str, extra: list) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "maxdom", command, path, *extra]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def outcome(proc: subprocess.Popen) -> dict:
    """The exit status, stderr and JSON record of a finished operation, in one dict."""
    out, err = proc.communicate()
    try:
        record = json.loads(out, parse_float=Decimal)
    except ValueError:
        record = {"stdout": out}
    return {"exit": proc.returncode, "stderr": err, **record}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs=2, type=Path, metavar="TREE", help="PARENT_TREE CHANGE_TREE")
    source = ap.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="n-heavy, m-heavy or desk-verify")
    source.add_argument("--shape", help="a shape of shapes.py: c-large, k-large, c-large-nonneg or staircase-nonneg")
    ap.add_argument("--seeds", type=seeds, required=True, metavar="A-B")
    ap.add_argument("--args", type=shlex.split, default=[], help='arguments appended to every operation, such as "--k 1"')
    args = ap.parse_args()
    trees = [tree.resolve() for tree in args.trees]
    name, script = script_of(args, trees[0])
    differ = ops = files = differ_files = 0
    parts = [Counter(), Counter()]
    one_side: list[set] = [set(), set()]
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="same_records_") as tmp:
            dirs = [Path(tmp) / "a", Path(tmp) / "b"]
            made = [write_files(script, tree, name, seed, out) for tree, out in zip(trees, dirs)]
            for (_, path), (_, other) in zip(*made):
                files += 1
                if Path(path).read_bytes() != Path(other).read_bytes():
                    differ_files += 1
                    print(f"seed {seed} file {Path(path).name}: bytes differ")
            for command, path in made[0]:
                procs = [start(tree, command, path, args.args) for tree in trees]
                a, b = [outcome(proc) for proc in procs]
                ops += 1
                for side, rec in enumerate((a, b)):
                    if "parts" in rec:
                        parts[side][rec["parts"]] += 1
                for key in sorted(set(a) | set(b)):
                    if key in UNTIMED:
                        continue
                    if key not in a or key not in b:
                        one_side[key not in a].add(key)
                    elif a[key] != b[key]:
                        differ += 1
                        print(f"seed {seed} {command} {Path(path).name} {key}: {a[key]!r} != {b[key]!r}")
    print(f"{name}: {files} files, {differ_files} differing files")
    print(f"{name}: {ops} operations, {differ} differing values")
    for tree, used, keys in zip(trees, parts, one_side):
        print(f"{tree}: parts {dict(sorted(used.items()))}, keys in its records only: {sorted(keys)}")
    return 1 if differ or differ_files else 0


if __name__ == "__main__":
    raise SystemExit(main())
