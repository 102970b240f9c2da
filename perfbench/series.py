"""Run the benchmark once per seed and keep each run's output.

    python3 perfbench/series.py --out RESULTS_DIR [--workloads n-heavy,m-heavy]
                                [--seeds 1-10]

Runs are made one after another, never in parallel, with the run length
from ``BENCHMARK.json``.  Each result goes to
``RESULTS_DIR/<workload>.<seed>.json``; its last line is the result object.
Runs are untraced (``--trace 0``), since ``compare.py`` reads the end-to-end
metrics; a traced run is a single ``run.py --trace 1`` call.
A run that prints no result is reported and stops the series.  Compare two
such directories, or summarize one, with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="run the benchmark once per seed")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}, no result", file=sys.stderr)
                return 1
            (args.out / f"{workload}.{seed}.json").write_text(done.stdout)
            result = json.loads(lines[-1])
            shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
