"""Compare two sets of benchmark results, or summarize one.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds result files named ``<workload>.<seed>.json``, as
``series.py`` writes them: a run's output, whose last line is its result
object.  For every workload and end-to-end metric of ``BENCHMARK.json`` this
prints each side's median and quartiles and, with two directories, the share
of pairs the change won and a verdict.  Pairs are the two sides' runs with
the same seed.

Verdicts, against the metric's ``bound`` (a share of the parent's median):

* ``better``     the change wins at least 9 in 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  quartile distance;
* ``worse``      the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` neither, and either side's quartile distance exceeds the
  bound, unless every change run is better than every parent run;
* ``unchanged``  otherwise.

A workload whose share of failed operations grew is reported ``worse``.
With one directory, the spread (quartile distance over median) of each
metric is printed against its bound.  The exit code is 1 when any verdict is
``worse`` or any spread exceeds its bound, else 0.

The judged times are scaled to the reference machine speed (``speed.py``).
Each time metric also gets a line for the raw seconds of the same runs, from
the ``{"raw": ...}`` line of each result, with its own verdict or spread and
each side's median speed factor.  Raw figures do not set the exit code: the
machine's speed drifts between sets of runs.  A raw ``worse`` beside a judged
``unchanged`` with equal speed factors on both sides is a regression that
the scaling hid, for example one that also slows the sampler's loop.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict[str, dict]]:
    """``{workload: {seed: result}}`` for every result file in ``directory``.

    A result gains the key ``raw``, the run's raw figures, when its output
    has a ``{"raw": ...}`` line.
    """
    runs: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        workload, seed = path.stem.rsplit(".", 1)
        records = [json.loads(line) for line in path.read_text().strip().splitlines() if line.startswith("{")]
        result = records[-1]
        for record in records[:-1]:
            if "raw" in record:
                result["raw"] = record["raw"]
        runs.setdefault(workload, {})[seed] = result
    return runs


def values(runs: dict[str, dict], name: str, raw: bool = False) -> dict[str, float]:
    """``{seed: value}`` of one metric; raw figures only where every run has them."""
    if raw:
        if not all("raw" in r for r in runs.values()):
            return {}
        return {seed: r["raw"][name] for seed, r in runs.items()}
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fail_share(runs: dict[str, dict]) -> float:
    return sum(r["failed"] for r in runs.values()) / sum(r["attempted"] for r in runs.values())


def verdict(metric: dict, parent: list[float], change: list[float], pairs: list[tuple]) -> tuple[str, float]:
    sign = 1 if metric["better"] == "lower" else -1
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = won / len(pairs) if pairs else 0.0
    pq1, pmed, pq3 = quartiles(parent)
    cmed = median(change)
    if share >= 0.9 and sign * (pmed - cmed) > pq3 - pq1:
        return "better", share
    if sign * (cmed - pmed) > metric["bound"] * abs(pmed):
        return "worse", share
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > metric["bound"] and not every_better:
        return "unresolved", share
    return "unchanged", share


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = [load(Path(d)) for d in argv]
    bad = False
    for workload in sorted(sides[0]):
        parent = sides[0][workload]
        change = sides[1].get(workload, {}) if len(sides) == 2 else None
        print(f"{workload}  ({len(parent)} runs" + (f" vs {len(change)})" if change is not None else ")"))
        for metric in metrics:
            for raw in (False, True) if metric["unit"] == "s" else (False,):
                name = metric["name"] + (" raw" if raw else "")
                pv = values(parent, metric["name"], raw)
                if not pv:
                    continue
                if change is None:
                    s = spread(list(pv.values()))
                    flag = "" if s <= metric["bound"] else "  OVER BOUND"
                    bad |= bool(flag) and not raw
                    print(f"  {name:<16} {_fmt(list(pv.values()))}  spread {s:.3f} of bound {metric['bound']}{flag}")
                    continue
                if not change:
                    print(f"  {name:<16} no change runs")
                    continue
                cv = values(change, metric["name"], raw)
                if not cv:
                    continue
                pairs = [(pv[seed], cv[seed]) for seed in sorted(pv.keys() & cv.keys())]
                word, share = verdict(metric, list(pv.values()), list(cv.values()), pairs)
                bad |= word == "worse" and not raw
                print(f"  {name:<16} parent {_fmt(list(pv.values()))}  change {_fmt(list(cv.values()))}"
                      f"  won {share:.0%}  {word}")
        factors = [values(side, "speed_factor", raw=True) for side in (parent, change) if side]
        if all(factors):
            print("  speed factor     " + " vs ".join(f"{median(f.values()):.3f}" for f in factors))
        share = fail_share(parent)
        line = f"  failed share {share:.6f}"
        if change:
            cshare = fail_share(change)
            grew = cshare > share
            bad |= grew
            line += f" vs {cshare:.6f}" + ("  worse" if grew else "")
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
