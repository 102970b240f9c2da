"""Stage-timing sweeps and log-log slope fits: the helpers of acceptance criterion 7.

Criterion 7 (``tests/test_acceptance.py``) fits the dp stage's log-log slope
against m and against k over two size sweeps; run it alone with
``pytest tests/test_acceptance.py -k criterion_7 -s``.  The sweeps ask for
the paper's simple DP (the ``"sweep"`` engine) by name, whichever engine a
solve would pick: its dp stage is what they measure.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .instances import GeneratorSpec, generate
from .model import Instance
from .solver import run_pipeline

STAGES = ("grid", "dp", "reconstruct")


def time_pipeline(inst: Instance, reps: int = 1) -> dict[str, float]:
    """Per-stage seconds for the fastest of ``reps`` runs, plus 'total'."""
    best = None
    for _ in range(max(1, reps)):
        res = run_pipeline(inst, "sweep")
        stages = dict(res.stage_seconds)
        stages["total"] = sum(stages.values())
        if best is None or stages["total"] < best["total"]:
            best = stages
    return best


def sweep(family: str, ns, ms, ks, *, reps: int = 3, seed: int = 0) -> list[dict]:
    """Cartesian sweep over sizes; returns flat rows {family,n,m,k,stage,seconds}.

    Every shape's instance is generated first, and all of them are held at
    once.  Then each of ``reps`` rounds times every shape once
    (``time_pipeline``), and each shape keeps its fastest round: a CPU whose
    speed changes every few seconds then slows the small shapes as often as
    the large ones, where back-to-back reps of a small shape would all fall
    in one speed phase.
    """
    shapes = [(n, m, k) for n in ns for m in ms for k in ks]
    insts = [
        generate(GeneratorSpec(family, n, m, k, seed=seed + 7919 * idx))
        for idx, (n, m, k) in enumerate(shapes)
    ]
    rounds = [[time_pipeline(inst) for inst in insts] for _ in range(max(1, reps))]
    rows = []
    for (n, m, k), timings in zip(shapes, zip(*rounds)):
        stages = min(timings, key=itemgetter("total"))
        for stage in (*STAGES, "total"):
            rows.append({"family": family, "n": n, "m": m, "k": k, "stage": stage, "seconds": stages[stage]})
    return rows


def stage_series(rows, stage: str, axis: str) -> tuple[list, list]:
    """(axis values, seconds) for one stage across a single-axis sweep."""
    xs, ys = [], []
    for r in rows:
        if r["stage"] == stage:
            xs.append(r[axis])
            ys.append(r["seconds"])
    return xs, ys


def fit_loglog(xs, ys) -> float:
    """Least-squares slope of log(seconds) against log(size)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den
