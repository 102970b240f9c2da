"""Stage-timing sweeps and log-log slope fits for the solver pipeline.

The sweeps ask for the paper's simple DP (the ``"sweep"`` engine) by name,
whichever engine a solve would pick: its dp stage is what they measure.
"""

from __future__ import annotations

import math

from .instances import GeneratorSpec, generate
from .model import Instance
from .solver import run_pipeline

STAGES = ("grid", "dp", "reconstruct")
UNDER_TIMED = 0.005  # seconds; below this a cell is too fast to trust


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


def sweep(
    family: str,
    ns,
    ms,
    ks,
    *,
    reps: int = 3,
    seed: int = 0,
    weights: tuple[int, int] = (-10, 10),
) -> list[dict]:
    """Cartesian sweep over sizes; returns flat rows {family,n,m,k,stage,seconds}."""
    rows = []
    idx = 0
    for n in ns:
        for m in ms:
            for k in ks:
                spec = GeneratorSpec(family, n, m, k, weights, seed + 7919 * idx)
                idx += 1
                inst = generate(spec)
                stages = time_pipeline(inst, reps)
                for stage in (*STAGES, "total"):
                    rows.append(
                        {"family": family, "n": n, "m": m, "k": k, "stage": stage, "seconds": stages[stage]}
                    )
    return rows


def to_csv(rows) -> str:
    out = ["family,n,m,k,stage,seconds"]
    for r in rows:
        out.append(f"{r['family']},{r['n']},{r['m']},{r['k']},{r['stage']},{r['seconds']:.6f}")
    return "\n".join(out) + "\n"


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
