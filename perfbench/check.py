"""Answer checks computed apart from the program under test.

Nothing here imports ``maxdom``.  Every expected value comes from the
instance file's own text, read by this module's reader, so a fault in the
program's parser, transform or solver cannot hide by agreeing with itself.

A checked operation gets one of three verdicts:

* ``ok``    the answer is right;
* ``drift`` the answer is wrong only by binary-float rounding, and the file
  holds decimal weights that a float cannot represent.  This is the known
  fault of ``maxdom.instances._number``, which parses decimal tokens as
  floats; it counts as a failed operation but not as an incorrect benchmark;
* ``wrong`` anything else.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import lcm

OK, DRIFT, WRONG = "ok", "drift", "wrong"

# Relative size of the rounding error that binary-float sums of a few dozen
# weights can reach; errors beyond it are not attributed to float parsing.
DRIFT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FileInstance:
    """Columns of one instance file; ``queries[i]`` is query id ``i``."""

    xs: list
    ys: list
    ws: list
    queries: list
    k: int
    inexact: bool  # some weight token has no exact binary-float value


def read_instance(path, exact: bool = False) -> FileInstance:
    """Read an instance file; ``exact`` reads numbers as ``Fraction``, else ``int``."""
    number = Fraction if exact else int
    with open(path) as f:
        rows = (line.split() for line in f)
        rows = (r for r in rows if r and not r[0].startswith("#"))
        n, m, k = (int(t) for t in next(rows))
        xs, ys, ws = [], [], []
        inexact = False
        for _ in range(n):
            x, y, w = next(rows)
            xs.append(number(x))
            ys.append(number(y))
            weight = number(w)
            ws.append(weight)
            if exact and not inexact:
                inexact = weight != Fraction(float(w))
        queries = [tuple(number(t) for t in next(rows)) for _ in range(m)]
    return FileInstance(xs, ys, ws, queries, k, inexact)


def covered_weight(inst: FileInstance, ids, positive_only: bool = False):
    """Total weight of the points that at least one query in ``ids`` dominates.

    A point (x, y) is dominated by some chosen query iff the highest chosen
    query with qx >= x reaches y, so one search per point decides it.
    """
    stairs = sorted(inst.queries[i] for i in ids)
    sx = [qx for qx, _ in stairs]
    top = [qy for _, qy in stairs]
    for t in range(len(top) - 2, -1, -1):
        top[t] = max(top[t], top[t + 1])
    cut = len(sx)
    total = 0
    for x, y, w in zip(inst.xs, inst.ys, inst.ws):
        t = bisect_left(sx, x)
        if t < cut and top[t] >= y and (w > 0 or not positive_only):
            total += w
    return total


def single_query_weights(inst: FileInstance) -> list:
    """Covered weight of each query on its own, indexed by query id.

    Points are bucketed by the first query x- and y-value at or above them;
    a query covers exactly the buckets at or below its own values, so a 2-D
    prefix sum over the buckets gives every query's weight.
    """
    qxs = sorted({qx for qx, _ in inst.queries})
    qys = sorted({qy for _, qy in inst.queries})
    cols, rows = len(qxs), len(qys)
    grid = [[0] * rows for _ in range(cols)]
    for x, y, w in zip(inst.xs, inst.ys, inst.ws):
        a = bisect_left(qxs, x)
        b = bisect_left(qys, y)
        if a < cols and b < rows:
            grid[a][b] += w
    for a in range(cols):
        line = grid[a]
        for b in range(1, rows):
            line[b] += line[b - 1]
        if a:
            prev = grid[a - 1]
            for b in range(rows):
                line[b] += prev[b]
    return [grid[bisect_left(qxs, qx)][bisect_left(qys, qy)] for qx, qy in inst.queries]


@dataclass(frozen=True)
class SolveExpectation:
    """What the benchmark computes itself for one ``solve`` file."""

    best_single: int
    total_positive: int


def expect_solve(inst: FileInstance) -> SolveExpectation:
    return SolveExpectation(
        max(single_query_weights(inst)),
        covered_weight(inst, range(len(inst.queries)), positive_only=True),
    )


def _record(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1], parse_float=Decimal)


def check_solve(inst: FileInstance, exp: SolveExpectation, rc, out: str) -> tuple[str, str]:
    """Verdict for one ``maxdom solve`` answer on an integer instance."""
    try:
        rec = _record(out)
        chosen, value = rec["chosen"], rec["value"]
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"unreadable output ({exc}): {out[-200:]!r}"
    if rc != 0:
        return WRONG, f"exit code {rc}"
    m = len(inst.queries)
    if not all(isinstance(i, int) and 0 <= i < m for i in chosen):
        return WRONG, f"unknown query id in {chosen}"
    if len(set(chosen)) != len(chosen):
        return WRONG, f"repeated query id in {chosen}"
    if len(chosen) > inst.k:
        return WRONG, f"{len(chosen)} picks over the budget k={inst.k}"
    recomputed = covered_weight(inst, chosen)
    if value != recomputed:
        return WRONG, f"reported value {value} but the picks cover {recomputed}"
    low = max(exp.best_single, 0) if inst.k >= 1 else 0
    if not low <= value <= exp.total_positive:
        return WRONG, f"value {value} outside [{low}, {exp.total_positive}]"
    return OK, ""


def check_single(exp: SolveExpectation, rc, out: str) -> tuple[str, str]:
    """Verdict for ``maxdom solve --k 1``: exactly the best single query, or 0."""
    try:
        value = _record(out)["value"]
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"unreadable --k 1 output ({exc})"
    want = max(exp.best_single, 0)
    if rc != 0 or value != want:
        return WRONG, f"--k 1 gave {value} (exit {rc}), best single query covers {want}"
    return OK, ""


def exact_optimum(inst: FileInstance) -> Fraction:
    """Best covered weight over every pick set of size <= k, in exact arithmetic."""
    scale = lcm(*(Fraction(w).denominator for w in inst.ws)) if inst.ws else 1
    by_mask: dict[int, int] = {}
    for x, y, w in zip(inst.xs, inst.ys, inst.ws):
        mask = 0
        for i, (qx, qy) in enumerate(inst.queries):
            if x <= qx and y <= qy:
                mask |= 1 << i
        if mask:
            by_mask[mask] = by_mask.get(mask, 0) + int(w * scale)
    groups = list(by_mask.items())
    m = len(inst.queries)
    best = 0
    for size in range(1, min(inst.k, m) + 1):
        for combo in combinations(range(m), size):
            sel = sum(1 << i for i in combo)
            value = sum(w for mask, w in groups if mask & sel)
            if value > best:
                best = value
    return Fraction(best, scale)


def check_verify(inst: FileInstance, optimum: Fraction, rc, out: str) -> tuple[str, str]:
    """Verdict for one ``maxdom verify`` run against the exact optimum."""
    try:
        rec = _record(out)
        values = {key: Fraction(rec[key]) for key in ("value_oracle", "value_dp", "value_dp_no_compress")}
    except (ValueError, KeyError, TypeError) as exc:
        return WRONG, f"unreadable output ({exc}): {out[-200:]!r}"
    if rc == 0 and values["value_dp"] == optimum:
        return OK, ""
    scale = DRIFT_TOLERANCE * (1 + sum(abs(w) for w in inst.ws))
    if inst.inexact and all(abs(v - optimum) <= scale for v in values.values()):
        return DRIFT, f"value_dp {rec['value_dp']} vs exact {float(optimum)!r} (exit {rc})"
    return WRONG, f"value_dp {rec['value_dp']} vs exact {float(optimum)!r} (exit {rc})"
