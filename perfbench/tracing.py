"""Spans around the calls into each layer of ``maxdom``, recorded from outside.

The program is not changed: ``install`` replaces the names that the callers
look up with timing wrappers.  ``solver.py`` and ``cli.py`` import the layer
functions into their own namespaces, so the wrappers go there (for example
``maxdom.solver.build_grid``, not ``maxdom.cells.build_grid``).  A name that
no longer exists is listed in ``Tracer.absent`` instead of failing the run.

Each span keeps a name, start, end, parent span and the operation it belongs
to; spans stay in memory until the run ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import resource
from bisect import bisect_right, insort
from dataclasses import dataclass
from math import comb
from time import perf_counter


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int
    rss_start_kb: int  # the process's peak RSS when the span opened
    rss_end_kb: int


def _retained(result, _args, _kwargs):
    return {"ranking.retained_points": len(result.P)}


def _grid_cells(result, _args, _kwargs):
    return {"cells.build_grid_calls": 1, "cells.nonempty_cells": len(result.cells)}


def _compressed(result, _args, _kwargs):
    return {"cells.compressed_points": len(result.points)}


def _row_sum_entries(result, _args, _kwargs):
    return {"coverage.row_sum_entries": sum(len(row) for row in result.rows)}


def _sweep(_result, _args, _kwargs):
    return {"coverage.sweeps_built": 1}


def _dp_pairs(_result, args, kwargs):
    """Eligible (layer, i, j) transitions: j < i in y-order with x_j <= x_i."""
    rinst = args[0]
    xs = [rinst.Q[t].x for t in rinst.y_order]
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    k_eff = min(rinst.k if k is None else k, len(xs) - 1)
    seen: list = []
    per_layer = 0
    for i, x in enumerate(xs):
        if i:
            per_layer += bisect_right(seen, x)
        insort(seen, x)
    return {"solver.dp_pairs": per_layer * k_eff}


def _subsets(_result, args, _kwargs):
    inst = args[0]
    k = min(inst.k, inst.m)
    return {"oracle.subsets": sum(comb(inst.m, t) for t in range(1, k + 1))}


# (module, attribute the callers look up, span name, counter hook)
WRAPPED = (
    ("maxdom.cli", "parse", "instances.parse", None),
    ("maxdom.cli", "run_pipeline", "solver.run_pipeline", None),
    ("maxdom.cli", "solve_pipeline", "solver.solve_pipeline", None),
    ("maxdom.cli", "oracle_solve", "oracle.oracle_solve", _subsets),
    ("maxdom.cli", "weight_of_dom", "model.weight_of_dom", None),
    ("maxdom.solver", "run_pipeline", "solver.run_pipeline", None),
    ("maxdom.solver", "rank_transform", "ranking.rank_transform", None),
    ("maxdom.solver", "drop_uncovered", "ranking.drop_uncovered", _retained),
    ("maxdom.solver", "build_grid", "cells.build_grid", _grid_cells),
    ("maxdom.solver", "compress", "cells.compress", _compressed),
    ("maxdom.solver", "build_row_sums", "coverage.build_row_sums", _row_sum_entries),
    ("maxdom.solver", "CoverageSweep", "coverage.CoverageSweep", _sweep),
    ("maxdom.solver", "dp_layers", "solver.dp_layers", _dp_pairs),
)

# Counters taken as the largest value seen within one operation rather than a
# sum: a solve builds the grid twice today (full, then compressed), and both
# describe the same cells.
PER_OP_MAX = frozenset({"cells.nonempty_cells"})

COUNTING_SPAN = "trace.counting"


class Tracer:
    """Span recorder for one worker process; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_max: dict[str, int] = {}

    def install(self, modules: dict) -> None:
        """Wrap every name in ``WRAPPED``; ``modules`` maps module names to modules."""
        for mod_name, attr, span_name, hook in WRAPPED:
            fn = getattr(modules[mod_name], attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            setattr(modules[mod_name], attr, self._wrap(fn, span_name, hook))

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op, peak_rss_kb(), 0))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        span.rss_end_kb = peak_rss_kb()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self._count(hook, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, hook, result, args, kwargs) -> None:
        # Counting is benchmark work, so it gets its own span and stays out of
        # the caller's self time.
        idx = self._open(COUNTING_SPAN)
        try:
            for key, value in hook(result, args, kwargs).items():
                if key in PER_OP_MAX:
                    self._op_max[key] = max(self._op_max.get(key, 0), value)
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
        except (AttributeError, IndexError, TypeError):
            if f"counter of {hook.__name__}" not in self.absent:
                self.absent.append(f"counter of {hook.__name__}")
        finally:
            self._close(idx)

    def run_op(self, fn, *args):
        """Call ``fn`` as one operation under a root span named ``cli.main``."""
        self._op += 1
        self._op_max = {}
        idx = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(idx)
            for key, value in self._op_max.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def begin_round(self) -> int:
        """Reset the counters; returns the index of the round's first span."""
        self.counts = {}
        return len(self.spans)

    def summary(self, first_span: int) -> dict:
        """Per-name totals and counters since ``begin_round`` returned ``first_span``."""
        spans = self.spans[first_span:]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= first_span:
                child_time[span.parent - first_span] += span.end - span.start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        rss_kb: dict[str, int] = {}
        roots = 0.0
        for span, inner in zip(spans, child_time):
            dur = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + dur
            self_time[span.name] = self_time.get(span.name, 0.0) + dur - inner
            rss_kb[span.name] = rss_kb.get(span.name, 0) + span.rss_end_kb - span.rss_start_kb
            if span.parent < 0:
                roots += dur
        return {
            "total_s": total,
            "self_s": self_time,
            "rss_growth_kb": rss_kb,
            "roots_s": roots,
            "counts": dict(self.counts),
        }
