"""Timed worker: runs ``maxdom.cli.main`` on instance files, one at a time.

``run.py`` starts a fresh worker for each run, with ``src`` on the path.  It
does nothing but the operations it is sent, so its peak RSS is theirs.

Protocol, one JSON object per line: once ``maxdom`` is imported the worker
prints ``{"ready": true, "speed": ...}``.  For each ``{"ops": [[arg, ...],
...]}`` it reads, it runs the operations in order and prints their raw times,
speed factors (``speed.py``), exit codes and outputs, its peak RSS and, with
``--trace``, the round's span summary.  End of input ends the worker.

    python3 perfbench/worker.py [--trace]
"""

from __future__ import annotations

import gc
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter_ns

from speed import Sampler
from tracing import Tracer, peak_rss_kb


def run_op(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            rc = tracer.run_op(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # reported as a failed operation; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
    return t0, t1, {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def main() -> None:
    sampler = Sampler()
    sampler.start()
    started = perf_counter_ns()
    import maxdom.cli  # the import is part of set-up
    import maxdom.solver

    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = Tracer()
        tracer.install({"maxdom.cli": maxdom.cli, "maxdom.solver": maxdom.solver})
    reply = sys.stdout
    reply.write(json.dumps({"ready": True, "speed": sampler.factor(started, perf_counter_ns())}) + "\n")
    reply.flush()
    for line in sys.stdin:
        ops = json.loads(line)["ops"]
        first = tracer.begin_round() if tracer else 0
        timed = [run_op(maxdom.cli.main, argv, tracer) for argv in ops]
        results = []
        for t0, t1, result in timed:
            result.update(t=(t1 - t0) / 1e9, speed=sampler.factor(t0, t1))
            results.append(result)
        msg = {
            "results": results,
            "speed": sampler.factor(timed[0][0], timed[-1][1]),
            "peak_rss_kb": peak_rss_kb(),
        }
        if tracer:
            msg["trace"] = tracer.summary(first)
            msg["absent"] = tracer.absent
        reply.write(json.dumps(msg) + "\n")
        reply.flush()
        gc.collect()  # leave the next round the same heap state, outside the timings
    sampler.stop()


if __name__ == "__main__":
    main()
