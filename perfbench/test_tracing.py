"""Spans, self times and absent names of the benchmark's tracer.

    python3 -m pytest perfbench/test_tracing.py
"""

from __future__ import annotations

from types import SimpleNamespace

import tracing


def test_self_times_add_up_and_missing_names_are_absent():
    solver = SimpleNamespace()
    solver.rank_transform = lambda inst: inst
    solver.run_pipeline = lambda inst: solver.rank_transform(inst)
    cli = SimpleNamespace(parse=lambda path: path)  # no run_pipeline, solve_pipeline, ...
    tracer = tracing.Tracer()
    tracer.install({"maxdom.cli": cli, "maxdom.solver": solver})
    assert "maxdom.cli.run_pipeline" in tracer.absent
    assert "maxdom.solver.dp_layers" in tracer.absent

    def main(argv):
        return solver.run_pipeline(cli.parse(argv[0]))

    first = tracer.begin_round()
    assert tracer.run_op(main, ["x"]) == "x"
    summary = tracer.summary(first)
    names = [span.name for span in tracer.spans]
    assert names == ["cli.main", "instances.parse", "solver.run_pipeline", "ranking.rank_transform"]
    parents = [span.parent for span in tracer.spans]
    assert parents == [-1, 0, 0, 2]
    assert abs(sum(summary["self_s"].values()) - summary["roots_s"]) < 1e-9
    assert summary["total_s"]["solver.run_pipeline"] >= summary["self_s"]["solver.run_pipeline"]


def test_counter_hook_that_no_longer_fits_is_reported_not_raised():
    solver = SimpleNamespace(drop_uncovered=lambda rinst: object())  # result has no .P
    tracer = tracing.Tracer()
    tracer.install({"maxdom.cli": SimpleNamespace(), "maxdom.solver": solver})
    tracer.run_op(lambda argv: solver.drop_uncovered(None), [])
    tracer.run_op(lambda argv: solver.drop_uncovered(None), [])
    assert tracer.absent.count("counter of _retained") == 1
