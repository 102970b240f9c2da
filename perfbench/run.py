"""maxdom benchmark: time and memory from instance file to JSON answer.

    python3 perfbench/run.py --workload n-heavy --seed 1 --seconds 15 --trace 0

One run, one caller, one operation at a time (a closed loop, no threads):

1. Set-up, done ``SETUPS`` times and reported as the median: write the
   workload's instance files from the seed (``workloads.py``, a separate
   process) and start a fresh worker process that imports ``maxdom``.
2. Timed rounds: the worker runs ``maxdom.cli.main([command, FILE])`` for
   every file of the workload, round after round, until ``--seconds`` have
   passed; every run does whole rounds.
3. Checks, untimed: every answer is compared with values that ``check.py``
   computes from the file itself.  ``solve --k 1`` runs in the worker while
   the benchmark computes its own expectations.

With ``--trace 1`` a second fresh worker repeats the rounds with timing
wrappers at each layer boundary (``tracing.py``), and the per-layer metrics
are printed instead of the end-to-end ones.

Every time is divided by the speed factor sampled around it (``speed.py``),
so it reads as seconds at the reference speed; a line before the result
gives the raw seconds.  The last line of standard output is the result
object; a run that cannot finish prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("n-heavy", "m-heavy", "desk-verify")
SETUPS = 3
CAUSES = {
    check.DRIFT: "decimal weights parsed as binary floats (maxdom.instances._number)",
    check.WRONG: "wrong answer",
}
PROCESS_TIMEOUT_S = 30


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Worker:
    """A fresh ``worker.py`` process, driven one JSON line at a time."""

    def __init__(self, trace: bool):
        cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if trace else [])
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT
        )
        self.speed = self.read()["speed"]  # the ready line: maxdom is imported
        self.start_s = perf_counter() - t0

    def send(self, ops) -> None:
        self.proc.stdin.write(json.dumps({"ops": ops}) + "\n")
        self.proc.stdin.flush()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early with exit code {self.proc.wait()}")
        return json.loads(line)

    def rounds(self, ops, seconds: float) -> list[dict]:
        """Whole rounds over ``ops`` until ``seconds`` have passed (at least one)."""
        done: list[dict] = []
        start = perf_counter()
        while not done or perf_counter() - start < seconds:
            self.send(ops)
            done.append(self.read())
        return done

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass  # the worker has exited already; wait() below reaps it
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--dir", str(work)]
    t0 = perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT, check=True)
    made = json.loads(done.stdout)
    made["raw_s"] = perf_counter() - t0
    return made


def check_answers(ops, phases, singles) -> tuple[dict, list[str]]:
    """Count failed operations by verdict and collect the wrong answers.

    ``phases`` lists the worker replies of every timed round; ``singles``
    holds the ``--k 1`` results of the ``solve`` files, in file order.
    """
    failed: dict[str, int] = {}
    wrong: list[str] = []
    single_iter = iter(singles)
    for i, (command, path) in enumerate(ops):
        if command == "solve":
            inst = check.read_instance(path)
            exp = check.expect_solve(inst)
            verdicts = [check.check_solve(inst, exp, r["rc"], r["out"]) for r in _answers(phases, i)]
            single = next(single_iter)
            verdict, why = check.check_single(exp, single["rc"], single["out"])
            if verdict != check.OK:
                wrong.append(f"{path}: {why}")
        else:
            inst = check.read_instance(path, exact=True)
            optimum = check.exact_optimum(inst)
            verdicts = [check.check_verify(inst, optimum, r["rc"], r["out"]) for r in _answers(phases, i)]
        for verdict, why in verdicts:
            if verdict != check.OK:
                failed[verdict] = failed.get(verdict, 0) + 1
            if verdict == check.WRONG:
                wrong.append(f"{path}: {why}")
    return failed, wrong


def _answers(phases, i):
    return [reply["results"][i] for reply in phases]


def _round_wall(reply: dict, raw: bool = False) -> float:
    return sum(r["t"] if raw else r["t"] / r["speed"] for r in reply["results"])


def end_to_end(setups, rounds, raw: bool = False) -> dict:
    times = [r["t"] if raw else r["t"] / r["speed"] for reply in rounds for r in reply["results"]]
    return {
        "setup_s": (median(raw_s if raw else s for s, raw_s in setups), "s"),
        "wall_s": (median(_round_wall(reply, raw) for reply in rounds), "s"),
        "op_p50_s": (median(times), "s"),
        "peak_rss_mb": (rounds[-1]["peak_rss_kb"] / 1024, "MB"),
    }


# per-layer time metric -> span names whose inclusive time it sums
LAYER_TIMES = {
    "instances.parse_s": ("instances.parse",),
    "ranking.rank_transform_s": ("ranking.rank_transform",),
    "ranking.drop_uncovered_s": ("ranking.drop_uncovered",),
    "cells.build_grid_s": ("cells.build_grid",),
    "cells.compress_s": ("cells.compress",),
    "coverage.build_row_sums_s": ("coverage.build_row_sums",),
    "solver.dp_layers_s": ("solver.dp_layers",),
    "oracle.oracle_solve_s": ("oracle.oracle_solve",),
}
# per-layer self-time metric -> span names whose self time it sums
LAYER_SELF = {
    "solver.pipeline_self_s": ("solver.run_pipeline", "solver.solve_pipeline"),
    "cli.self_s": ("cli.main",),
}
LAYER_RSS = {
    "instances.parse_rss_mb": ("instances.parse",),
    "ranking.rss_mb": ("ranking.rank_transform", "ranking.drop_uncovered"),
}
LAYER_COUNTS = (
    "ranking.retained_points",
    "cells.build_grid_calls",
    "cells.nonempty_cells",
    "cells.compressed_points",
    "coverage.row_sum_entries",
    "coverage.sweeps_built",
    "solver.dp_pairs",
    "oracle.subsets",
)


def per_layer(made, rounds, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, and the wall-time breakdown."""
    summaries = [reply["trace"] for reply in traced]

    def per_round(key, names):
        return median(
            sum(reply["trace"][key].get(name, 0.0) for name in names) / reply["speed"] for reply in traced
        )

    metrics = {
        "instances.generate_s": (median(m["generate_s"] / m["speed"] for m in made), "s"),
        "instances.serialize_s": (median(m["serialize_s"] / m["speed"] for m in made), "s"),
    }
    for metric, names in LAYER_TIMES.items():
        metrics[metric] = (per_round("total_s", names), "s")
    for metric, names in LAYER_SELF.items():
        metrics[metric] = (per_round("self_s", names), "s")
    for metric, names in LAYER_RSS.items():
        kb = sum(s["rss_growth_kb"].get(name, 0) for s in summaries for name in names)
        metrics[metric] = (kb / 1024, "MB")
    counts = summaries[0]["counts"]
    for metric in LAYER_COUNTS:
        metrics[metric] = (counts.get(metric, 0), "count")
    pairs = counts.get("solver.dp_pairs", 0)
    dp_s = metrics["solver.dp_layers_s"][0]
    metrics["solver.dp_ns_per_pair"] = (dp_s / pairs * 1e9 if pairs else 0.0, "ns")
    traced_wall = median(_round_wall(reply) for reply in traced)
    metrics["trace.overhead_s"] = (traced_wall - median(_round_wall(reply) for reply in rounds), "s")

    # Self times of all spans plus the time outside the root spans add up to
    # the traced wall time of all traced rounds (raw seconds).
    wall = sum(_round_wall(reply, raw=True) for reply in traced)
    self_s: dict[str, float] = {}
    for s in summaries:
        for name, sec in s["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + sec
    outside = wall - sum(s["roots_s"] for s in summaries)
    breakdown = {
        "traced_wall_s": wall,
        "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
        "remainder_s": {"worker, outside cli.main (output capture, timer)": outside},
        "sum_s": sum(self_s.values()) + outside,
        "absent": traced[-1]["absent"],
    }
    return metrics, breakdown


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "maxdom" / "cli.py").is_file():
        raise RuntimeError(f"program source not found under {ROOT / 'src'}")
    work = ROOT / ".bench_build" / "perfbench" / workload
    setups, made, worker = [], [], None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.close()
            made.append(write_inputs(workload, seed, work))
            worker = Worker(trace=False)
            setups.append((
                made[-1]["raw_s"] / made[-1]["speed"] + worker.start_s / worker.speed,
                made[-1]["raw_s"] + worker.start_s,
            ))
        ops = made[-1]["ops"]
        rounds = worker.rounds(ops, seconds)
        traced = []
        if trace:
            worker.close()
            worker = Worker(trace=True)
            traced = worker.rounds(ops, seconds)
        solves = [[*op, "--k", "1"] for op in ops if op[0] == "solve"]
        if solves:
            worker.send(solves)  # runs while the expectations are computed below
        failed, wrong = check_answers(ops, rounds + traced, worker.read()["results"] if solves else [])
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)
    for line in wrong[:10]:
        print(f"wrong answer: {line}", file=sys.stderr)
    print(json.dumps({"failed_by_cause": {CAUSES[v]: n for v, n in failed.items()}}))
    if trace:
        metrics, breakdown = per_layer(made, rounds, traced)
        print(json.dumps({"trace_breakdown": breakdown}))
    else:
        metrics = end_to_end(setups, rounds)
        raw = {name: value for name, (value, _unit) in end_to_end(setups, rounds, raw=True).items()}
        raw["speed_factor"] = median(reply["speed"] for reply in rounds)
        print(json.dumps({"raw": raw}))
    return {
        "correct": not wrong,
        "attempted": len(ops) * (len(rounds) + len(traced)),
        "failed": sum(failed.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="maxdom file-to-answer benchmark (one run)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
