"""Workload inputs, written with the program's own generator and serializer.

Every instance comes from ``maxdom.instances.generate`` and is written by
``maxdom.instances.serialize``; the benchmark seed only picks generator
seeds.  Sizes are fixed per workload, so every seed asks for the same amount
of work.  Run as a script, this is the set-up step of one run:

    python3 perfbench/workloads.py --workload n-heavy --seed 3 --dir DIR

It writes the files into DIR and prints one JSON line with the operations to
time, the raw seconds spent in ``generate`` and ``serialize``, and the
process's speed factor (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from time import perf_counter, perf_counter_ns

from maxdom.instances import GeneratorSpec, generate, serialize
from maxdom.model import Instance
from speed import Sampler

NAMES = ("n-heavy", "m-heavy", "desk-verify")

M_HEAVY_BATCH = 10  # instances per round; one round of solves takes a few seconds
DESK_SEEDED = 192  # desk instances generated from the benchmark seed
DESK_FIXED = 64  # desk instances that are the same for every seed, so their
# failures (float drift on decimal weights) are the same in every run
DESK_FIXED_SEED = 10**9  # generator seeds of the fixed desk instances start here


def _desk_instance(i: int, gen_seed: int, scale: int) -> Instance:
    """The ``i``-th oracle-sized instance, integer weights divided by ``scale``.

    Sizes run through n in 8..40, m in 4..10 and k in 1..4 by index.
    ``scale`` 4 gives quarter steps such as -2.25 or 3.5, which binary floats
    hold exactly; ``scale`` 100 gives general two-digit decimals such as 0.07.
    Both reach the parser as decimal tokens.
    """
    n, m, k = 8 + i % 33, 4 + i % 7, 1 + i % 4
    inst = generate(GeneratorSpec("uniform", n, m, k, (-10 * scale, 10 * scale), gen_seed))
    return Instance.from_rows(
        [(p.x, p.y, p.w / scale) for p in inst.P], [(q.x, q.y) for q in inst.Q], k
    )


def _specs(workload: str, seed: int):
    """Yield ``(command, make_instance)`` for every file of one round, in order."""
    if workload == "n-heavy":
        yield "solve", lambda: generate(GeneratorSpec("uniform", 1_000_000, 64, 8, seed=seed))
    elif workload == "m-heavy":
        for i in range(M_HEAVY_BATCH):
            spec = GeneratorSpec("uniform", 500, 512, 16, seed=seed * 1000 + i)
            yield "solve", lambda spec=spec: generate(spec)
    elif workload == "desk-verify":
        for i in range(DESK_SEEDED):
            yield "verify", lambda i=i: _desk_instance(i, seed * 1000 + i, 4)
        for i in range(DESK_FIXED):
            yield "verify", lambda i=i: _desk_instance(i, DESK_FIXED_SEED + i, 100)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(NAMES)}")


def write_files(workload: str, seed: int, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, gen_s, ser_s = [], 0.0, 0.0
    for i, (command, make) in enumerate(_specs(workload, seed)):
        path = out_dir / f"{i:04d}.txt"
        t0 = perf_counter()
        inst = make()
        t1 = perf_counter()
        serialize(inst, path)
        t2 = perf_counter()
        gen_s += t1 - t0
        ser_s += t2 - t1
        ops.append([command, str(path)])
        del inst
    return {"ops": ops, "generate_s": gen_s, "serialize_s": ser_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    sampler = Sampler()
    sampler.start()
    started = perf_counter_ns()
    made = write_files(args.workload, args.seed, args.dir)
    made["speed"] = sampler.factor(started, perf_counter_ns())
    sampler.stop()
    print(json.dumps(made))


if __name__ == "__main__":
    main()
