#!/usr/bin/env python3
"""Write one named instance shape that no benchmark workload has, as the benchmark writes its files.

    python3 scripts/shapes.py --workload c-large --seed 3 --dir DIR

Speaks ``perfbench/workloads.py``'s set-up protocol: it writes the shape's
one file into DIR with ``maxdom.instances.generate`` and ``serialize`` and
prints one JSON line whose ``ops`` are ``[["solve", PATH]]``, so that
``scripts/same_records.py`` and ``scripts/interleave.py`` run it with
``--shape NAME``.  The seed is the generator seed.  The shapes:

- ``c-large``: uniform n = 200,000, m = 5,000, k = 8, weights -10..10;
  about 3.3 MB, large enough that ``maxdom solve`` splits it;
- ``k-large``: uniform n = m = 20,000, k = 256: the tree at 256 lanes;
- ``c-large-nonneg``: ``c-large`` with weights 0..10;
- ``staircase-nonneg``: uniform n = 20,000 points with weights 0..10 under
  m = 2,000 queries spaced evenly on an anti-diagonal, k = 256.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from maxdom.instances import COORD_SPAN, GeneratorSpec, generate, serialize
from maxdom.model import Instance


def _staircase(seed: int) -> Instance:
    """Uniform points, weights 0..10, under 2,000 queries on the anti-diagonal x + y = ``COORD_SPAN``."""
    m = 2_000
    points = generate(GeneratorSpec("uniform", 20_000, 1, 256, (0, 10), seed)).P
    xs = [(t + 1) * COORD_SPAN // (m + 1) for t in range(m)]
    return Instance.from_columns(points.xs, points.ys, points.ws, [(x, COORD_SPAN - x) for x in xs], 256)


SHAPES = {
    "c-large": lambda seed: generate(GeneratorSpec("uniform", 200_000, 5_000, 8, seed=seed)),
    "k-large": lambda seed: generate(GeneratorSpec("uniform", 20_000, 20_000, 256, seed=seed)),
    "c-large-nonneg": lambda seed: generate(GeneratorSpec("uniform", 200_000, 5_000, 8, (0, 10), seed)),
    "staircase-nonneg": _staircase,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SHAPES, required=True, help="the shape's name")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    path = args.dir / f"{args.workload}.txt"
    serialize(SHAPES[args.workload](args.seed), path)
    print(json.dumps({"ops": [["solve", str(path)]]}))


if __name__ == "__main__":
    main()
