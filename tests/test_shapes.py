"""``scripts/shapes.py``: named shapes written with the benchmark's set-up protocol."""

import json
import os
import subprocess
import sys
from pathlib import Path

from maxdom.instances import COORD_SPAN, parse

ROOT = Path(__file__).resolve().parents[1]


def test_staircase_shape_is_written_as_a_workload_is(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / "shapes.py"), "--workload", "staircase-nonneg", "--seed", "3",
           "--dir", str(tmp_path)]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, check=True, text=True).stdout
    [(command, path)] = json.loads(out)["ops"]
    inst = parse(path)
    assert command == "solve" and (inst.n, inst.m, inst.k) == (20_000, 2_000, 256)
    assert set(inst.P.ws) <= set(range(11))
    xs, ys = inst.Q.xs, inst.Q.ys
    assert all(a < b for a, b in zip(xs, xs[1:])) and all(x + y == COORD_SPAN for x, y in zip(xs, ys))
