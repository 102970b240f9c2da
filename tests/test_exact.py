"""Exact answers on files with decimal weights and coordinates.

Every engine, the ranked reference solve, the oracle and ``maxdom verify``
are checked against ``util.brute_force_optimum``, which reads the file's
tokens as ``Fraction``s and shares no code with ``maxdom``.
"""

import io
import json
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings

from maxdom.cli import main
from maxdom.instances import GeneratorSpec, generate, parse_text, serialize_text
from maxdom.model import Instance
from maxdom.oracle import oracle_solve
from maxdom.solver import run_pipeline, solve_reference

from util import brute_force_optimum, decimal_instance_files


def verify(path) -> tuple[int, dict]:
    """``maxdom verify``'s exit code and record, its numbers read exactly."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", str(path)])
    return code, json.loads(out.getvalue(), parse_float=Decimal)


def assert_all_exact(text: str, path) -> None:
    expect = brute_force_optimum(text)
    inst = parse_text(text)
    for engine in ("sweep", "tree"):
        assert run_pipeline(inst, engine).solution.value == expect, engine
    assert solve_reference(inst).value == expect
    assert oracle_solve(inst).value == expect
    path.write_text(text)
    code, record = verify(path)
    assert code == 0 and record["equal"] is True
    assert Fraction(record["value_dp"]) == expect


@settings(deadline=None, max_examples=150)
@given(decimal_instance_files())
def test_decimal_files_solve_to_the_exact_optimum(tmp_path_factory, text):
    assert_all_exact(text, tmp_path_factory.getbasetemp() / "decimal.txt")


def test_coordinates_that_collide_as_floats_keep_their_order(tmp_path):
    # 0.1 < 0.10000000000000000001, which are one float: the point lies right
    # of the first query and only the second covers it
    text = "1 2 1\n0.10000000000000000001 0 5.5\n0.1 1\n0.10000000000000000001 -1e-1\n"
    assert brute_force_optimum(text) == 0
    assert_all_exact(text, tmp_path / "collide.txt")
    assert_all_exact(text.replace("-1e-1", "0"), tmp_path / "collide.txt")


def desk_hundredths_instance(i: int) -> Instance:
    """The i-th of the benchmark's 64 fixed desk-verify instances: uniform, weights of two decimals."""
    n, m, k = 8 + i % 33, 4 + i % 7, 1 + i % 4
    inst = generate(GeneratorSpec("uniform", n, m, k, (-1000, 1000), 10**9 + i))
    return Instance.from_rows([(p.x, p.y, p.w / 100) for p in inst.P], [(q.x, q.y) for q in inst.Q], k)


def test_the_desk_hundredths_instances_verify_exactly(tmp_path):
    # a binary-float parse got 32 of these 64 wrong in the last bits
    wrong = []
    for i in range(64):
        text = serialize_text(desk_hundredths_instance(i))
        path = tmp_path / f"desk{i}.txt"
        path.write_text(text)
        code, record = verify(path)
        if code != 0 or Fraction(record["value_dp"]) != brute_force_optimum(text):
            wrong.append(i)
    assert wrong == []
