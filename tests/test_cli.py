import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep

import pytest

import maxdom.cli
import maxdom.solver
from maxdom.cells import build_grid
from maxdom.cli import main
from maxdom.instances import GeneratorSpec, generate, parse, serialize
from maxdom.model import Instance, Solution
from maxdom.oracle import oracle_solve
from maxdom.ranking import drop_uncovered, rank_transform
from maxdom.solver import DP_BUDGET_S, DP_SLOT_BUDGET, run_pipeline, solve_pipeline, solve_reference


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.txt"
    inst = generate(GeneratorSpec("uniform", n=20, m=5, k=3, seed=42))
    serialize(inst, path)
    return path, inst


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_dp_matches_oracle(capsys, tiny):
    path, inst = tiny
    code, out, _ = run(capsys, "solve", path, "--algo", "dp")
    assert code == 0
    dp = json.loads(out)
    code, out, _ = run(capsys, "solve", path, "--algo", "oracle")
    assert code == 0
    assert json.loads(out)["value"] == dp["value"] == oracle_solve(inst).value


def test_solve_budget_zero(capsys, tiny):
    path, _ = tiny
    code, out, _ = run(capsys, "solve", path, "--k", "0")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 0 and rec["chosen"] == []


def test_verify_subcommand(capsys, tiny):
    path, _ = tiny
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"value_oracle", "value_dp", "value_dp_no_compress", "recomputed_from_chosen", "equal"}
    assert rec["equal"] is True
    assert rec["value_dp_no_compress"] == rec["value_dp"]


def test_verify_names_the_disagreeing_values(capsys, monkeypatch, tiny):
    path, inst = tiny
    right = solve_reference(inst)
    assert len(right.layer_values) == 3
    wrong = Solution(right.chosen, right.value + 1, (*right.layer_values[:2], right.value + 1))
    monkeypatch.setattr(maxdom.cli, "solve_reference", lambda _inst: wrong)
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    rec = json.loads(out)
    assert set(rec) == {
        "value_oracle", "value_dp", "value_dp_no_compress", "recomputed_from_chosen", "equal",
        "disagree", "first_layer_mismatch",
    }
    assert rec["equal"] is False
    assert rec["disagree"] == ["value_dp_no_compress"]
    assert rec["first_layer_mismatch"] == 2
    # a wrong oracle: all three differ from it, while the two tables agree
    monkeypatch.setattr(maxdom.cli, "solve_reference", solve_reference)
    monkeypatch.setattr(maxdom.cli, "oracle_solve", lambda _inst, limit: Solution(frozenset(), -1, None))
    code, out, _ = run(capsys, "verify", path)
    rec = json.loads(out)
    assert code == 1
    assert rec["disagree"] == ["value_dp", "value_dp_no_compress", "recomputed_from_chosen"]
    assert rec["first_layer_mismatch"] is None


def test_compress_inspect_and_out_file(capsys, tmp_path, tiny):
    path, inst = tiny
    out_file = tmp_path / "compressed.txt"
    code, out, _ = run(capsys, "compress", path, "--out", out_file)
    assert code == 0
    rec = json.loads(out)
    assert rec["bound_ok"] is True
    assert rec["compressed_size"] <= min(rec["n"], rec["m"] ** 2)
    from maxdom.instances import parse

    comp_inst = parse(out_file)
    assert comp_inst.n == rec["compressed_size"]
    assert oracle_solve(comp_inst).value == oracle_solve(inst).value


def test_generate_writes_deterministic_file(capsys, tmp_path):
    out = tmp_path / "gen.txt"
    args = ["generate", "uniform", "--n", "10", "--m", "3", "--k", "2", "--seed", "1", "--out", out]
    code, _, _ = run(capsys, *args)
    assert code == 0
    first = out.read_text()
    run(capsys, *args)
    assert out.read_text() == first
    code, stdout, _ = run(capsys, "generate", "uniform", "--n", "10", "--m", "3", "--k", "2", "--seed", "1")
    assert code == 0 and stdout == first


def test_parse_failure_exits_nonzero(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 1\n0 0\n1 1\n")
    code, _, err = run(capsys, "solve", bad)
    assert code == 1
    assert "line 2" in err


def test_integers_beyond_the_float_range_solve_exactly(capsys, tmp_path):
    big = 10**400  # 401 digits: no float holds it
    path = tmp_path / "big.txt"
    path.write_text(f"3 2 2\n0 0 {big + 7}\n1 5 3\n{big} 1 -2\n2 6\n{big} 2\n")
    code, out, _ = run(capsys, "solve", path)
    assert code == 0 and json.loads(out)["value"] == big + 10
    code, out, _ = run(capsys, "verify", path)
    assert code == 0 and json.loads(out)["equal"] is True


@pytest.mark.parametrize("weights", [("1e308", "1e308"), (str(10**400), "0.5")])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_weights_past_the_float_range_solve_exactly(capsys, tmp_path, command, weights):
    # one cell's float sum would be infinite, or would lose the 0.5: the
    # exact sum is written as a JSON number of its exact decimal text
    path = tmp_path / "huge.txt"
    path.write_text(f"2 1 1\n0 0 {weights[0]}\n0 0 {weights[1]}\n1 1\n")
    code, out, err = run(capsys, command, path)
    assert code == 0 and err == ""
    rec = json.loads(out, parse_float=Decimal)
    value = rec["value" if command == "solve" else "value_dp"]
    assert Fraction(value) == Fraction(weights[0]) + Fraction(weights[1])
    assert command == "solve" or rec["equal"] is True


def test_a_value_of_thousands_of_digits_is_written_exactly(capsys, tmp_path):
    # ``str`` of an int stops at 4,300 digits; the record's decimal text does not
    weight = "0." + "7" * 5000
    path = tmp_path / "long.txt"
    path.write_text(f"2 1 1\n0 0 {weight}\n0 0 1\n1 1\n")
    code, out, err = run(capsys, "solve", path)
    assert (code, err) == (0, "")
    assert Fraction(json.loads(out, parse_float=Decimal)["value"]) == Fraction(Decimal(weight)) + 1


def test_an_integer_over_the_int_string_limit_is_refused_by_name(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text(f"1 1 1\n0 0 {'7' * 5000}\n1 1\n")
    code, out, err = run(capsys, "solve", path)
    assert (code, out) == (1, "")
    assert f"line 2: integer of 5000 digits, over the int-string limit of {sys.get_int_max_str_digits()}" in err


def test_compress_of_a_file_with_uncovered_points(capsys, tmp_path):
    # three points lie outside every quadrant, one of them with the only
    # eighths; two covered ones cancel out in one cell
    path, out_path = tmp_path / "in.txt", tmp_path / "out.txt"
    path.write_text("8 3 2\n0 0 3\n1 1 -3\n2 4 1.25\n5 1 2\n0 7 4\n7 7 0.125\n10 0 2.25\n4 9 -1\n3 5\n6 2\n1 8\n")
    code, out, _ = run(capsys, "compress", path, "--out", out_path)
    assert code == 0
    assert out == (
        '{"n": 8, "m": 3, "k": 2, "retained": 5, "nonempty_cells": 4, "compressed_size": 3, '
        f'"bound": 8, "bound_ok": true, "out": "{out_path}"}}\n'
    )
    assert out_path.read_text() == "3 3 2\n1 5 4\n3 3 1.25\n5 1 2\n4 4\n6 2\n2 6\n"


def test_bench_csv_schema(capsys, tmp_path):
    csv_path = tmp_path / "bench.csv"
    code, out, _ = run(
        capsys, "bench", "--family", "uniform", "--n", "200", "--m", "8,16",
        "--k", "2", "--reps", "1", "--csv", csv_path,
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "family,n,m,k,stage,seconds"
    stages = {line.split(",")[4] for line in lines[1:]}
    assert stages == {"grid", "dp", "reconstruct", "total"}


def test_render_marks_occupied_strip(capsys, tmp_path):
    # points only between the 3rd and 4th highest query: every shaded cell
    # carries data-row="3"
    queries = [(50, 90), (70, 80), (10, 70), (90, 40), (30, 20)]
    points = [(30, 60, 1), (5, 50, 2)]
    path = tmp_path / "fig.txt"
    serialize(Instance.from_rows(points, queries, 2), path)
    out_svg = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "render", path, "--out", out_svg)
    assert code == 0
    svg = out_svg.read_text()
    rects = [line for line in svg.splitlines() if "data-row" in line and "<rect" in line]
    assert rects and all('data-row="3"' in r for r in rects)


def test_render_empty_ground_set_draws_grid_only(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    serialize(Instance.from_rows([], [(1, 1), (2, 2)], 1), path)
    out_svg = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "render", path, "--out", out_svg)
    assert code == 0
    svg = out_svg.read_text()
    assert "<line" in svg and "data-row" not in svg


def test_render_solution_overlay(capsys, tmp_path):
    path = tmp_path / "sol.txt"
    serialize(Instance.from_rows([(0, 0, 5)], [(1, 1), (9, 9)], 1), path)
    out_svg = tmp_path / "sol.svg"
    code, _, _ = run(capsys, "render", path, "--solve", "--out", out_svg)
    assert code == 0
    assert "data-chosen" in out_svg.read_text()


def test_solve_render_and_library_report_the_same_picks(capsys, tmp_path):
    # decimal weights whose binary-float sums differ in the last bits with
    # the order they are added in, so that engines adding floats in
    # different orders pick different optimal sets; both add the same ints
    inst = generate(GeneratorSpec("uniform", 46, 51, 4, (-1000, 1000), seed=6))
    inst = Instance.from_rows([(p.x, p.y, p.w / 100) for p in inst.P], [(q.x, q.y) for q in inst.Q], 4)
    path, out_svg = tmp_path / "inst.txt", tmp_path / "inst.svg"
    serialize(inst, path)
    code, out, _ = run(capsys, "solve", path)
    rec = json.loads(out, parse_float=Decimal)
    assert code == 0 and rec["engine"] == "tree"
    code, _, _ = run(capsys, "render", path, "--solve", "--out", out_svg)
    assert code == 0
    drawn = sorted(int(qid) for qid in re.findall(r'data-chosen="(-?\d+)"', out_svg.read_text()))
    assert drawn == rec["chosen"] != []
    parsed = parse(path)
    tree, sweep = run_pipeline(parsed, "tree").solution, run_pipeline(parsed, "sweep").solution
    assert tree == sweep == solve_pipeline(parsed)
    assert tree.value == Fraction(rec["value"]) and sorted(tree.chosen) == rec["chosen"]


@pytest.mark.parametrize("chosen", ["7", "-1", "0,7"])
def test_render_rejects_unknown_chosen_id(capsys, tmp_path, chosen):
    path = tmp_path / "sol.txt"
    serialize(Instance.from_rows([(0, 0, 5)], [(1, 1), (9, 9)], 1), path)
    out_svg = tmp_path / "sol.svg"
    code, _, err = run(capsys, "render", path, "--chosen", chosen, "--out", out_svg)
    assert code == 1 and err.startswith("error: ") and chosen.split(",")[-1] in err
    assert not out_svg.exists()


def test_render_rejects_oversized(capsys, tmp_path):
    path = tmp_path / "big.txt"
    serialize(generate(GeneratorSpec("uniform", n=1, m=201, k=1, seed=0)), path)
    code, _, err = run(capsys, "render", path)
    assert code == 1 and "cap" in err


def test_repeated_main_calls_share_no_state(capsys, tiny):
    path, inst = tiny
    _, out, _ = run(capsys, "solve", path, "--k", "1")
    assert json.loads(out)["k"] == 1
    _, out, _ = run(capsys, "solve", path, "--algo", "oracle")
    assert json.loads(out)["algo"] == "oracle"
    _, out, _ = run(capsys, "verify", path, "--limit", "50")
    assert json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "solve", path)
    rec = json.loads(out)
    assert code == 0
    assert (rec["k"], rec["algo"]) == (inst.k, "dp") and rec["compressed_size"] is not None
    code, _, err = run(capsys, "verify", path, "--limit", "1")
    assert code == 1 and "oracle limit" in err
    _, out, _ = run(capsys, "compress", path)
    assert "out" not in json.loads(out)


def test_solve_record_counters_and_wall_time(capsys, tiny):
    path, inst = tiny
    rr = drop_uncovered(rank_transform(inst))
    grid = build_grid(rr)
    res = run_pipeline(inst)
    assert res.compressed_size > 0 and res.dp_pairs > 0
    _, out, _ = run(capsys, "solve", path)
    rec = json.loads(out)
    assert list(rec["stages"]) == ["parse", "grid", "dp", "reconstruct"]
    assert rec["retained"] == len(rr.P) and rec["cells"] == len(grid.cells)
    assert (rec["row_sum_entries"], rec["dp_pairs"]) == (res.compressed_size, res.dp_pairs)
    # measured from parse to reconstruction, so no shorter than its stages
    assert rec["total_seconds"] >= sum(rec["stages"].values()) - 1e-5
    # the process's peak so far: the test run's own, so never above a later reading
    peak = rec["peak_rss_mb"]
    assert peak is None if maxdom.cli.resource is None else 0 < peak <= maxdom.cli._peak_rss_mb()
    for k in range(inst.m + 2):
        _, out, _ = run(capsys, "solve", path, "--k", k)
        rec = json.loads(out)
        layers = rec["layers"]
        assert len(layers) == min(k, inst.m)
        assert all(a <= b for a, b in zip(layers, layers[1:]))
        assert k == 0 or layers[-1] == rec["value"]
    _, out, _ = run(capsys, "solve", path, "--algo", "oracle")
    rec = json.loads(out)
    assert list(rec["stages"]) == ["parse", "oracle"]
    assert rec["retained"] is rec["cells"] is rec["compressed_size"] is None
    assert rec["row_sum_entries"] is rec["dp_pairs"] is rec["layers"] is None


def test_dp_pairs_are_counted_in_the_reconstruct_stage(monkeypatch, tiny):
    _, inst = tiny
    count = maxdom.solver._dp_pairs

    def slow(*args):
        sleep(0.05)
        return count(*args)

    monkeypatch.setattr(maxdom.solver, "_dp_pairs", slow)
    res = run_pipeline(inst)
    assert res.stage_seconds["reconstruct"] >= 0.05 and res.dp_pairs > 0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_solve_reports_its_own_peak_not_its_starters(tiny):
    # Linux keeps ru_maxrss across exec: a solve started by a process that
    # touched 150 MB would report that process's peak as its own.
    path, _ = tiny
    src = str(Path(maxdom.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    starter = (
        "import subprocess, sys\n"
        "held = b'x' * (150 << 20)\n"
        "subprocess.run([sys.executable, '-m', 'maxdom', 'solve', sys.argv[1]], check=True)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", starter, str(path)], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert json.loads(out)["peak_rss_mb"] < 100


@pytest.mark.parametrize("engine, n, m", [("tree", 100, 256), ("sweep", 20_000, 8)])
def test_solve_picks_the_cheaper_engine(capsys, tmp_path, engine, n, m):
    # m-heavy and n-heavy shapes, each far from the crossover
    inst = generate(GeneratorSpec("uniform", n, m, 8, seed=5))
    path = tmp_path / "inst.txt"
    serialize(inst, path)
    code, out, _ = run(capsys, "solve", path)
    rec = json.loads(out)
    assert code == 0 and rec["engine"] == engine
    estimates = rec["estimates_s"]
    assert set(estimates) == {"sweep", "tree"} and min(estimates, key=estimates.get) == engine
    default = run_pipeline(inst)  # the library default chooses as the command does
    assert default.engine == engine and default.solution.value == rec["value"]
    _, out, _ = run(capsys, "solve", path, "--algo", "oracle", "--k", "0")
    rec = json.loads(out)
    assert rec["engine"] is rec["estimates_s"] is None


def test_solve_refuses_an_over_budget_dp_before_gridding(capsys, monkeypatch, tmp_path):
    m = 100_000
    lines = [f"5 {m} {m}"] + [f"{i} {i} 1" for i in range(5)] + [f"{i} {m - i}" for i in range(m)]
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n")

    def no_grid(_inst):
        raise AssertionError("gridded an instance that is refused anyway")

    monkeypatch.setattr(maxdom.solver, "build_grid", no_grid)
    t0 = perf_counter()
    code, out, err = run(capsys, "solve", path)
    elapsed = perf_counter() - t0
    assert code == 1 and out == ""
    assert err.startswith("error: refusing to solve: the tree dp is estimated at ")
    assert f"over the budget of {DP_BUDGET_S:g} s" in err
    assert elapsed < 3.0


@pytest.mark.parametrize("k", [500, 1_000])
def test_solve_refuses_an_over_memory_dp_before_gridding(capsys, monkeypatch, tmp_path, k):
    # the tree's lanes and tables would take gigabytes; at k = 500 it is
    # within the time budget, so only the slot budget refuses it
    m = 100_000
    assert maxdom.solver._slots(m, k)["tree"] > DP_SLOT_BUDGET
    if k == 500:
        assert maxdom.solver._estimates(m, k, 0)["tree"] < DP_BUDGET_S
    lines = [f"5 {m} {k}"] + [f"{i} {i} 1" for i in range(5)] + [f"{i} {m - i}" for i in range(m)]
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n")

    def no_grid(_inst):
        raise AssertionError("gridded an instance that is refused anyway")

    monkeypatch.setattr(maxdom.solver, "build_grid", no_grid)
    code, out, err = run(capsys, "solve", path)
    assert code == 1 and out == ""
    assert err.startswith("error: refusing to solve: the tree dp ")
    if k == 500:
        assert f"would hold 2.31e+08 list slots, over the budget of {DP_SLOT_BUDGET:.3g}" in err
