import argparse
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep

import pytest

import maxdom.cli
import maxdom.oracle
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


def test_solve_dp_matches_oracle(capsys, tmp_path, tiny):
    # the second file's one point sits exactly on its one query: a closed
    # quadrant covers it, so the value is 7, where strict dominance gives 0
    on_query = tmp_path / "on-query.txt"
    on_query.write_text("1 1 1\n5 5 7\n5 5\n")
    for path, inst in (tiny, (on_query, parse(on_query))):
        code, out, _ = run(capsys, "solve", path)
        assert code == 0 and json.loads(out)["value"] == oracle_solve(inst).value
    assert json.loads(out)["value"] == 7


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


def test_verify_and_oracle_at_budget_zero_build_no_masks(capsys, monkeypatch, tmp_path):
    def no_cover(_inst):
        raise AssertionError("built cover masks at k = 0")

    monkeypatch.setattr(maxdom.oracle, "_cover", no_cover)
    path = tmp_path / "dec.txt"
    path.write_text("2 2 1\n0 0 0.25\n2 1 -1\n1 1\n3 3\n")
    code, out, _ = run(capsys, "verify", path, "--k", "0")
    assert code == 0
    assert json.loads(out) == {"value_oracle": 0, "value_dp": 0, "value_dp_no_compress": 0,
                               "recomputed_from_chosen": 0, "equal": True}


def test_verify_refuses_an_over_budget_reference_before_ranking(capsys, monkeypatch, tmp_path):
    # k = 1: the oracle admits m + 1 subsets and the tree prices the
    # pipeline in budget, while the reference's sweep is priced over it
    m = 100_000
    lines = [f"5 {m} 1"] + [f"{i} {i} 1" for i in range(5)] + [f"{i} {m - i}" for i in range(m)]
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n")
    assert maxdom.solver._costs(m, 1)[0]["sweep"] > DP_BUDGET_S

    def no_ranks(_inst):
        raise AssertionError("ranked an instance whose reference is refused anyway")

    monkeypatch.setattr(maxdom.solver, "rank_transform", no_ranks)
    with pytest.raises(ValueError, match="^refusing to solve: the sweep dp is estimated at "):
        solve_reference(parse(path))
    code, out, err = run(capsys, "verify", path)
    assert code == 1 and out == ""
    assert err.startswith("error: refusing to solve: the sweep dp is estimated at ")
    assert f"over the budget of {DP_BUDGET_S:g} s" in err


def test_verify_refuses_a_large_k_oracle_at_once(capsys, tmp_path):
    # C(20,000, <= 5,000) has about 4,900 digits, more than ``str`` writes
    # for an int; the walk is priced size by size and refused on a small
    # count, before any mask is built and in well under a second
    m = 20_000
    path = tmp_path / "wide.txt"
    path.write_text(f"1 {m} 5000\n0 0 1\n" + "".join(f"{i} {i}\n" for i in range(m)))
    t0 = perf_counter()
    code, out, err = run(capsys, "verify", path)
    assert perf_counter() - t0 < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: refusing the oracle: its walk over the ") and "integer string" not in err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_value_longer_than_an_int_string_is_printed_exactly(capsys, tmp_path, command):
    # each weight fits the int-string limit, but their sum has one digit more
    nines = "9" * (sys.get_int_max_str_digits() or 4300)
    path = tmp_path / "long.txt"
    path.write_text(f"2 1 1\n0 0 {nines}\n0 0 {nines}\n1 1\n")
    code, out, err = run(capsys, command, path)
    assert (code, err) == (0, "")
    total = "1" + "9" * (len(nines) - 1) + "8"  # 2 * (10 ** len(nines) - 1)
    rec = json.loads(out, parse_int=Decimal)
    values = [rec[key] for key in rec if key.startswith("value") or key == "recomputed_from_chosen"]
    assert len(values) == (1 if command == "solve" else 4)
    assert all(str(value) == total for value in values)
    assert command == "verify" or list(map(str, rec["layers"])) == [total]


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
    monkeypatch.setattr(maxdom.cli, "oracle_solve", lambda _inst: Solution(frozenset(), -1, None))
    code, out, _ = run(capsys, "verify", path)
    rec = json.loads(out)
    assert code == 1
    assert rec["disagree"] == ["value_dp", "value_dp_no_compress", "recomputed_from_chosen"]
    assert rec["first_layer_mismatch"] is None


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


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_an_exponent_that_no_decimal_holds_is_refused_by_line(capsys, tmp_path, command):
    path = tmp_path / "tiny-exponent.txt"
    path.write_text("1 1 1\n0 0 1e-999999999999999999999\n1 1\n")
    code, out, err = run(capsys, command, path)
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: ") and "exponent out of range" in err and "Traceback" not in err


def test_the_parser_offers_exactly_the_three_commands(capsys):
    [commands] = [a.choices for a in maxdom.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == ["solve", "verify", "generate"]
    for argv, error in (
        (["compress", "inst.txt"], "invalid choice: 'compress'"),
        (["bench"], "invalid choice: 'bench'"),
        (["render", "inst.txt"], "invalid choice: 'render'"),
        (["solve", "inst.txt", "--algo", "oracle"], "unrecognized arguments: --algo oracle"),
        (["verify", "inst.txt", "--limit", "5"], "unrecognized arguments: --limit 5"),
    ):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        err = capsys.readouterr().err
        assert exited.value.code == 2 and "\nmaxdom: error: " in err and error in err


def test_solve_and_library_report_the_same_picks(capsys, tmp_path):
    # decimal weights whose binary-float sums differ in the last bits with
    # the order they are added in, so that engines adding floats in
    # different orders pick different optimal sets; both add the same ints
    inst = generate(GeneratorSpec("uniform", 46, 51, 4, (-1000, 1000), seed=6))
    inst = Instance.from_rows([(p.x, p.y, p.w / 100) for p in inst.P], [(q.x, q.y) for q in inst.Q], 4)
    path = tmp_path / "inst.txt"
    serialize(inst, path)
    code, out, _ = run(capsys, "solve", path)
    rec = json.loads(out, parse_float=Decimal)
    assert code == 0 and rec["engine"] == "tree" and rec["chosen"] != []
    parsed = parse(path)
    tree, sweep = run_pipeline(parsed, "tree").solution, run_pipeline(parsed, "sweep").solution
    assert tree == sweep == solve_pipeline(parsed)
    assert tree.value == Fraction(rec["value"]) and sorted(tree.chosen) == rec["chosen"]


def test_repeated_main_calls_share_no_state(capsys, tiny):
    path, inst = tiny
    generated = path.parent / "generated.txt"
    _, out, _ = run(capsys, "solve", path, "--k", "1")
    assert json.loads(out)["k"] == 1
    _, out, _ = run(capsys, "generate", "uniform", "--n", "4", "--m", "2", "--k", "1", "--out", generated)
    assert out == f"{generated}\n"
    _, out, _ = run(capsys, "verify", path, "--k", "2")
    assert json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "solve", path)
    rec = json.loads(out)
    assert code == 0
    assert rec["k"] == inst.k and rec["compressed_size"] is not None
    wide = path.parent / "wide.txt"
    wide.write_text("1 40 20\n0 0 1\n" + "".join(f"{i} {i}\n" for i in range(40)))
    code, _, err = run(capsys, "verify", wide)
    assert code == 1 and err.startswith("error: refusing the oracle: ")
    _, out, _ = run(capsys, "verify", path)
    assert json.loads(out)["equal"] is True
    _, out, _ = run(capsys, "generate", "uniform", "--n", "4", "--m", "2", "--k", "1")
    assert out == generated.read_text()


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
    assert (rec["compressed_size"], rec["dp_pairs"]) == (res.compressed_size, res.dp_pairs)
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
    estimates, slots = maxdom.solver._costs(m, k)
    assert slots["tree"] > DP_SLOT_BUDGET
    if k == 500:
        assert estimates["tree"] < DP_BUDGET_S
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
