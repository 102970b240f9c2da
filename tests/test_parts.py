"""``maxdom solve`` on a large file: the point lines parsed and gridded in forked parts.

``instances.SPLIT_MIN_BYTES`` is set to 0 in most tests, so that small files
take the split path (``solver.grid_parts``) that only large ones take
otherwise.
"""

import io
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdom import instances, solver
from maxdom.cells import add_parts, build_grid
from maxdom.cli import main
from maxdom.instances import FAMILIES, GeneratorSpec, generate, parse, serialize, serialize_text
from maxdom.solver import grid_parts, run_pipeline

from test_instances import MALFORMED
from util import reference_grid, reference_sum_cells, staircase_instances, tie_instances

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# Record keys that hold times, memory or the process count, which may differ between two solves.
UNTIMED = ("stages", "total_seconds", "peak_rss_mb", "peak_rss_children_mb", "parts")


def _solve(path, *args) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(path), *args])
    rec = json.loads(out.getvalue()) if code == 0 else None
    return code, rec, err.getvalue()


def _plain(path, *args) -> tuple[int, dict | None, str]:
    """``maxdom solve`` of ``path`` on the plain path, with no split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "SPLIT_MIN_BYTES", 1 << 62)
        return _solve(path, *args)


def _grid_parts(path, cpus: int):
    """``grid_parts(path)`` in a process that may use ``cpus`` CPUs, so with at most ``cpus`` parts."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return grid_parts(path)


def _untimed(rec: dict) -> dict:
    return {key: value for key, value in rec.items() if key not in UNTIMED}


def _unreaped() -> int:
    """The pid of an exited child of this process that nobody waited for, or 0."""
    try:
        return os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:  # no children at all
        return 0


# Tokens that replace one point value: only a decimal one in the weight column makes the split fall back.
INT_TOKENS = ["-7", "0", str(-(2**63)), str(2**63 - 1), "+5", "1_000", "007", "-0", str(2**63), str(-(2**63) - 1)]
DECIMAL_TOKENS = ["1.5", "-0.25", "3e2"]
NOISE = ["", "   ", "# note", "\t# x y w"]


@st.composite
def instance_files(draw):
    """``(text, splits)``: an instance file's text and whether it may be split."""
    family = draw(st.sampled_from(FAMILIES))
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    inst = generate(GeneratorSpec(family, n, m, draw(st.integers(0, m)), seed=draw(st.integers(0, 99))))
    header, *lines = serialize_text(inst).splitlines()
    points, queries = lines[: inst.n], lines[inst.n :]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, inst.n - 1))
        toks = points[at].split()
        toks[draw(st.integers(0, 2))] = draw(st.sampled_from(INT_TOKENS + DECIMAL_TOKENS))
        points[at] = " ".join(toks)
    # from the final lines: a second token may overwrite the first
    splits = not any(line.split()[2] in DECIMAL_TOKENS for line in points)
    for _ in range(draw(st.integers(0, 4))):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(NOISE)))
    if draw(st.booleans()):  # before the first query it lies among the point lines
        at = draw(st.integers(0, len(queries) - 1))
        queries.insert(at, draw(st.sampled_from(NOISE)))
        splits &= at == 0
    head = draw(st.lists(st.sampled_from(NOISE), max_size=2))
    tail = draw(st.lists(st.sampled_from(NOISE[1:]), max_size=1))  # "" would only end the last line
    splits &= not tail
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    text = sep.join(head + [header] + points + queries + tail)
    return text + draw(st.sampled_from(["", sep])), splits


@settings(deadline=None, max_examples=40)
@given(instance_files())
def test_split_grid_and_record_equal_the_plain_ones(tmp_path_factory, case):
    text, splits = case
    path = tmp_path_factory.getbasetemp() / "split.txt"
    path.write_bytes(text.encode())
    inst = parse(path)
    grid = build_grid(inst)
    assert grid == reference_grid(inst)
    plain_code, plain, plain_err = _plain(path)
    assert (plain_code, plain_err, plain["parts"]) == (0, "", 1)
    for chunk in (instances._CHUNK, 64):  # at 64 bytes a part mixes plain and other blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instances, "SPLIT_MIN_BYTES", 0)
            mp.setattr(instances, "_CHUNK", chunk)
            for parts in range(1, 5):
                split = _grid_parts(path, parts)
                assert (split is not None) == splits, (chunk, parts)
                if split is not None:
                    n, queries, found, peaks = split
                    assert (n, queries.Q, queries.k, len(queries.P)) == (inst.n, inst.Q, inst.k, 0)
                    assert len(peaks) < parts  # one peak per forked part
                    assert found == grid  # cells, per_row and retained
                    assert (found.stair, list(found.qx)) == (grid.stair, list(grid.qx))
            code, rec, err = _solve(path)
        assert (code, err) == (0, "")
        assert _untimed(rec) == _untimed(plain)
        assert (rec["parts"] > 1) <= splits
    assert _unreaped() == 0


@settings(deadline=None, max_examples=40)
@given(st.one_of(tie_instances(), staircase_instances()))
def test_each_parts_strip_runs_equal_the_per_strip_dict(tmp_path_factory, inst):
    # each part of a two-part split, the parent's and the child's, walks its
    # strips as the per-strip dict sums them, over the part's own lines
    path = tmp_path_factory.getbasetemp() / "strips.txt"
    serialize(inst, path)
    merged = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "SPLIT_MIN_BYTES", 0)
        mp.setattr(solver, "add_parts", lambda stair, qx, parts: merged.append((qx, parts)) or add_parts(stair, qx, parts))
        _, queries, grid, _ = _grid_parts(path, 2)
        _, _, ranges = instances.point_ranges(path, 2)
    [(qx, parts)] = merged
    assert len(parts) == len(ranges)
    for (start, stop), part in zip(ranges, parts):
        assert part == reference_sum_cells(queries.Q, qx, instances.point_batches(path, start, stop))
    assert grid.per_row == build_grid(inst).per_row
    assert _unreaped() == 0


@settings(deadline=None, max_examples=40)
@given(tie_instances())
def test_split_grid_with_ties_equals_the_plain_one(tmp_path_factory, inst):
    path = tmp_path_factory.getbasetemp() / "ties.txt"
    serialize(inst, path)
    grid = build_grid(parse(path))
    assert grid == reference_grid(inst)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "SPLIT_MIN_BYTES", 0)
        mp.setattr(os, "fork", counted_fork)
        for parts in range(1, 5):
            forks.clear()
            _, _, found, peaks = _grid_parts(path, parts)
            assert found == grid  # cells, per_row and retained
            assert len(forks) == len(peaks) < parts  # no fork for one part
    assert _unreaped() == 0


@pytest.mark.parametrize("text, line_no", MALFORMED)
def test_malformed_files_raise_the_plain_parse_error(tmp_path, monkeypatch, text, line_no):
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    for variant in (text, text.replace("\n", "\r\n")):
        path = tmp_path / "bad.txt"
        path.write_bytes(variant.encode())
        with pytest.raises(instances.ParseError) as expected:
            parse(path)
        assert expected.value.line_no == line_no
        for parts in range(1, 5):
            assert _grid_parts(path, parts) is None
        assert _solve(path) == (1, None, f"error: {expected.value}\n")
    assert _unreaped() == 0


def test_only_a_decimal_weight_keeps_a_file_whole(tmp_path, monkeypatch):
    # decimal and beyond-int64 coordinates and beyond-int64 weights, on both sides of the cut
    inst = generate(GeneratorSpec("uniform", 400, 6, 3, seed=5))
    big = 2**64
    points = [f"{p.x}.{i % 7} {p.y + big} {p.w * big}" for i, p in enumerate(inst.P)]
    queries = [f"{q.x}.5 {q.y + big}" for q in inst.Q]
    path = tmp_path / "wide.txt"

    def write():
        path.write_text("\n".join([f"{inst.n} {inst.m} {inst.k}", *points, *queries]) + "\n")

    write()
    plain_code, plain, _ = _plain(path)
    assert plain_code == 0 and plain["value"] != 0
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    n, _, found, peaks = grid_parts(path)
    assert (n, len(peaks)) == (inst.n, 1)
    assert found == build_grid(parse(path))
    code, rec, _ = _solve(path)
    assert (code, rec["parts"]) == (0, 2)
    assert _untimed(rec) == _untimed(plain)
    for at in (0, len(points) - 1):  # in the parent's part, then in the child's
        whole = points[at]
        points[at] = whole.rsplit(" ", 1)[0] + " 0.5"
        write()
        assert grid_parts(path) is None
        code, rec, _ = _solve(path)
        assert (code, rec["parts"]) == (0, 1)
        assert _untimed(rec) == _untimed(_plain(path)[1])
        points[at] = whole
    assert _unreaped() == 0


def test_an_undecodable_point_line_raises_the_plain_error(tmp_path, monkeypatch):
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1 1\n0 0 1\n1 1 \xff\n2 2 2\n5 5\n")
    with pytest.raises(UnicodeDecodeError) as expected:
        parse(path)
    assert _grid_parts(path, 2) is None
    assert _solve(path) == (1, None, f"error: {expected.value}\n")


def _big_file(tmp_path, n=3_000, m=8) -> Path:
    path = tmp_path / "big.txt"
    serialize(generate(GeneratorSpec("uniform", n, m, 3, seed=11)), path)
    return path


# Two faults in a split-sized file, each as ``(index, line)``: ``line`` takes
# the place of the file's line at that index (the header is 0), or where it
# is None, that line is removed.  Index 101 falls in the parent's part and
# 2,901 in a child's; 3,009 is an extra line after the 8 queries.
TWO_FAULTS = {
    "parent-then-child": ((101, "1 x 1"), (2_901, "2 2")),
    "child-then-extra": ((2_901, "1 1 nan"), (3_009, "9 9")),
    "fields-then-short": ((101, "1 1"), (3_008, None)),
}


@pytest.mark.parametrize("faults", TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_a_two_fault_split_file_raises_its_first_fault(tmp_path, monkeypatch, faults):
    # whichever part meets a fault, the split falls back, and ``parse`` names the first one in line order
    lines = serialize_text(generate(GeneratorSpec("uniform", 3_000, 8, 3, seed=11))).splitlines()
    for at, line in reversed(faults):
        lines[at : at + 1] = [] if line is None else [line]
    path = tmp_path / "two-faults.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    with pytest.raises(instances.ParseError) as expected:
        parse(path)
    assert expected.value.line_no == faults[0][0] + 1
    assert _grid_parts(path, 3) is None
    assert _solve(path) == (1, None, f"error: {expected.value}\n")
    assert _unreaped() == 0


@pytest.mark.parametrize("fault", ["exit", "count", "raise"])
def test_a_failing_part_falls_back_and_leaves_no_child(tmp_path, monkeypatch, fault):
    path = _big_file(tmp_path)
    plain_code, plain, _ = _plain(path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    parent, grid_range = os.getpid(), solver._grid_range

    def faulty(*args):
        if os.getpid() == parent:
            return grid_range(*args)
        if fault == "exit":
            os._exit(3)
        if fault == "raise":
            raise RuntimeError("a part failed")
        per_row, retained, count = grid_range(*args)
        return per_row, retained, count + 1

    monkeypatch.setattr(solver, "_grid_range", faulty)
    assert _grid_parts(path, 3) is None
    assert _unreaped() == 0
    code, rec, err = _solve(path)
    assert (code, err, rec["parts"]) == (plain_code, "", 1)
    assert _untimed(rec) == _untimed(plain)
    assert _unreaped() == 0


def test_a_failing_parent_part_stops_the_children(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    parent = os.getpid()

    def parent_fails(*args):
        if os.getpid() == parent:
            raise instances.ParseError(1, "the parent's part failed")
        time.sleep(60)  # a child that would hold the parent up, were it waited for

    monkeypatch.setattr(solver, "_grid_range", parent_fails)
    t0 = time.perf_counter()
    assert _grid_parts(path, 3) is None
    assert time.perf_counter() - t0 < 30
    assert _unreaped() == 0


def test_a_process_with_other_threads_is_not_forked(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    assert _grid_parts(path, 2) is not None
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert _grid_parts(path, 2) is None
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()


@pytest.mark.parametrize(
    "head, splits",
    [("", True), ("# note\r", True), ("#" * 70 + "\n", False), ("\n  \n", True), ("# crlf\r\n", True)],
)
def test_the_header_is_read_from_the_first_chunk(tmp_path, monkeypatch, head, splits):
    # The header is found as ``parse`` finds it: a lone "\r" ends a line, and
    # blank and comment lines, "\r\n"-ended too, come before it; a header
    # past ``_CHUNK`` bytes is left to ``parse``.
    path = _big_file(tmp_path)
    path.write_bytes(head.encode() + path.read_bytes())
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(instances, "_CHUNK", 64)
    split = _grid_parts(path, 2)
    assert (split is not None) == splits
    if split is not None:
        assert split[2] == build_grid(parse(path))


def test_split_record_keys_and_stages(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    _, plain, _ = _plain(path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    code, rec, _ = _solve(path)
    assert code == 0 and rec["parts"] == 3 and plain["parts"] == 1
    assert list(rec["stages"]) == list(plain["stages"]) == ["parse", "grid", "dp", "reconstruct"]
    assert rec["total_seconds"] >= sum(rec["stages"].values()) - 1e-5
    assert rec["peak_rss_children_mb"] > 0 and plain["peak_rss_children_mb"] is None  # no part forked
    assert _untimed(rec) == _untimed(plain)


def test_an_over_budget_file_is_refused_before_a_fork(tmp_path, monkeypatch):
    # at m = 20,000 and k = 1,000 the tree would hold 1.06e8 list slots and
    # the sweep take hours: refused once the header and the queries are read
    m, points = 20_000, [f"{j % 47} {j % 53} {j % 21 - 10}" for j in range(150_000)]
    path = tmp_path / "over.txt"

    def write():
        queries = [f"{i} {m - i}" for i in range(m)]
        path.write_text("\n".join([f"{len(points)} {m} 1000", *points, *queries]) + "\n")

    write()
    assert path.stat().st_size > instances.SPLIT_MIN_BYTES
    refusal = (
        "error: refusing to solve: the tree dp would hold 1.06e+08 list slots, over the budget of 5e+07\n"
    )
    converted = []

    def spy(name):
        convert = getattr(instances, name)
        return lambda *args: converted.append(name) or convert(*args)

    with pytest.MonkeyPatch.context() as mp:  # the plain path refuses before it converts a line
        for name in ("_plain_lines", "_rows"):
            mp.setattr(instances, name, spy(name))
        assert _plain(path) == (1, None, refusal)
    assert converted == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls, fork, grid_range = [], os.fork, solver._grid_range
    monkeypatch.setattr(os, "fork", lambda: calls.append("fork") or fork())
    monkeypatch.setattr(solver, "_grid_range", lambda *args: calls.append("grid") or grid_range(*args))
    assert _solve(path) == (1, None, refusal)
    assert calls == []
    code, rec, _ = _solve(path, "--k", "2")  # within the budgets: split and solved
    assert code == 0 and rec["k"] == 2 and rec["parts"] == 2 and calls == ["fork", "grid"]
    assert _untimed(rec) == _untimed(_plain(path, "--k", "2")[1])
    points[len(points) // 2] = "1 2 x"  # the refusal comes first, before the parse could name the line
    write()
    assert _plain(path) == (1, None, refusal)
    calls.clear()
    assert _solve(path) == (1, None, refusal) and calls == []
    # a bad --k is left to the plain path, which names the line first
    named = (1, None, "error: line 75002: not a number: 'x'\n")
    assert _solve(path, "--k", "-1") == _plain(path, "--k", "-1") == named
    assert _unreaped() == 0


def test_small_files_and_the_oracle_are_not_split(tmp_path, monkeypatch):
    path = _big_file(tmp_path, n=200)
    assert path.stat().st_size < instances.SPLIT_MIN_BYTES
    assert _grid_parts(path, 2) is None
    # verify, which runs the oracle, reads even a file past the split size whole
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a part for the oracle"))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify", str(path), "--k", "1"]) == 0
    assert json.loads(out.getvalue())["equal"] is True


def _declined_as_plain(path):
    """Check that ``grid_parts`` declines ``path`` and that ``maxdom solve`` gives the plain record or error."""
    assert grid_parts(path) is None
    code, rec, err = _solve(path)
    plain_code, plain, plain_err = _plain(path)
    assert (code, err) == (plain_code, plain_err)
    if plain is not None:
        assert (rec["parts"], _untimed(rec)) == (1, _untimed(plain))
    assert _unreaped() == 0


def _file_with_queries(tmp_path, query) -> Path:
    """``_big_file``'s instance with each query line written as ``query.format(x, y)``."""
    inst = generate(GeneratorSpec("uniform", 3_000, 8, 3, seed=11))
    points = serialize_text(inst).splitlines()[1 : 1 + inst.n]
    path = tmp_path / "queries.txt"
    path.write_text("\n".join([f"{inst.n} {inst.m} {inst.k}", *points, *(query.format(q.x, q.y) for q in inst.Q)]) + "\n")
    return path


def test_query_lines_longer_than_the_tail_read_are_left_to_parse(tmp_path, monkeypatch):
    # the tail read back for m queries holds fewer than m line breaks
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    long = "{}." + "0" * instances._TAIL_BYTES_PER_QUERY + "1 {}"
    _declined_as_plain(_file_with_queries(tmp_path, long))


@pytest.mark.parametrize("query, splits", [("{} {}\f", True), ("{}\f{}", False)])
def test_a_form_feed_in_a_query_line_reads_as_parse_reads_it(tmp_path, monkeypatch, query, splits):
    # "\f" ends a line for ``parse``, which reads a split's queries too: the
    # last m lines hold a blank line after each query (a split, with the
    # plain record) or each query cut in two (declined, with the plain error)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    path = _file_with_queries(tmp_path, query)
    if not splits:
        _declined_as_plain(path)
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, rec, err = _solve(path)
    assert (code, err, rec["parts"]) == (0, "", 2)
    assert _untimed(rec) == _untimed(_plain(path)[1])
    assert _unreaped() == 0


def test_point_lines_under_the_split_size_are_left_to_parse(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", path.stat().st_size)  # the file is not under it
    _declined_as_plain(path)


@pytest.mark.parametrize("head", ["#" * 70 + "\n", "8 3\n"])
def test_a_header_that_cannot_be_priced_is_left_to_parse(tmp_path, monkeypatch, head):
    # past the first 64-byte chunk (a record) or of two fields (an error):
    # neither ``_price_header`` nor ``point_ranges`` reads it
    path = _big_file(tmp_path)
    path.write_bytes(head.encode() + path.read_bytes())
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(instances, "_CHUNK", 64)
    _declined_as_plain(path)


# Megabytes that a split solve's process, or one of its children, may peak
# above a bare ``import maxdom.cli``.  Measured on x86-64 Linux, CPython
# 3.11, with the file below: the solving process peaks 2.2-2.5 MB above that
# baseline and its child about 0.4 MB below it.  Parts that kept their point
# columns and strips and read 1 MiB chunks peaked 13.1 and 10.2 MB above it.
RSS_MARGIN_MB = 4


def _src_env() -> dict:
    """This process's environment with the tested ``maxdom``'s source tree first on ``PYTHONPATH``."""
    src = str(Path(instances.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.slow
def test_cli_splits_a_large_file(tmp_path):
    path = tmp_path / "large.txt"
    serialize(generate(GeneratorSpec("uniform", 200_000, 32, 6, seed=21)), path)
    assert path.stat().st_size >= instances.SPLIT_MIN_BYTES
    env = _src_env()

    def run(*args):
        # Started from a small Python process: on Linux a process reports the
        # peak of the process it was started from, kept across exec, as its own.
        starter = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
        cmd = [sys.executable, "-c", starter, sys.executable, *args]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout

    rec = json.loads(run("-m", "maxdom", "solve", str(path)))
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert rec["parts"] >= 2 or usable < 2
    expected = run_pipeline(parse(path)).solution
    assert (rec["value"], rec["chosen"]) == (expected.value, sorted(expected.chosen))
    baseline = json.loads(run("-c", "import maxdom.cli; print(maxdom.cli._peak_rss_mb())"))
    if baseline is not None:  # None where ``resource`` is missing
        assert rec["peak_rss_mb"] - baseline < RSS_MARGIN_MB, (rec["peak_rss_mb"], baseline)
        if rec["parts"] >= 2:
            assert rec["peak_rss_children_mb"] - baseline < RSS_MARGIN_MB, (rec["peak_rss_children_mb"], baseline)


def test_children_memory_is_the_forked_parts_own(tmp_path):
    # Each solve is exec'd by a process that first reaped a child holding
    # 200 MB.  ``getrusage``'s peak of the reaped children keeps that child
    # across exec; the record reports the parts that the solve itself
    # forked, each as ``os.wait4`` reaped it, and null where it forked none.
    small, large = tmp_path / "small.txt", tmp_path / "large.txt"
    serialize(generate(GeneratorSpec("uniform", 2_000, 16, 4, seed=3)), small)
    serialize(generate(GeneratorSpec("uniform", 80_000, 16, 4, seed=3)), large)
    assert small.stat().st_size < instances.SPLIT_MIN_BYTES <= large.stat().st_size
    env = _src_env()
    launcher = (
        "import os, subprocess, sys; "
        "subprocess.run([sys.executable, '-c', 'held = b\"x\" * (200 << 20)'], check=True); "
        "os.execv(sys.executable, sys.argv[1:])"
    )

    def solve(path):
        cmd = [sys.executable, "-c", launcher, sys.executable, "-m", "maxdom", "solve", str(path)]
        return json.loads(subprocess.run(cmd, capture_output=True, text=True, env=env, check=True).stdout)

    plain = solve(small)
    assert (plain["parts"], plain["peak_rss_children_mb"]) == (1, None)
    rec = solve(large)
    if rec["parts"] < 2:  # a single usable CPU: nothing forked
        assert rec["peak_rss_children_mb"] is None
        return
    bare = [sys.executable, "-c", "import maxdom.cli; print(maxdom.cli._peak_rss_mb())"]
    baseline = json.loads(subprocess.run(bare, capture_output=True, text=True, env=env, check=True).stdout)
    if baseline is not None:  # None where this platform reports no peak of its own
        assert abs(rec["peak_rss_children_mb"] - baseline) < RSS_MARGIN_MB, (rec["peak_rss_children_mb"], baseline)
