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

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# Record keys that hold times, memory or the process count, which may differ between two solves.
UNTIMED = ("stages", "total_seconds", "peak_rss_mb", "peak_rss_children_mb", "parts")


def _solve(path) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(path)])
    rec = json.loads(out.getvalue()) if code == 0 else None
    return code, rec, err.getvalue()


def _plain(path) -> tuple[int, dict | None, str]:
    """``maxdom solve`` of ``path`` on the plain path, with no split."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "SPLIT_MIN_BYTES", 1 << 62)
        return _solve(path)


def _untimed(rec: dict) -> dict:
    return {key: value for key, value in rec.items() if key not in UNTIMED}


def _unreaped() -> int:
    """The pid of an exited child of this process that nobody waited for, or 0."""
    try:
        return os.waitpid(-1, os.WNOHANG)[0]
    except ChildProcessError:  # no children at all
        return 0


# Tokens that replace one point value: int64 ones keep the split, the others make it fall back.
INT64_TOKENS = ["-7", "0", str(-(2**63)), str(2**63 - 1)]
OTHER_TOKENS = ["1.5", "-0.25", "3e2", str(2**63), str(-(2**63) - 1)]
NOISE = ["", "   ", "# note", "\t# x y w"]


@st.composite
def instance_files(draw):
    """``(text, splits)``: an instance file's text and whether it may be split."""
    family = draw(st.sampled_from(FAMILIES))
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    inst = generate(GeneratorSpec(family, n, m, draw(st.integers(0, m)), seed=draw(st.integers(0, 99))))
    header, *lines = serialize_text(inst).splitlines()
    points, queries = lines[: inst.n], lines[inst.n :]
    splits = True
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, inst.n - 1))
        toks = points[at].split()
        token = draw(st.sampled_from(INT64_TOKENS + OTHER_TOKENS))
        toks[draw(st.integers(0, 2))] = token
        points[at] = " ".join(toks)
        splits &= token in INT64_TOKENS
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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "SPLIT_MIN_BYTES", 0)
        for parts in range(1, 5):
            split = grid_parts(path, _parts=parts)
            assert (split is not None) == splits, parts
            if split is not None:
                n, queries, found = split
                assert (n, queries.Q, queries.k, len(queries.P)) == (inst.n, inst.Q, inst.k, 0)
                assert 1 <= len(found) <= parts
                assert add_parts(queries, found) == grid  # cells, per_row and retained
        code, rec, err = _solve(path)
    plain_code, plain, plain_err = _plain(path)
    assert (code, err, plain_code, plain_err) == (0, "", 0, "")
    assert _untimed(rec) == _untimed(plain)
    assert plain["parts"] == 1 and (rec["parts"] > 1) <= splits
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
            assert grid_parts(path, _parts=parts) is None
        assert _solve(path) == (1, None, f"error: {expected.value}\n")
    assert _unreaped() == 0


def test_an_undecodable_point_line_raises_the_plain_error(tmp_path, monkeypatch):
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    path = tmp_path / "bad.txt"
    path.write_bytes(b"3 1 1\n0 0 1\n1 1 \xff\n2 2 2\n5 5\n")
    with pytest.raises(UnicodeDecodeError) as expected:
        parse(path)
    assert grid_parts(path, _parts=2) is None
    assert _solve(path) == (1, None, f"error: {expected.value}\n")


def _big_file(tmp_path, n=3_000, m=8) -> Path:
    path = tmp_path / "big.txt"
    serialize(generate(GeneratorSpec("uniform", n, m, 3, seed=11)), path)
    return path


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
    assert grid_parts(path, _parts=3) is None
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
    assert grid_parts(path, _parts=3) is None
    assert time.perf_counter() - t0 < 30
    assert _unreaped() == 0


def test_a_process_with_other_threads_is_not_forked(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    assert grid_parts(path, _parts=2) is not None
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert grid_parts(path, _parts=2) is None
    finally:
        release.set()
        waiter.join(30)
    assert not waiter.is_alive()


def test_split_record_keys_and_stages(tmp_path, monkeypatch):
    path = _big_file(tmp_path)
    _, plain, _ = _plain(path)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    code, rec, _ = _solve(path)
    assert code == 0 and rec["parts"] == 3 and plain["parts"] == 1
    assert list(rec["stages"]) == list(plain["stages"]) == ["parse", "grid", "dp", "reconstruct"]
    assert rec["total_seconds"] >= sum(rec["stages"].values()) - 1e-5
    assert rec["peak_rss_children_mb"] is None or rec["peak_rss_children_mb"] > 0
    assert _untimed(rec) == _untimed(plain)


def test_small_files_and_the_oracle_are_not_split(tmp_path, monkeypatch):
    path = _big_file(tmp_path, n=200)
    assert path.stat().st_size < instances.SPLIT_MIN_BYTES
    assert grid_parts(path, _parts=2) is None
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["solve", str(path), "--algo", "oracle", "--k", "1"]) == 0
    assert json.loads(out.getvalue())["parts"] == 1


@pytest.mark.slow
def test_cli_splits_a_large_file(tmp_path):
    path = tmp_path / "large.txt"
    serialize(generate(GeneratorSpec("uniform", 200_000, 32, 6, seed=21)), path)
    assert path.stat().st_size >= instances.SPLIT_MIN_BYTES
    src = str(Path(instances.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "maxdom", "solve", str(path)], capture_output=True, text=True, env=env, check=True
    )
    rec = json.loads(done.stdout)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert rec["parts"] >= 2 or usable < 2
    expected = run_pipeline(parse(path)).solution
    assert (rec["value"], rec["chosen"]) == (expected.value, sorted(expected.chosen))
