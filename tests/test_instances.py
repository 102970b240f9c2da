import codecs
import locale
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdom import instances, model
from maxdom.cells import build_grid, compress
from maxdom.cli import main
from maxdom.instances import (
    GeneratorSpec,
    ParseError,
    _int,
    _number,
    generate,
    parse,
    parse_text,
    serialize,
    serialize_text,
    strict_skyline,
)
from maxdom.model import Instance, WeightedPoint
from maxdom.ranking import drop_uncovered, rank_transform

from util import small_instances


def test_parse_minimal():
    inst = parse_text("1 1 1\n0 0 5\n1 1\n")
    assert inst.P[0].x == 0 and inst.P[0].w == 5
    assert inst.Q[0].x == 1 and inst.Q[0].id == 0
    assert inst.k == 1


def test_parse_skips_comments_and_blanks():
    inst = parse_text("# corpus sample\n\n1 1 0\n# ground\n2 3 -4\n\n5 6\n")
    assert inst.P[0].w == -4 and inst.Q[0].y == 6


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_round_trip_integer_instances(inst):
    assert parse_text(serialize_text(inst)) == inst


def test_round_trip_float_coordinates():
    inst = Instance.from_rows([(0.5, 1.25, 3), (1e-3, 2.0, -1)], [(0.75, 9.5)], 1)
    assert parse_text(serialize_text(inst)) == inst


def test_missing_weight_reports_line():
    with pytest.raises(ParseError) as err:
        parse_text("1 1 1\n0 0\n1 1\n")
    assert err.value.line_no == 2


def test_header_and_count_errors():
    with pytest.raises(ParseError):
        parse_text("")
    with pytest.raises(ParseError):
        parse_text("1 2\n")
    with pytest.raises(ParseError):
        parse_text("0 0 0\n")  # m must be >= 1
    with pytest.raises(ParseError):
        parse_text("1 1 1\n0 0 5\n")  # missing query line
    with pytest.raises(ParseError) as err:
        parse_text("0 1 0\n1 1\n9 9\n")  # extra line
    assert err.value.line_no == 3


def test_non_finite_numbers_rejected():
    with pytest.raises(ParseError):
        parse_text("1 1 0\nnan 0 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_text("1 1 0\n0 inf 1\n1 1\n")


def test_generator_is_byte_deterministic():
    spec = GeneratorSpec("uniform", n=50, m=6, k=3, seed=123)
    a = serialize_text(generate(spec))
    b = serialize_text(generate(spec))
    assert a == b
    c = serialize_text(generate(GeneratorSpec("uniform", n=50, m=6, k=3, seed=124)))
    assert a != c


def test_all_families_generate():
    for family in ("uniform", "clustered", "one-cell-adversarial", "skyline-unit-weight", "negative-mix"):
        inst = generate(GeneratorSpec(family, n=40, m=5, k=2, seed=7))
        assert inst.n >= 1 and inst.m >= 1


def test_one_cell_family_compresses_to_one_point():
    inst = generate(GeneratorSpec("one-cell-adversarial", n=1000, m=4, k=2, seed=5))
    rr = drop_uncovered(rank_transform(inst))
    assert len(compress(build_grid(rr), rr).points) == 1


def test_skyline_family_queries_are_maximal():
    inst = generate(GeneratorSpec("skyline-unit-weight", n=50, m=1, k=3, seed=11))
    assert all(p.w == 1 for p in inst.P)
    everyone = [(p.x, p.y) for p in inst.P] + [(q.x, q.y) for q in inst.Q]
    for q in inst.Q:
        dominated = any(
            x >= q.x and y >= q.y and (x > q.x or y > q.y) for x, y in everyone
        )
        assert not dominated


def test_strict_skyline_handles_ties():
    pts = [(0, 0), (2, 2), (2, 1), (1, 2), (2, 2)]
    assert strict_skyline(pts) == [(2, 2)]


def test_negative_mix_has_both_signs():
    inst = generate(GeneratorSpec("negative-mix", n=40, m=4, k=2, seed=1))
    ws = [p.w for p in inst.P]
    assert min(ws) < 0 < max(ws)
    assert all(w != 0 for w in ws)


def test_unknown_family_and_bad_sizes():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("mystery", n=1, m=1, k=1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("uniform", n=-1, m=1, k=1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("uniform", n=1, m=0, k=1))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("uniform", n=1, m=1, k=1, weights=(5, -5)))


# The batched parser must agree with a plain line-by-line parser on every
# file: the same values, or a ParseError on the same line.

def test_integer_columns_are_int64_arrays():
    inst = parse_text(f"3 1 1\n0 -5 {2**63 - 1}\n-7 4 -2\n{-2**63} 1 0\n1 1\n")
    assert [type(c) for c in (inst.P.xs, inst.P.ys, inst.P.ws)] == [array] * 3
    assert list(inst.P.ws) == [2**63 - 1, -2, 0] and inst.P.xs[2] == -2**63


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_parse_of_serialize_is_the_generated_instance(family):
    inst = generate(GeneratorSpec(family, n=60, m=7, k=3, seed=9))
    assert all(type(c) is array for c in (inst.P.xs, inst.P.ys, inst.P.ws))
    assert parse_text(serialize_text(inst)) == inst


def test_a_late_float_turns_only_its_column_into_a_tuple(monkeypatch):
    monkeypatch.setattr(instances, "_BATCH", 2)
    rows = ["0 1 2", "3 4 5", "6 7 8", "9 10 1.5", "11 12 13", f"14 15 {2**63}"]
    inst = parse_text(f"{len(rows)} 1 1\n" + "\n".join(rows) + "\n1 1\n")
    assert type(inst.P.xs) is array and type(inst.P.ys) is array
    assert inst.P.ws == (2, 5, 8, 1.5, 13, 2**63)
    assert [type(w) for w in inst.P.ws] == [int, int, int, float, int, int]


def test_decimal_and_exponent_tokens():
    inst = parse_text("2 1 1\n1.5 2e3 -0.25\n3 4 1E2\n5 6.0\n")
    assert inst.P[0] == WeightedPoint(1.5, 2000.0, -0.25)
    assert inst.P[1] == WeightedPoint(3, 4, 100.0)
    assert [type(v) for v in (inst.P[1].x, inst.P[1].w)] == [int, float]
    assert (inst.Q[0].x, inst.Q[0].y) == (5, 6.0) and type(inst.Q[0].y) is float


# Malformed files and the line each one's ParseError names.
MALFORMED = [
    ("2 1 0\n0 0 1\n1 nan 1\n1 1\n", 3),
    ("1 1 0\n0 0 -inf\n1 1\n", 2),
    ("1 2 0\n0 0 1\n1 1\n2 Infinity\n", 4),
    ("1 1 0\n0 0 1e999\n1 1\n", 2),
    ("2 1 0\n0 0 1\n0 0\n1 1\n", 3),  # point line with 2 fields
    ("1 2 0\n0 0 1\n1 1\n2 2 2\n", 4),  # query line with 3 fields
    ("2 1 0\n0 x 1\n0 0 y\n1 1\n", 2),  # first bad line wins
    ("1 1 0\n\n# c\n0 0 1\n1 1\n\n7 7\n", 7),  # extra line after blanks
    # a wrong line count is reported before a malformed line
    ("2 1 0\n0 x 1\n1 1\n", 3),  # bad token, a line short
    ("1 1 0\n0 0 1\nx 1\n9 9\n", 4),  # bad token, a line over
    ("1 1 0\n0 0\n# c\n\n", 2),  # bad field count, a line short
    ("1 1 0\n0 0 nan\n1 1", 2),  # count right, no final newline: the token's error
]


@pytest.mark.parametrize("text, line_no", MALFORMED)
def test_parse_error_line_numbers(tmp_path, text, line_no):
    for variant in (text, text.replace("\n", "\r\n")):
        expected = _outcome(_parse_line_by_line, variant)
        assert expected[:2] == ("error", line_no)
        for result in _outcomes(variant, tmp_path / "inst.txt"):
            assert result == expected


def test_comments_and_blanks_between_data_lines():
    plain = "2 2 1\n0 0 1\n2 3 -4\n5 6\n7 8\n"
    noisy = "\n# head\n2 2 1\n0 0 1\n\n# between points\n   \n2 3 -4\n# q\n5 6\n\n7 8\n\n# tail\n"
    assert parse_text(noisy) == parse_text(plain)


def test_crlf_line_endings():
    text = "2 1 1\n0 0 1\n2.5 3 -4\n5 6\n"
    assert parse_text(text.replace("\n", "\r\n")) == parse_text(text)


def test_parse_path_equals_parse_text(tmp_path):
    for i, text in enumerate(("2 1 1\n0 0 1\n2.5 3 -4\n5 6\n", "# c\r\n1 1 0\r\n1 2 3\r\n4 5\r\n")):
        path = tmp_path / f"inst{i}.txt"
        path.write_bytes(text.encode())
        assert parse(path) == parse_text(text)


def _parse_line_by_line(text):
    """Reference parser: every data line tokenized and counted, then converted in order."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append((line_no, line.split()))
    if not rows:
        raise ParseError(1, "empty instance file")
    head_no, head = rows[0]
    if len(head) != 3:
        raise ParseError(head_no, "expected header 'n m k'")
    n, m, k = (_int(t, head_no, what) for t, what in zip(head, "nmk"))
    if n < 0 or m < 1 or k < 0:
        raise ParseError(head_no, "need n >= 0, m >= 1, k >= 0")
    if len(rows) - 1 < n + m:
        raise ParseError(rows[-1][0], f"expected {n + m} data lines after the header, got {len(rows) - 1}")
    if len(rows) - 1 > n + m:
        raise ParseError(rows[1 + n + m][0], "unexpected extra data line")
    converted = []
    for i, (line_no, toks) in enumerate(rows[1:]):
        if i < n and len(toks) != 3:
            raise ParseError(line_no, f"ground-point line needs 'x y w', got {len(toks)} fields")
        if i >= n and len(toks) != 2:
            raise ParseError(line_no, f"query line needs 'x y', got {len(toks)} fields")
        converted.append(tuple(_number(t, line_no) for t in toks))
    return Instance.from_rows(converted[:n], converted[n:], k)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))


CHUNKS = (instances._CHUNK, 1, 7)  # tiny chunks cut lines, tokens and CRLF pairs apart
BATCHES = (instances._BATCH, 1, 3)  # small batches put a bad line in a later batch


def _outcomes(text, path):
    """``parse_text(text)`` and ``parse(path)`` at every chunk and batch size."""
    path.write_bytes(text.encode())
    for chunk in CHUNKS:
        for batch in BATCHES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(instances, "_CHUNK", chunk)
                mp.setattr(instances, "_BATCH", batch)
                yield _outcome(parse_text, text)
                yield _outcome(parse, path)


@settings(deadline=None, max_examples=150)
@given(small_instances(max_n=8, max_m=3), st.data())
def test_parse_matches_line_by_line(tmp_path_factory, inst, data):
    lines = serialize_text(inst).splitlines()
    noise = st.sampled_from(["", "  ", "# note", "1.5", "2e1", "nan", "x", "-0", "3 4", "\t9 9 9"])
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)) | st.just(len(lines)))
        if data.draw(st.booleans()):
            lines.insert(at, data.draw(noise))
        elif at < len(lines) and lines[at].split():
            toks = lines[at].split()
            toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(noise)
            lines[at] = " ".join(toks)
    sep = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = sep.join(lines) + data.draw(st.sampled_from(["", sep]))  # with or without a final newline
    expected = _outcome(_parse_line_by_line, text)
    path = tmp_path_factory.getbasetemp() / "parse_matches.txt"
    for result in _outcomes(text, path):
        assert result == expected


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="needs UTF-8 as the default text encoding",
)
def test_undecodable_tail_wins_over_an_early_parse_error(tmp_path, monkeypatch):
    # as when the whole file was read first, a bad byte after a bad header
    # or an extra line is still a decoding error
    monkeypatch.setattr(instances, "_CHUNK", 4)
    for head in (b"1 2\n", b"1 1 0\n0 0 1\n1 1\n9 9\n"):
        path = tmp_path / "inst.txt"
        path.write_bytes(head + b"# " + b"." * 20_000 + b"\xff\n")  # past the read buffer
        with pytest.raises(UnicodeDecodeError):
            parse(path)


def _parse_memory(path):
    """``(peak - retained, retained)`` in bytes while ``parse(path)`` runs."""
    tracemalloc.start()
    try:
        inst = parse(path)
        held, peak = tracemalloc.get_traced_memory()
        del inst
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return peak - retained, retained


def test_parse_peak_memory_is_bounded_by_the_instance(tmp_path, monkeypatch):
    monkeypatch.setattr(instances, "_CHUNK", 64 * 1024)
    sizes, memory = [], []
    for n in (50_000, 100_000):
        path = tmp_path / f"big{n}.txt"
        serialize(generate(GeneratorSpec("uniform", n=n, m=16, k=4, seed=6)), path)
        sizes.append(path.stat().st_size)
        memory.append(_parse_memory(path))
        # int64 columns: 8 bytes a value, plus the arrays' spare room and the queries
        assert memory[-1][1] <= 9 * 3 * n, (n, memory[-1])
    # Neither the file text nor a string per line outlives its chunk: holding
    # the text would add at least the extra file bytes to the working set,
    # and a string per line about four times that.
    extra = sizes[1] - sizes[0]
    assert memory[1][0] - memory[0][0] < extra / 2, (memory, extra)


def test_point_view_is_built_once():
    inst = parse_text("2 1 1\n0 0 1\n2 3 -4\n5 6\n")
    first = list(inst.P)
    assert all(a is b for a, b in zip(first, inst.P))
    assert inst.P[1] is first[1]
    assert replace(inst, k=0).P is inst.P


def test_solve_builds_no_point_objects(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    built = []
    monkeypatch.setattr(WeightedPoint, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(model, "_checked_point", lambda *values: built.append(values))
    serialize(generate(GeneratorSpec("uniform", n=500, m=12, k=3, seed=4)), path)
    assert main(["solve", str(path)]) == 0
    assert main(["solve", str(path), "--k", "1"]) == 0
    capsys.readouterr()
    assert built == []
