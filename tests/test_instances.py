import hashlib
import io
import json
import os
import sys
import tracemalloc
from array import array
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdom import instances, solver
from maxdom.cells import build_grid, compress
from maxdom.cli import main
from maxdom.instances import (
    GeneratorSpec,
    ParseError,
    _exact_decimal,
    _int,
    _number,
    _rows,
    generate,
    parse,
    parse_text,
    serialize,
    serialize_blocks,
    serialize_text,
    strict_skyline,
)
from maxdom.model import Instance, QueryPoint, WeightedPoint
from maxdom.ranking import drop_uncovered, rank_transform, staircase

from util import float_checked_decimal, scalar_generate, small_instances


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
    # a float is written as its shortest round-trip text, which reads back
    # as exactly that decimal, and so as the same float
    inst = Instance.from_rows([(0.5, 1.25, 3), (1e-3, 2.0, -1)], [(0.75, 9.5)], 1)
    text = serialize_text(inst)
    back = parse_text(text)
    assert serialize_text(back) == text
    assert back.P.xs == (Decimal("0.5"), Decimal("0.001")) and back.Q[0].y == Decimal("9.5")
    for read, written in zip((back.P.xs, back.P.ys, back.P.ws), (inst.P.xs, inst.P.ys, inst.P.ws)):
        assert list(map(float, read)) == list(written)


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


# n crosses the 4,096-point block of ``_blocks`` and m the 4,096-lane pass of
# ``SplitMix64.draws`` (2 * 2,049 query draws); 1,365 and 1,366 points are
# 4,095 and 4,098 draws of a three-draw family.
@pytest.mark.parametrize("family", instances.FAMILIES)
@pytest.mark.parametrize("n", [0, 1, 1365, 1366, 4096, 4097])
def test_generate_matches_the_scalar_reference(family, n):
    for m in (1, 2049):
        for seed in (7, 2**64 - 1):
            spec = GeneratorSpec(family, n=n, m=m, k=3, seed=seed)
            if n == 0 and family in ("one-cell-adversarial", "skyline-unit-weight"):
                with pytest.raises(ValueError):
                    generate(spec)
                continue
            same = serialize_text(generate(spec)) == serialize_text(scalar_generate(spec))
            assert same, spec  # a bool, so that a failure does not diff two long texts


# SHA-256 of ``serialize_text`` of GeneratorSpec(family, 5000, 300, 4, seed=7),
# as the one-draw-at-a-time generators wrote it.
GENERATED_SHA256 = {
    "uniform": "fbb71edc9b6c6336bfaa669969a6299456cad5dc86d73a58b5ad9e367c541028",
    "clustered": "455f7bc40ab426e21e187b17a5345e431a99b37488ed663a8ad56af0d7b4e93c",
    "one-cell-adversarial": "c801a7b0ec8409978e7e71dba4de6cdfe4adca7e5b7c9b20071cba2384c4c18f",
    "skyline-unit-weight": "f49a28a882d3b6fa5ea69eb75bd1f8749efa9790d9b8a3c113700dca9bb54915",
    "negative-mix": "0bc45407f45074fbce0f3edc9a8f740d74e18439e38bbe4597c32cb4dac5130d",
}


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_generated_files_are_pinned(family):
    spec = GeneratorSpec(family, n=5000, m=300, k=4, seed=7)
    for make in (generate, scalar_generate):
        assert hashlib.sha256(serialize_text(make(spec)).encode()).hexdigest() == GENERATED_SHA256[family]


def test_serialize_writes_the_text_as_utf8_with_newline_ends(tmp_path):
    inst = Instance.from_rows([(0, 1, Decimal("0.5")), (-3, 2, 7)] * 3000, [(1, 1), (2, 2)], 1)
    path = tmp_path / "inst.txt"
    serialize(inst, path)
    assert path.read_bytes() == serialize_text(inst).encode("utf-8")
    assert b"\r" not in path.read_bytes() and serialize_text(inst).count("\n") == 1 + 6000 + 2


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


# The streamed parser must agree with a plain line-by-line parser on every
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


# Weights the serializer writes as ints, floats (``1e-06``), decimals
# (``3E+5``, ``0.03``) and fractions' decimal texts (``0.125``).
WEIGHTS = {
    "int": lambda i, w: w,
    "float": lambda i, w: w / 1e6,
    "decimal": lambda i, w: Decimal(w).scaleb(5 if i % 2 else -2),
    "fraction": lambda i, w: Fraction(w, 8),
}
# The serializer's LF text, and the same lines with CRLF ends or tab separators.
LAYOUTS = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "tab": lambda data: data.replace(b" ", b"\t"),
}


@pytest.mark.parametrize("family", instances.FAMILIES)
def test_serialized_files_parse_as_plain_lines_alone(tmp_path, monkeypatch, family):
    # every point and query line, whatever its weights, line ends and
    # separators, is read by the JSON scan: no line goes through ``_rows``
    calls = _spy_plain(monkeypatch)
    rows, lines = instances._rows, []
    monkeypatch.setattr(instances, "_rows", lambda data, *args: lines.extend(data) or rows(data, *args))
    base = generate(GeneratorSpec(family, n=300, m=7, k=3, seed=4))
    path = tmp_path / "inst.txt"
    for kind, weight in WEIGHTS.items():
        points = [(p.x, p.y, weight(i, p.w)) for i, p in enumerate(base.P)]
        serialize(Instance.from_rows(points, [(q.x, q.y) for q in base.Q], base.k), path)
        written = path.read_bytes()
        for layout, lay_out in LAYOUTS.items():
            data = lay_out(written)
            path.write_bytes(data)
            calls.clear()
            assert parse(path) == _parse_line_by_line(data.decode()), (kind, layout)
            assert calls and all(plain for *_, plain in calls), (kind, layout)
            assert sum(block.count(b"\n") for block, *_ in calls) == base.n + base.m, (kind, layout)
            assert lines == [], (kind, layout)


def test_a_late_float_turns_only_its_column_into_a_tuple(monkeypatch):
    monkeypatch.setattr(instances, "_CHUNK", 16)  # a few lines a block: the float and the big int come in later ones
    rows = ["0 1 2", "3 4 5", "6 7 8", "9 10 1.5", "11 12 13", f"14 15 {2**63}"]
    inst = parse_text(f"{len(rows)} 1 1\n" + "\n".join(rows) + "\n1 1\n")
    assert type(inst.P.xs) is array and type(inst.P.ys) is array
    assert inst.P.ws == (2, 5, 8, 1.5, 13, 2**63)
    assert [type(w) for w in inst.P.ws] == [int, int, int, Decimal, int, int]


def test_decimal_and_exponent_tokens():
    inst = parse_text("2 1 1\n1.5 2e3 -0.25\n3 4 1E2\n5 6.0\n")
    assert inst.P[0] == WeightedPoint(1.5, 2000.0, -0.25)
    assert inst.P[1] == WeightedPoint(3, 4, 100.0)
    assert [type(v) for v in (inst.P[1].x, inst.P[1].w)] == [int, Decimal]
    assert (inst.Q[0].x, inst.Q[0].y) == (5, 6.0) and type(inst.Q[0].y) is Decimal


def test_decimal_tokens_are_read_exactly():
    inst = parse_text("2 1 1\n0.1 1 0.07\n0.10000000000000000001 1 25e-2\n0.1 1\n")
    assert inst.P.ws == (Decimal("0.07"), Decimal("0.25")) and 0.07 not in inst.P.ws
    assert inst.P.xs[0] < inst.P.xs[1]  # one float, two decimals
    assert parse_text("1 1 1\n0 0 -0.0\n1 1\n").P.ws == (0,)


_LIMIT = sys.get_int_max_str_digits()
# Tokens at the edges of ``_exact_decimal``'s ``Decimal``-first reading, whose
# adjusted exponent must lie within +-300, and past them: exponents +-299,
# +-300, +-308 and +-324, zeros, non-finite tokens, underscores, exponents
# beyond any ``Decimal``'s, and digit strings at and just over the int-string
# limit.
EDGE_TOKENS = [
    *(f"{lead}e{sign}{e}" for e in (299, 300, 301, 308, 324) for sign in ("", "-") for lead in ("1", "-9.5")),
    "0.001e-297", "12.5e298", "5e-324", "2e-324", "0", "-0.0", "0e-500", "0e500",
    "1e400", "1e-400", "1_000", "1_0.5", "1__0.5", "_1.5", "1.5_",
    "nan", "-inf", "inf", "Infinity", "NaN5", "sNaN",
    "1e-999999999999999999999", "0e-99999999999999999999", "1_0e-99999999999999999999", "1e999999999999999999999",
    "9" * _LIMIT, "-" + "9" * _LIMIT, "9" * (_LIMIT + 1), "-" + "9" * (_LIMIT + 1), "9" * (_LIMIT + 1) + ".5",
]


def _token_outcome(read, token):
    """``("value", type, text)`` of what ``read(token)`` gives, or ``("error", type, message)``."""
    try:
        value = read(token)
    except Exception as exc:
        return "error", type(exc), str(exc)
    return "value", type(value), str(value)


def _number_as_before(token: str, line_no: int):
    """``_number`` with the ``float``-checked reading: an int where ``int`` reads it, else ``float_checked_decimal``."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float_checked_decimal(token)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


@pytest.mark.parametrize("token", EDGE_TOKENS, ids=lambda t: t if len(t) < 20 else f"{t[:3]}..{len(t)}")
def test_decimal_first_reading_matches_the_float_checked_one(token):
    # a plain block, a block that the comment sends down the line path, and
    # ``_rows`` itself give the value or the ParseError text that reading
    # every token by ``float`` first gives
    assert _token_outcome(_exact_decimal, token) == _token_outcome(float_checked_decimal, token)
    for text, line_no in ((f"1 1 1\n0 0 {token}\n1 1\n", 2), (f"1 1 1\n# c\n0 0 {token}\n1 1\n", 3)):
        got = _token_outcome(lambda t: parse_text(text).P.ws[0], token)
        assert got == _token_outcome(lambda t: _number_as_before(t, line_no), token), text[:40]
    got = _token_outcome(lambda t: _rows([f"0 0 {t}"], [7], 3)[2][0], token)
    assert got == _token_outcome(lambda t: _number_as_before(t, 7), token)


@settings(max_examples=500)
@given(st.text(alphabet="0123456789.-+eE_nafiNsI", min_size=1, max_size=12)
       | st.builds("{}e{}".format, st.decimals(allow_nan=False, allow_infinity=False), st.integers(-340, 340)))
def test_decimal_first_reading_matches_the_float_checked_one_on_any_token(token):
    assert _token_outcome(_exact_decimal, token) == _token_outcome(float_checked_decimal, token)


# Tokens that are refused as numbers, each with the start of its message.
REFUSED_TOKENS = [
    ("1e-400", "nonzero number too small for a float"),  # float() rounds it to 0
    ("-1e-99999999", "nonzero number too small for a float"),  # read exactly, 10**99999999 would be built
    ("nan", "non-finite number"),
    ("inf", "non-finite number"),
    ("1e400", "non-finite number"),
    ("7/100", "not a number"),
    ("1e-999999999999999999999", "exponent out of range"),  # no ``Decimal`` holds the exponent
    ("0e-99999999999999999999", "exponent out of range"),
]


@pytest.mark.parametrize("token, message", REFUSED_TOKENS)
def test_refused_tokens_name_their_line(token, message):
    for text in (f"2 1 1\n0 0 1\n0 0 {token}\n1 1\n", f"1 1 1\n0 0 1\n1 {token}\n"):
        with pytest.raises(ParseError, match=f"^line 3: {message}") as err:
            parse_text(text)
        assert err.value.line_no == 3


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
    # the first fault in line order is reported, a wrong line count only at the end
    ("2 1 0\n0 x 1\n1 1\n", 2),  # bad token, a line short
    ("1 1 0\n0 0 1\nx 1\n9 9\n", 3),  # bad token, a line over
    ("1 1 0\n0 0\n# c\n\n", 2),  # bad field count, a line short
    ("1 1 0\n0 0 nan\n1 1", 2),  # count right, no final newline: the token's error
    ("3 1 0\n0 0 1\n1 1 1\n", 3),  # two lines short, the last one a plain point line
    # only digits, "-" and spaces, but not ints
    ("2 1 0\n0 0 1\n5-3 1 1\n1 1\n", 3),
    ("2 1 0\n0 0 1\n1 - 1\n1 1\n", 3),
    ("1 1 0\n0 0 --1\n1 1\n", 2),
    ("1 1 0\n0  1\n1 1\n", 2),  # two spaces, two fields
    ("2 1 0\n0 0 1 2 2 2\n\n1 1\n", 2),  # six fields and a blank line: three a line on average
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


def test_parse_text_of_a_str_that_utf8_cannot_encode():
    # read as its UTF-8 bytes, like a file: a lone surrogate, even in a comment, is a ValueError
    with pytest.raises(UnicodeEncodeError):
        parse_text("# \udc80\n1 1 0\n0 0 1\n1 1\n")


def test_parse_path_equals_parse_text(tmp_path):
    for i, text in enumerate(("2 1 1\n0 0 1\n2.5 3 -4\n5 6\n", "# c\r\n1 1 0\r\n1 2 3\r\n4 5\r\n")):
        path = tmp_path / f"inst{i}.txt"
        path.write_bytes(text.encode())
        assert parse(path) == parse_text(text)


def _parse_line_by_line(text):
    """Reference parser: the data lines walked in order, each checked and converted as it is reached.

    The first fault raises where it stands; a file short of data lines
    raises the count error at its end.
    """
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
    converted = []
    for i, (line_no, toks) in enumerate(rows[1:]):
        if i == n + m:
            raise ParseError(line_no, "unexpected extra data line")
        if i < n and len(toks) != 3:
            raise ParseError(line_no, f"ground-point line needs 'x y w', got {len(toks)} fields")
        if i >= n and len(toks) != 2:
            raise ParseError(line_no, f"query line needs 'x y', got {len(toks)} fields")
        converted.append(tuple(_number(t, line_no) for t in toks))
    if len(converted) < n + m:
        raise ParseError(rows[-1][0], f"expected {n + m} data lines after the header, got {len(converted)}")
    return Instance.from_rows(converted[:n], converted[n:], k)


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))


# tiny chunks cut lines, tokens and CRLF pairs apart; 64-byte ones make plain
# blocks that straddle the header, point and query boundaries
CHUNKS = (instances._CHUNK, 1, 7, 64)


def _outcomes(text, path):
    """``parse_text(text)`` and ``parse(path)`` at every chunk size."""
    path.write_bytes(text.encode())
    for chunk in CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(instances, "_CHUNK", chunk)
            yield _outcome(parse_text, text)
            yield _outcome(parse, path)


@settings(deadline=None, max_examples=150)
@given(small_instances(max_n=8, max_m=3), st.data())
def test_parse_matches_line_by_line(tmp_path_factory, inst, data):
    lines = serialize_text(inst).splitlines()
    noise = st.sampled_from(
        ["", "  ", "# note", "1.5", "2e1", "nan", "x", "-0", "007", "5-3", "3 4", "\t9 9 9",
         "1e400", "1e-400", "1E+5", "+5", ".5", "5.", "0.50"]
    )
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)) | st.just(len(lines)))
        if data.draw(st.booleans()):
            lines.insert(at, data.draw(noise))
        elif at < len(lines) and lines[at].split():
            toks = lines[at].split()
            toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(noise)
            lines[at] = " ".join(toks)
    sep = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = sep.join(lines) + data.draw(st.sampled_from(["", sep]))  # with or without a final newline
    expected = _outcome(_parse_line_by_line, text)
    path = tmp_path_factory.getbasetemp() / "parse_matches.txt"
    for result in _outcomes(text, path):
        assert result == expected


# Tokens of digits and "-" alone: JSON reads some of them as ``int`` does
# and refuses the others, of which ``int`` reads ``007``, ``-007`` and ``00``.
PLAIN_LOOKING = ["007", "-007", "00", "-0", "5-3", "--1", "-", "1-", "9" * 19, "1" * 4301]


POINT_ROWS = [["1", "2", "3"], ["3", "-4", "5"], ["-6", "0", "8"]]
QUERY_ROWS = [["9", "2"], ["3", "-4"], ["-6", "0"]]


@pytest.mark.parametrize("token", PLAIN_LOOKING, ids=lambda token: token[:20])
def test_plain_points_reads_each_token_as_int_or_declines_the_block(token):
    # point lines alone, query lines alone, and point lines followed by query lines
    for points, queries in ((3, 0), (0, 3), (3, 3)):
        for i in range(points + queries):
            for at in range(3 if i < points else 2):
                rows = [row[:] for row in POINT_ROWS[:points] + QUERY_ROWS[:queries]]
                rows[i][at] = token
                block = b"".join(" ".join(row).encode() + b"\n" for row in rows)
                found = instances._plain_lines(block, points, queries)
                try:
                    values = [[int(tok) for tok in row] for row in rows]
                except ValueError:  # ``int`` refuses it: so must the block
                    expected = None
                else:
                    expected = (*([row[j] for row in values[:points]] for j in range(3)),
                                *([row[j] for row in values[points:]] for j in range(2)))
                assert found is None or found == expected, (token[:20], points, queries, i, at)


def test_plain_lines_are_keyed_by_their_point_and_query_counts():
    block = b"1 2 3\n4 5 6\n7 8\n"
    assert instances._plain_lines(block, 2, 1) == ([1, 4], [2, 5], [3, 6], [7], [8])
    for points, queries in ((3, 0), (1, 2), (2, 0), (2, 2)):
        assert instances._plain_lines(block, points, queries) is None
    assert instances._plain_lines(block + b"9", 2, 1) is None  # a last line without its newline


def test_point_batches_number_lines_from_the_range_start(tmp_path, monkeypatch):
    # 64-byte chunks: blocks of plain lines are converted from their bytes,
    # only the blocks with a comment or a bad line go through ``_rows``
    monkeypatch.setattr(instances, "_CHUNK", 64)
    fallbacks, rows = [], instances._rows
    monkeypatch.setattr(instances, "_rows", lambda data, *args: fallbacks.append(data) or rows(data, *args))
    lines = [f"{i} {2 * i} {i % 7 - 3}" for i in range(60)]
    lines[20] = "# note"
    path = tmp_path / "points.txt"
    head, query = b"59 1 0\n", b"1 1\n"

    def point_batches():
        path.write_bytes(head + "\n".join(lines).encode() + b"\n" + query)
        return list(instances.point_batches(path, len(head), path.stat().st_size - len(query)))

    found = point_batches()
    assert len(found) > 5 and len(fallbacks) == 1 and "# note" not in fallbacks[0]
    points = [list(map(int, line.split())) for line in lines if line != "# note"]
    assert [sum((batch[i] for batch in found), []) for i in range(3)] == [list(col) for col in zip(*points)]
    lines[45] = "5-3 1 1"  # the 46th line of the range, the 47th of the file
    with pytest.raises(ParseError) as bad:
        point_batches()
    assert bad.value.line_no == 46 and "'5-3'" in str(bad.value)


def _spy_plain(monkeypatch) -> list:
    """The ``(block, points, queries, plain)`` of every later ``_plain_lines`` call, in call order."""
    calls, plain_lines = [], instances._plain_lines

    def spy(block, points, queries):
        found = plain_lines(block, points, queries)
        calls.append((block, points, queries, found is not None))
        return found

    monkeypatch.setattr(instances, "_plain_lines", spy)
    return calls


def test_parse_converts_plain_blocks_from_their_bytes(tmp_path, monkeypatch):
    # 64-byte chunks: the first block is cut after the header line; every
    # later block goes through ``_plain_lines`` whole, keyed by the point
    # lines still due and the query lines after them, so the block that
    # holds the last point lines and the first query lines is one plain
    # call; only the header line and the note's block are decoded, and only
    # the note's block goes through ``_rows``
    monkeypatch.setattr(instances, "_CHUNK", 64)
    fallbacks, rows = [], instances._rows
    calls = _spy_plain(monkeypatch)
    monkeypatch.setattr(instances, "_rows", lambda data, *args: fallbacks.extend(data) or rows(data, *args))
    lines = [f"{i} {2 * i} {i % 7 - 3}" for i in range(60)]
    lines[20] = "# note"
    path = tmp_path / "inst.txt"

    def parsed():
        text = "\n".join(["59 2 0", *lines, "1 1", "5 6"]) + "\n"
        path.write_bytes(text.encode())
        calls.clear()
        fallbacks.clear()
        return text, _outcome(parse, path)

    text, found = parsed()
    assert found == _parse_line_by_line(text)
    data = text.encode()
    blocks = list(instances._whole_lines(data[i : i + 64] for i in range(0, len(data), 64)))
    head = blocks[0].index(b"\n") + 1
    expected, count = [], 0  # count: the data lines before each block
    for block in [blocks[0][head:], *blocks[1:]]:
        lines_in = block.count(b"\n")
        points = min(lines_in, max(0, 59 - count))
        expected.append((block, points, lines_in - points, b"#" not in block))
        count += lines_in - block.count(b"#")
    assert calls == expected and len(calls) > 5
    [straddle] = [call for call in calls if call[1] and call[2]]
    assert b"\n1 1\n" in straddle[0] and straddle[3] and calls[-1][3]
    mixed = [blocks[0][:head], *(b for b, *_ in calls if b"#" in b)]  # the header line's and the note's
    assert len(mixed) == 2
    assert sorted(fallbacks) == sorted(line for line in mixed[1].decode().splitlines() if line != "# note")
    lines[45] = "5-3 1 1"  # the 47th line of the file, after plain blocks
    _, found = parsed()
    assert found[:2] == ("error", 47) and "'5-3'" in found[2]
    assert "5-3 1 1" in fallbacks and any(b"5-3" in b for b, *_ in calls)


@pytest.mark.parametrize("gap", ["# queries", "", "  "])
def test_parse_cuts_the_queries_block_before_a_comment_or_blank_line(tmp_path, monkeypatch, gap):
    # 64-byte chunks: no block is cut where the point lines end; the block
    # that holds the gap line, with the last point lines and the queries,
    # takes the line path whole, and every block before it is plain
    monkeypatch.setattr(instances, "_CHUNK", 64)
    calls = _spy_plain(monkeypatch)
    decoded, block_data = [], instances._block_data
    monkeypatch.setattr(
        instances, "_block_data", lambda block, *args: decoded.append(block) or block_data(block, *args)
    )
    lines = [f"{i} {2 * i} {i % 7 - 3}" for i in range(40)]
    text = "\n".join(["40 2 0", *lines, gap, "1 1", "5 6"]) + "\n"
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())
    assert _outcome(parse, path) == _parse_line_by_line(text)
    gap_block = decoded[-1]
    assert f"39 78 1\n{gap}\n1 1\n".encode() in gap_block  # the last point line, the gap and the queries
    assert gap_block.endswith(b"\n5 6\n") and len(decoded) == 2  # the header line's, then the gap's
    # with the gap line it holds one line more than the data lines still due, so it is not tried as plain
    assert calls and all(plain for *_, plain in calls) and gap_block not in [block for block, *_ in calls]
    for result in _outcomes(text, path):
        assert result == _parse_line_by_line(text)


def test_parse_converts_plain_query_lines_after_a_commented_header(tmp_path, monkeypatch):
    # a small file is one block, cut after the header line, which follows
    # comment and blank lines: the point lines and the query lines are one
    # plain piece, keyed by 3 point lines and 2 query lines
    calls = _spy_plain(monkeypatch)
    text = "# made by hand\n\n  \n# n m k\n3 2 1\n0 0 1\n2 3 -4\n5 5 5\n1 1\n5 6\n"
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())
    assert _outcome(parse, path) == _parse_line_by_line(text)
    assert calls == [(b"0 0 1\n2 3 -4\n5 5 5\n1 1\n5 6\n", 3, 2, True)]
    for result in _outcomes(text, path):
        assert result == _parse_line_by_line(text)


def test_an_m_heavy_parse_is_one_plain_call(tmp_path, monkeypatch):
    # the header line is decoded; its 500 point lines and 512 query lines are one plain piece
    calls = _spy_plain(monkeypatch)
    inst = generate(GeneratorSpec("uniform", n=500, m=512, k=16, seed=1))
    path = tmp_path / "inst.txt"
    serialize(inst, path)
    assert parse(path) == inst
    assert [call[1:] for call in calls] == [(500, 512, True)]


POINTS = "3 2 1\n0 0 1\n2 3 -4\n5 5 5\n"


# Query lines that are not all plain, and the bytes that send their piece to the line path.
@pytest.mark.parametrize(
    "queries, odd",
    [
        ("1 1\n# between\n5 6\n", b"# between"),
        ("1 1\n\n5 6\n", b"\n\n"),
        ("1 1\n5 6", b"5 6"),  # no final newline
        ("1 1\n5 6\n7 7\n", b"7 7"),  # one extra line
        ("1 1\n5 6\n\n", b"\n\n"),
        ("1 1\n5  6\n", b"5  6"),  # two spaces between tokens
        ("1 1\n+5 6\n", b"+5"),
        ("1 1\r5 6\n", b"\r"),  # a lone CR
    ],
    ids=["comment", "blank", "no-final-newline", "extra-line", "trailing-blank", "two-spaces", "plus-sign", "cr"],
)
def test_query_lines_that_are_not_plain_parse_line_by_line(tmp_path, monkeypatch, queries, odd):
    calls = _spy_plain(monkeypatch)
    decoded, block_data = [], instances._block_data
    monkeypatch.setattr(instances, "_block_data", lambda block, *args: decoded.append(block) or block_data(block, *args))
    text = POINTS + queries
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())
    assert _outcome(parse, path) == _outcome(_parse_line_by_line, text)
    assert decoded[0] == b"3 2 1\n" and any(odd in block for block in decoded[1:])
    assert not any(plain and odd in block for block, *_, plain in calls)
    for result in _outcomes(text, path):
        assert result == _outcome(_parse_line_by_line, text)


# Query lines that are plain: CRLF line ends, tab separators and decimal tokens.
@pytest.mark.parametrize(
    "queries", ["1 1\r\n5 6\r\n", "1\t1\n5\t6\n", "1.5 1\n5 6E+1\n"], ids=["crlf", "tab", "decimal"]
)
def test_crlf_tab_and_decimal_query_lines_are_plain(tmp_path, monkeypatch, queries):
    calls = _spy_plain(monkeypatch)
    decoded, block_data = [], instances._block_data
    monkeypatch.setattr(instances, "_block_data", lambda block, *args: decoded.append(block) or block_data(block, *args))
    text = POINTS + queries
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())
    assert _outcome(parse, path) == _parse_line_by_line(text)
    assert decoded == [b"3 2 1\n"] and calls == [(text.encode()[len(b"3 2 1\n") :], 3, 2, True)]
    for result in _outcomes(text, path):
        assert result == _parse_line_by_line(text)


def test_a_decimal_piece_is_plain_and_a_bad_one_reports_its_first_bad_line(tmp_path, monkeypatch):
    # decimal tokens are read by the JSON scan, and no line goes through
    # ``_rows``; in a piece that is not plain, a bad x on a later line and a
    # bad w on an earlier one report the earlier line
    calls = _spy_plain(monkeypatch)
    rows, lines = instances._rows, []
    monkeypatch.setattr(instances, "_rows", lambda data, *args: lines.extend(data) or rows(data, *args))
    text = "3 1 1\n0 0 0.5\n1 1 -2.25\n2 2 1e-1\n1 1\n"
    assert parse_text(text) == _parse_line_by_line(text)
    assert [call[1:] for call in calls] == [(3, 1, True)] and lines == []
    bad = "3 1 1\n0 0 0.5\n1 1 x\ny 2 0.25\n1 1\n"
    expected = _outcome(_parse_line_by_line, bad)
    assert expected[:2] == ("error", 3) and "'x'" in expected[2]
    assert _outcome(parse_text, bad) == expected and "1 1 x" in lines
    for result in _outcomes(bad, tmp_path / "inst.txt"):
        assert result == expected


def test_parse_of_a_cr_only_file_is_one_block(tmp_path, monkeypatch):
    # no "\n" to cut at: the header's block is the whole file, and none of it is plain
    monkeypatch.setattr(instances, "_plain_lines", lambda *args: pytest.fail("a plain block in a CR-only file"))
    lines = [f"{i} {2 * i} {i % 7 - 3}" for i in range(40)]
    text = "\r".join(["40 2 0", *lines, "# queries", "1 1", "5 6"]) + "\r"
    for result in _outcomes(text, tmp_path / "inst.txt"):
        assert result == _parse_line_by_line(text)


def test_no_block_is_converted_after_a_bad_value(tmp_path, monkeypatch):
    # 64-byte chunks: the block that holds a bad value is tried as plain,
    # then takes the line path, which raises; no later block is read
    monkeypatch.setattr(instances, "_CHUNK", 64)
    events = []  # ("plain" or "data", block), in call order
    plain_lines, block_data = instances._plain_lines, instances._block_data
    monkeypatch.setattr(
        instances, "_plain_lines", lambda block, *args: events.append(("plain", block)) or plain_lines(block, *args)
    )
    monkeypatch.setattr(
        instances, "_block_data", lambda block, *args: events.append(("data", block)) or block_data(block, *args)
    )
    lines = [f"{i} {2 * i} {i % 7 - 3}" for i in range(60)]
    lines[20] = "20 x 1"  # the 22nd line of the file, after plain blocks
    text = "\n".join(["60 2 0", *lines, "1 1", "5 6"]) + "\n"
    path = tmp_path / "inst.txt"
    path.write_bytes(text.encode())
    found = _outcome(parse, path)
    assert found == _outcome(_parse_line_by_line, text) and found[:2] == ("error", 22)
    assert events[-1][0] == "data" and b"20 x 1" in events[-1][1]
    assert events[-2] == ("plain", events[-1][1]) and len(events) > 3


class _Reads(io.BytesIO):
    """A binary file in memory that records the position after each read."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.ends = []

    def read(self, size=-1):
        chunk = super().read(size)
        self.ends.append(self.tell())
        return chunk


POINT_LINES = [f"{i} {2 * i} {i % 7 - 3}" for i in range(60)]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize(
    "lines, line_no",
    [
        (["60 2", *POINT_LINES], 1),
        (["60 2 0", *POINT_LINES[:20], "20 x 1", *POINT_LINES[21:]], 22),
        (["60 2 0", *POINT_LINES[:20], "20 40", *POINT_LINES[21:]], 22),
        (["1 1 0", "0 0 1", *(f"{i} {i}" for i in range(60))], 4),
    ],
    ids=["header", "token", "field-count", "extra-line"],
)
def test_parse_reads_no_chunk_past_the_piece_of_the_first_fault(monkeypatch, chunk, lines, line_no):
    # the file goes on past its first fault to a second one, an undecodable
    # byte at its end; the last chunk read is the one that ends the fault's line
    monkeypatch.setattr(instances, "_CHUNK", chunk)
    text = "\n".join(lines) + "\n"
    f = _Reads(text.encode() + b"\xff\n")
    expected = _outcome(_parse_line_by_line, text)
    assert expected[:2] == ("error", line_no)
    assert _outcome(instances._parse, f) == expected
    end = len("".join(line + "\n" for line in lines[:line_no]).encode())  # the byte after the fault's line
    assert max(f.ends) == -(-end // chunk) * chunk < len(text) // 2


def test_a_fault_before_an_undecodable_piece_is_the_error_raised(tmp_path, monkeypatch):
    # a bad header, an extra line or a bad token, then a comment with a bad byte past the read buffer
    monkeypatch.setattr(instances, "_CHUNK", 4)
    for head in (b"1 2\n", b"1 1 0\n0 0 1\n1 1\n9 9\n", b"1 1 0\n0 x 1\n1 1\n"):
        path = tmp_path / "inst.txt"
        path.write_bytes(head + b"# " + b"." * 20_000 + b"\xff\n")
        expected = _outcome(_parse_line_by_line, head.decode())
        assert expected[0] == "error" and _outcome(parse, path) == expected


def test_an_undecodable_piece_before_any_fault_raises_unicode_decode_error(tmp_path, monkeypatch):
    # the bad byte in a comment or in a point line, the first fault after it;
    # in one chunk, or in a piece of its own
    for chunk in (instances._CHUNK, 4):
        monkeypatch.setattr(instances, "_CHUNK", chunk)
        for bad in (b"# \xff\n0 0 1\n", b"0 0 \xff\n"):
            path = tmp_path / "inst.txt"
            path.write_bytes(b"2 1 0\n" + bad + b"0 x 1\n1 1\n9 9\n")
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


def test_parse_peak_memory_of_crlf_files(tmp_path, monkeypatch):
    # Every block of a CRLF file is plain: its pairs become "\n" before the JSON scan.
    def serialize_crlf(inst, path):
        path.write_bytes(serialize_text(inst).replace("\n", "\r\n").encode())

    monkeypatch.setitem(globals(), "serialize", serialize_crlf)
    test_parse_peak_memory_is_bounded_by_the_instance(tmp_path, monkeypatch)


def test_a_split_part_gets_at_least_half_the_split_threshold(tmp_path, monkeypatch):
    # however many CPUs ask for parts, a part gets at least
    # ``SPLIT_MIN_BYTES // 2`` point-line bytes; two parts are always
    # allowed, and a threshold of 0 caps nothing
    half = instances.SPLIT_MIN_BYTES // 2
    line = 18  # bytes of each point line written below

    def write(point_bytes):
        path = tmp_path / f"points{point_bytes}.txt"
        n = point_bytes // line
        points = "".join(f"{1_000_000 + j} {2_000_000 + j} {j % 9}\n" for j in range(n))
        path.write_text(f"{n} 3 2\n" + points + "1 5\n2 4\n3 3\n")
        return path, n

    for point_bytes, parts in ((2 * half + 5_000, 2), (7 * half + 5_000, 7)):
        path, n = write(point_bytes)
        for asked in (2, parts, 64):
            got, queries, ranges = instances.point_ranges(path, asked)
            assert (got, queries.m, len(ranges)) == (n, 3, min(asked, parts))
            assert all(stop - start > half - line for start, stop in ranges)
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    assert len(instances.point_ranges(write(3_000 * line)[0], 64)[2]) == 64


def test_part_grid_peak_memory_does_not_grow_with_the_points(tmp_path, monkeypatch):
    # A part of a split solve sums each converted batch into its cells and
    # keeps no point: point columns would add 24 bytes a point line, strips 16.
    monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
    peaks = []
    for n in (50_000, 100_000):
        path = tmp_path / f"big{n}.txt"
        serialize(generate(GeneratorSpec("uniform", n=n, m=16, k=4, seed=6)), path)
        _, queries, [(start, stop)] = instances.point_ranges(path, 1)
        _stair, qx = staircase(queries.Q)
        tracemalloc.start()
        try:
            per_row, retained, count = solver._grid_range(path, start, stop, queries.Q, qx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert count == n and retained > n // 10
    assert peaks[1] - peaks[0] < 100_000 - 50_000, peaks


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
    serialize(generate(GeneratorSpec("uniform", n=500, m=12, k=3, seed=4)), path)
    assert main(["solve", str(path)]) == 0
    assert main(["solve", str(path), "--k", "1"]) == 0
    capsys.readouterr()
    assert built == []


def test_solve_builds_no_query_objects(tmp_path, monkeypatch, capsys):
    # the queries stay columns from the generator and the serializer through
    # the parse, a new budget, the staircase and the pick walk, in one
    # process or in two parts
    built = []
    monkeypatch.setattr(QueryPoint, "__post_init__", lambda self: built.append(self))
    path = tmp_path / "inst.txt"
    inst = generate(GeneratorSpec("uniform", n=500, m=12, k=3, seed=4))
    serialize(inst, path)
    assert replace(inst, k=1).Q is inst.Q
    assert main(["solve", str(path)]) == 0
    assert main(["solve", str(path), "--k", "1"]) == 0
    plain = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [record["parts"] for record in plain] == [1, 1]
    if hasattr(os, "fork"):
        monkeypatch.setattr(instances, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["solve", str(path), "--k", "1"]) == 0
        split = json.loads(capsys.readouterr().out)
        assert split["parts"] == 2 and split["chosen"] == plain[1]["chosen"]
    assert built == []


def test_verify_builds_a_query_object_for_each_pick_alone(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    serialize(generate(GeneratorSpec("uniform", n=30, m=8, k=3, seed=5)), path)
    chosen = solver.solve_pipeline(parse(path)).chosen
    built = []
    check = QueryPoint.__post_init__
    monkeypatch.setattr(QueryPoint, "__post_init__", lambda self: built.append(self.id) or check(self))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["equal"]
    assert chosen and sorted(built) == sorted(chosen)


def test_query_lines_are_written_from_the_columns_in_blocks(monkeypatch):
    # each query value is written as a point value is, ``_BATCH`` lines a block
    monkeypatch.setattr(instances, "_BATCH", 2)
    Q = [(1, 2), (0.5, Decimal("2.50")), (Fraction(1, 8), 10**30), (-3, 1e-06), (2**63, 7)]
    blocks = list(serialize_blocks(Instance.from_rows([(0, 0, 1)], Q, 1)))
    lines = ["1 2\n0.5 2.50\n", "0.125 1000000000000000000000000000000\n-3 1e-06\n", "9223372036854775808 7\n"]
    assert blocks == ["1 5 1\n", "0 0 1\n", *lines]
