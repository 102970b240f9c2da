"""Instance file format, parsing, and seeded generator families.

File format (decimal numbers, whitespace separated)::

    # full-line comments start with '#'; blank lines are ignored
    n m k
    x y w      <- n ground-point lines
    x y        <- m query lines; ids are assigned in file order

Every number is read exactly (``_number``): an integer token as an ``int``,
any other finite number, such as ``0.07`` or ``25e-2``, as a ``Decimal``
(``_exact_decimal``).
Integer instances round-trip byte-exactly, and a float is written as its
shortest round-trip text, which reads back as exactly that decimal.

The parser streams the file (``parse``) as bytes, a block of whole lines at
a time (``_whole_lines``), straight into the columns of
``model.PointColumns`` and ``model.QueryColumns``.  The block that holds the
header is cut after the header's line (``_header_end``).  Each later piece
whose lines all fall within the data lines is tried as plain lines (JSON
number tokens one space or tab apart, three a point line and two a query
line, with ``"\\n"`` or ``"\\r\\n"`` line ends, as the serializer writes
them): keyed by how many point lines are still due and how many query lines
follow, it is checked and converted in one go from its bytes, by one JSON
scan (``_plain_lines``).  Any other piece is decoded, its blank and comment
lines are dropped (``_block_data``) and its point and query lines are
converted one line at a time (``_rows``).  Each column starts as an int64
``array('q')`` and takes each piece's values whole; the first piece it
cannot take (a decimal, or an int beyond int64) turns that column alone into
a list.  The generators build the same columns and the serializer writes
from them, so none of the three builds a per-point or per-query object.

Every reader has one error rule: the first fault in line order raises where
it is read, and nothing past its piece is read.  A bad header, field count
or token, or an extra data line, raises a ``ParseError`` naming its line;
an undecodable byte raises ``UnicodeDecodeError`` when its piece is
decoded; a file short of data lines raises the count error at its end.

``point_ranges`` and ``point_batches`` let ``maxdom solve`` parse a large
file's point lines in parts: the header is found in the file's head as
``parse`` finds it (``_read_header``), the queries are read from its tail
by ``_parse`` itself, and each byte range of point lines goes through the
same blocks and the same per-block conversion as ``parse``, tried as plain
point lines alone, which hands each block's values to the caller instead of
keeping them.

The serializer writes a file a block of ``_BATCH`` point lines at a time
(``serialize_blocks``), as UTF-8 with ``"\\n"`` line ends on every platform.

Generators draw every number from SplitMix64, so the same spec yields a
byte-identical instance on every platform.  They take the numbers
``_BATCH`` points at a time from ``SplitMix64.draws`` (``_blocks``), in the
order of one ``next_u64`` call per number, and map each column's draws to
values with C-level ``map`` calls (``_below``, ``_randint``) straight into
the int64 columns.
"""

from __future__ import annotations

import io
import json
import os
import sys
from array import array
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, repeat
from math import isfinite
from operator import add, mod, mul
from typing import Iterable, Iterator, Sequence

from .model import Instance, PointColumns, QueryColumns, _column
from .prng import SplitMix64

COORD_SPAN = 1_000_000
MAX_N = 5_000_000
MAX_M = 100_000


class ParseError(ValueError):
    """Malformed instance file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@cache
def _decimal():
    """``decimal.Decimal``, imported on first use, so that an all-int file never loads the module."""
    from decimal import Decimal
    return Decimal


def _exact_decimal(token: str):
    """``token`` exactly as a ``Decimal``, where ``float`` reads it as a finite number; else ``ValueError``.

    A nonzero token that ``float`` rounds to 0 is refused: read exactly,
    ``1e-99999999`` would scale the weights by 10**99999999.  So is an integer
    token over ``int``'s digit limit, which ``Decimal`` would read only slowly,
    and one with an exponent that no ``Decimal`` holds, such as
    ``0e-99999999999999999999``, which ``float`` reads as 0.  The token is
    read by ``Decimal`` first.  A finite value whose adjusted exponent lies
    within +-300 is 0 or of a magnitude in [1e-300, 1e301), which ``float``
    reads as 0 or as a finite nonzero number, so it is returned with no
    ``float`` read.  Every other token, and one with an ``_`` (which
    ``Decimal`` drops wherever it stands, ``float`` only between digits),
    takes the ``float`` checks.
    """
    if "_" not in token:
        try:
            number = _decimal()(token)
        except ArithmeticError:  # ``InvalidOperation``: no number to ``Decimal`` either
            pass
        else:
            if number.is_finite() and -300 <= number.adjusted() <= 300:
                return number
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not isfinite(value):
        digits = token.lstrip("+-")
        if digits.isdigit():  # refused by ``int`` for its length alone
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"integer of {len(digits)} digits, over the int-string limit of {limit}")
        raise ValueError(f"non-finite number: {token!r}")
    try:
        number = _decimal()(token)
    except ArithmeticError:  # ``InvalidOperation``: an exponent beyond ``Decimal``'s
        raise ValueError(f"exponent out of range: {token!r}") from None
    if number and not value:
        raise ValueError(f"nonzero number too small for a float: {token!r}")
    return number


def _number(token: str, line_no: int):
    """``token`` as an int, or else as its ``_exact_decimal``; a ``ParseError`` of ``line_no`` where neither reads it."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return _exact_decimal(token)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


# Bytes read per chunk; a chunk is cut after its last newline, so a reader
# holds one chunk's lines at a time, never the whole file.  On n-heavy's 16 MB
# file (x86-64, CPython 3.11), ``point_batches`` over all its point lines
# takes 0.29-0.43 s of CPU at a traced peak of 0.96 MB (chunk, one block's
# values and columns), against 0.29-0.48 s and 15.2 MB at 1 MiB.
_CHUNK = 1 << 16
# Point lines written per serializer block and points drawn per generator
# block; bounds the text or draws alive at once.
_BATCH = 4096


def _is_data(line: str) -> bool:
    line = line.strip()
    return bool(line) and not line.startswith("#")


def _whole_lines(pieces: Iterable[bytes]) -> Iterator[bytes]:
    """Re-cut byte pieces so that each one ends with a newline (the last one may not).

    A block never cuts a UTF-8 character or a ``"\\r\\n"`` pair, so the
    lines of the blocks, decoded one at a time, are the lines of the whole
    text.
    """
    rest = b""
    for piece in pieces:
        block = rest + piece
        cut = block.rfind(b"\n") + 1
        if cut:
            yield block[:cut]
        rest = block[cut:]
    if rest:
        yield rest


def _header_end(block: bytes) -> int:
    """The byte after the ``"\\n"``-ended piece of ``block`` that holds its header, its first data line; 0 if none does.

    Each ``"\\n"``-ended piece is decoded on its own and split as
    ``str.splitlines`` splits it, so a header after a ``"\\r"`` in the same
    piece is found, and the piece goes before the cut whole.
    """
    start = 0
    while end := block.find(b"\n", start) + 1:
        if any(map(_is_data, block[start:end].decode().splitlines())):
            return end
        start = end
    return 0


def _header(line: str, line_no: int) -> tuple[int, int, int]:
    head = line.split()
    if len(head) != 3:
        raise ParseError(line_no, "expected header 'n m k'")
    n = _int(head[0], line_no, "n")
    m = _int(head[1], line_no, "m")
    k = _int(head[2], line_no, "k")
    if n < 0 or m < 1 or k < 0:
        raise ParseError(line_no, "need n >= 0, m >= 1, k >= 0")
    return n, m, k


def _block_data(block: bytes, line_base: int) -> tuple[list[str], Sequence[int], int]:
    """``(data, line_nos, count)`` for a block of whole lines, decoded as UTF-8.

    ``data`` are the block's lines that are neither blank nor comments,
    ``line_nos`` their line numbers, counted on after ``line_base``, and
    ``count`` the number of lines in the block.
    """
    lines = block.decode().splitlines()
    if b"#" not in block and all(map(str.strip, lines)):
        data, line_nos = lines, range(line_base + 1, line_base + len(lines) + 1)
    else:
        line_nos = [i for i, line in enumerate(lines, start=line_base + 1) if _is_data(line)]
        data = [lines[i - line_base - 1] for i in line_nos]
    return data, line_nos, len(lines)


def _rows(lines: list[str], line_nos: Sequence[int], fields: int) -> list[list]:
    """The columns of the point lines (``fields`` 3) or query lines (2) ``lines``, converted one line at a time.

    Each token is read by ``_number``.  The first line, in ``line_nos``
    order, with another field count or a token that no number reads raises
    its ``ParseError``.
    """
    cols = [[] for _ in range(fields)]
    for line_no, line in zip(line_nos, lines):
        toks = line.split()
        if len(toks) != fields:
            what = "ground-point line needs 'x y w'" if fields == 3 else "query line needs 'x y'"
            raise ParseError(line_no, f"{what}, got {len(toks)} fields")
        for col, tok in zip(cols, toks):
            col.append(_number(tok, line_no))
    return cols


def _parse(f) -> Instance:
    """Parse the instance file open for binary reading as ``f``; see ``parse``.

    While the header is unread, a block is cut after the header's piece
    (``_header_end``).  Every later piece whose lines all fall within the
    n + m data lines is tried as plain lines (``_plain_lines``): as many
    point lines as are still due, the rest query lines.  Any other piece
    takes the line path (``_block_data``, ``_rows``).  Each fault raises
    as its piece is read, and a piece's rows are converted before its
    extra data line is named, so the first fault in line order is the one
    raised.  Only a short file's count error waits for the file's end.
    """
    cols = tuple(array("q") for _ in range(5))  # the points' x, y and w, the queries' x and y
    n = m = -1  # until the header is read, so that no piece is tried as plain
    count = 0  # data lines after the header
    line_base = 0  # lines in the blocks before this one
    last_no = 0  # line number of the last data line
    for block in _whole_lines(iter(partial(f.read, _CHUNK), b"")):
        cut = _header_end(block) if n < 0 else 0
        for piece in filter(None, (block[:cut], block[cut:])):
            lines = piece.count(b"\n")
            plain = None
            if count + lines <= n + m:
                points = min(lines, max(0, n - count))
                plain = _plain_lines(piece, points, lines - points)
            if plain is not None:
                cols = tuple(map(_append, cols, plain))
                count += lines
                line_base = last_no = line_base + lines
                continue
            data, line_nos, lines = _block_data(piece, line_base)
            line_base += lines
            if not data:
                continue
            last_no = line_nos[-1]
            if n < 0:
                n, m, k = _header(data[0], line_nos[0])
                data, line_nos = data[1:], line_nos[1:]
            # data[:a] are point lines, data[a:b] query lines, anything after is extra
            a = max(0, min(len(data), n - count))
            b = min(len(data), n + m - count)
            count += len(data)
            rows = _rows(data[:a], line_nos[:a], 3) + _rows(data[a:b], line_nos[a:b], 2)
            if b < len(data):
                raise ParseError(line_nos[b], "unexpected extra data line")
            cols = tuple(map(_append, cols, rows))
    if n < 0:
        raise ParseError(1, "empty instance file")
    if count < n + m:
        raise ParseError(last_no, f"expected {n + m} data lines after the header, got {count}")
    # Each list column is dropped as its tuple replaces it, so the peak is
    # the finished columns plus one list, not two copies of all three.
    xs, ys, ws, qxs, qys = cols
    del cols
    xs = _column(xs)
    ys = _column(ys)
    ws = _column(ws)
    return Instance(PointColumns(xs, ys, ws), QueryColumns(qxs, qys), k)


def _append(col, values: list):
    """``col`` with ``values`` appended: an int64 array while every value fits, else a list.

    ``array.fromlist`` leaves the array unchanged when a value does not fit,
    so the list that replaces it holds every earlier value.
    """
    if isinstance(col, array):
        try:
            col.fromlist(values)
            return col
        except (TypeError, OverflowError):
            col = col.tolist()
    col.extend(values)
    return col


def parse_text(text: str) -> Instance:
    """Parse the text of an instance file: ``parse`` of its UTF-8 bytes.

    A str that UTF-8 cannot encode, such as one with a lone surrogate, even
    in a comment, raises ``UnicodeEncodeError`` (a ``ValueError``); no file
    can hold such text.
    """
    return _parse(io.BytesIO(text.encode()))


def parse(path) -> Instance:
    """Parse an instance file into point columns, streamed in blocks.

    The file is read as bytes, ``_CHUNK`` at a time, each chunk cut after
    its last newline into a block of whole lines (``_whole_lines``), as a
    split part reads its range (``point_batches``).  The block that holds
    the header is cut after the header's line (``_header_end``).  Each
    later piece whose lines all fall within the n + m data lines, and that
    holds plain lines of numbers, three a point line for as many point
    lines as are still due and then two a query line, is converted in one
    go from its bytes (``_plain_lines``).  Any other piece, such as the
    header's or one that holds a comment, a blank line, a run of blanks, a
    token such as ``+5``, ``007`` or ``.5``, or the file's last line
    without its newline, is decoded on its own as UTF-8, whatever the
    locale, its blank and comment lines are skipped and its data lines
    converted one line at a time (``_rows``).  The point values go straight
    into the x, y and w columns, the query values into the query x and y
    columns.  So the parser never holds the file text or a string per line
    beside the columns: its peak is the finished
    instance plus one chunk and one block's values, and, for a column that
    a decimal or a beyond-int64 value made a list, that list.  Values are
    those of parsing the whole text at once, with ``str.splitlines``' line
    breaks.  The first fault in line order raises where it is read, and no
    chunk past its piece is read: a bad header, field count or token, or
    an extra data line, as a ``ParseError`` naming its line, and an
    undecodable byte as ``UnicodeDecodeError`` when its piece is decoded.
    A file short of data lines raises the count error at its end.
    """
    with open(path, "rb") as f:
        return _parse(f)


# Point-line bytes below which ``point_ranges`` declines a parse in parts:
# under it, starting a second process costs more than half the parse and
# grid saves (measured in the README, "Parsing in parts").  Half of it is
# the fewest point-line bytes that a part of a split gets.
SPLIT_MIN_BYTES = 1 << 20
# Bytes read back from the end of the file per query line: room for two
# shortest-repr floats; a tail of longer lines is left to ``parse``.
_TAIL_BYTES_PER_QUERY = 64


def _read_header(f) -> tuple[tuple[int, int, int], int]:
    """``((n, m, k), end)`` off the first ``_CHUNK`` bytes of the binary file ``f``, ``end`` the byte after the header's piece.

    The header is found as ``parse`` finds it (``_header_end``).  A bad
    header, or none within those bytes, raises ``ParseError``.
    """
    head = f.read(_CHUNK)
    end = _header_end(head)
    data, line_nos, _ = _block_data(head[:end], 0)
    if not data:
        raise ParseError(0, "no header line within the first chunk")
    return _header(data[0], line_nos[0]), end


def point_ranges(path, parts: int):
    """``(n, queries, ranges)`` for parsing the point lines of an all-plain file in parts, or None.

    The header is read from the head of the file (``_read_header``) and the
    queries from its tail: the last m ``"\\n"``-ended lines, the last one
    with or without its newline, which ``_parse`` reads as a file of 0
    points and m query lines under the file's budget k.  ``queries`` is the
    instance it returns.  The bytes between the header line and the first
    query line, which should hold the n point lines, are cut after a newline
    into at most ``parts`` ``(start, stop)`` ranges of about equal size, and
    at most one per ``SPLIT_MIN_BYTES // 2`` of those bytes.
    None where the file, or its point lines, are smaller than
    ``SPLIT_MIN_BYTES`` or the tail read back (``_TAIL_BYTES_PER_QUERY``
    per query) holds fewer than m lines; a bad header, or a tail that is
    not m query lines, raises (``ParseError``, its line number not the
    file's).  ``parse`` then reads the file whole and reports what is wrong.
    Whether the ranges hold n point lines is for their parser to count
    (``point_batches``).
    """
    if os.stat(path).st_size < SPLIT_MIN_BYTES:
        return None
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        (n, m, k), start = _read_header(f)
        f.seek(max(start, size - _TAIL_BYTES_PER_QUERY * m))
        tail = f.read()
        cut = len(tail) - tail.endswith(b"\n")
        for _ in range(m):  # back to the newline before the last m lines
            cut = tail.rfind(b"\n", 0, cut)
            if cut < 0:
                return None
        tail = tail[cut + 1 :]
        queries = _parse(io.BytesIO(b"0 %d %d\n" % (m, k) + tail))
        stop = size - len(tail)
        if stop - start < max(SPLIT_MIN_BYTES, 1):
            return None
        if SPLIT_MIN_BYTES // 2:
            parts = min(parts, (stop - start) // (SPLIT_MIN_BYTES // 2))
        cuts = [start]
        for i in range(1, parts):
            f.seek(start + (stop - start) * i // parts)
            f.readline()
            cuts.append(min(f.tell(), stop))
    cuts.append(stop)
    return n, queries, [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def point_batches(path, start: int, stop: int) -> Iterator[Sequence[list]]:
    """The x, y and w values of the point lines in bytes ``[start, stop)`` of a file, one batch a block.

    The range must start and end at line starts.  It is read block by
    block as ``parse`` reads a file (``_whole_lines``), and each block is
    tried as plain point lines alone (``_plain_lines``) or else takes
    ``parse``'s line path (``_block_data``, ``_rows``), where every data
    line is a point line: the first malformed one raises ``ParseError``,
    with line numbers counted from the range's start.
    The batches hold every point line once, so their lengths add up to the
    range's data-line count.
    """
    line_base = 0  # lines in the blocks before this one
    with open(path, "rb") as f:
        f.seek(start)
        pieces = (f.read(min(_CHUNK, stop - at)) for at in range(start, stop, _CHUNK))
        for block in _whole_lines(pieces):
            lines = block.count(b"\n")
            columns = _plain_lines(block, lines, 0)
            if columns is None:
                data, line_nos, lines = _block_data(block, line_base)
                columns = _rows(data, line_nos, 3)
            yield columns[:3]
            line_base += lines


# A plain block's tabs as spaces, for its shape check.
_SPACES = bytes.maketrans(b"\t", b" ")
# Turns a plain block's spaces, tabs and newlines into the commas of a JSON array.
_COMMAS = bytes.maketrans(b" \t\n", b",,,")
# The one reader of plain blocks: a decoder and its scanner are built once, not per block.
_JSON = json.JSONDecoder(parse_float=_exact_decimal)


def _plain_lines(block: bytes, points: int, queries: int) -> tuple[list, ...] | None:
    """The columns x, y, w of ``points`` plain point lines and x, y of ``queries`` query lines after them, or None.

    ``block`` must be exactly those lines.  Plain lines are number tokens
    one space or tab apart, three a point line and two a query line, each
    line ended by ``"\\n"`` or ``"\\r\\n"``, and every token a JSON number:
    an optional minus sign, digits without a leading zero, then an optional
    fraction and exponent, such as ``-7``, ``0.25`` or ``1E+5``.  The block
    is checked and converted by C-level steps over its bytes alone: its
    ``"\\r\\n"`` pairs become ``"\\n"``; with its tabs as spaces and the
    digits, ``-``, ``.``, ``e``, ``E`` and ``+`` deleted it must be
    ``"  \\n"`` once per point line and then ``" \\n"`` once per query line;
    with its spaces, tabs and newlines turned into commas it must read as
    one JSON array of that many numbers (a last line without its newline
    adds tokens); and the values are split at ``3 * points``.  The array is
    read by the module's one decoder (``_JSON``), whose scanner is built
    once, not per block, from the block's ASCII text.  Such a block is
    neither decoded into line strings nor split into tokens.  Every
    token JSON reads, ``_number`` reads as the same value: an integer as
    ``int`` does, any other number by ``_exact_decimal``.  A block with a
    token that JSON refuses, such as ``007``, ``+5``, ``.5`` or ``5-3``, or
    that ``_exact_decimal`` refuses, such as ``1e400``, goes to the
    caller's line path (``_rows``), which reads the first three as
    ``_number`` does and names the line of the others.
    """
    if b"\r" in block:  # a byte scan: the pair search of ``replace`` costs about 50 times as much
        block = block.replace(b"\r\n", b"\n")  # a lone "\r" is left, to fail the shape check
    if block.translate(_SPACES, b"0123456789-.eE+") != b"  \n" * points + b" \n" * queries:
        return None
    try:
        values = _JSON.decode("[" + block.rstrip(b"\n").translate(_COMMAS).decode() + "]")
    except ValueError:  # ``007``, ``5-3``, ``1e400``, or a token over ``int``'s digit limit
        return None
    cut = 3 * points
    if len(values) != cut + 2 * queries:
        return None
    return values[0:cut:3], values[1:cut:3], values[2:cut:3], values[cut::2], values[cut + 1 :: 2]


def decimal_text(value) -> str:
    """The exact decimal text of ``value``, as a solve of a parsed file reports it; ``ValueError`` for 1/3."""
    num, den = value.as_integer_ratio()
    places = den.bit_length()  # 10**places is a multiple of any 2**a * 5**b up to den
    whole, rest = divmod(abs(num) * 10**places, den)
    if rest:
        raise ValueError(f"{value} has no finite decimal expansion")
    digits = str(_decimal()(whole)).rjust(places + 1, "0")  # ``str`` of an int stops at 4,300 digits
    text = f"{digits[:-places]}.{digits[-places:]}".rstrip("0").rstrip(".")
    return "-" + text if num < 0 else text


def _text(value) -> str:
    """``str(value)``, but a ``Fraction``'s exact decimal text, which ``parse`` reads back."""
    text = str(value)
    return decimal_text(value) if "/" in text else text


def serialize_blocks(inst: Instance) -> Iterator[str]:
    """The instance file of ``inst`` as text blocks, written from its point and query columns.

    The header, then ``_BATCH`` point lines per block, then ``_BATCH``
    query lines per block; every line ends with ``"\\n"``.  Numbers are
    written with ``str``, which for a float is its shortest round-trip
    representation; a ``Fraction``, such as a weight of ``cells.compress``,
    is written as its exact decimal text.  A column that is not an int64
    array is turned into these texts first, so each block is one ``%``
    format of its values, line by line.
    """
    yield f"{inst.n} {inst.m} {inst.k}\n"
    for cols in ((inst.P.xs, inst.P.ys, inst.P.ws), (inst.Q.xs, inst.Q.ys)):
        cols = [col if type(col) is array else list(map(_text, col)) for col in cols]
        line = " ".join(["%s"] * len(cols)) + "\n"
        for start in range(0, len(cols[0]), _BATCH):
            block = [col[start : start + _BATCH] for col in cols]
            yield (line * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def serialize_text(inst: Instance) -> str:
    """The instance file of ``inst`` as one string (``serialize_blocks``, joined)."""
    return "".join(serialize_blocks(inst))


def serialize(inst: Instance, path) -> None:
    """Write the instance file of ``inst`` to ``path`` a block at a time, as UTF-8 with ``"\\n"`` line ends on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(serialize_blocks(inst))


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic instance recipe; equal specs give byte-identical instances."""

    family: str
    n: int
    m: int
    k: int
    weights: tuple[int, int] = (-10, 10)
    seed: int = 0


def strict_skyline(coords: Iterable[tuple]) -> list[tuple]:
    """Distinct coordinates not strictly dominated by any other input point."""
    pts = sorted(set(coords), key=lambda c: (-c[0], -c[1]))
    out: list[tuple] = []
    best_y = None
    for x, y in pts:
        if best_y is None or y > best_y:
            out.append((x, y))
            best_y = y
    return sorted(out)


def _below(draws, bound: int) -> Iterator[int]:
    """``SplitMix64.below(bound)`` of each of ``draws``, by one C-level ``map``."""
    return map(mod, draws, repeat(bound))


def _randint(draws, lo: int, hi: int) -> Iterator[int]:
    """``SplitMix64.randint(lo, hi)`` of each of ``draws``."""
    return map(add, _below(draws, hi - lo + 1), repeat(lo))


def _coords(draws) -> array:
    return array("q", _below(draws, COORD_SPAN))


def _blocks(rng: SplitMix64, n: int, per_point: int) -> Iterator[array]:
    """The next ``per_point`` draws of each of ``n`` points, ``_BATCH`` points at a time.

    So a generator holds one block's draws beside its columns, not all of them.
    """
    for start in range(0, n, _BATCH):
        yield rng.draws(per_point * min(_BATCH, n - start))


def _queries(rng: SplitMix64, m: int) -> Iterator[tuple[int, int]]:
    d = rng.draws(2 * m)
    return zip(_coords(d[0::2]), _coords(d[1::2]))


def _gen_uniform(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    xs, ys, ws = array("q"), array("q"), []
    for d in _blocks(rng, spec.n, 3):  # x, y, w per point
        xs += _coords(d[0::3])
        ys += _coords(d[1::3])
        ws += _randint(d[2::3], *spec.weights)
    return Instance.from_columns(xs, ys, ws, _queries(rng, spec.m), spec.k)


def _gen_negative_mix(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    # nonzero weights with random sign, so mixed-sign corpora regardless of range
    magnitude = max(abs(spec.weights[0]), abs(spec.weights[1]), 1)
    xs, ys, ws = array("q"), array("q"), []
    for d in _blocks(rng, spec.n, 4):  # w, sign, x, y per point
        ws += map(mul, _randint(d[0::4], 1, magnitude), map((1, -1).__getitem__, _below(d[1::4], 2)))
        xs += _coords(d[2::4])
        ys += _coords(d[3::4])
    return Instance.from_columns(xs, ys, ws, _queries(rng, spec.m), spec.k)


def _gen_clustered(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    n_clusters = max(1, min(8, spec.m))
    spread = max(1, COORD_SPAN // 200)
    centers = rng.draws(2 * n_clusters)
    cxs, cys = _coords(centers[0::2]), _coords(centers[1::2])
    xs, ys, ws = array("q"), array("q"), []
    for d in _blocks(rng, spec.n, 4):  # cluster, dx, dy, w per point
        cluster = list(_below(d[0::4], n_clusters))
        xs.extend(map(add, map(cxs.__getitem__, cluster), _below(d[1::4], spread)))
        ys.extend(map(add, map(cys.__getitem__, cluster), _below(d[2::4], spread)))
        ws += _randint(d[3::4], *spec.weights)
    return Instance.from_columns(xs, ys, ws, _queries(rng, spec.m), spec.k)


def _gen_one_cell(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    """Every ground point inside one cell of a fixed staircase: maximal compression."""
    if spec.n < 1:
        raise ValueError("one-cell-adversarial needs n >= 1")
    step = 1000
    queries = [((t + 1) * step, (spec.m - t) * step) for t in range(spec.m)]
    xs, ys, weights = array("q"), array("q"), []
    for d in _blocks(rng, spec.n, 2):  # x, y per point
        xs.extend(_randint(d[0::2], 1, step - 1))
        ys.extend(_randint(d[1::2], 1, step - 1))
    for d in _blocks(rng, spec.n, 1):  # then every weight
        weights += _randint(d, *spec.weights)
    if sum(weights) == 0:
        weights[-1] += 1  # keep the single cell's total nonzero
    return Instance.from_columns(xs, ys, weights, queries, spec.k)


def _gen_skyline(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    """Unit weights with the queries placed on the ground set's own skyline.

    The query count comes from the data; ``spec.m`` is ignored here.
    """
    if spec.n < 1:
        raise ValueError("skyline-unit-weight needs n >= 1")
    xs, ys = array("q"), array("q")
    for d in _blocks(rng, spec.n, 2):  # x, y per point
        xs += _coords(d[0::2])
        ys += _coords(d[1::2])
    queries = strict_skyline(zip(xs, ys))
    return Instance.from_columns(xs, ys, [1] * spec.n, queries, min(spec.k, len(queries)))


_BUILDERS = {
    "uniform": _gen_uniform,
    "clustered": _gen_clustered,
    "one-cell-adversarial": _gen_one_cell,
    "skyline-unit-weight": _gen_skyline,
    "negative-mix": _gen_negative_mix,
}
FAMILIES = tuple(_BUILDERS)


def generate(spec: GeneratorSpec) -> Instance:
    """Deterministic instance of the requested family."""
    if spec.family not in _BUILDERS:
        raise ValueError(f"unknown family {spec.family!r}; known: {', '.join(FAMILIES)}")
    if not (0 <= spec.n <= MAX_N):
        raise ValueError(f"n out of range [0, {MAX_N}]")
    if not (1 <= spec.m <= MAX_M):
        raise ValueError(f"m out of range [1, {MAX_M}]")
    if spec.weights[0] > spec.weights[1]:
        raise ValueError("weight range is empty")
    return _BUILDERS[spec.family](spec, SplitMix64(spec.seed))
