"""Instance file format, parsing, and seeded generator families.

File format (decimal numbers, whitespace separated)::

    # full-line comments start with '#'; blank lines are ignored
    n m k
    x y w      <- n ground-point lines
    x y        <- m query lines; ids are assigned in file order

Every number is read exactly (``_number``): an integer token as an ``int``,
any other finite number, such as ``0.07`` or ``25e-2``, as a ``Decimal``.
Integer instances round-trip byte-exactly, and a float is written as its
shortest round-trip text, which reads back as exactly that decimal.

The parser streams the file (``parse``), converting its point lines a batch
at a time (``_batches``) straight into the columns of ``model.PointColumns``.
Each column starts as an int64 ``array('q')`` and takes whole converted
batches; the first batch it cannot take (a decimal, or an int beyond int64)
turns that column alone into a list.  The generators build the same columns
and the serializer writes from them, so none of the three builds a
per-point object.

``point_ranges`` and ``point_batches`` let ``maxdom solve`` parse a large
file's point lines in parts: the header and the queries are read from the
file's head and tail, and each byte range of point lines goes through the
same data-line filter and batch conversion (``_data_lines``, ``_batches``)
as ``parse``, which hands its batches to the caller instead of keeping them.

Generators draw every number from SplitMix64, so the same spec yields a
byte-identical instance on every platform.
"""

from __future__ import annotations

import codecs
import os
import sys
from array import array
from dataclasses import dataclass
from functools import cache, partial
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .model import Instance, _column
from .prng import SplitMix64

COORD_SPAN = 1_000_000
MAX_N = 5_000_000
MAX_M = 100_000

FAMILIES = (
    "uniform",
    "clustered",
    "one-cell-adversarial",
    "skyline-unit-weight",
    "negative-mix",
)


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


def _number(token: str, line_no: int):
    """``token`` as an int, or else exactly as a ``Decimal`` where ``float`` reads it as a finite number.

    A nonzero token that ``float`` rounds to 0 is refused: read exactly,
    ``1e-99999999`` would scale the weights by 10**99999999.  So is an integer
    token over ``int``'s digit limit, which ``Decimal`` would read only slowly.
    """
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"not a number: {token!r}") from None
    if not isfinite(value):
        digits = token.lstrip("+-")
        if digits.isdigit():  # refused by ``int`` for its length alone
            limit = sys.get_int_max_str_digits()
            raise ParseError(line_no, f"integer of {len(digits)} digits, over the int-string limit of {limit}")
        raise ParseError(line_no, f"non-finite number: {token!r}")
    number = _decimal()(token)
    if number and not value:
        raise ParseError(line_no, f"nonzero number too small for a float: {token!r}")
    return number


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


# Characters read per chunk; a chunk is cut after its last newline, so the
# parser holds one chunk's text and lines at a time, never the whole file.
# Reading point lines at 64 KiB a chunk peaks at about 1.8 MB of traced
# memory (chunk, lines and one batch), against 8.7 MB at 1 MiB, and parses
# no slower (n-heavy's 16 MB file: 0.63-0.70 s of CPU at 64 KiB against
# 0.64-0.72 s at 1 MiB, x86-64, CPython 3.11).
_CHUNK = 1 << 16
# Point lines converted per batch; bounds the token strings alive at once.
_BATCH = 4096


def _is_data(line: str) -> bool:
    line = line.strip()
    return bool(line) and not line.startswith("#")


def _whole_lines(pieces: Iterable[str]) -> Iterator[str]:
    """Re-cut text pieces so that each one ends with a newline (the last one
    may not): ``str.splitlines`` of the blocks, concatenated, gives the lines
    of the whole text."""
    rest = ""
    for piece in pieces:
        text = rest + piece
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


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


def _data_lines(blocks: Iterable[str]) -> Iterator[tuple[list[str], Sequence[int]]]:
    """``(data, line_nos)`` for each block of whole lines that holds data lines.

    ``data`` are the block's lines that are neither blank nor comments and
    ``line_nos`` their line numbers, counted from the first block.
    """
    line_base = 0  # lines in the blocks before this one
    for block in blocks:
        lines = block.splitlines()
        if "#" not in block and all(map(str.strip, lines)):
            data, line_nos = lines, range(line_base + 1, line_base + len(lines) + 1)
        else:
            line_nos = [i for i, line in enumerate(lines, start=line_base + 1) if _is_data(line)]
            data = [lines[i - line_base - 1] for i in line_nos]
        line_base += len(lines)
        if data:
            yield data, line_nos


def _batches(data: list[str], line_nos: Sequence[int], stop: int) -> Iterator[tuple[list, list, list]]:
    """The x, y and w values of the point lines ``data[:stop]``, one batch of lines at a time.

    A batch of three-field, all-integer lines is converted in one
    ``map(int, ...)`` per column, any other batch line by line, which finds
    the first malformed line.
    """
    for start in range(0, stop, _BATCH):
        end = min(start + _BATCH, stop)
        tx, ty, tw = [], [], []
        try:
            for line in data[start:end]:
                x, y, w = line.split()
                tx.append(x)
                ty.append(y)
                tw.append(w)
            batch = list(map(int, tx)), list(map(int, ty)), list(map(int, tw))
        except ValueError:
            batch = _point_rows(data[start:end], line_nos[start:end])
        yield batch


def _parse_blocks(blocks: Iterable[str]) -> Instance:
    """Parse an instance file given as blocks of whole lines, in file order.

    Each block's point lines are converted by ``_batches`` and appended to
    the columns.
    A wrong data-line count is reported in preference to a malformed line,
    so the first conversion error is held until the whole file has been
    counted.
    """
    cols = array("q"), array("q"), array("q")
    queries = []
    header = None
    count = 0  # data lines after the header
    last_no = 0  # line number of the last data line
    first_bad = None  # the first conversion error, raised once the count is right
    for data, line_nos in _data_lines(blocks):
        last_no = line_nos[-1]
        if header is None:
            n, m, k = header = _header(data[0], line_nos[0])
            data, line_nos = data[1:], line_nos[1:]
        # data[:a] are point lines, data[a:b] query lines, anything after is extra
        a = max(0, min(len(data), n - count))
        b = max(0, min(len(data), n + m - count))
        if b < len(data):
            raise ParseError(line_nos[b], "unexpected extra data line")
        count += len(data)
        if first_bad is not None:
            continue
        try:
            for batch in _batches(data, line_nos, a):
                cols = tuple(map(_append, cols, batch))
            for line_no, line in zip(line_nos[a:b], data[a:b]):
                toks = line.split()
                if len(toks) != 2:
                    raise ParseError(line_no, f"query line needs 'x y', got {len(toks)} fields")
                queries.append(tuple(_number(t, line_no) for t in toks))
        except ParseError as exc:
            first_bad = exc
    if header is None:
        raise ParseError(1, "empty instance file")
    if count < n + m:
        raise ParseError(last_no, f"expected {n + m} data lines after the header, got {count}")
    if first_bad is not None:
        raise first_bad
    # Each list column is dropped as its tuple replaces it, so the peak is
    # the finished columns plus one list, not two copies of all three.
    xs, ys, ws = cols
    del cols
    xs = _column(xs)
    ys = _column(ys)
    ws = _column(ws)
    return Instance.from_columns(xs, ys, ws, queries, k)


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


def _point_rows(lines: list[str], line_nos) -> tuple[list, list, list]:
    """x, y and w columns of point lines, converted one line at a time."""
    cols = [], [], []
    for line_no, line in zip(line_nos, lines):
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(line_no, f"ground-point line needs 'x y w', got {len(toks)} fields")
        for col, tok in zip(cols, toks):
            col.append(_number(tok, line_no))
    return cols


def parse_text(text: str) -> Instance:
    """Parse the text of an instance file; see ``parse``."""
    return _parse_blocks(_whole_lines(text[i : i + _CHUNK] for i in range(0, len(text), _CHUNK)))


def parse(path) -> Instance:
    """Parse an instance file into point columns, streamed in chunks.

    The file is read ``_CHUNK`` characters at a time in text mode, each
    chunk cut after its last newline, and every chunk's point lines go
    straight into the x, y and w columns.  So the parser never holds the
    file text or a string per line beside the columns: its peak is the
    finished instance plus one chunk and one batch, and, for a column that
    a decimal or a beyond-int64 value made a list, that list.  Values and
    ``ParseError``s are those of parsing the whole text at once.
    """
    with open(path) as f:
        pieces = iter(partial(f.read, _CHUNK), "")
        try:
            return _parse_blocks(_whole_lines(pieces))
        except ParseError:
            for _ in pieces:  # an undecodable byte later in the file still wins
                pass
            raise


# Point-line bytes below which ``point_ranges`` declines a parse in parts:
# under it, starting a second process costs more than half the parse and
# grid saves (measured in the README, "Parsing in parts").
SPLIT_MIN_BYTES = 1 << 20
# Bytes read back from the end of the file per query line: room for two
# shortest-repr floats; a tail of longer lines is left to ``parse``.
_TAIL_BYTES_PER_QUERY = 64


def point_ranges(path, parts: int):
    """``(n, queries, ranges)`` for parsing the point lines of an all-plain file in parts, or None.

    The header is read from the head of the file and the queries from its
    tail: the last m lines, which must all be query lines, each with two
    numbers, the last one with or without a final newline.  ``queries`` is
    the instance of those queries with no points and the file's k.  The
    bytes between the header line and the first query line, which should
    hold the n point lines, are cut after a newline into at most ``parts``
    ``(start, stop)`` ranges of about equal size.  None where the file, or
    its point lines, are smaller than ``SPLIT_MIN_BYTES``, the file's text
    encoding is not UTF-8, the header is not within the first ``_CHUNK``
    bytes or anything above does not hold; ``parse`` then reads the file
    whole and reports what is wrong.  Whether the ranges hold n point lines
    is for their parser to count (``point_batches``).
    """
    if os.stat(path).st_size < SPLIT_MIN_BYTES:
        return None
    with open(path) as text:  # the encoding ``parse`` reads the file with
        if codecs.lookup(text.encoding).name != "utf-8":
            return None
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        start = 0  # the end of the header line
        header = None
        while header is None:  # only the lines up to the header are read and decoded
            raw = f.readline(_CHUNK - start)
            if not raw.endswith(b"\n"):  # the file or its first ``_CHUNK`` bytes end first
                return None
            # ``parse``'s lines: ``str.splitlines`` also breaks at "\r" and a few other characters
            for line in raw.decode().splitlines(True):
                start += len(line.encode())
                if _is_data(line):
                    header = _header(line, 0)  # a bad header raises; ``parse`` names its line
                    break
        n, m, k = header
        f.seek(max(start, size - _TAIL_BYTES_PER_QUERY * m))
        tail = f.read()
        cut = len(tail) - tail.endswith(b"\n")
        for _ in range(m):  # back to the newline before the last m lines
            cut = tail.rfind(b"\n", 0, cut)
            if cut < 0:
                return None
        tail = tail[cut + 1 :]
        rows = [line.split() for line in tail.decode().splitlines()]
        if len(rows) != m or any(len(toks) != 2 for toks in rows):  # a comment fails as a number
            return None
        queries = Instance.from_columns((), (), (), [[_number(t, 0) for t in toks] for toks in rows], k)
        stop = size - len(tail)
        if stop - start < max(SPLIT_MIN_BYTES, 1):
            return None
        cuts = [start]
        for i in range(1, parts):
            f.seek(start + (stop - start) * i // parts)
            f.readline()
            cuts.append(min(f.tell(), stop))
    cuts.append(stop)
    return n, queries, [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def point_batches(path, start: int, stop: int) -> Iterator[tuple[list, list, list]]:
    """The x, y and w values of the point lines in bytes ``[start, stop)`` of a file, a batch at a time.

    The range must start and end at line starts.  It is read ``_CHUNK``
    bytes at a time and decoded as UTF-8; its blank and comment lines are
    skipped and every other line is converted as a point line by the same
    code as in ``parse`` (``_batches``), which raises ``ParseError`` (with
    line numbers counted from the range's start) for the first malformed
    one.  The batches hold every point line once, so their lengths add up
    to the range's data-line count.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    with open(path, "rb") as f:
        f.seek(start)
        pieces = (decode(f.read(min(_CHUNK, stop - at))) for at in range(start, stop, _CHUNK))
        for data, line_nos in _data_lines(_whole_lines(pieces)):
            yield from _batches(data, line_nos, len(data))


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


def serialize_text(inst: Instance) -> str:
    """The instance file of ``inst``, written from its point columns.

    Numbers are written with ``str``, which for a float is its shortest
    round-trip representation; a ``Fraction``, such as a weight of
    ``cells.compress``, is written as its exact decimal text.
    """
    P = inst.P
    cols = [col if type(col) is array else list(map(_text, col)) for col in (P.xs, P.ys, P.ws)]
    lines = [f"{inst.n} {inst.m} {inst.k}"]
    lines.extend(map("{} {} {}".format, *cols))
    lines.extend(f"{_text(q.x)} {_text(q.y)}" for q in inst.Q)
    return "\n".join(lines) + "\n"


def serialize(inst: Instance, path) -> None:
    Path(path).write_text(serialize_text(inst))


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


def _gen_uniform(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    lo, hi = spec.weights
    xs, ys, ws = [], [], []
    for _ in range(spec.n):
        xs.append(rng.below(COORD_SPAN))
        ys.append(rng.below(COORD_SPAN))
        ws.append(rng.randint(lo, hi))
    queries = [(rng.below(COORD_SPAN), rng.below(COORD_SPAN)) for _ in range(spec.m)]
    return Instance.from_columns(xs, ys, ws, queries, spec.k)


def _gen_negative_mix(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    # nonzero weights with random sign, so mixed-sign corpora regardless of range
    magnitude = max(abs(spec.weights[0]), abs(spec.weights[1]), 1)
    xs, ys, ws = [], [], []
    for _ in range(spec.n):
        w = rng.randint(1, magnitude)
        if rng.below(2):
            w = -w
        xs.append(rng.below(COORD_SPAN))
        ys.append(rng.below(COORD_SPAN))
        ws.append(w)
    queries = [(rng.below(COORD_SPAN), rng.below(COORD_SPAN)) for _ in range(spec.m)]
    return Instance.from_columns(xs, ys, ws, queries, spec.k)


def _gen_clustered(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    lo, hi = spec.weights
    n_clusters = max(1, min(8, spec.m))
    spread = max(1, COORD_SPAN // 200)
    centers = [(rng.below(COORD_SPAN), rng.below(COORD_SPAN)) for _ in range(n_clusters)]
    xs, ys, ws = [], [], []
    for _ in range(spec.n):
        cx, cy = centers[rng.below(n_clusters)]
        xs.append(cx + rng.below(spread))
        ys.append(cy + rng.below(spread))
        ws.append(rng.randint(lo, hi))
    queries = [(rng.below(COORD_SPAN), rng.below(COORD_SPAN)) for _ in range(spec.m)]
    return Instance.from_columns(xs, ys, ws, queries, spec.k)


def _gen_one_cell(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    """Every ground point inside one cell of a fixed staircase: maximal compression."""
    if spec.n < 1:
        raise ValueError("one-cell-adversarial needs n >= 1")
    lo, hi = spec.weights
    step = 1000
    queries = [((t + 1) * step, (spec.m - t) * step) for t in range(spec.m)]
    coords = [(1 + rng.below(step - 1), 1 + rng.below(step - 1)) for _ in range(spec.n)]
    weights = [rng.randint(lo, hi) for _ in range(spec.n)]
    if sum(weights) == 0:
        weights[-1] += 1  # keep the single cell's total nonzero
    return Instance.from_columns(
        [x for x, _ in coords], [y for _, y in coords], weights, queries, spec.k
    )


def _gen_skyline(spec: GeneratorSpec, rng: SplitMix64) -> Instance:
    """Unit weights with the queries placed on the ground set's own skyline.

    The query count comes from the data; ``spec.m`` is ignored here.
    """
    if spec.n < 1:
        raise ValueError("skyline-unit-weight needs n >= 1")
    coords = [(rng.below(COORD_SPAN), rng.below(COORD_SPAN)) for _ in range(spec.n)]
    queries = strict_skyline(coords)
    return Instance.from_columns(
        [x for x, _ in coords], [y for _, y in coords], [1] * spec.n, queries,
        min(spec.k, len(queries)),
    )


_BUILDERS = {
    "uniform": _gen_uniform,
    "clustered": _gen_clustered,
    "one-cell-adversarial": _gen_one_cell,
    "skyline-unit-weight": _gen_skyline,
    "negative-mix": _gen_negative_mix,
}


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
