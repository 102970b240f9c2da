"""Instance file format, parsing, and seeded generator families.

File format (decimal numbers, whitespace separated)::

    # full-line comments start with '#'; blank lines are ignored
    n m k
    x y w      <- n ground-point lines
    x y        <- m query lines; ids are assigned in file order

Integer instances round-trip byte-exactly; float coordinates round-trip
through shortest-exact decimal rendering.

The parser streams the file: it reads about 1 MiB of text at a time
(``_CHUNK``), cuts it after the last newline and converts its point lines
straight into the x, y and w columns of ``model.PointColumns``.  Each column
starts as an int64 ``array('q')`` and takes whole converted batches; the
first batch it cannot take (a float, or an int beyond int64) turns that
column alone into a list.  The parser holds one chunk and one batch, never
the whole text, a string per line or an ``int`` object per value, so on an
all-integer file its peak memory is the finished instance, 8 bytes a value,
plus that working set.  The generators build the same columns and the
serializer writes from them, so none of the three builds a per-point object.

Generators draw every number from SplitMix64, so the same spec yields a
byte-identical instance on every platform.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator

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


def _number(token: str, line_no: int) -> float:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"not a number: {token!r}") from None
    if not isfinite(value):
        raise ParseError(line_no, f"non-finite number: {token!r}")
    return value


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


# Characters read per chunk; a chunk is cut after its last newline, so the
# parser holds one chunk's text and lines at a time, never the whole file.
_CHUNK = 1 << 20
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


def _parse_blocks(blocks: Iterable[str]) -> Instance:
    """Parse an instance file given as blocks of whole lines, in file order.

    Each block's point lines are converted a batch at a time: a batch of
    three-field, all-integer lines in one ``map(int, ...)`` per column, any
    other batch line by line, which finds the first malformed line.  A wrong
    data-line count is reported in preference to a malformed line, so the
    first conversion error is held until the whole file has been counted.
    """
    xs, ys, ws = array("q"), array("q"), array("q")
    queries = []
    header = None
    count = 0  # data lines after the header
    last_no = 0  # line number of the last data line
    first_bad = None  # the first conversion error, raised once the count is right
    line_base = 0  # lines in the blocks before this one
    for block in blocks:
        lines = block.splitlines()
        if "#" not in block and all(map(str.strip, lines)):
            data, line_nos = lines, range(line_base + 1, line_base + len(lines) + 1)
        else:
            line_nos = [i for i, line in enumerate(lines, start=line_base + 1) if _is_data(line)]
            data = [lines[i - line_base - 1] for i in line_nos]
        line_base += len(lines)
        if not data:
            continue
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
            for start in range(0, a, _BATCH):
                stop = min(start + _BATCH, a)
                tx, ty, tw = [], [], []
                try:
                    for line in data[start:stop]:
                        x, y, w = line.split()
                        tx.append(x)
                        ty.append(y)
                        tw.append(w)
                    cols = list(map(int, tx)), list(map(int, ty)), list(map(int, tw))
                except ValueError:
                    cols = _point_rows(data[start:stop], line_nos[start:stop])
                xs = _append(xs, cols[0])
                ys = _append(ys, cols[1])
                ws = _append(ws, cols[2])
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
    a float or a beyond-int64 value made a list, that list.  Values and
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


def serialize_text(inst: Instance) -> str:
    """The instance file of ``inst``, written from its point columns.

    Numbers are written with ``str``, which for a float is its shortest
    round-trip representation.
    """
    P = inst.P
    lines = [f"{inst.n} {inst.m} {inst.k}"]
    lines.extend(map("{} {} {}".format, P.xs, P.ys, P.ws))
    lines.extend(f"{q.x} {q.y}" for q in inst.Q)
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
