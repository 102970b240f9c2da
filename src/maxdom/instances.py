"""Instance file format, parsing, and seeded generator families.

File format (decimal numbers, whitespace separated)::

    # full-line comments start with '#'; blank lines are ignored
    n m k
    x y w      <- n ground-point lines
    x y        <- m query lines; ids are assigned in file order

Integer instances round-trip byte-exactly; float coordinates round-trip
through shortest-exact decimal rendering.

The parser reads the ground points straight into the x, y and w columns of
``model.PointColumns``, the generators build those columns, and the
serializer writes from them, so none of the three builds a per-point object.

Generators draw every number from SplitMix64, so the same spec yields a
byte-identical instance on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Iterable

from .model import Instance
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


# Point lines converted per batch; bounds the token strings alive at once.
_BATCH = 4096


def _is_data(line: str) -> bool:
    line = line.strip()
    return bool(line) and not line.startswith("#")


def parse_text(text: str) -> Instance:
    """Parse an instance file into point columns.

    The point lines are converted a batch at a time: a batch of three-field,
    all-integer lines in one ``map(int, ...)`` per column, any other batch
    line by line, which reports the first malformed line.
    """
    lines = text.splitlines()
    if "#" not in text and all(map(str.strip, lines)):
        data, line_nos = lines, range(1, len(lines) + 1)
    else:
        line_nos = [i for i, line in enumerate(lines, start=1) if _is_data(line)]
        data = [lines[i - 1] for i in line_nos]
    if not data:
        raise ParseError(1, "empty instance file")
    head_no, head = line_nos[0], data[0].split()
    if len(head) != 3:
        raise ParseError(head_no, "expected header 'n m k'")
    n = _int(head[0], head_no, "n")
    m = _int(head[1], head_no, "m")
    k = _int(head[2], head_no, "k")
    if n < 0 or m < 1 or k < 0:
        raise ParseError(head_no, "need n >= 0, m >= 1, k >= 0")
    if len(data) - 1 < n + m:
        raise ParseError(line_nos[-1], f"expected {n + m} data lines after the header, got {len(data) - 1}")
    if len(data) - 1 > n + m:
        raise ParseError(line_nos[1 + n + m], "unexpected extra data line")
    xs, ys, ws = [], [], []
    for start in range(1, n + 1, _BATCH):
        stop = min(start + _BATCH, n + 1)
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
        xs.extend(cols[0])
        ys.extend(cols[1])
        ws.extend(cols[2])
    queries = []
    for line_no, line in zip(line_nos[1 + n :], data[1 + n :]):
        toks = line.split()
        if len(toks) != 2:
            raise ParseError(line_no, f"query line needs 'x y', got {len(toks)} fields")
        queries.append(tuple(_number(t, line_no) for t in toks))
    return Instance.from_columns(xs, ys, ws, queries, k)


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


def parse(path) -> Instance:
    return parse_text(Path(path).read_text())


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
