"""Shared builders for the test suite."""

from fractions import Fraction
from itertools import combinations
from math import lcm

import hypothesis.strategies as st

from maxdom.cells import CellGrid, CellKey
from maxdom.model import Instance, dominates_closed
from maxdom.prng import SplitMix64


def random_instance(rng: SplitMix64, *, max_n=40, max_m=8, span=20, wlo=-10, whi=10,
                    n=None, m=None, k=None):
    m = m if m is not None else rng.randint(1, max_m)
    n = n if n is not None else rng.randint(0, max_n)
    k = k if k is not None else rng.randint(0, m)
    P = [(rng.below(span), rng.below(span), rng.randint(wlo, whi)) for _ in range(n)]
    Q = [(rng.below(span), rng.below(span)) for _ in range(m)]
    return Instance.from_rows(P, Q, k)


@st.composite
def small_instances(draw, max_n=25, max_m=6, span=12, max_w=10):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(0, m))
    coord = st.integers(0, span)
    P = [(draw(coord), draw(coord), draw(st.integers(-max_w, max_w))) for _ in range(n)]
    Q = [(draw(coord), draw(coord)) for _ in range(m)]
    return Instance.from_rows(P, Q, k)


@st.composite
def tie_instances(draw):
    """All-int instances with at least one point and many ties: repeated query
    x- and y-values, points on a query's x or y line, negative coordinates and
    points above or right of every query."""
    span = draw(st.integers(1, 8))
    coord = st.integers(-span, span)
    m = draw(st.integers(1, 40))
    Q = [(draw(coord), draw(coord)) for _ in range(m)]
    qx = st.sampled_from([x for x, _ in Q])
    qy = st.sampled_from([y for _, y in Q])
    beyond = st.integers(span + 1, span + 3)  # above or right of every query
    P = [
        (draw(coord | qx | beyond), draw(coord | qy | beyond), draw(st.integers(-9, 9)))
        for _ in range(draw(st.integers(1, 60)))
    ]
    return Instance.from_rows(P, Q, draw(st.integers(0, m)))


def _brute_row_slot(inst: Instance, p) -> tuple[int, int]:
    """``(row, slot)`` of point ``p``: the queries at or above it, and those of them strictly left of it."""
    above = [q for q in inst.Q if q.y >= p.y]
    return len(above), sum(1 for q in above if q.x < p.x)


def assign_cells(inst: Instance) -> list[CellKey]:
    """Cell key for every ground point, by brute force; requires drop_uncovered beforehand.

    A point's row counts the queries at or above it, and its slot those of
    them strictly left of it; it is covered iff the slot is below the row.
    """
    keys: list[CellKey] = []
    for p in inst.P:
        row, slot = _brute_row_slot(inst, p)
        if slot == row:
            raise ValueError("point covered by no query; run drop_uncovered first")
        keys.append(CellKey(row, slot + 1))
    return keys


def reference_grid(inst: Instance) -> CellGrid:
    """The cell grid by brute force: each covered point's weight added to its cell as a ``Fraction``.

    The grid keeps each cell's sum times the least common denominator of all
    the weights, its scale, as an int.  Uncovered points are skipped, so any
    instance will do; ``stair`` is left empty, as it is not compared.
    """
    scale = lcm(*(Fraction(p.w).denominator for p in inst.P))
    sums: dict[CellKey, Fraction] = {}
    retained = 0
    for p in inst.P:
        row, slot = _brute_row_slot(inst, p)
        if slot < row:
            key = CellKey(row, slot + 1)
            sums[key] = sums.get(key, 0) + Fraction(p.w)
            retained += 1
    per_row = tuple(
        tuple((col, int(w * scale)) for (r, col), w in sorted(sums.items()) if r == row)
        for row in range(1, inst.m + 1)
    )
    return CellGrid(inst.m, per_row, retained, scale)


def exact_cells(grid: CellGrid) -> dict[CellKey, Fraction]:
    """Each cell's sum of weights: its int total divided by the grid's scale."""
    return {key: Fraction(w, grid.scale) for key, w in grid.cells.items()}


def brute_force_optimum(text: str) -> Fraction:
    """The optimum of an instance file's text, read and summed as ``Fraction``s.

    Shares no code with ``maxdom``: every token is read by ``Fraction``, and
    every pick set of at most k queries is tried, its covered weight summed
    exactly.  For files without comments or blank lines.
    """
    rows = [line.split() for line in text.splitlines()]
    n, m, k = map(int, rows[0])
    points = [tuple(map(Fraction, row)) for row in rows[1 : n + 1]]
    queries = [tuple(map(Fraction, row)) for row in rows[n + 1 : n + m + 1]]
    # the points that exactly the same queries cover are summed once
    groups: dict[int, Fraction] = {}
    for x, y, w in points:
        mask = sum(1 << i for i, (qx, qy) in enumerate(queries) if x <= qx and y <= qy)
        if mask:
            groups[mask] = groups.get(mask, 0) + w
    best = Fraction(0)
    for size in range(1, min(k, m) + 1):
        for combo in combinations(range(m), size):
            picked = sum(1 << i for i in combo)
            best = max(best, sum(w for mask, w in groups.items() if mask & picked))
    return best


# Decimal tokens for the files of ``decimal_instance_files``.  Coordinates
# include values that one float cannot tell apart, such as 0.1 and
# 0.10000000000000000001, and one value written in several ways.
DECIMAL_COORDS = (
    "0", "1", "1.0", "10e-1", "0.1", "0.10000000000000000001", "0.09999999999999999999",
    "0.25", "25e-2", "2.5", "-0.5", "-5e-1", "3",
)


@st.composite
def decimal_weights(draw) -> str:
    """A weight token: hundredths, quarter steps, an exponent form or an int, of either sign."""
    sign = draw(st.sampled_from(("", "-")))
    units = draw(st.integers(0, 1000))
    form = draw(st.sampled_from(("hundredths", "quarters", "exponent", "int")))
    if form == "hundredths":
        return f"{sign}{units // 100}.{units % 100:02d}"
    if form == "quarters":
        return f"{sign}{units // 4}.{(units % 4) * 25:02d}"
    if form == "exponent":
        return f"{sign}{units}e-{draw(st.integers(0, 3))}"
    return f"{sign}{units // 10}"


@st.composite
def decimal_instance_files(draw, max_n=12, max_m=5) -> str:
    """The text of an instance file with decimal weights and coordinates, ties among them."""
    m = draw(st.integers(1, max_m))
    coord = st.sampled_from(DECIMAL_COORDS)
    queries = [(draw(coord), draw(coord)) for _ in range(m)]
    # points on the queries' own lines as well as anywhere
    x = coord | st.sampled_from([qx for qx, _ in queries])
    y = coord | st.sampled_from([qy for _, qy in queries])
    points = [(draw(x), draw(y), draw(decimal_weights())) for _ in range(draw(st.integers(0, max_n)))]
    lines = [f"{len(points)} {m} {draw(st.integers(0, m))}"]
    lines += [" ".join(row) for row in points + queries]
    return "\n".join(lines) + "\n"


def same_dominators_check(grid: CellGrid, inst: Instance, max_work: int = 10**6) -> bool:
    """Exhaustively confirm that the points of each cell share one cover set.

    Verification helper, quadratic on purpose; refuses oversized instances.
    """
    if len(inst.P) * max(1, inst.m) > max_work:
        raise ValueError("instance too large for the exhaustive dominator check")
    keys = assign_cells(inst)
    seen: dict[CellKey, frozenset[int]] = {}
    for key, p in zip(keys, inst.P):
        if key not in grid.cells:
            return False
        covers = frozenset(q.id for q in inst.Q if dominates_closed(q, p))
        if seen.setdefault(key, covers) != covers:
            return False
    return True
