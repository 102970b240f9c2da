"""Shared builders for the test suite."""

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
    """The cell grid by brute force: each covered point's weight added to its cell in input order.

    Uncovered points are skipped, so any instance will do; ``stair`` is left
    empty, as it is not compared.
    """
    cells: dict[CellKey, float] = {}
    retained = 0
    for p in inst.P:
        row, slot = _brute_row_slot(inst, p)
        if slot < row:
            key = CellKey(row, slot + 1)
            cells[key] = cells.get(key, 0) + p.w
            retained += 1
    per_row = tuple(
        tuple((col, w) for (r, col), w in sorted(cells.items()) if r == row) for row in range(1, inst.m + 1)
    )
    return CellGrid(inst.m, cells, per_row, retained)


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
