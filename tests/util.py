"""Shared builders for the test suite."""

import hypothesis.strategies as st

from maxdom.cells import CellGrid, CellKey, _strips
from maxdom.model import Instance, dominates_closed
from maxdom.prng import SplitMix64
from maxdom.ranking import y_sorted_queries


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


def assign_cells(inst: Instance) -> list[CellKey]:
    """Cell key for every ground point; requires drop_uncovered beforehand."""
    n = len(inst.P)
    keys: list[CellKey] = [CellKey(0, 0)] * n
    for row, slots, indices in _strips(inst, range(n), y_sorted_queries(inst)):
        for slot, idx in zip(slots, indices):
            if slot == row:
                raise ValueError("point covered by no query; run drop_uncovered first")
            keys[idx] = CellKey(row, slot + 1)
    return keys


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
