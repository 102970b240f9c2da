"""Shared builders for the test suite."""

import sys
from bisect import bisect_left
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, combinations, groupby, repeat
from math import comb, isfinite, lcm
from operator import add, attrgetter, mul

import hypothesis.strategies as st

from maxdom.cells import CellGrid, CellKey, _root
from maxdom.instances import COORD_SPAN, GeneratorSpec, strict_skyline
from maxdom.model import Instance, Solution, covered_total, dominates_closed, exact
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
def tie_instances(draw, max_m=40, max_n=60):
    """All-int instances with at least one point and many ties: repeated query
    x- and y-values, points on a query's x or y line, negative coordinates and
    points above or right of every query."""
    span = draw(st.integers(1, 8))
    coord = st.integers(-span, span)
    m = draw(st.integers(1, max_m))
    Q = [(draw(coord), draw(coord)) for _ in range(m)]
    qx = st.sampled_from([x for x, _ in Q])
    qy = st.sampled_from([y for _, y in Q])
    beyond = st.integers(span + 1, span + 3)  # above or right of every query
    P = [
        (draw(coord | qx | beyond), draw(coord | qy | beyond), draw(st.integers(-9, 9)))
        for _ in range(draw(st.integers(1, max_n)))
    ]
    return Instance.from_rows(P, Q, draw(st.integers(0, m)))


@st.composite
def staircase_instances(draw, max_m=30, max_n=150):
    """All-int instances on a tall staircase: queries on an anti-diagonal,
    some sharing an x or a y, and many points per strip, so that a strip
    holds many keys and several of them fall in one cell."""
    m = draw(st.integers(1, max_m))
    xs = sorted(draw(st.lists(st.integers(0, m), min_size=m, max_size=m)))
    ys = sorted(draw(st.lists(st.integers(0, m), min_size=m, max_size=m)), reverse=True)
    coord = st.integers(-1, m + 1)
    P = [(draw(coord), draw(coord), draw(st.integers(-9, 9))) for _ in range(draw(st.integers(1, max_n)))]
    return Instance.from_rows(P, list(zip(xs, ys)), draw(st.integers(0, m)))


def reference_sum_cells(Q, qx, batches) -> tuple[tuple, int, int]:
    """``cells._sum_cells`` with each strip's cells summed in a dict and sorted, strips grouped by
    ``groupby``: the reference that the one ascending walk over the keys must match."""
    m = len(Q)
    ys_asc, xs_asc = sorted(Q.ys), sorted(Q.xs)
    width = m + 1
    sums: dict[int, int] = {}
    counts: Counter = Counter()
    for xs, ys, ws in batches:
        strips = map(bisect_left, repeat(ys_asc), ys)
        keys = list(map(add, map(mul, strips, repeat(width)), map(bisect_left, repeat(xs_asc), xs)))
        counts.update(keys)
        for key, w in zip(keys, ws):
            sums[key] = sums.get(key, 0) + w
    per_row: list[tuple[tuple[int, int], ...]] = [()] * m
    retained = 0
    after = list(range(width))
    done = m
    for strip, keys in groupby(sorted(sums), key=lambda key: key // width):
        row = m - strip
        for x in qx[row + 1 : done + 1]:
            after[x // 2 - 1] = x // 2
        done = row
        cells: dict[int, int] = {}
        for key in keys:
            j = _root(after, key % width)
            if j < m:
                col = 2 * j + 2
                cells[col] = cells.get(col, 0) + sums[key]
                retained += counts[key]
        if cells:
            per_row[row - 1] = tuple(sorted(cells.items()))
    return tuple(per_row), retained, counts.total()


def float_checked_decimal(token: str):
    """``token`` as a ``Decimal``, every token read by ``float`` first: the reference that
    ``instances._exact_decimal``'s ``Decimal``-first reading must match in value and in error."""
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not isfinite(value):
        digits = token.lstrip("+-")
        if digits.isdigit():
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"integer of {len(digits)} digits, over the int-string limit of {limit}")
        raise ValueError(f"non-finite number: {token!r}")
    try:
        number = Decimal(token)
    except ArithmeticError:
        raise ValueError(f"exponent out of range: {token!r}") from None
    if number and not value:
        raise ValueError(f"nonzero number too small for a float: {token!r}")
    return number


def reference_y_sorted_queries(inst: Instance) -> tuple:
    """The query objects by decreasing ``(y, id)``, sorted by attribute: the reference that
    ``ranking.staircase``'s order and ``ranking.y_sorted_queries`` must match."""
    return tuple(sorted(inst.Q, key=attrgetter("y", "id"), reverse=True))


def reference_x_ranks(stair) -> list[int]:
    """``[0, x_1, ..., x_m, 2m + 2]``: the rank x's by ``(x, id)`` of the query objects ``stair``, in its
    order, sentinel last, through Python lists: the reference for ``ranking.staircase``'s rank x's."""
    keys = [(q.x, q.id) for q in stair]
    ranks = [0] * len(stair)
    for rank, t in enumerate(sorted(range(len(stair)), key=keys.__getitem__), start=1):
        ranks[t] = 2 * rank
    return [0, *ranks, 2 * len(stair) + 2]


def _brute_row_col(inst: Instance, p) -> tuple[int, int | None]:
    """``(row, col)`` of point ``p``, col None where no query covers it.

    The row counts the queries at or above ``p``.  Of those, the ones with
    x at least ``p``'s cover it, and the one of them with the smallest
    ``(x, id)`` names the cell: 2 * (1 + the number of queries, above or
    not, with a smaller ``(x, id)``).
    """
    above = [q for q in inst.Q if q.y >= p.y]
    covering = [(q.x, q.id) for q in above if q.x >= p.x]
    if not covering:
        return len(above), None
    edge = min(covering)
    return len(above), 2 * (1 + sum(1 for q in inst.Q if (q.x, q.id) < edge))


def assign_cells(inst: Instance) -> list[CellKey]:
    """Cell key for every ground point, by brute force; requires drop_uncovered beforehand."""
    keys: list[CellKey] = []
    for p in inst.P:
        row, col = _brute_row_col(inst, p)
        if col is None:
            raise ValueError("point covered by no query; run drop_uncovered first")
        keys.append(CellKey(row, col))
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
        row, col = _brute_row_col(inst, p)
        if col is not None:
            key = CellKey(row, col)
            sums[key] = sums.get(key, 0) + Fraction(p.w)
            retained += 1
    per_row = tuple(
        tuple((col, int(w * scale)) for (r, col), w in sorted(sums.items()) if r == row)
        for row in range(1, inst.m + 1)
    )
    return CellGrid(per_row, retained, scale)


def reference_oracle(inst: Instance, limit: int = 1_000_000) -> Solution:
    """An exhaustive oracle that sums each pick set with ``covered_total``, one combination at a
    time: the reference that ``oracle.oracle_solve`` must match in value and witness.

    Enumeration goes by size and then by id-lexicographic order, and only a
    strict improvement replaces the incumbent, so the reported witness is the
    first maximizer in that order (the empty set when nothing beats zero).
    """
    k = min(inst.k, inst.m)
    total = sum(comb(inst.m, t) for t in range(k + 1))
    if total > limit:
        raise ValueError(f"{total} subsets exceed the oracle limit of {limit}")
    queries = sorted(inst.Q, key=lambda q: q.id)
    ws, scale = inst.P.int_weights()
    points = list(zip(inst.P.xs, inst.P.ys, ws))
    best, best_value = frozenset(), 0
    for size in range(1, k + 1):
        for combo in combinations(queries, size):
            value = covered_total(points, combo)
            if value > best_value:
                best, best_value = frozenset(q.id for q in combo), value
    return Solution(best, exact(best_value, scale))


def reference_walk(grid: CellGrid, tables, alone, k_eff: int) -> frozenset[int]:
    """The ids of the picks along the optimal path from the sentinel, by a full scan of every
    eligible j at each row: the reference that ``solver._walk`` must match pick for pick.

    At row i the walk needs ``cov(i, j) = alone[j] - S_i(qx[j])``, with
    ``S_i(x)`` the weight of strips i..m at rank x's up to x.  Its rows come
    in decreasing i, so the per-rank weights of strips i..m are kept by
    adding strips as i falls, and each row's ``S_i`` is one ``accumulate``
    over them.  Ties resolve to the self-link first, which picks nothing,
    then to the smallest j, so an all-zero optimum walks to the empty pick
    set; the optimum value is independent of tie-breaking.
    """
    qx, per_row, stair = grid.qx, grid.per_row, grid.stair
    last = len(qx) - 1
    dense = [0] * qx[last]  # per rank x below the sentinel's, the weight of strips upto..m
    below = [0] * qx[last]  # S_last: no strip
    upto = last
    ids = []
    i = last
    for layer in range(k_eff, 0, -1):
        if upto != i:  # a self-link keeps i, and so its row
            for strip in per_row[i - 1 : upto - 1]:
                for x, w in strip:
                    dense[x] += w
            upto = i
            below = list(accumulate(dense))
        t_prev = tables[layer - 1]
        xi = qx[i]
        best, bj = t_prev[i], i
        for j in range(1, i):
            if qx[j] < xi:
                v = t_prev[j] + alone[j] - below[qx[j]]
                if v > best:
                    best, bj = v, j
        if bj != i:
            ids.append(stair[bj - 1])
            i = bj
    return frozenset(ids)


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


# The generator families as they drew every number, one ``next_u64`` at a
# time: the reference that ``instances.generate`` must match byte for byte.

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


_SCALAR_BUILDERS = {
    "uniform": _gen_uniform,
    "clustered": _gen_clustered,
    "one-cell-adversarial": _gen_one_cell,
    "skyline-unit-weight": _gen_skyline,
    "negative-mix": _gen_negative_mix,
}



def scalar_generate(spec: GeneratorSpec) -> Instance:
    """``instances.generate(spec)``, drawn one number at a time (the spec is not checked)."""
    return _SCALAR_BUILDERS[spec.family](spec, SplitMix64(spec.seed))
