import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdom.cells
from maxdom.cells import CellKey, _sum_cells, build_grid, compress
from maxdom.instances import GeneratorSpec, generate, parse_text, serialize_text
from maxdom.model import Instance, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, staircase, y_sorted_queries
from maxdom.solver import solve_pipeline, solve_reference

from util import (
    assign_cells,
    decimal_instance_files,
    exact_cells,
    random_instance,
    reference_grid,
    reference_sum_cells,
    same_dominators_check,
    small_instances,
    staircase_instances,
    tie_instances,
)


def ranked(inst):
    return drop_uncovered(rank_transform(inst))


def test_single_point_single_cell():
    rr = ranked(Instance.from_rows([(0, 0, 7)], [(1, 1)], 1))
    grid = build_grid(rr)
    assert grid.cells == {CellKey(1, 2): 7}


def test_cancelling_points_keep_zero_weight_cell():
    rr = ranked(Instance.from_rows([(0, 0, 3), (0, 0, -3)], [(1, 1)], 1))
    grid = build_grid(rr)
    assert grid.cells == {CellKey(1, 2): 0}
    assert compress(grid, rr).points == ()  # dropped only at compression time


def test_cell_key_matches_corner_definition():
    # Five queries in strictly decreasing y; the x-order of all five is
    # q3 < q5 < q1 < q2 < q4, so their rank x's are 2, 4, 6, 8 and 10.  A
    # point below q3's line, above q4's line, with x between x(q3) and x(q1)
    # lands in the cell of strip 3 whose right edge is q1: cell (3, 6).
    queries = [(50, 90), (70, 80), (10, 70), (90, 40), (30, 20)]
    point = (30, 60, 1)  # 10 < 30 < 50, 40 < 60 < 70
    rr = ranked(Instance.from_rows([point], queries, 1))
    grid = build_grid(rr)
    assert list(grid.cells) == [CellKey(3, 6)]


@settings(deadline=None, max_examples=80)
@given(small_instances())
def test_partition_covers_each_point_once(inst):
    rr = ranked(inst)
    keys = assign_cells(rr)
    grid = build_grid(rr)
    assert len(keys) == len(rr.P)
    qs = y_sorted_queries(rr)  # rank x's, as ``rr`` is ranked
    assert all(key.col in {q.x for q in qs[: key.row]} for key in keys)
    assert sum(grid.cells.values()) == sum(p.w for p in rr.P)
    assert len(grid.cells) <= min(max(1, len(rr.P)), rr.m**2)


@settings(deadline=None, max_examples=80)
@given(small_instances(span=6))
def test_cells_share_one_dominator_set(inst):
    rr = ranked(inst)
    assert same_dominators_check(build_grid(rr), rr)


def test_dominator_check_vacuous_without_points():
    rr = ranked(Instance.from_rows([], [(1, 1), (2, 2)], 1))
    assert same_dominators_check(build_grid(rr), rr)


def test_dominator_check_refuses_oversized():
    rr = ranked(Instance.from_rows([(0, 0, 1)], [(1, 1)], 1))
    with pytest.raises(ValueError):
        same_dominators_check(build_grid(rr), rr, max_work=0)


def test_compress_noop_when_cells_are_singletons():
    # diagonal staircase: each point in its own cell
    queries = [(10 * i + 9, 99 - 10 * i) for i in range(5)]
    points = [(10 * i + 1, 91 - 10 * i, i + 1) for i in range(5)]
    rr = ranked(Instance.from_rows(points, queries, 2))
    comp = compress(build_grid(rr), rr)
    assert len(comp.points) == len(rr.P) == 5
    assert sorted(p.w for p in comp.points) == [1, 2, 3, 4, 5]


def test_compress_merges_one_cell_to_single_point():
    inst = generate(GeneratorSpec("one-cell-adversarial", n=10000, m=4, k=2, seed=9))
    rr = ranked(inst)
    comp = compress(build_grid(rr), rr)
    assert len(comp.points) == 1
    assert comp.points[0].w == sum(p.w for p in inst.P)


def test_compress_respects_size_bound():
    rng = SplitMix64(555)
    for _ in range(40):
        inst = random_instance(rng, max_n=60, max_m=7, span=30)
        rr = ranked(inst)
        comp = compress(build_grid(rr), rr)
        assert len(comp.points) <= min(inst.n, inst.m**2)
        assert all(p.w != 0 for p in comp.points)


@settings(deadline=None, max_examples=60)
@given(small_instances(max_m=5, span=8))
def test_compress_preserves_every_subset_weight(inst):
    rr = ranked(inst)
    comp = compress(build_grid(rr), rr)
    for mask in range(2**inst.m):
        sel = [i for i in range(inst.m) if mask >> i & 1]
        orig = weight_of_dom(inst.P, [inst.Q[i] for i in sel])
        compressed = weight_of_dom(comp.points, [rr.Q[i] for i in sel])
        assert orig == compressed


def test_compress_preserves_optimum_for_every_budget():
    rng = SplitMix64(77)
    inst = random_instance(rng, n=30, m=5, k=0, span=12)
    rr = ranked(inst)
    comp = compress(build_grid(rr), rr)
    for k in range(6):
        full = oracle_solve(Instance(inst.P, inst.Q, k)).value
        small = oracle_solve(Instance(comp.points, rr.Q, k)).value
        assert full == small == solve_pipeline(Instance(inst.P, inst.Q, k)).value


@settings(deadline=None, max_examples=50)
@given(small_instances())
def test_grid_of_compressed_equals_nonzero_cells(inst):
    rr = ranked(inst)
    grid = build_grid(rr)
    comp = compress(grid, rr)
    regrid = build_grid(Instance(comp.points, rr.Q, rr.k))
    assert regrid.cells == {key: w for key, w in grid.cells.items() if w != 0}


def test_assign_cells_rejects_uncovered_points():
    inst = Instance.from_rows([(5, 5, 1)], [(1, 1)], 1)
    rr = rank_transform(inst)  # deliberately no drop_uncovered
    with pytest.raises(ValueError):
        assign_cells(rr)


@st.composite
def gridding_instances(draw):
    """Tie-heavy or wide-span instances with points tied with queries, points
    no query covers, float coordinates and float weights mixed in."""
    span = draw(st.sampled_from((3, 6, 10**6)))
    coord = st.integers(0, span) | st.integers(0, 2 * span).map(lambda v: v / 2)
    m = draw(st.integers(1, 6))
    Q = [(draw(coord), draw(coord)) for _ in range(m)]
    qx = st.sampled_from([x for x, _ in Q])
    qy = st.sampled_from([y for _, y in Q])
    beyond = st.integers(span + 1, span + 3)  # above or right of every query
    weight = st.integers(-9, 9) | st.floats(-9, 9, allow_nan=False).map(lambda w: round(w, 2))
    P = [
        (draw(coord | qx | beyond), draw(coord | qy | beyond), draw(weight))
        for _ in range(draw(st.integers(0, 30)))
    ]
    return Instance.from_rows(P, Q, draw(st.integers(0, m)))


@settings(deadline=None, max_examples=200)
@given(st.one_of(tie_instances(), staircase_instances()), st.integers(0, 150))
def test_strip_runs_equal_the_per_strip_dict(inst, cut):
    # a strip's keys, walked in rising order, name its cells in rising
    # order, so each cell's keys are adjacent and its row comes out sorted:
    # the same rows as summing each strip in a dict and sorting it, in one
    # batch or in two
    _, qx = staircase(inst.Q)
    cols = (inst.P.xs, inst.P.ys, inst.P.int_weights()[0])
    expected = reference_sum_cells(inst.Q, qx, [cols])
    assert _sum_cells(inst.Q, qx, [cols]) == expected
    assert _sum_cells(inst.Q, qx, [[c[:cut] for c in cols], [c[cut:] for c in cols]]) == expected
    assert build_grid(inst).per_row == expected[0]


@settings(deadline=None, max_examples=200)
@given(gridding_instances())
def test_one_pass_cells_equal_ranked_reference(inst):
    # Same keys, so the same cells and the same exact sums, zero-weight cells
    # included.  The ranked form drops uncovered points, and with them some
    # denominators, so its scale may be smaller: the sums are compared
    # divided by each grid's scale.
    rr = ranked(inst)
    ref = build_grid(rr)
    got = build_grid(inst)
    assert exact_cells(got) == exact_cells(ref)
    assert [[col for col, _ in row] for row in got.per_row] == [[col for col, _ in row] for row in ref.per_row]
    assert got.retained == ref.retained == len(rr.P)
    a, b = solve_pipeline(inst), solve_reference(inst)
    assert a.value == b.value and a.chosen == b.chosen


@settings(deadline=None, max_examples=200)
@given(st.one_of(tie_instances(), small_instances(), gridding_instances()))
def test_grid_equals_brute_force_reference(inst):
    # cells, rows, retained count and scale against a point-by-point brute
    # force that adds each cell's weights as Fractions; and each cell is
    # named by the rank x of a query above its strip, one of the queries at
    # staircase positions 1..row
    got, ref = build_grid(inst), reference_grid(inst)
    assert got == ref
    assert all(col in got.qx[1 : row + 1] for row, col in got.cells)
    assert repr(sorted(got.cells.items())) == repr(sorted(ref.cells.items()))
    assert repr(got.per_row) == repr(ref.per_row)


def test_a_cells_weights_add_exactly():
    # x = 3 and x = 7 lie either side of the low query's x but in one cell
    # below the top query.  Read from a file, the cell holds exactly 13/10,
    # in whatever order its points are added; float weights sum to the
    # exact total of the floats' values, which no float sum gives.
    parsed = parse_text("3 2 1\n3 5 0.1\n7 5 0.1\n3 5 1.1\n10 10\n5 2\n")
    for inst in (parsed, Instance(tuple(reversed(parsed.P)), parsed.Q, 1)):
        grid = build_grid(inst)
        assert grid == reference_grid(inst)
        assert (grid.cells, grid.scale) == ({CellKey(1, 4): 13}, 10)
        assert solve_pipeline(inst).value == Fraction(13, 10)
    floats = Instance.from_rows([(3, 5, 0.1), (7, 5, 0.1), (3, 5, 1.1)], [(10, 10), (5, 2)], 1)
    assert exact_cells(build_grid(floats)) == {CellKey(1, 4): 2 * Fraction(0.1) + Fraction(1.1)}


@settings(deadline=None, max_examples=100)
@given(tie_instances(), st.integers(1, 7))
def test_cells_summed_by_key_equal_the_grid(inst, size):
    # batches of any size give the brute-force grid's cells and count
    P = inst.P
    batches = [(P.xs[i : i + size], P.ys[i : i + size], P.ws[i : i + size]) for i in range(0, inst.n, size)]
    ref = reference_grid(inst)
    _stair, qx = staircase(inst.Q)
    assert _sum_cells(inst.Q, qx, batches) == (ref.per_row, ref.retained, inst.n)
    assert build_grid(inst) == ref
    assert _sum_cells(inst.Q, qx, []) == (((),) * inst.m, 0, 0)


@pytest.mark.parametrize("w", [Decimal("0.5"), Decimal(3), Fraction(1, 2), Fraction(3), 0.5, 3.0, True])
def test_sum_cells_refuses_a_batch_with_a_weight_that_is_not_an_int(w):
    # int sums are scale 1 sums, the scale a split solve's parts are added
    # at; an all-int batch before the refused one changes nothing
    Q = Instance.from_rows([], [(5, 5), (9, 1)], 1).Q
    _stair, qx = staircase(Q)
    with pytest.raises(ValueError, match="a point weight that is not an int"):
        _sum_cells(Q, qx, [([0], [0], [4]), ([1, 2], [1, 2], [7, w])])


@settings(deadline=None, max_examples=60)
@given(decimal_instance_files())
def test_build_grid_of_decimal_weights_never_trips_the_int_check(text):
    # ``build_grid`` hands ``_sum_cells`` the scaled int weights, so every
    # slice it checks is all ints
    inst = parse_text(text)
    checked = []

    def spy(values):
        checked.append(all_ints(values))
        return checked[-1]

    all_ints = maxdom.cells._all_ints
    maxdom.cells._all_ints = spy
    try:
        grid = build_grid(inst)
    finally:
        maxdom.cells._all_ints = all_ints
    assert all(checked) and len(checked) == -(-inst.n // maxdom.cells._SLICE)
    assert grid == reference_grid(inst)


def test_tall_staircase_over_few_points_equals_ranked_reference():
    # Cells are named by one walk up the strips, a query leaving the
    # union-find of rank x's as the walk climbs past its y-value.  First,
    # 100,000 queries over five points: the walk reads five strips and
    # passes nearly every query between them
    m = 100_000
    inst = Instance.from_rows(
        [(i, 3 * i, i + 1) for i in range(5)], [(i, m - i) for i in range(m)], 4
    )
    got = build_grid(inst)
    ref = build_grid(ranked(inst))
    assert got == ref
    assert got.retained == 5 and len(got.cells) == 5
    assert _sum_cells(inst.Q, got.qx, [(inst.P.xs, inst.P.ys, inst.P.ws)]) == (got.per_row, 5, 5)
    # Then the worst case for naming: x falls along the staircase, query i
    # at (2i, 2i), and strip s, between the y's of queries s - 1 and s,
    # holds one point, so a query leaves before every strip's keys.  The
    # queries above strip s are s..m-1, of rank x 2s + 2..2m, and a point
    # at x is named by the first of them at or right of x; every third
    # point is left of every query, so its x-slot's root is reached through
    # the queries that have left
    m = 20_000
    xs = [-1 if s % 3 == 0 else (37 * s) % (2 * m + 4) - 2 for s in range(m)]
    inst = Instance.from_rows(
        [(x, 2 * s - 1, s + 1) for s, x in enumerate(xs)], [(2 * i, 2 * i) for i in range(m)], 4
    )
    named = {s: max(s, -(-x // 2)) for s, x in enumerate(xs)}
    cells = {CellKey(m - s, 2 * t + 2): s + 1 for s, t in named.items() if t < m}
    got = build_grid(inst)
    assert got.cells == cells and got.retained == len(cells) > m // 2
    assert got == build_grid(ranked(inst))
    assert _sum_cells(inst.Q, got.qx, [(inst.P.xs, inst.P.ys, inst.P.ws)]) == (got.per_row, len(cells), m)


def test_grid_holds_no_int_object_per_point():
    # the columns are keyed a slice at a time, so the grid holds no int
    # object per point, which would take about 50 bytes a point
    n = 50_000
    inst = parse_text(serialize_text(generate(GeneratorSpec("uniform", n=n, m=16, k=4, seed=8))))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grid = build_grid(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.retained > n // 10
    assert peak - before <= 24 * n, (peak - before) / n


def test_grid_memory_does_not_grow_with_n():
    # one slice of keys and one sum per key at a time: eight times the
    # points add less than 0.5 MB to the peak
    def peak(n):
        inst = generate(GeneratorSpec("uniform", n=n, m=64, k=4, seed=8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_grid(inst)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(160_000)
    assert large - small < 500_000, (small, large)
