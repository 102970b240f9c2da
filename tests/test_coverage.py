import pytest
from hypothesis import given, settings

from maxdom.cells import CellGrid, build_grid
from maxdom.coverage import CoverageSweep, build_row_sums
from maxdom.model import Instance
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, y_sorted_queries

from util import random_instance, small_instances


def prepared(inst):
    rr = drop_uncovered(rank_transform(inst))
    return rr, build_row_sums(build_grid(rr))


def fresh_sweep(rr, rows):
    return CoverageSweep(rows, [0] + [q.x for q in y_sorted_queries(rr)])


def direct_cov(rr, i, j):
    """Sum over points strictly above position i covered by position j."""
    qs = y_sorted_queries(rr)
    qi, qj = qs[i - 1], qs[j - 1]
    return sum(p.w for p in rr.P if p.y > qi.y and p.x <= qj.x and p.y <= qj.y)


def test_build_row_sums_keeps_a_row_without_zero_cells_as_it_is():
    row = ((2, 5), (4, -3))
    built = build_row_sums(CellGrid((row, ())))
    assert built.per_row[0] is row and built.per_row == (row, ())


def test_build_row_sums_drops_zero_weight_cells_and_keeps_the_rest_of_the_grid():
    stair = (0, 1)  # the query ids by staircase position
    grid = CellGrid((((1, 0),), ((1, 4), (2, 0), (3, -4), (4, 1))), 9, 10, stair)
    built = build_row_sums(grid)
    assert built.per_row == ((), ((1, 4), (3, -4), (4, 1)))  # col 2 of row 2 not stored
    assert (built.retained, built.scale, built.stair) == (9, 10, stair)


def test_sweep_two_point_example():
    # one weight-7 point below the top query and above the second one
    inst = Instance.from_rows([(0, 2, 7)], [(1, 3), (4, 1)], 1)
    rr, rows = prepared(inst)
    sweep = fresh_sweep(rr, rows)
    assert sweep.cov[1] == 0
    sweep.advance()
    assert sweep.current == 2
    assert sweep.cov[1] == 7 == direct_cov(rr, 2, 1)
    assert sweep.cov[2] == 0


def test_sweep_matches_direct_definition():
    rng = SplitMix64(2024)
    for _ in range(25):
        inst = random_instance(rng, max_n=40, max_m=8, span=15)
        rr, rows = prepared(inst)
        sweep = fresh_sweep(rr, rows)
        xs = [0] + [q.x for q in y_sorted_queries(rr)]
        for i in range(2, rr.m + 2):
            sweep.advance()
            assert sweep.by_x == sorted((xs[j], j) for j in range(1, min(i, rr.m) + 1))
            for j in range(1, min(i, rr.m) + 1):
                assert sweep.cov[j] == direct_cov_with_sentinel(rr, i, j)


def direct_cov_with_sentinel(rr, i, j):
    qs = y_sorted_queries(rr)
    qj = qs[j - 1]
    y_i = qs[i - 1].y if i <= rr.m else -1  # row m+1 sits below everything
    return sum(p.w for p in rr.P if p.y > y_i and p.x <= qj.x and p.y <= qj.y)


@settings(deadline=None, max_examples=50)
@given(small_instances())
def test_current_row_coverage_always_zero(inst):
    rr, rows = prepared(inst)
    sweep = fresh_sweep(rr, rows)
    for _ in range(rr.m):
        sweep.advance()
        assert sweep.cov[sweep.current] == 0


def test_empty_strip_changes_nothing():
    # both points in strip 2; strip 1 is empty
    inst = Instance.from_rows([(0, 0, 5), (1, 1, 2)], [(5, 9), (6, 3)], 1)
    rr, rows = prepared(inst)
    sweep = fresh_sweep(rr, rows)
    sweep.advance()
    assert sweep.cov[1] == 0 and sweep.cov[2] == 0


def test_advance_past_sentinel_row_raises():
    inst = Instance.from_rows([], [(1, 1)], 1)
    rr, rows = prepared(inst)
    sweep = fresh_sweep(rr, rows)
    sweep.advance()  # to the sentinel row
    with pytest.raises(ValueError):
        sweep.advance()


def test_restarted_sweep_reproduces_values():
    rng = SplitMix64(9)
    inst = random_instance(rng, max_n=30, max_m=7, span=10)
    rr, rows = prepared(inst)
    runs = []
    for _ in range(2):
        sweep = fresh_sweep(rr, rows)
        trace = []
        for _ in range(rr.m):
            sweep.advance()
            trace.append(tuple(sweep.cov))
        runs.append(trace)
    assert runs[0] == runs[1]


@settings(deadline=None, max_examples=50)
@given(small_instances())
def test_row_storage_within_bound(inst):
    rr, rows = prepared(inst)
    stored = sum(len(r) for r in rows.per_row)
    assert stored <= min(max(1, len(rr.P)), rr.m**2)
