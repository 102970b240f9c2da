from array import array
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdom.model import (
    Instance,
    PointColumns,
    QueryPoint,
    Solution,
    WeightedPoint,
    dominates_closed,
    weight_of_dom,
)
from maxdom.oracle import oracle_solve
from maxdom.solver import solve_pipeline


def q(x, y, qid=0):
    return QueryPoint(x, y, qid)


def p(x, y, w):
    return WeightedPoint(x, y, w)


def test_dominates_closed_interior():
    assert dominates_closed(q(2, 2), p(1, 1, 5))


def test_dominates_closed_boundary_counts():
    assert dominates_closed(q(2, 2), p(2, 2, 1))


def test_dominates_closed_x_exceeds():
    assert not dominates_closed(q(2, 2), p(3, 1, 1))


def test_weight_single_covered_point():
    P = [p(1, 1, 5), p(3, 3, -2)]
    assert weight_of_dom(P, [q(2, 2)]) == 5


def test_weight_empty_selection_is_zero():
    assert weight_of_dom([p(1, 1, 5)], []) == 0


def test_weight_counts_each_point_once():
    # both points covered, each counted once: 5 + (-3) = 2
    P = [p(1, 1, 5), p(1, 2, -3)]
    assert weight_of_dom(P, [q(2, 2, 0), q(3, 3, 1)]) == 2


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(-5, 5)), max_size=12),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=5),
    st.randoms(use_true_random=False),
)
def test_weight_invariant_under_permutations(prows, qrows, rand):
    P = [p(*r) for r in prows]
    Q = [q(x, y, i) for i, (x, y) in enumerate(qrows)]
    base = weight_of_dom(P, Q)
    P2, Q2 = list(P), list(Q)
    rand.shuffle(P2)
    rand.shuffle(Q2)
    assert weight_of_dom(P2, Q2) == base


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 5)), max_size=12),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6),
    st.data(),
)
def test_weight_monotone_for_nonnegative_weights(prows, qrows, data):
    P = [p(*r) for r in prows]
    Q = [q(x, y, i) for i, (x, y) in enumerate(qrows)]
    sub = data.draw(st.sets(st.sampled_from(range(len(Q))), max_size=len(Q)))
    subset = [Q[i] for i in sorted(sub)]
    assert weight_of_dom(P, subset) <= weight_of_dom(P, Q)


def test_points_reject_non_finite():
    with pytest.raises(ValueError):
        WeightedPoint(float("nan"), 0, 1)
    with pytest.raises(ValueError):
        WeightedPoint(0, float("inf"), 1)
    with pytest.raises(ValueError):
        WeightedPoint(0, 0, float("-inf"))
    with pytest.raises(ValueError):
        QueryPoint(float("nan"), 0, 0)


def test_ints_beyond_the_float_range_are_finite():
    big = 10**400  # no float holds it
    assert WeightedPoint(big, -big, big).w == big and QueryPoint(big, 0, 0).x == big
    inst = Instance.from_rows([(big, 0.5, big), (0, 1, 2)], [(big, 1)], 1)
    assert inst.P.ws == (big, 2)
    with pytest.raises(ValueError, match="non-finite"):  # a float beside it is still checked
        Instance.from_rows([(big, 0, 1), (float("nan"), 0, 1)], [(0, 0)], 1)


@pytest.mark.parametrize(
    "ws",
    [
        (1e308, 1e308),
        (1e308, -1e308),
        (10**400, 0.5),
        (4.5e307, 4.5e307),
        (Decimal("1e400"), Decimal("-1e-300")),
        (Fraction(10**400, 3), 1),
    ],
)
def test_float_weights_past_the_float_range_sum_exactly(ws):
    # their float sums would overflow or lose the small weight; the int sums
    # do not, and a Decimal or Fraction past the float range is finite
    inst = Instance.from_rows([(0, 0, w) for w in ws], [(1, 1)], 1)
    best = max(sum(map(Fraction, ws)), 0)
    assert weight_of_dom(inst.P, inst.Q) == sum(map(Fraction, ws))
    assert oracle_solve(inst).value == solve_pipeline(inst).value == best


@pytest.mark.parametrize(
    "ws, ints, scale",
    [
        ((Decimal("0.07"), Decimal("-2.5"), 3), [7, -250, 300], 100),
        ((0.5, Fraction(1, 3), Decimal("25e-2")), [6, 4, 3], 12),
        ((10**400, -1), (10**400, -1), 1),
    ],
)
def test_int_weights_scale_by_the_least_common_denominator(ws, ints, scale):
    cols = PointColumns([0] * len(ws), [0] * len(ws), ws)
    assert cols.int_weights() == (ints, scale)
    assert cols.int_weights() is cols.int_weights()  # computed once


def test_an_int64_weight_column_is_its_own_int_weights():
    cols = PointColumns((0, 1), (0, 1), (5, -6))
    ws, scale = cols.int_weights()
    assert ws is cols.ws and scale == 1


def test_weights_within_the_float_range_are_kept():
    for ws in ((4e307, 4e307), (10**400, 10**400), (8.9e307, 0)):
        kept = Instance.from_rows([(0, 0, w) for w in ws], [(1, 1)], 1).P.ws
        assert kept == ws and list(map(type, kept)) == list(map(type, ws))  # 0 stays an int


@pytest.mark.parametrize("col", [(0, 1, 2), (-3, 0, -(2**63)), (2**63 - 1, 5, -1), ()])
def test_int64_columns_are_arrays(col):
    cols = PointColumns(col, col, col)
    assert all(type(c) is array and c.typecode == "q" for c in (cols.xs, cols.ys, cols.ws))
    assert list(cols.ws) == list(col)


@pytest.mark.parametrize("col", [(2**63, 0), (-(2**63) - 1,), (10**400, 1), (0.5, 1.5), (1, 2.0, 3)])
def test_other_columns_stay_tuples_with_their_values_and_types(col):
    cols = PointColumns(col, [0] * len(col), col)
    assert cols.xs == cols.ws == col and type(cols.ys) is array
    assert [type(v) for v in cols.ws] == [type(v) for v in col]


def test_columns_compare_and_hash_by_value_not_storage():
    a = PointColumns((1, 2), (3, 4), (5, -6))
    b = PointColumns(array("q", [1, 2]), iter([3, 4]), [5, -6])
    c = PointColumns((1.0, 2), (3, 4), (5, -6))  # a float column equal in value
    assert type(c.xs) is tuple and type(a.xs) is array
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a != PointColumns((1, 2), (3, 4), (5, 6))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance((), (), 1)  # no queries
    with pytest.raises(ValueError):
        Instance((), (q(0, 0, 0),), -1)  # negative budget
    with pytest.raises(ValueError):
        Instance((), (q(0, 0, 0), q(1, 1, 0)), 1)  # duplicate ids
    inst = Instance.from_rows([(0, 0, 1)], [(1, 1)], 5)  # k > m is fine
    assert inst.n == 1 and inst.m == 1 and inst.k == 5


def test_solution_coerces_chosen():
    s = Solution({3, 1}, 7)
    assert isinstance(s.chosen, frozenset) and s.chosen == {1, 3}
