from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxdom.model import Instance, QueryColumns, QueryPoint, dominates_closed, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, staircase, y_sorted_queries

from util import random_instance, reference_x_ranks, reference_y_sorted_queries, small_instances


def test_query_ranks_break_ties_by_id():
    # x-values (5, 5, 3) with ids (0, 1, 2): rank order is 3 < 5(id0) < 5(id1)
    inst = Instance.from_rows([], [(5, 0), (5, 1), (3, 2)], 1)
    rr = rank_transform(inst)
    assert [q.x for q in rr.Q] == [4, 6, 2]


def test_point_tied_with_queries_stays_covered_by_all():
    inst = Instance.from_rows([(5, 0, 1)], [(3, 9), (5, 9), (5, 9)], 1)
    rr = rank_transform(inst)
    p = rr.P[0]
    assert p.x == 3  # just below the first tied query rank
    tied = [q for q, orig in zip(rr.Q, inst.Q) if orig.x == 5]
    assert all(p.x <= q.x for q in tied)


def test_point_right_of_every_query():
    inst = Instance.from_rows([(99, 0, 1)], [(3, 9), (5, 9), (7, 9)], 1)
    rr = rank_transform(inst)
    m = inst.m
    assert rr.P[0].x == 2 * (m + 1) - 1
    assert all(q.x < rr.P[0].x for q in rr.Q)


def _dominance_matrix(P, Q):
    return [[dominates_closed(q, p) for p in P] for q in Q]


@settings(deadline=None, max_examples=120)
@given(small_instances(span=5))  # tiny span: plenty of shared coordinates
def test_dominance_matrix_preserved(inst):
    rr = rank_transform(inst)
    assert _dominance_matrix(inst.P, inst.Q) == _dominance_matrix(rr.P, rr.Q)


@settings(deadline=None, max_examples=80)
@given(small_instances())
def test_rank_space_invariants(inst):
    rr = rank_transform(inst)
    m = inst.m
    assert sorted(q.x for q in rr.Q) == [2 * r for r in range(1, m + 1)]
    assert sorted(q.y for q in rr.Q) == [2 * r for r in range(1, m + 1)]
    assert all(p.x % 2 == 1 and p.y % 2 == 1 for p in rr.P)
    ys = [q.y for q in y_sorted_queries(rr)]
    assert ys == sorted(ys, reverse=True)
    assert [q.id for q in rr.Q] == [q.id for q in inst.Q]


@settings(deadline=None, max_examples=50)
@given(small_instances())
def test_transform_idempotent_on_dominance(inst):
    rr = rank_transform(inst)
    rr2 = rank_transform(rr)
    assert _dominance_matrix(rr.P, rr.Q) == _dominance_matrix(rr2.P, rr2.Q)


def test_drop_uncovered_removes_everything():
    # the only point sits above-right of the only query
    inst = Instance.from_rows([(5, 5, 3)], [(1, 1)], 1)
    rr = drop_uncovered(rank_transform(inst))
    assert rr.P == ()
    assert oracle_solve(rr).value == 0


def test_drop_uncovered_keeps_covered_points():
    inst = Instance.from_rows([(0, 0, 1), (1, 1, 2)], [(2, 2)], 1)
    rr = rank_transform(inst)
    assert drop_uncovered(rr).P == rr.P


def test_drop_uncovered_preserves_optimum():
    rng = SplitMix64(31337)
    for _ in range(40):
        inst = random_instance(rng, max_n=20, max_m=5, span=8)
        rr = rank_transform(inst)
        before = oracle_solve(rr).value
        after = oracle_solve(drop_uncovered(rr)).value
        assert before == after == oracle_solve(inst).value


@settings(deadline=None, max_examples=50)
@given(small_instances())
def test_drop_uncovered_keeps_exactly_the_covered(inst):
    rr = rank_transform(inst)
    kept = set(drop_uncovered(rr).P)
    for p in rr.P:
        covered = any(dominates_closed(q, p) for q in rr.Q)
        assert (p in kept) == covered or (covered and p in kept)  # duplicates collapse in the set


def test_weight_of_dom_agrees_across_transform():
    rng = SplitMix64(4242)
    for _ in range(30):
        inst = random_instance(rng, max_n=15, max_m=5, span=6)
        rr = rank_transform(inst)
        for mask in range(2**inst.m):
            sel = [i for i in range(inst.m) if mask >> i & 1]
            a = weight_of_dom(inst.P, [inst.Q[i] for i in sel])
            b = weight_of_dom(rr.P, [rr.Q[i] for i in sel])
            assert a == b


@st.composite
def tied_queries(draw):
    """``(instance, query objects)``: queries heavy with equal x's, equal y's and duplicate points, of int,
    float and ``Fraction`` values, with positional ids, shuffled ids or sparse ids in any order."""
    value = st.builds(lambda v, kind: kind(v), st.integers(0, 3), st.sampled_from([int, float, Fraction]))
    rows = draw(st.lists(st.tuples(value, value), min_size=1, max_size=25))
    m = len(rows)
    kind = draw(st.sampled_from(["positional", "shuffled", "sparse"]))
    if kind == "positional":
        ids = list(range(m))
    elif kind == "shuffled":
        ids = draw(st.permutations(range(m)))
    else:
        ids = draw(st.lists(st.integers(-1000, 1000), min_size=m, max_size=m, unique=True))
    Q = tuple(QueryPoint(x, y, i) for (x, y), i in zip(rows, ids))
    P = [(x, y, 1) for x, y in rows[:3]]
    if kind == "positional":
        return Instance.from_rows(P, rows, m), Q
    return Instance(Instance.from_rows(P, [(0, 0)], 0).P, Q, m), Q


@settings(deadline=None, max_examples=300)
@given(tied_queries())
def test_columnar_staircase_and_ranks_equal_the_object_reference(case):
    # the staircase's index order by decreasing (y, id) and the rank x's by
    # (x, id), from stable sorts of the columns, are those of sorting and
    # ranking the query objects, for any ids, and for the ranked instance,
    # whose queries keep their ids
    inst, Q = case
    for rinst in (inst, rank_transform(inst)):
        ref = reference_y_sorted_queries(rinst)
        stair, qx = staircase(rinst.Q)
        assert list(stair) == [q.id for q in ref]
        assert qx == reference_x_ranks(ref)
        assert y_sorted_queries(rinst) == ref
    assert list(rank_transform(inst).Q.ids) == [q.id for q in Q]
    # the object view, the instance's hash (that of its rows) and the id check are unchanged
    assert inst.Q == Q and tuple(inst.Q) == Q and inst.Q.points() == Q
    assert hash(inst) == hash((tuple(inst.P), Q, inst.k))
    with pytest.raises(ValueError, match="query ids must be unique"):
        Instance(inst.P, Q + (QueryPoint(0, 0, Q[-1].id),), 1)
    with pytest.raises(ValueError, match="query ids must be unique"):
        Instance(inst.P, QueryColumns([0, 1], [1, 0], [Q[0].id] * 2), 1)
