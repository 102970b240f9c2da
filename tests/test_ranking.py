from hypothesis import given, settings

from maxdom.model import Instance, dominates_closed, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, y_sorted_queries

from util import random_instance, small_instances


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
