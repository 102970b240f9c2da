import pytest

from maxdom.cells import build_grid, compress
from maxdom.model import Instance
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform

from util import random_instance


def test_budget_zero():
    inst = Instance.from_rows([(0, 0, 4)], [(1, 1)], 0)
    sol = oracle_solve(inst)
    assert sol.chosen == frozenset() and sol.value == 0


def test_negative_weight_never_helps():
    sol = oracle_solve(Instance.from_rows([(0, 0, -4)], [(1, 1)], 1))
    assert sol.chosen == frozenset() and sol.value == 0


def test_positive_weight_is_taken():
    sol = oracle_solve(Instance.from_rows([(0, 0, 4)], [(1, 1)], 1))
    assert sol.chosen == {0} and sol.value == 4


def test_monotone_in_budget():
    rng = SplitMix64(808)
    for _ in range(25):
        inst = random_instance(rng, max_n=20, max_m=6, span=10)
        values = [oracle_solve(Instance(inst.P, inst.Q, k)).value for k in range(inst.m + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_refuses_oversized_instances():
    inst = Instance.from_rows([], [(i, i) for i in range(30)], 15)
    with pytest.raises(ValueError):
        oracle_solve(inst, limit=1000)


def test_value_invariant_under_preprocessing():
    rng = SplitMix64(909)
    for _ in range(25):
        inst = random_instance(rng, max_n=20, max_m=5, span=8)
        expect = oracle_solve(inst).value
        rr = rank_transform(inst)
        assert oracle_solve(rr).value == expect
        rr = drop_uncovered(rr)
        assert oracle_solve(rr).value == expect
        comp = compress(build_grid(rr), rr)
        assert oracle_solve(Instance(comp.points, rr.Q, rr.k)).value == expect


def test_witness_is_first_maximizer_in_order():
    # two identical queries: the smaller id wins; a smaller equally good set
    # beats a larger one because sizes are enumerated first
    inst = Instance.from_rows([(0, 0, 3)], [(1, 1), (1, 1)], 2)
    assert oracle_solve(inst).chosen == {0}
