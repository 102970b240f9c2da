import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxdom.oracle
from maxdom.cells import build_grid, compress
from maxdom.model import Instance, PointColumns, QueryPoint, Solution, covered_total
from maxdom.oracle import _BIT_BY_BIT_MAX_N, _cover, oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform
from maxdom.solver import DP_BUDGET_S, run_pipeline

from util import random_instance, reference_oracle, tie_instances


def test_budget_zero(monkeypatch):
    # the one pick set at k = 0 is the empty one, weighed at the instance's
    # scale with no cover mask built
    def no_cover(_inst):
        raise AssertionError("built cover masks at k = 0")

    monkeypatch.setattr(maxdom.oracle, "_cover", no_cover)
    for w, value in ((4, 0), (Decimal("0.25"), Fraction(0, 4))):
        sol = oracle_solve(Instance.from_rows([(0, 0, w), (2, 1, -1)], [(1, 1), (3, 3)], 0))
        assert sol == Solution(frozenset(), value) and type(sol.value) is type(value)


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


def test_refuses_oversized_instances(monkeypatch):
    # about 6.1e8 pick sets of up to 15 of 30 queries: the sets are counted
    # size by size, and the walk is refused, before any mask is built, at
    # the first size whose running count is priced over the budget
    def no_cover(_inst):
        raise AssertionError("built cover masks for a walk that is refused anyway")

    monkeypatch.setattr(maxdom.oracle, "_cover", no_cover)
    inst = Instance.from_rows([], [(i, i) for i in range(30)], 15)
    with pytest.raises(ValueError) as refused:
        oracle_solve(inst)
    found = re.match(r"refusing the oracle: its walk over the (\d+) subsets of up to (\d+) picks ", str(refused.value))
    subsets, size = map(int, found.groups())
    assert size < 15 and subsets == sum(comb(30, t) for t in range(1, size + 1))
    step_s = (maxdom.oracle.WALK_STEP_NS + 2 * maxdom.oracle.WALK_WORD_NS) * 1e-9  # n = 0: one word, no plane
    assert (subsets - comb(30, size)) * step_s <= DP_BUDGET_S < subsets * step_s


def test_refuses_masks_over_the_limit_before_building_them(monkeypatch):
    # 3 masks of 640 points take 3 * 11 words, over a budget of 10
    def no_cover(_inst):
        raise AssertionError("built cover masks over the limit")

    monkeypatch.setattr(maxdom.oracle, "_cover", no_cover)
    monkeypatch.setattr(maxdom.oracle, "MASK_WORD_BUDGET", 10)
    inst = Instance.from_rows([(0, 0, 1)] * 640, [(1, 1), (2, 2), (3, 3)], 1)
    with pytest.raises(ValueError, match="^refusing the oracle: its masks would take 33 64-bit words, over the budget of 10"):
        oracle_solve(inst)


def test_refuses_a_walk_over_the_budget_before_building_masks(monkeypatch):
    # 20 * 46,876 = 937,520 mask words, within their budget; but each step
    # walks five weight planes of 3,000,000 bits, about 1.07 ms, so the
    # 263,949 sets of up to 8 picks are over the budget, and the count
    # stops there, short of the 616,665 sets of up to 10
    def no_cover(_inst):
        raise AssertionError("built cover masks for a walk that is refused anyway")

    monkeypatch.setattr(maxdom.oracle, "_cover", no_cover)
    n = 3_000_000
    inst = Instance.from_columns([0] * n, [0] * n, [-10, 10] * (n // 2), [(1, 1)] * 20, 10)
    with pytest.raises(ValueError) as refused:
        oracle_solve(inst)
    message = str(refused.value)
    assert message.startswith("refusing the oracle: its walk over the 263949 subsets of up to 8 picks is estimated at ")
    assert message.endswith(f" s, over the budget of {DP_BUDGET_S:g} s")


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


# weight draws: ints, quarter steps, two-digit decimals and all-negative ints
WEIGHTS = {
    "int": st.integers(-9, 9),
    "quarter": st.integers(-40, 40).map(lambda u: Decimal(u) / 4),
    "hundredth": st.integers(-1000, 1000).map(lambda u: Decimal(u) / 100),
    "negative": st.integers(-9, -1),
}


@st.composite
def witness_instances(draw):
    """Tie-heavy instances (``tie_instances``) of up to six queries, with up to two duplicate
    queries added and the ids shuffled, the first 0 to all of their points with weights of one
    ``WEIGHTS`` kind, and any budget from 0 to m + 2."""
    base = draw(tie_instances(max_m=6, max_n=40))
    rows = [(q.x, q.y) for q in base.Q]
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    ids = draw(st.permutations(range(len(rows))))
    Q = [QueryPoint(x, y, i) for (x, y), i in zip(rows, ids)]
    n = draw(st.integers(0, base.n))
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    P = PointColumns(base.P.xs[:n], base.P.ys[:n], [draw(weight) for _ in range(n)])
    return Instance(P, Q, draw(st.integers(0, len(Q) + 2)))


def assert_same_as_reference(inst):
    sol, ref = oracle_solve(inst), reference_oracle(inst)
    assert (sol.value, sol.chosen) == (ref.value, ref.chosen)


@settings(deadline=None, max_examples=200)
@given(witness_instances())
def test_value_and_witness_match_the_reference_enumerator(inst):
    assert_same_as_reference(inst)


def test_value_and_witness_match_the_reference_enumerator_on_both_weighing_paths():
    # one bit at a time up to _BIT_BY_BIT_MAX_N points, bit planes past it
    rng = SplitMix64(311)
    cut = _BIT_BY_BIT_MAX_N
    for n, wlo, whi, scale in ((cut, -10, 10, 1), (cut + 1, -10, 10, 1), (300, -1000, 1000, 100),
                               (400, -40, 40, 4), (500, -9, -1, 1), (300, 0, 3, 1)):
        base = random_instance(rng, n=n, m=7, k=3, span=12, wlo=wlo, whi=whi)
        inst = Instance.from_columns(base.P.xs, base.P.ys, [Decimal(w) / scale for w in base.P.ws],
                                     [(q.x, q.y) for q in base.Q], base.k)
        assert_same_as_reference(inst)


def test_bitset_weight_is_the_covered_total():
    # ``covered_total`` is the definition of a pick set's weight
    rng = SplitMix64(313)
    for n in (0, 1, 40, _BIT_BY_BIT_MAX_N, _BIT_BY_BIT_MAX_N + 1, 600):
        for kind in ("small", "wide", "positive", "decimal"):
            inst = random_instance(rng, n=n, m=8, span=12)
            ws = [rng.randint(-10, 10) << rng.below(72) if kind == "wide"
                  else rng.randint(1, 9) if kind == "positive"
                  else Decimal(rng.randint(-10**5, 10**5)) / 100 if kind == "decimal" else w
                  for w in inst.P.ws]
            inst = Instance(PointColumns(inst.P.xs, inst.P.ys, ws), inst.Q, inst.k)
            masks, weigh = _cover(inst)
            points = list(zip(inst.P.xs, inst.P.ys, inst.P.int_weights()[0]))
            for _ in range(20):
                picks = [i for i in range(inst.m) if rng.below(2)]
                union = 0
                for i in picks:
                    union |= masks[i]
                assert weigh(union) == covered_total(points, [inst.Q[i] for i in picks]), (n, kind)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**64 - 1), st.integers(0, 39), st.integers(0, 4), st.integers(2, 30))
@example(seed=1, fewer=0, lower=0, span=3)
@example(seed=2, fewer=0, lower=0, span=30)
def test_both_engines_match_the_oracle_at_every_budget_up_to_40_queries(seed, fewer, lower, span):
    # m and k count down from 40 and 4, as the draws favour small numbers
    inst = random_instance(SplitMix64(seed), max_n=40, m=40 - fewer, k=4 - lower, span=span)
    expect = tuple(oracle_solve(replace(inst, k=l)).value for l in range(1, min(inst.k, inst.m) + 1))
    for engine in ("sweep", "tree"):
        assert run_pipeline(inst, engine).solution.layer_values == expect, engine
