from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdom.solver
from maxdom.cells import build_grid
from maxdom.coverage import build_row_sums
from maxdom.instances import FAMILIES, GeneratorSpec, generate
from maxdom.model import Instance, QueryPoint, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, y_sorted_queries
from maxdom.solver import (
    _choose,
    _estimates,
    _slots,
    dp_layers,
    run_pipeline,
    solve_pipeline,
    solve_reference,
    tree_layers,
)

from util import random_instance, small_instances


def prepared(inst):
    rr = drop_uncovered(rank_transform(inst))
    return rr, build_row_sums(build_grid(rr))


def with_sentinel(queries):
    """Rank-space ``queries`` followed by a sentinel right of every query and
    below every point (rank coordinates are positive)."""
    return (*queries, QueryPoint(max(q.x for q in queries) + 1, 0, -1))


@settings(deadline=None, max_examples=150)
@given(small_instances(span=4))  # tiny span: ties on both axes everywhere
def test_dp_takes_any_instance(inst):
    rr = drop_uncovered(rank_transform(inst))
    assert dp_layers(inst, build_row_sums(build_grid(inst))) == dp_layers(
        rr, build_row_sums(build_grid(rr))
    )


def test_budget_zero_returns_empty():
    inst = Instance.from_rows([(0, 0, 9)], [(1, 1)], 0)
    sol = solve_pipeline(inst)
    assert sol.chosen == frozenset() and sol.value == 0


def test_full_budget_covers_everything_useful():
    rng = SplitMix64(11)
    for _ in range(25):
        inst = random_instance(rng, max_n=25, max_m=6, span=10, wlo=0, whi=9)
        inst = Instance(inst.P, inst.Q, inst.m)
        assert solve_pipeline(inst).value == weight_of_dom(inst.P, inst.Q)


def test_two_point_two_query_example():
    # (3,3) sits above-right of (2,2) and above (4,1), so only (1,1) is ever
    # covered: the optimum is 5 at every budget (computed by the oracle).
    P = [(1, 1, 5), (3, 3, 5)]
    Q = [(2, 2), (4, 1)]
    for k, expect in ((1, 5), (2, 5)):
        inst = Instance.from_rows(P, Q, k)
        assert oracle_solve(inst).value == expect
        assert solve_pipeline(inst).value == expect


def test_all_negative_weights_return_empty_zero():
    rng = SplitMix64(13)
    for _ in range(30):
        inst = random_instance(rng, max_n=20, max_m=6, span=8, wlo=-9, whi=-1)
        sol = solve_pipeline(inst)
        assert sol.value == 0 and sol.chosen == frozenset()


def test_sentinel_never_reported():
    rng = SplitMix64(17)
    for _ in range(40):
        inst = random_instance(rng, max_n=25, max_m=6, span=10)
        sol = solve_pipeline(inst)
        assert sol.chosen <= {q.id for q in inst.Q}
        assert len(sol.chosen) <= inst.k


def test_layer_values_monotone():
    rng = SplitMix64(19)
    for _ in range(25):
        inst = random_instance(rng, max_n=30, max_m=7, span=12)
        res = run_pipeline(inst)
        layers = res.solution.layer_values
        assert all(a <= b for a, b in zip(layers, layers[1:]))


@settings(deadline=None, max_examples=60)
@given(small_instances())
def test_reported_value_is_achieved_by_chosen(inst):
    sol = solve_pipeline(inst)
    chosen = [q for q in inst.Q if q.id in sol.chosen]
    assert weight_of_dom(inst.P, chosen) == sol.value


def reference_tables(rr, k):
    """Independent layer tables: brute-force coverage sums and the literal
    candidate set {j : x(q_j) <= x(q_i), y(q_j) >= y(q_i)}, with a sentinel
    query last."""
    qs = with_sentinel(y_sorted_queries(rr))
    last = len(qs)
    P = rr.P
    cov = [[0] * (last + 1) for _ in range(last + 1)]
    for i in range(1, last + 1):
        for j in range(1, i + 1):
            qi, qj = qs[i - 1], qs[j - 1]
            cov[i][j] = sum(p.w for p in P if p.y > qi.y and p.x <= qj.x and p.y <= qj.y)
    tables = [[0] * (last + 1)]
    for _ in range(k):
        prev = tables[-1]
        cur = [0] * (last + 1)
        for i in range(1, last + 1):
            cur[i] = max(
                prev[j] + cov[i][j]
                for j in range(1, i + 1)
                if qs[j - 1].x <= qs[i - 1].x and qs[j - 1].y >= qs[i - 1].y
            )
        tables.append(cur)
    return tables


def test_layers_match_independent_reference():
    rng = SplitMix64(23)
    for _ in range(20):
        inst = random_instance(rng, max_n=20, max_m=6, span=10)
        rr, row_sums = prepared(inst)
        k = min(inst.k, inst.m)
        tables, _preds, k_eff = dp_layers(rr, row_sums)
        assert k_eff == k
        assert tables == reference_tables(rr, k)


def test_pipeline_matches_oracle():
    rng = SplitMix64(29)
    for _ in range(150):
        inst = random_instance(rng, max_n=30, max_m=7, span=14)
        expect = oracle_solve(inst).value
        assert solve_pipeline(inst).value == expect
        assert solve_reference(inst).value == expect


def test_compression_does_not_change_the_value():
    rng = SplitMix64(37)
    for _ in range(40):
        inst = random_instance(rng, max_n=50, max_m=8, span=25)
        assert solve_pipeline(inst).value == solve_reference(inst).value


def test_clustered_input_shrinks_before_the_dp():
    inst = generate(GeneratorSpec("one-cell-adversarial", n=10000, m=5, k=2, seed=3))
    res = run_pipeline(inst)
    assert res.compressed_size == 1 <= min(inst.n, inst.m**2)
    assert res.solution.value == oracle_solve(inst).value


def test_unit_weight_skyline_case():
    for seed in range(8):
        inst = generate(GeneratorSpec("skyline-unit-weight", n=30, m=1, k=3, seed=seed))
        assert solve_pipeline(inst).value == oracle_solve(inst).value


def test_work_counters_match_direct_count():
    rng = SplitMix64(43)
    for _ in range(30):
        inst = random_instance(rng, max_n=30, max_m=8, span=12)
        rr = drop_uncovered(rank_transform(inst))
        nonzero_cells = sum(1 for w in build_grid(rr).cells.values() if w != 0)
        qs = with_sentinel(y_sorted_queries(rr))
        pairs = sum(
            1
            for _layer in range(min(inst.k, inst.m))
            for i in range(len(qs))
            for j in range(i)
            if qs[j].x <= qs[i].x
        )
        res = run_pipeline(inst)
        assert res.row_sum_entries == nonzero_cells
        assert res.dp_pairs == pairs


def assert_engines_agree(inst):
    """The tree engine's tables and solution equal the simple DP's; returns the solution."""
    row_sums = build_row_sums(build_grid(inst))
    tables, _preds, k_eff = dp_layers(inst, row_sums)
    assert tree_layers(inst, row_sums) == (tables, k_eff)
    sol = run_pipeline(inst, "tree").solution
    assert sol == run_pipeline(inst).solution
    return sol


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_tree_engine_matches_simple_dp_and_oracle(data):
    # tie-heavy to wide spans, negative weights, budgets from 0 to m + 1
    inst = data.draw(small_instances(span=data.draw(st.integers(2, 12))))
    inst = replace(inst, k=data.draw(st.integers(0, inst.m + 1)))
    assert assert_engines_agree(inst).value == oracle_solve(inst).value


def test_tree_engine_matches_simple_dp_on_every_family():
    for t, family in enumerate(FAMILIES):
        for seed in range(3):
            n, m, k = (2000, 300, 6) if seed == 0 else (300 + 500 * seed, 40 * seed, 2 + seed)
            inst = generate(GeneratorSpec(family, n, m, k, seed=100 * t + seed))
            assert_engines_agree(inst)
            assert_engines_agree(replace(inst, k=4 * k))  # more lanes per tree node


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_tree_engine_when_the_sentinel_reads_the_root(m):
    # m a power of two fills the tree, so the sentinel's leaf lies past it;
    # few points over a tall staircase also merge many queries at once
    rng = SplitMix64(m)
    for n in (0, 3, 40):
        for _ in range(4):
            inst = random_instance(rng, n=n, m=m, span=3 * m)
            for k in range(m + 2):
                assert_engines_agree(replace(inst, k=k))


def test_auto_skips_an_engine_over_the_slot_budget(monkeypatch):
    m, k = 256, 8
    estimates, slots = _estimates(m, k, 300), _slots(m, k)
    assert _choose("auto", estimates, slots) == "tree"
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", slots["sweep"])
    assert _choose("auto", estimates, slots) == "sweep"  # the tree holds more than the sweep
    message = r"the tree dp would hold 8\.74e\+03 list slots, over the budget of 4\.64e\+03$"
    with pytest.raises(ValueError, match=message):
        _choose("tree", estimates, slots)
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", slots["sweep"] - 1)
    with pytest.raises(ValueError, match="the tree dp would hold"):  # the faster one is named
        _choose("auto", estimates, slots)
