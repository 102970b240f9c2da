import importlib.util
import os
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdom.cells
import maxdom.coverage
import maxdom.instances
import maxdom.model
import maxdom.solver
from maxdom.cells import build_grid
from maxdom.coverage import build_row_sums
from maxdom.instances import FAMILIES, GeneratorSpec, generate, serialize
from maxdom.model import Instance, PointColumns, QueryColumns, QueryPoint, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
import maxdom.ranking
from maxdom.ranking import drop_uncovered, rank_transform, staircase, y_sorted_queries
from maxdom.solver import (
    DP_SLOT_BUDGET,
    _choose,
    _costs,
    _dp_pairs,
    _field_bytes,
    _solution,
    dp_layers,
    grid_parts,
    run_pipeline,
    solve_pipeline,
    solve_reference,
    tree_layers,
)

from util import random_instance, reference_walk, small_instances, tie_instances


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
        tables, _alone, k_eff = dp_layers(rr, row_sums)
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
    cases = [random_instance(rng, max_n=30, max_m=8, span=12) for _ in range(30)]
    cases += [random_instance(rng, n=300, m=m, k=2, span=600) for m in (200, 350, 500)]
    for inst in cases:
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
        assert res.compressed_size == nonzero_cells
        assert res.dp_pairs == (pairs if res.engine == "sweep" else None)  # the tree visits no pairs


@pytest.mark.parametrize("m", [1, 2, 3, 10, 257, 2_000])
def test_dp_pairs_equal_the_quadratic_count_on_random_rank_orders(m):
    # any order of the rank x's 2, 4, ..., 2m, sentinel last; the count of
    # ``test_work_counters_match_direct_count``, without an instance behind it
    for seed in range(3):
        xs = random.Random(seed * 10_000 + m).sample(range(2, 2 * m + 1, 2), m) + [2 * m + 2]
        per_layer = sum(1 for i in range(len(xs)) for j in range(i) if xs[j] <= xs[i])
        for k in (0, 1, 7):
            assert _dp_pairs([0, *xs], k) == per_layer * k


def assert_engines_agree(inst):
    """The tree engine's tables and solution equal the simple DP's on the grid as built; returns the solution."""
    grid = build_grid(inst)
    tables, alone, k_eff = dp_layers(inst, grid)
    tree_tables, tree_alone, tree_k = tree_layers(inst, grid)
    assert (tree_tables, tree_alone, tree_k) == (tables, alone, k_eff)
    sol = _solution(grid, tables, alone, k_eff)
    assert run_pipeline(inst, "tree").solution == run_pipeline(inst, "sweep").solution == sol
    return sol


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_tree_engine_matches_simple_dp_and_oracle(data):
    # tie-heavy to wide spans, negative weights, budgets from 0 to m + 1
    inst = data.draw(small_instances(span=data.draw(st.integers(2, 12))))
    inst = replace(inst, k=data.draw(st.integers(0, inst.m + 1)))
    assert assert_engines_agree(inst).value == oracle_solve(inst).value


def assert_walk_covers_every_layer(inst, grid, tables, alone, k_eff):
    """At every budget up to ``k_eff``, the walk's picks off the same tables
    are the full-scan reference's and cover that layer's optimum: the walk
    at budget k reads layers k - 1 down to 0."""
    for k in range(1, k_eff + 1):
        sol = _solution(grid, tables, alone, k)
        assert sol.chosen == reference_walk(grid, tables, alone, k)
        assert weight_of_dom(inst.P, [q for q in inst.Q if q.id in sol.chosen]) == sol.value


# int, quarter, decimal, all-negative and -1/0/1 weights (many zero-weight
# cells) over a tie-heavy instance's int ones
WEIGHT_FORMS = (
    lambda w: w,
    lambda w: Fraction(w, 4),
    lambda w: Decimal(w) / 10,
    lambda w: -abs(w) - 1,
    lambda w: w % 3 - 1,
)


@settings(deadline=None, max_examples=200)
@given(tie_instances(max_m=12, max_n=40), st.sampled_from(WEIGHT_FORMS), st.data())
def test_both_engines_give_each_querys_weight_alone(inst, weight, data):
    # ``alone[j]``, which the walk recomputes cov(i, j) from, is the weight
    # that position j's query covers over all points, at the grid's scale;
    # the walk's picks off it cover each layer's optimum.  Both engines read
    # the grid as built, zero-weight cells and all, and give the tables,
    # ``alone`` and picks that they give without those cells
    inst = Instance.from_rows(
        [(p.x, p.y, weight(p.w)) for p in inst.P],
        [(q.x, q.y) for q in inst.Q],
        data.draw(st.integers(1, inst.m + 1)),
    )
    grid = build_grid(inst)
    tables, alone, k_eff = dp_layers(inst, grid)
    assert tree_layers(inst, grid) == (tables, alone, k_eff)
    zero_free = build_row_sums(grid)
    for engine in (dp_layers, tree_layers):
        assert engine(inst, zero_free) == (tables, alone, k_eff)
    assert len(alone) == inst.m + 2 and alone[0] == alone[-1] == 0
    for j, q_id in enumerate(grid.stair, 1):
        assert alone[j] == weight_of_dom(inst.P, [inst.Q[q_id]]) * grid.scale
    assert_walk_covers_every_layer(inst, grid, tables, alone, k_eff)
    for k in range(k_eff + 1):
        assert _solution(grid, tables, alone, k) == _solution(zero_free, tables, alone, k)


def test_walk_picks_cover_every_layers_optimum():
    # many small instances at k = m, off both engines' tables: an off-by-one
    # in the walk's strips shows on about one in a hundred
    rng = SplitMix64(53)
    for _ in range(500):
        inst = random_instance(rng, max_n=30, max_m=8, span=10)
        grid = build_row_sums(build_grid(inst))
        for engine in (dp_layers, tree_layers):
            assert_walk_covers_every_layer(inst, grid, *engine(replace(inst, k=inst.m), grid))


def test_walk_raises_where_no_pick_reaches_a_tables_value():
    # the walk stops at the value the tables hold: one entry raised by 1,
    # which no self-link or pick reaches, is an error, not a pick
    rng = SplitMix64(29)
    for _ in range(50):
        inst = random_instance(rng, max_n=30, max_m=8, span=10, k=8)
        grid = build_row_sums(build_grid(inst))
        tables, alone, k_eff = tree_layers(inst, grid)
        for layer in range(1, k_eff + 1):
            raised = [list(t) for t in tables]
            raised[layer][-1] += 1
            with pytest.raises(RuntimeError, match=f"no pick reaches layer {layer}'s value"):
                maxdom.solver._walk(grid, raised, alone, layer)


def test_tree_engine_matches_simple_dp_on_every_family():
    for t, family in enumerate(FAMILIES):
        for seed in range(3):
            n, m, k = (2000, 300, 6) if seed == 0 else (300 + 500 * seed, 40 * seed, 2 + seed)
            inst = generate(GeneratorSpec(family, n, m, k, seed=100 * t + seed))
            assert_engines_agree(inst)
            assert_engines_agree(replace(inst, k=4 * k))  # more lanes per tree node


def test_layers_are_unchanged_by_transforms_that_keep_dominance():
    # Metamorphic relations (Chen, Cheung & Yiu, HKUST-CS98-01, 1998) at
    # sizes past the oracle's reach: swapping the axes, a strictly
    # increasing map of one axis and a permutation of the query ids keep
    # every closed quadrant's points, so every layer's optimum, while the
    # staircase, ties by id, cells and DP order all change.  Tie-heavy:
    # few distinct coordinates on both axes.
    rng = SplitMix64(1414)
    shuffle = random.Random(1414).shuffle
    for t in range(30):
        m = rng.randint(1, 300)
        inst = random_instance(rng, n=rng.randint(0, 3000), m=m, k=rng.randint(1, 12), span=rng.randint(1, m))
        P, Q = inst.P, inst.Q
        ids = list(range(m))
        shuffle(ids)
        points, queries = [P.xs, P.ys], [Q.xs, Q.ys]
        axis = t % 2
        points[axis], queries[axis] = [v**3 for v in points[axis]], [v**3 for v in queries[axis]]
        transformed = (
            Instance(PointColumns(P.ys, P.xs, P.ws), QueryColumns(Q.ys, Q.xs), inst.k),
            Instance(PointColumns(*points, P.ws), QueryColumns(*queries), inst.k),
            Instance(P, QueryColumns(Q.xs, Q.ys, ids), inst.k),
        )
        expect = run_pipeline(inst, "sweep").solution.layer_values
        for other in transformed:
            for engine in ("sweep", "tree"):
                assert run_pipeline(other, engine).solution.layer_values == expect, (t, engine)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
def test_tree_engine_when_the_sentinel_reads_the_root(m):
    # the sentinel reads the root whatever m is: m a power of two fills the
    # tree, and at any other m the leaves right of the last query's are never
    # inserted; few points over a tall staircase also merge many queries at
    # once
    rng = SplitMix64(m)
    for n in (0, 3, 40):
        for _ in range(4):
            inst = random_instance(rng, n=n, m=m, span=3 * m)
            for k in range(m + 2):
                assert_engines_agree(replace(inst, k=k))


def test_auto_skips_an_engine_over_the_slot_budget(monkeypatch):
    m, k = 256, 8
    estimates, slots = _costs(m, k, 300)
    assert _choose("auto", estimates, slots) == "tree"
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", slots["sweep"])
    assert _choose("auto", estimates, slots) == "sweep"  # the tree holds more than the sweep
    message = r"the tree dp would hold 8\.74e\+03 list slots, over the budget of 2\.32e\+03$"
    with pytest.raises(ValueError, match=message):
        _choose("tree", estimates, slots)
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", slots["sweep"] - 1)
    with pytest.raises(ValueError, match="the tree dp would hold"):  # the faster one is named
        _choose("auto", estimates, slots)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_tree_engine_matches_simple_dp_on_wide_zero_and_negative_weights(data):
    # the packed fields widen with the total weight; zero and all-negative
    # weights leave every table at 0
    lo, hi = data.draw(st.sampled_from([(-(10**15), 10**15), (0, 0), (-(10**15), -1)]))
    m = data.draw(st.integers(1, 7))
    coord = st.integers(0, data.draw(st.integers(2, 12)))
    weight, n = st.integers(lo, hi), data.draw(st.integers(0, 25))
    P = [(data.draw(coord), data.draw(coord), data.draw(weight)) for _ in range(n)]
    Q = [(data.draw(coord), data.draw(coord)) for _ in range(m)]
    inst = Instance.from_rows(P, Q, data.draw(st.integers(0, m + 1)))
    sol = assert_engines_agree(inst)
    if hi <= 0:
        assert sol.value == 0 and sol.chosen == frozenset()


def assert_exact_tables(inst):
    """The tree's int tables equal the sweep's, and both engines report the
    same exact solution; returns the row sums."""
    row_sums = build_row_sums(build_grid(inst))
    tables, _alone, k_eff = dp_layers(inst, row_sums)
    tree_tables, _alone, tree_k = tree_layers(inst, row_sums)
    assert (tree_tables, tree_k) == (tables, k_eff)
    assert all(type(t) is int for row in tree_tables for t in row)
    assert run_pipeline(inst, "tree").solution == run_pipeline(inst, "sweep").solution
    return row_sums


@pytest.mark.parametrize("scale", [4, 100, 10**6, None])
def test_tree_engine_gives_the_exact_tables_on_non_integer_weights(scale):
    # decimal weights as floats, or (scale None) fractions with denominators
    # 3..7, whose common denominator is no single one of them
    rng = SplitMix64(scale or 3)
    weight = (lambda w: w / scale) if scale else (lambda w: Fraction(w, 3 + w % 5))
    for _ in range(15):
        bound = 50 * (scale or 20)
        inst = random_instance(rng, max_n=40, max_m=12, span=30, wlo=-bound, whi=bound)
        assert_exact_tables(
            Instance.from_rows([(p.x, p.y, weight(p.w)) for p in inst.P], [(q.x, q.y) for q in inst.Q], inst.m)
        )


def test_tree_engine_sums_the_grid_cells_exactly():
    # one strip with cells 1e16, 3.0 and 3.0, whose exact sum is 1e16 + 6; a
    # float running sum over them would round 1e16 + 3 up to 1e16 + 4, and
    # so end at 1e16 + 8
    inst = Instance.from_rows([(0, 1, 1e16), (1, 0, 3.0), (5, 1, 3.0)], [(5, 1), (0, 1), (2, 1)], 1)
    assert_exact_tables(inst)
    assert run_pipeline(inst, "tree").solution.value == 1.0000000000000006e16


def test_tree_engine_gives_the_exact_tables_on_fields_wider_than_a_word():
    # floats from 1e-300 to 1e300 scale to ints of up to about 2,050 bits, so
    # the tree's fields take many words; a small m keeps the tree admitted
    rng = SplitMix64(61)
    widths = set()
    for _ in range(30):
        inst = random_instance(rng, max_n=12, max_m=6, span=16, wlo=-50, whi=50)
        P = [(p.x, p.y, p.w * 10.0 ** (rng.randint(-300, 300))) for p in inst.P]
        inst = Instance.from_rows(P, [(q.x, q.y) for q in inst.Q], inst.m)
        row_sums = assert_exact_tables(inst)
        widths.add(_field_bytes(row_sums.total))
        assert run_pipeline(inst, "tree").engine == "tree"
    assert max(widths) > 200  # fields of over 25 words among them


def test_tree_refuses_very_wide_fields_after_the_grid(monkeypatch):
    # floats from 1e-300 to 1e300 scale to ints of about 2,050 bits, so each
    # of the tree's fields takes 33 words; the same points at weight 1 take one
    m, k = 4096, 256
    stair = [(i, m - i) for i in range(m)]
    P = [(17 * j, m - 19 * j, (-1) ** j * 10.0 ** (300 - 120 * j)) for j in range(6)]
    inst = Instance.from_rows(P, stair, k)
    narrow = Instance.from_rows([(x, y, 1) for x, y, _w in P], stair, k)

    def no_dp(*_args):
        raise AssertionError("dp work on an instance that is refused anyway")

    gridded = []
    monkeypatch.setattr(maxdom.solver, "build_grid", lambda i: gridded.append(i) or build_grid(i))
    monkeypatch.setattr(maxdom.solver, "tree_layers", no_dp)
    monkeypatch.setattr(maxdom.solver, "dp_layers", no_dp)
    assert _costs(m, k)[1]["tree"] < DP_SLOT_BUDGET  # admitted before the grid
    for engine in ("tree", "auto"):  # the sweep is over the time budget here
        message = r"^refusing to solve: the tree dp would hold 1\.72e\+08 list slots, over"
        with pytest.raises(ValueError, match=message):
            run_pipeline(inst, engine)
    assert gridded == [inst, inst]
    with pytest.raises(AssertionError, match="dp work"):  # the narrow fields are admitted
        run_pipeline(narrow, "tree")


def wide(inst):
    """``inst`` with its weights scaled by 1e-300 and 1e300 in turn: floats
    whose exact sum needs fields of 33 words."""
    return Instance.from_rows(
        [(p.x, p.y, p.w * 10.0 ** (-300 + 600 * (t % 2))) for t, p in enumerate(inst.P)],
        [(q.x, q.y) for q in inst.Q],
        inst.k,
    )


def test_wide_fields_price_the_tree_higher(monkeypatch):
    # the same cells priced with one-word fields favour the tree, with
    # 33-word fields the sweep
    base = generate(GeneratorSpec("uniform", 300, 64, 8, seed=4))
    assert run_pipeline(base).engine == "tree"
    res = run_pipeline(wide(base))
    assert res.engine == "sweep" and res.estimates["tree"] > res.estimates["sweep"]
    # a tree named on a tiny staircase, where it is not the cheaper one,
    # is still held to the slot budget at its field width
    small = generate(GeneratorSpec("uniform", 200, 6, 6, seed=4))
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", _costs(6, 6)[1]["tree"])
    assert run_pipeline(small, "tree").engine == "tree"
    with pytest.raises(ValueError, match="the tree dp would hold"):
        run_pipeline(wide(small), "tree")
    assert run_pipeline(wide(small)).engine == "sweep"
    # a dense shape, where the sweep wins even at one word per field: the
    # reported tree estimate is priced at the fields' width all the same
    dense = wide(generate(GeneratorSpec("uniform", 2000, 16, 4, seed=4)))
    total = build_row_sums(build_grid(dense)).total
    res = run_pipeline(dense)
    narrow, at_width = (_costs(16, 4, res.compressed_size, t)[0] for t in (0, total))
    assert res.engine == "sweep" and _field_bytes(total) > 8
    assert narrow["tree"] > narrow["sweep"]
    assert res.estimates == at_width and at_width["tree"] > narrow["tree"]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_tables_are_nondecreasing_in_the_layer(data):
    # the self-link keeps t_l[i] >= t_{l-1}[i] at every position; the tree's
    # t_l[i] = max(0, layer l's best transition) relies on it
    inst = data.draw(small_instances(span=data.draw(st.integers(2, 12))))
    inst = replace(inst, k=data.draw(st.integers(0, inst.m + 1)))
    row_sums = build_row_sums(build_grid(inst))
    for engine in (dp_layers, tree_layers):
        tables = engine(inst, row_sums)[0]
        assert all(a <= b for lower, upper in zip(tables, tables[1:]) for a, b in zip(lower, upper))


def _two_part_file(tmp_path, monkeypatch, inst):
    """The path of ``inst``'s file, which ``grid_parts`` now cuts into two parts."""
    path = tmp_path / "inst.txt"
    serialize(inst, path)
    monkeypatch.setattr(maxdom.instances, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return path


def test_one_staircase_sort_per_solve(tmp_path, monkeypatch):
    # the grid sorts the queries, and the DP and the reconstruction reuse it;
    # a split solve sorts them before its parts start, and merges under them
    calls = []

    def counted(Q):
        calls.append(Q)
        return staircase(Q)

    for module in (maxdom.cells, maxdom.solver):
        monkeypatch.setattr(module, "staircase", counted)
    inst = random_instance(SplitMix64(47), n=30, m=8, k=3)
    for engine in ("sweep", "tree"):
        calls.clear()
        run_pipeline(inst, engine)
        assert calls == [inst.Q]
    if not hasattr(os, "fork"):
        return
    path = _two_part_file(tmp_path, monkeypatch, inst)
    for engine in ("sweep", "tree"):
        expected = run_pipeline(inst, engine).solution
        calls.clear()
        _, queries, grid, peaks = grid_parts(path)
        assert run_pipeline(queries, engine, grid=grid).solution == expected
        assert calls == [queries.Q] and len(peaks) == 1


def test_no_solve_drops_the_zero_weight_cells(tmp_path, monkeypatch):
    # the engines read the grid as built: neither solve, plain or over a
    # split's grid, nor the ranked reference calls the zero filter, and the
    # zero-weight cells count in ``cells`` but not in ``compressed_size``
    calls = []

    def spied(grid):
        calls.append(grid)
        return build_row_sums(grid)

    for module in (maxdom.coverage, maxdom.solver):
        monkeypatch.setattr(module, "build_row_sums", spied, raising=False)
    inst = random_instance(SplitMix64(59), n=40, m=8, k=3, span=6, wlo=-1, whi=1)
    grid = build_grid(inst)
    assert 0 in grid.cells.values()
    expected = solve_reference(inst)
    for engine in ("sweep", "tree"):
        res = run_pipeline(inst, engine)
        assert res.solution == expected
        assert (res.cells, res.compressed_size) == (len(grid.cells), sum(map(bool, grid.cells.values())))
    if hasattr(os, "fork"):
        path = _two_part_file(tmp_path, monkeypatch, inst)
        _, queries, parts_grid, peaks = grid_parts(path)
        assert len(peaks) == 1 and run_pipeline(queries, grid=parts_grid).solution == expected
    assert calls == []


def test_one_x_rank_pass_per_solve_and_one_weight_scaling_pass_per_point_set(tmp_path, monkeypatch):
    # the x-ranks serve the engine and the pair count, and in a split solve
    # every part and the merge too; the weights of a point set are scaled
    # to ints once, for every solve, the oracle and ``weight_of_dom`` alike,
    # while the ranked reference solve ranks both axes of every point and
    # grids its ranked point set, which shares the instance's scaling
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(maxdom.ranking, "_even_ranks", counted("ranks", maxdom.ranking._even_ranks))
    monkeypatch.setattr(maxdom.model, "lcm", counted("scale", maxdom.model.lcm))
    base = random_instance(SplitMix64(47), n=30, m=8, k=3)
    inst = Instance.from_rows([(p.x, p.y, Fraction(p.w, 4)) for p in base.P], [(q.x, q.y) for q in base.Q], 3)
    for engine, expect in (("sweep", ["scale", "ranks"]), ("tree", ["ranks"])):
        calls.clear()
        run_pipeline(inst, engine)
        assert calls == expect
    calls.clear()
    oracle_solve(inst)
    weight_of_dom(inst.P, inst.Q)
    assert calls == []
    solve_reference(inst)
    assert calls == ["ranks", "ranks", "ranks"]
    assert rank_transform(inst).P.int_weights() is inst.P.int_weights()
    if not hasattr(os, "fork"):
        return
    path = _two_part_file(tmp_path, monkeypatch, base)
    for engine in ("sweep", "tree"):
        calls.clear()
        _, queries, grid, peaks = grid_parts(path)
        run_pipeline(queries, engine, grid=grid)
        assert calls == ["ranks"] and len(peaks) == 1


def test_calibration_script_times_the_trees_tables():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_engines.py"
    spec = importlib.util.spec_from_file_location("calibrate_engines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # the engines themselves, which time the tables alone
    assert (script.dp_layers, script.tree_layers) == (dp_layers, tree_layers)
    # the counts that the constants are fitted per: a change to ``_costs``
    # that these no longer give would need a new calibration
    for m, k, cells in ((1, 1, 0), (64, 8, 300), (512, 16, 9_000), (2048, 32, 2)):
        paths = (cells + 2 * m) * m.bit_length()
        assert script.units(m, k, cells) == (pytest.approx(k * m * m), pytest.approx(paths))
