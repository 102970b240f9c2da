import importlib.util
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxdom.cells
import maxdom.model
import maxdom.solver
from maxdom.cells import build_grid
from maxdom.coverage import build_row_sums
from maxdom.instances import FAMILIES, GeneratorSpec, generate
from maxdom.model import Instance, QueryPoint, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, y_sorted_queries
from maxdom.solver import (
    DP_SLOT_BUDGET,
    _choose,
    _estimates,
    _field_bytes,
    _slots,
    _solution,
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
        assert res.compressed_size == nonzero_cells
        assert res.dp_pairs == pairs


def assert_engines_agree(inst):
    """The tree engine's tables and solution equal the simple DP's; returns the solution."""
    row_sums = build_row_sums(build_grid(inst))
    tables, preds, k_eff = dp_layers(inst, row_sums)
    tree_tables, tree_preds, tree_k = tree_layers(inst, row_sums)
    assert (tree_tables, tree_k) == (tables, k_eff)
    sol = _solution(row_sums, tables, preds, k_eff)
    assert _solution(row_sums, tree_tables, tree_preds, tree_k) == sol
    assert run_pipeline(inst, "tree").solution == run_pipeline(inst, "sweep").solution == sol
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
    tables, _preds, k_eff = dp_layers(inst, row_sums)
    tree_tables, _preds, tree_k = tree_layers(inst, row_sums)
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
    assert _slots(m, k)["tree"] < DP_SLOT_BUDGET  # admitted before the grid
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
    monkeypatch.setattr(maxdom.solver, "DP_SLOT_BUDGET", _slots(6, 6)["tree"])
    assert run_pipeline(small, "tree").engine == "tree"
    with pytest.raises(ValueError, match="the tree dp would hold"):
        run_pipeline(wide(small), "tree")
    assert run_pipeline(wide(small)).engine == "sweep"


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


def test_one_staircase_sort_per_solve(monkeypatch):
    # the grid sorts the queries, and the DP and the reconstruction reuse it
    calls = []

    def counted(inst):
        calls.append(inst)
        return y_sorted_queries(inst)

    for module in (maxdom.cells, maxdom.solver):
        monkeypatch.setattr(module, "y_sorted_queries", counted, raising=False)
    inst = random_instance(SplitMix64(47), n=30, m=8, k=3)
    for engine in ("sweep", "tree"):
        calls.clear()
        run_pipeline(inst, engine)
        assert calls == [inst]


def test_one_x_rank_pass_per_solve_and_one_weight_scaling_pass_per_point_set(monkeypatch):
    # the x-ranks serve the engine and the pair count; the weights of a point
    # set are scaled to ints once, for every solve, the oracle and
    # ``weight_of_dom`` alike, while the ranked reference solve scales its
    # own, smaller point set
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(maxdom.cells, "_axis_transform", counted("ranks", maxdom.cells._axis_transform))
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
    assert calls == ["scale", "ranks"]


def test_calibration_script_times_the_trees_tables():
    path = Path(__file__).resolve().parents[1] / "scripts" / "calibrate_engines.py"
    spec = importlib.util.spec_from_file_location("calibrate_engines", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    inst = generate(GeneratorSpec("uniform", 200, 16, 4, seed=3))
    row_sums = build_row_sums(build_grid(inst))
    assert script.tree_tables(inst, row_sums) == tree_layers(inst, row_sums)[0]
