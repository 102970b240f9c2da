"""End-to-end acceptance suite.

Every test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  Criterion values are exact except the timing slopes,
whose tolerance bands are fixed here.
"""

from itertools import combinations

import pytest

from maxdom import bench
from maxdom.cells import build_grid, compress
from maxdom.coverage import CoverageSweep, build_row_sums
from maxdom.instances import GeneratorSpec, generate
from maxdom.model import Instance, dominates_closed, weight_of_dom
from maxdom.oracle import oracle_solve
from maxdom.prng import SplitMix64
from maxdom.ranking import drop_uncovered, rank_transform, y_sorted_queries
from maxdom.solver import dp_layers, run_pipeline, solve_pipeline, solve_reference

from util import random_instance


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_solver_matches_oracle():
    rng = SplitMix64(101)
    spans = (4, 10, 40, 10**6)
    checked = 0
    for trial in range(1000):
        inst = random_instance(rng, max_n=40, max_m=8, span=spans[trial % 4])
        expect = oracle_solve(inst).value
        got_c = solve_pipeline(inst).value
        got_r = solve_reference(inst).value
        assert got_c == expect and got_r == expect, (trial, expect, got_c, got_r)
        checked += 1
    _report("criterion 1 (oracle equivalence)", checked == 1000,
            f"{checked} instances, compressed and uncompressed both exact")


def test_criterion_2_compression_preserves_all_subset_weights():
    rng = SplitMix64(202)
    count = 0
    for trial in range(200):
        m = 10 if trial >= 180 else rng.randint(1, 10)
        inst = random_instance(rng, max_n=30, m=m, span=(6, 20, 10**6)[trial % 3])
        rr = drop_uncovered(rank_transform(inst))
        comp = compress(build_grid(rr), rr)
        for mask in range(2**inst.m):
            sel = [i for i in range(inst.m) if mask >> i & 1]
            orig = weight_of_dom(inst.P, [inst.Q[i] for i in sel])
            small = weight_of_dom(comp.points, [rr.Q[i] for i in sel])
            assert orig == small, (trial, sel, orig, small)
        count += 1
    _report("criterion 2 (all-subset weight preservation)", count == 200,
            f"{count} instances, every subset of queries exact")


def test_criterion_3_compression_bound():
    rng = SplitMix64(303)
    checked = 0
    for family in ("uniform", "clustered", "negative-mix", "skyline-unit-weight"):
        for _ in range(10):
            n, m = rng.randint(1, 400), rng.randint(1, 12)
            inst = generate(GeneratorSpec(family, n=n, m=m, k=2, seed=rng.next_u64()))
            rr = drop_uncovered(rank_transform(inst))
            comp = compress(build_grid(rr), rr)
            assert len(comp.points) <= min(inst.n, inst.m**2), (family, n, m)
            checked += 1
    for n in (1, 10, 1000, 10000):
        inst = generate(GeneratorSpec("one-cell-adversarial", n=n, m=4, k=2, seed=n))
        rr = drop_uncovered(rank_transform(inst))
        assert len(compress(build_grid(rr), rr).points) == 1
        checked += 1
    _report("criterion 3 (compression bound)", True,
            f"{checked} instances within min(n, m^2); one-cell family compresses to 1")


def test_criterion_4_coverage_sums_match_direct_definition():
    rng = SplitMix64(404)
    cases = [random_instance(rng, max_n=60, max_m=10, span=25) for _ in range(18)]
    cases += [random_instance(rng, n=500, max_m=20, span=200) for _ in range(4)]
    cases += [random_instance(rng, n=1000, m=30, span=500) for _ in range(2)]
    pairs = 0
    for inst in cases:
        assert inst.n * inst.m**2 <= 10**6
        rr = drop_uncovered(rank_transform(inst))
        qs = y_sorted_queries(rr)
        sweep = CoverageSweep(build_row_sums(build_grid(rr)), [0] + [q.x for q in qs])
        for i in range(2, rr.m + 2):
            sweep.advance()
            y_i = qs[i - 1].y if i <= rr.m else -1
            for j in range(1, min(i, rr.m) + 1):
                qj = qs[j - 1]
                direct = sum(p.w for p in rr.P if p.y > y_i and p.x <= qj.x and p.y <= qj.y)
                assert sweep.cov[j] == direct, (i, j, sweep.cov[j], direct)
                pairs += 1
    _report("criterion 4 (coverage sweep vs direct sums)", True,
            f"{len(cases)} instances, {pairs} (row, query) pairs exact")


def test_criterion_5_rank_transform_preserves_dominance():
    rng = SplitMix64(505)
    for trial in range(500):
        inst = random_instance(rng, max_n=15, max_m=8, span=4)  # heavy coordinate sharing
        rr = rank_transform(inst)
        for qa, qb in zip(inst.Q, rr.Q):
            for pa, pb in zip(inst.P, rr.P):
                assert dominates_closed(qa, pa) == dominates_closed(qb, pb), trial
    _report("criterion 5 (transform preserves dominance)", True,
            "500 tie-heavy instances, full matrices identical")


def test_criterion_6_dp_structural_invariants():
    rng = SplitMix64(606)
    for _ in range(150):
        inst = random_instance(rng, max_n=30, max_m=8, span=12)
        res = run_pipeline(inst)
        sol = res.solution
        layers = sol.layer_values
        assert all(a <= b for a, b in zip(layers, layers[1:]))
        assert len(sol.chosen) <= inst.k
        chosen = [q for q in inst.Q if q.id in sol.chosen]
        assert weight_of_dom(inst.P, chosen) == sol.value
    inst = random_instance(rng, max_n=20, max_m=6, span=10)
    rr = drop_uncovered(rank_transform(inst))
    tables, _preds, _k = dp_layers(rr, build_row_sums(build_grid(rr)))
    assert all(v == 0 for v in tables[0])
    for _ in range(40):
        neg = random_instance(rng, max_n=20, max_m=6, span=8, wlo=-10, whi=-1)
        sol = solve_pipeline(neg)
        assert sol.value == 0 and sol.chosen == frozenset()
    _report("criterion 6 (dp invariants)", True,
            "150 instances: layers monotone, values achieved, budgets respected; "
            "layer 0 all-zero; 40 all-negative instances return (empty, 0)")


@pytest.mark.slow
def test_criterion_7_empirical_scaling():
    # interpreter/allocator warmup so the smallest cells are not penalized
    bench.time_pipeline(generate(GeneratorSpec("uniform", 2000, 128, 8, seed=70)), reps=1)

    ms = (64, 128, 256, 512)
    rows_m = bench.sweep("uniform", [500], list(ms), [16], reps=5, seed=71)
    xs, ys = bench.stage_series(rows_m, "dp", "m")
    slope_m = bench.fit_loglog(xs, ys)

    ks = (1, 2, 4, 8, 16)
    rows_k = bench.sweep("uniform", [2000], [256], list(ks), reps=3, seed=72)
    xs, ys = bench.stage_series(rows_k, "dp", "k")
    slope_k = bench.fit_loglog(xs, ys)

    big = generate(GeneratorSpec("uniform", n=10**6, m=64, k=8, seed=73))
    stages = bench.time_pipeline(big, reps=1)
    dp_share = stages["dp"] / stages["total"]

    ok = 1.7 <= slope_m <= 2.3 and 0.8 <= slope_k <= 1.2 and dp_share < 0.20
    _report("criterion 7 (empirical scaling)", ok,
            f"dp slope vs m = {slope_m:.2f} (want [1.7, 2.3]), "
            f"dp slope vs k = {slope_k:.2f} (want [0.8, 1.2]), "
            f"dp share at n=1e6 = {dp_share:.1%} (want < 20%)")


def test_criterion_8_unit_weight_skyline_counts():
    rng = SplitMix64(808)
    for trial in range(60):
        n = rng.randint(1, 40)
        k = rng.randint(0, 6)
        inst = generate(GeneratorSpec("skyline-unit-weight", n=n, m=1, k=k, seed=rng.next_u64()))
        k_eff = min(inst.k, inst.m)
        covered = [
            frozenset(i for i, p in enumerate(inst.P) if dominates_closed(q, p))
            for q in inst.Q
        ]
        best_count = 0
        for size in range(1, k_eff + 1):
            for combo in combinations(range(inst.m), size):
                union = frozenset().union(*(covered[i] for i in combo))
                best_count = max(best_count, len(union))
        expect = oracle_solve(inst).value
        got = solve_pipeline(inst).value
        assert got == expect == best_count, (trial, got, expect, best_count)
    _report("criterion 8 (unit-weight skyline special case)", True,
            "60 instances: solver == oracle == max dominated-point count")
