"""The benchmark's answer checks must catch wrong answers.

    python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import check

# Two queries: q0 = (4, 4) covers (1, 1, 5) and (3, 3, -2); q1 = (6, 1)
# covers (1, 1, 5) and (5, 1, 7).  Best single query: q1 with 12; with
# k = 2 the optimum is q0 + q1 = 5 - 2 + 7 = 10 < 12, so it is q1 alone.
INT_FILE = """3 2 2
1 1 5
3 3 -2
5 1 7
4 4
6 1
"""

# Decimal weights with no exact binary value: 0.1 + 0.2 is not 0.3 in floats.
DECIMAL_FILE = """2 1 1
1 1 0.1
2 2 0.2
5 5
"""

# Quarter steps are exact in binary, so no drift can be blamed on parsing.
QUARTER_FILE = """2 1 1
1 1 0.25
2 2 0.5
5 5
"""


def _inst(tmp_path, text, exact=False):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    return check.read_instance(path, exact=exact)


def _solve_out(chosen, value):
    return json.dumps({"algo": "dp", "value": value, "chosen": chosen}) + "\n"


def _verify_out(value):
    return json.dumps(
        {"value_oracle": value, "value_dp": value, "value_dp_no_compress": value,
         "recomputed_from_chosen": value, "equal": True}
    ) + "\n"


def test_right_solve_answer_passes(tmp_path):
    inst = _inst(tmp_path, INT_FILE)
    exp = check.expect_solve(inst)
    assert (exp.best_single, exp.total_positive) == (12, 12)
    assert check.check_solve(inst, exp, 0, _solve_out([1], 12)) == (check.OK, "")
    assert check.check_single(exp, 0, _solve_out([1], 12)) == (check.OK, "")


def test_value_off_by_one_fails(tmp_path):
    inst = _inst(tmp_path, INT_FILE)
    exp = check.expect_solve(inst)
    assert check.check_solve(inst, exp, 0, _solve_out([1], 13))[0] == check.WRONG
    assert check.check_solve(inst, exp, 0, _solve_out([1], 11))[0] == check.WRONG
    assert check.check_single(exp, 0, _solve_out([1], 11))[0] == check.WRONG


def test_suboptimal_but_consistent_pick_fails_the_single_query_bound(tmp_path):
    inst = _inst(tmp_path, INT_FILE)
    exp = check.expect_solve(inst)
    # q0 alone covers 3: a true covered weight, but below the best single query.
    assert check.check_solve(inst, exp, 0, _solve_out([0], 3))[0] == check.WRONG


def test_pick_set_over_budget_fails(tmp_path):
    inst = _inst(tmp_path, INT_FILE.replace("3 2 2", "3 2 1", 1))
    exp = check.expect_solve(inst)
    assert check.check_solve(inst, exp, 0, _solve_out([0, 1], 10))[0] == check.WRONG


def test_unknown_or_repeated_id_fails(tmp_path):
    inst = _inst(tmp_path, INT_FILE)
    exp = check.expect_solve(inst)
    assert check.check_solve(inst, exp, 0, _solve_out([2], 12))[0] == check.WRONG
    assert check.check_solve(inst, exp, 0, _solve_out([-1], 12))[0] == check.WRONG
    assert check.check_solve(inst, exp, 0, _solve_out([1, 1], 12))[0] == check.WRONG


def test_nonzero_exit_or_garbage_fails(tmp_path):
    inst = _inst(tmp_path, INT_FILE)
    exp = check.expect_solve(inst)
    assert check.check_solve(inst, exp, 1, _solve_out([1], 12))[0] == check.WRONG
    assert check.check_solve(inst, exp, 0, "error: boom\n")[0] == check.WRONG
    assert check.check_solve(inst, exp, 0, "")[0] == check.WRONG


def test_exact_verify_value_passes(tmp_path):
    inst = _inst(tmp_path, DECIMAL_FILE, exact=True)
    optimum = check.exact_optimum(inst)
    assert optimum == Fraction(3, 10)
    assert inst.inexact
    assert check.check_verify(inst, optimum, 0, _verify_out(0.3)) == (check.OK, "")


def test_float_drifted_decimal_value_fails_as_drift(tmp_path):
    inst = _inst(tmp_path, DECIMAL_FILE, exact=True)
    optimum = check.exact_optimum(inst)
    drifted = 0.1 + 0.2  # 0.30000000000000004
    verdict, why = check.check_verify(inst, optimum, 1, _verify_out(drifted))
    assert verdict == check.DRIFT and "0.30000000000000004" in why


def test_drift_sized_error_on_exact_weights_is_wrong(tmp_path):
    inst = _inst(tmp_path, QUARTER_FILE, exact=True)
    optimum = check.exact_optimum(inst)
    assert optimum == Fraction(3, 4) and not inst.inexact
    assert check.check_verify(inst, optimum, 0, _verify_out(0.75)) == (check.OK, "")
    assert check.check_verify(inst, optimum, 0, _verify_out(0.7500000000000001))[0] == check.WRONG


def test_large_verify_error_is_wrong_even_with_decimal_weights(tmp_path):
    inst = _inst(tmp_path, DECIMAL_FILE, exact=True)
    optimum = check.exact_optimum(inst)
    assert check.check_verify(inst, optimum, 0, _verify_out(0.31))[0] == check.WRONG


def _brute(inst):
    """Direct definitions: every query's and every subset's covered weight."""
    def cover(ids):
        return sum(
            w for x, y, w in zip(inst.xs, inst.ys, inst.ws)
            if any(x <= inst.queries[i][0] and y <= inst.queries[i][1] for i in ids)
        )
    m = len(inst.queries)
    singles = [cover([i]) for i in range(m)]
    best = max([0] + [cover(c) for s in range(1, min(inst.k, m) + 1) for c in combinations(range(m), s)])
    return singles, best, cover


def test_fast_sums_match_the_direct_definitions(tmp_path):
    # ties on both axes between points and queries, and among queries
    text = "6 4 2\n1 1 4\n2 5 -3\n5 2 6\n5 5 -1\n3 3 2\n7 1 9\n5 5\n2 5\n5 2\n6 6\n"
    inst = _inst(tmp_path, text, exact=True)
    singles, best, cover = _brute(inst)
    assert check.single_query_weights(inst) == singles
    assert check.exact_optimum(inst) == best
    for ids in ([0], [1, 2], [0, 1, 2, 3]):
        assert check.covered_weight(inst, ids) == cover(ids)
