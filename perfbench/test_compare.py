"""Verdicts and result loading of the compare command.

    python3 -m pytest perfbench/test_compare.py
"""

from __future__ import annotations

import json

import compare

METRIC = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}


def _verdict(parent, change):
    return compare.verdict(METRIC, parent, change, list(zip(parent, change)))[0]


def test_verdicts_follow_the_bound_and_the_pairs():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert _verdict(parent, [v * 0.8 for v in parent]) == "better"
    assert _verdict(parent, [v * 1.3 for v in parent]) == "worse"
    assert _verdict(parent, [v * 1.1 for v in parent]) == "unchanged"
    assert _verdict(parent, list(parent)) == "unchanged"
    wide = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    assert _verdict(wide, list(wide)) == "unresolved"


def test_load_keeps_the_raw_line_beside_the_result(tmp_path):
    result = {"correct": True, "attempted": 4, "failed": 1,
              "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    (tmp_path / "desk-verify.3.json").write_text(
        "building\n" + json.dumps({"raw": {"wall_s": 2.0}}) + "\n" + json.dumps(result) + "\n")
    runs = compare.load(tmp_path)
    assert compare.values(runs["desk-verify"], "wall_s") == {"3": 1.5}
    assert compare.values(runs["desk-verify"], "wall_s", raw=True) == {"3": 2.0}
    assert compare.fail_share(runs["desk-verify"]) == 0.25
