"""``scripts/bench_record.py``: two result directories written as one JSON record of figures and verdicts."""

import importlib.util
import json
import platform
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_runs(directory: Path, scale: float, failed: int = 0) -> None:
    """Ten desk-verify results, their times ``scale`` times a spread of parent-like figures."""
    directory.mkdir()
    for seed in range(1, 11):
        times = {"setup_s": 0.25, "wall_s": 0.18 * scale + seed * 1e-4, "op_p50_s": 7e-4 * scale + seed * 1e-6}
        raw = {**{name: 1.2 * value for name, value in times.items()}, "peak_rss_mb": 19.0, "speed_factor": 0.8}
        metrics = {name: {"value": value, "unit": "s"} for name, value in times.items()}
        metrics["peak_rss_mb"] = {"value": 19.0, "unit": "MB"}
        result = {"correct": True, "attempted": 100, "failed": failed, "metrics": metrics}
        lines = [json.dumps({"raw": raw}), json.dumps(result)]
        (directory / f"desk-verify.{seed}.json").write_text("\n".join(lines) + "\n")


def test_record_holds_compares_figures_and_verdicts(tmp_path):
    script = _script()
    _write_runs(tmp_path / "parent", 1.0)
    _write_runs(tmp_path / "change", 0.9, failed=1)
    out = tmp_path / "bench.json"
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["python"] == platform.python_version()
    assert {"git_revision", "git_dirty"} <= record.keys()
    [(name, desk)] = record["workloads"].items()
    assert name == "desk-verify"
    assert desk["runs"] == {"parent": 10, "change": 10}
    assert desk["failed_share"] == {"parent": 0.0, "change": 0.01}
    assert desk["speed_factor"] == {"parent": 0.8, "change": 0.8}
    metrics = desk["metrics"]
    assert set(metrics) == {"setup_s", "setup_s raw", "wall_s", "wall_s raw", "op_p50_s", "op_p50_s raw",
                            "peak_rss_mb"}
    op = metrics["op_p50_s"]
    assert (op["verdict"], op["won"], op["pairs"]) == ("better", 10, 10)
    assert op["parent"]["q1"] < op["parent"]["median"] < op["parent"]["q3"]
    assert abs(op["change"]["median"] - 0.9 * op["parent"]["median"]) < 1e-5
    assert metrics["op_p50_s raw"]["verdict"] == "better"
    assert (metrics["setup_s"]["verdict"], metrics["setup_s"]["won"]) == ("unchanged", 0)
    assert metrics["peak_rss_mb"]["verdict"] == "unchanged"


def test_a_result_file_without_a_result_line_is_named_not_loaded(tmp_path, capsys):
    script = _script()
    _write_runs(tmp_path / "parent", 1.0)
    _write_runs(tmp_path / "change", 0.9)
    (tmp_path / "parent" / "desk-verify.3.json").write_text("")
    (tmp_path / "change" / "desk-verify.7.json").write_text("Traceback (most recent call last):\n")
    out = tmp_path / "bench.json"
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]) == 1
    named = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()]
    assert named == [str(tmp_path / "parent" / "desk-verify.3.json"), str(tmp_path / "change" / "desk-verify.7.json")]
    assert not out.exists()
