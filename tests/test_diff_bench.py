"""Tests for the bench-regression differ (``benchmarks/diff_bench.py``).

The differ is a standalone stdlib script (not part of the ``repro``
package), so it is loaded here by file path.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "diff_bench", os.path.join(_ROOT, "benchmarks", "diff_bench.py")
)
diff_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_bench)


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


class TestExtract:
    def test_plain_path(self):
        assert list(diff_bench.extract({"a": {"b": 2.5}}, "a.b")) == [("a.b", 2.5)]

    def test_wildcard_fans_out_sorted(self):
        data = {"schemes": {"trade": {"eps": 2.0}, "static": {"eps": 1.0}}}
        assert list(diff_bench.extract(data, "schemes.*.eps")) == [
            ("schemes.static.eps", 1.0),
            ("schemes.trade.eps", 2.0),
        ]

    def test_missing_and_non_numeric_yield_nothing(self):
        assert list(diff_bench.extract({"a": 1.0}, "b")) == []
        assert list(diff_bench.extract({"a": "text"}, "a")) == []
        assert list(diff_bench.extract({"a": True}, "a")) == []


class TestRegression:
    def test_direction_aware(self):
        # Throughput halved: 50% worse.
        assert diff_bench.regression(10.0, 5.0, "higher") == pytest.approx(0.5)
        # Latency halved: 50% better.
        assert diff_bench.regression(10.0, 5.0, "lower") == pytest.approx(-0.5)
        assert diff_bench.regression(0.0, 5.0, "higher") == 0.0


class TestContextChanges:
    def test_equal_context_reports_nothing(self):
        payload = {"n_nodes": 3, "n_epochs": 4, "epoch_seconds": 6.0,
                   "workers": 3}
        assert diff_bench.context_changes(
            "BENCH_cluster.json", payload, dict(payload)) == []

    def test_changed_and_missing_context_keys_reported(self):
        previous = {"n_nodes": 3, "n_epochs": 4}
        current = {"n_nodes": 4}
        changes = diff_bench.context_changes(
            "BENCH_cluster.json", previous, current)
        assert "n_nodes 3 -> 4" in changes
        assert "n_epochs 4 -> None" in changes

    def test_context_absent_on_both_sides_is_comparable(self):
        # Old artifacts predating the context keys still diff cleanly
        # against each other.
        assert diff_bench.context_changes(
            "BENCH_chaos.json", {"epochs_per_s": 1.0}, {"epochs_per_s": 2.0}
        ) == []


class TestMain:
    def test_warns_on_regression_but_exits_zero(self, tmp_path, capsys):
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_serve.json",
               {"sessions_per_sec": 100.0, "decision_latency_p99_ms": 1.0})
        _write(cur, "BENCH_serve.json",
               {"sessions_per_sec": 50.0, "decision_latency_p99_ms": 0.9})
        code = diff_bench.main([str(prev), str(cur)])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" in out and "sessions_per_sec" in out
        assert "1 regression(s)" in out

    def test_strict_exits_nonzero(self, tmp_path, capsys):
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_chaos.json", {"epochs_per_s": 10.0})
        _write(cur, "BENCH_chaos.json", {"epochs_per_s": 1.0})
        assert diff_bench.main([str(prev), str(cur), "--strict"]) == 1

    def test_within_threshold_is_quiet(self, tmp_path, capsys):
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        payload = {"sessions_per_sec": 100.0, "steps_per_sec": 1000.0,
                   "decision_latency_p50_ms": 0.5, "decision_latency_p99_ms": 2.0}
        _write(prev, "BENCH_serve.json", payload)
        _write(cur, "BENCH_serve.json", {**payload, "sessions_per_sec": 90.0})
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" not in out
        assert "0 regression(s)" in out

    def test_missing_artifacts_skip(self, tmp_path, capsys):
        (tmp_path / "prev").mkdir()
        (tmp_path / "cur").mkdir()
        code = diff_bench.main([str(tmp_path / "prev"), str(tmp_path / "cur")])
        out = capsys.readouterr().out
        assert code == 0
        assert "compared 0 artifact(s)" in out

    def test_reports_improvements_with_notice(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_chaos.json", {"epochs_per_s": 1.0})
        _write(cur, "BENCH_chaos.json", {"epochs_per_s": 2.0})
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "good" in out
        assert "::notice title=bench improvement::" in out
        assert "1 improvement(s)" in out

    def test_scale_change_skips_comparison_without_warning(
            self, tmp_path, capsys):
        # The epoch length changed between runs: epochs/sec is not
        # comparable, so a 10x "regression" must not warn.
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_chaos.json",
               {"epochs_per_s": 10.0, "epoch_seconds": 2.0})
        _write(cur, "BENCH_chaos.json",
               {"epochs_per_s": 1.0, "epoch_seconds": 6.0})
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" not in out
        assert "note" in out and "scale changed" in out
        assert "epoch_seconds 2.0 -> 6.0" in out

    def test_one_sided_metrics_are_noted_not_silent(self, tmp_path, capsys):
        # The previous artifact predates the trade scheme; the current
        # one gained it. Neither direction should warn, but the schema
        # drift must be visible.
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        scheme = {"epochs_per_s": 1.0, "decide_ms": {"mean": 2.0, "max": 4.0}}
        _write(prev, "BENCH_cluster.json", {
            "schemes": {"bo": scheme, "legacy": scheme},
        })
        _write(cur, "BENCH_cluster.json", {
            "schemes": {"bo": scheme, "trade": scheme},
        })
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" not in out
        assert "schemes.trade.epochs_per_s is new" in out
        assert "schemes.legacy.epochs_per_s dropped" in out

    def test_qos_attainment_loss_warns_gain_notices(self, tmp_path, capsys):
        # SLO attainment is one-sided higher-is-better: a drop warns,
        # a gain on another shape is an improvement, never a warning.
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        shapes = lambda flash, diurnal: {"shapes": {
            "flash_crowd": {"BoPF": {"attainment": flash}},
            "diurnal": {"BoPF": {"attainment": diurnal}},
        }}
        _write(prev, "BENCH_qos.json", shapes(0.75, 0.5))
        _write(cur, "BENCH_qos.json", shapes(0.45, 0.9))
        code = diff_bench.main([str(prev), str(cur)])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" in out and "flash_crowd.BoPF.attainment" in out
        assert "good" in out and "diurnal.BoPF.attainment" in out

    def test_qos_first_run_skips_gracefully(self, tmp_path, capsys):
        # First CI run ever writing BENCH_qos.json: no previous-side
        # artifact exists, and the diff must skip it without noise.
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        prev.mkdir()
        _write(cur, "BENCH_qos.json",
               {"shapes": {"flash_crowd": {"BoPF": {"attainment": 0.75}}}})
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "skip  BENCH_qos.json: no previous artifact" in out
        assert "WARN" not in out

    def test_qos_slo_floor_change_skips_comparison(self, tmp_path, capsys):
        # A different SLO floor redefines attainment; raw comparisons
        # across floors would warn for no reason.
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_qos.json", {
            "slo": {"min_speedup": 0.7},
            "shapes": {"flash_crowd": {"BoPF": {"attainment": 0.2}}},
        })
        _write(cur, "BENCH_qos.json", {
            "slo": {"min_speedup": 0.55},
            "shapes": {"flash_crowd": {"BoPF": {"attainment": 0.8}}},
        })
        code = diff_bench.main([str(prev), str(cur), "--strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "WARN" not in out
        assert "scale changed" in out and "slo.min_speedup 0.7 -> 0.55" in out

    def test_summary_file_written(self, tmp_path, capsys):
        prev, cur = tmp_path / "prev", tmp_path / "cur"
        _write(prev, "BENCH_chaos.json", {"epochs_per_s": 10.0})
        _write(cur, "BENCH_chaos.json", {"epochs_per_s": 1.0})
        summary = tmp_path / "summary.md"
        diff_bench.main([str(prev), str(cur), "--summary", str(summary)])
        text = summary.read_text()
        assert "## Bench diff" in text
        assert "### Regressions" in text
        assert "epochs_per_s" in text
