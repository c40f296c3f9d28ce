"""repro-report: rendering, comparison, JSON mode, and CI gates."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main_report
from repro.obs import Telemetry, TelemetryOptions
from repro.obs.jsonl import write_telemetry
from repro.obs.report import (
    compare_runs,
    lane_metrics,
    load_runs,
    max_efficiency_drop,
    render_comparison,
    render_single,
)
from repro.sim.engine import replay
from repro.sim.runner import CACHE_FACTORIES


@pytest.fixture(scope="module")
def run_files(small_trace, tmp_path_factory):
    """Two telemetry files over the same trace at different disk sizes."""
    root = tmp_path_factory.mktemp("runs")
    paths = []
    for name, disk in (("base", 256), ("cand", 1024)):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=250))
        telemetry.meta["label"] = name
        for algorithm in ("xLRU", "Cafe"):
            replay(
                CACHE_FACTORIES[algorithm](disk),
                small_trace,
                telemetry=telemetry,
                label=algorithm,
            )
        path = root / f"{name}.jsonl"
        write_telemetry(path, telemetry)
        paths.append(str(path))
    return paths


class TestLaneMetrics:
    def test_flattening(self, run_files):
        telemetry_file = load_runs(run_files)[0]
        metrics = lane_metrics(telemetry_file.lanes["xLRU"])
        assert metrics["lane"] == "xLRU"
        assert metrics["algorithm"] == "xLRU"
        assert metrics["requests"] > 0
        assert 0.0 <= metrics["efficiency"] <= 1.0
        assert metrics["fill_chunks"] > 0
        assert metrics["evict_age_p50"] > 0
        cafe = lane_metrics(telemetry_file.lanes["Cafe"])
        assert cafe["iat_fallback_rate"] is not None


class TestRendering:
    def test_single_report_tables(self, run_files):
        text = render_single(load_runs(run_files)[0])
        assert "telemetry: base" in text
        assert "traffic (steady state)" in text
        assert "cache internals" in text
        for lane in ("xLRU", "Cafe"):
            assert lane in text
        assert "snapshot(s)" in text

    def test_comparison_table(self, run_files):
        text = render_comparison(load_runs(run_files))
        assert "steady-state efficiency" in text
        assert "base" in text and "cand" in text
        assert "delta" in text


class TestComparison:
    def test_structure_and_gate(self, run_files):
        comparison = compare_runs(load_runs(run_files))
        assert comparison["files"] == ["base", "cand"]
        assert set(comparison["lanes"]) == {"xLRU", "Cafe"}
        for entry in comparison["lanes"].values():
            assert len(entry["metrics"]) == 2
            assert "efficiency" in entry["deltas"]
        # a 4x bigger disk cannot be a steady-state efficiency regression
        assert max_efficiency_drop(comparison) == 0.0

    def test_same_label_files_keep_separate_columns(self, run_files, tmp_path):
        """Two runs labelled alike (say kernels on and off) stay two
        columns, so the delta compares them instead of a run with
        itself."""
        text = Path(run_files[1]).read_text(encoding="utf-8")
        same = tmp_path / "same-label.jsonl"
        same.write_text(text.replace('"label": "cand"', '"label": "base"'))
        files = load_runs([run_files[0], str(same)])
        assert [f.label for f in files] == ["base", "base"]
        comparison = compare_runs(files)
        assert comparison["files"] == ["base #1", "base #2"]
        assert comparison["lanes"]["xLRU"]["deltas"]["efficiency"] > 0
        header = render_comparison(files).splitlines()[1]
        assert "base #1" in header and "base #2" in header

    def test_missing_lane_tolerated(self, run_files):
        files = load_runs(run_files)
        del files[1].lanes["Cafe"]
        comparison = compare_runs(files)
        assert comparison["lanes"]["Cafe"]["metrics"][1] is None
        assert comparison["lanes"]["Cafe"]["deltas"] == {}


class TestCli:
    def test_single_file(self, run_files, capsys):
        assert main_report([run_files[0]]) == 0
        out = capsys.readouterr().out
        assert "traffic (steady state)" in out

    def test_json_mode(self, run_files, capsys):
        assert main_report(["--json", *run_files]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_ok"] is True
        assert payload["files"] == ["base", "cand"]
        assert set(payload["lanes"]) == {"xLRU", "Cafe"}

    def test_check_rejects_corrupt_file(self, run_files, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "mystery"}\n')
        assert main_report(["--check", str(bad)]) == 1
        err_out = capsys.readouterr().out
        assert "unknown record kind" in err_out or "no meta record" in err_out
        # without --check the same file still renders (tolerant mode)
        assert main_report([str(bad)]) == 0

    def test_max_eff_drop_gate(self, run_files, capsys):
        # bigger disk last: no drop, gate passes
        assert main_report(["--max-eff-drop", "0.0", *run_files]) == 0
        # reversed order: the smaller disk regresses efficiency
        reversed_files = [run_files[1], run_files[0]]
        assert main_report(["--max-eff-drop", "0.0001", *reversed_files]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_reports_drop(self, run_files, capsys):
        code = main_report(
            ["--json", "--max-eff-drop", "1.0", run_files[1], run_files[0]]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_efficiency_drop"] > 0.0
