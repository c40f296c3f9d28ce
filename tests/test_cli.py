"""Tests for the command-line entry points."""

import pytest

from repro.cli import main_experiment, main_gen, main_sim, main_verify


class TestGen:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main_gen(
            ["--server", "asia", "--days", "1", "--scale", "0.02", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_writes_jsonl_with_stats(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl.gz"
        code = main_gen(
            ["--server", "asia", "--days", "1", "--scale", "0.02", "--stats", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "videos" in captured

    def test_rejects_unknown_server(self, tmp_path):
        with pytest.raises(SystemExit):
            main_gen(["--server", "mars", str(tmp_path / "x.csv")])


class TestSim:
    @pytest.fixture
    def trace_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        main_gen(["--server", "asia", "--days", "2", "--scale", "0.02", str(out)])
        return out

    def test_replays_trace(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--algorithm", "Cafe", "--disk-chunks", "64",
             "--alpha", "2.0"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "efficiency" in captured
        assert "Cafe" in captured

    def test_series_flag(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--disk-chunks", "64", "--series"]
        )
        assert code == 0
        assert "time series" in capsys.readouterr().out

    def test_offline_algorithm(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--algorithm", "Psychic", "--disk-chunks", "64"]
        )
        assert code == 0

    def test_requires_disk_chunks(self, trace_file):
        with pytest.raises(SystemExit):
            main_sim([str(trace_file)])

    def test_profile_flag(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--disk-chunks", "64", "--profile", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # cProfile table goes to stderr, the normal report to stdout.
        assert "cumulative" in captured.err
        assert "efficiency" in captured.out

    def test_profile_flag_default_n(self, trace_file, capsys):
        code = main_sim([str(trace_file), "--disk-chunks", "64", "--profile"])
        assert code == 0
        assert "cumulative" in capsys.readouterr().err

    def test_fleet_lane(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--algorithm", "Cafe", "--disk-chunks", "64",
             "--fleet-edges", "3"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "edge00" in captured and "edge02" in captured
        assert "parent" in captured
        assert "origin offload" in captured

    def test_profile_covers_fleet_lane(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--disk-chunks", "64",
             "--fleet-edges", "2", "--profile", "40"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # The profile must attribute time inside the batched fleet
        # replay (its per-epoch walk), not just the single-cache engine.
        assert "_replay_epoch" in captured.err
        assert "efficiency" in captured.out

    def test_fleet_rejects_single_lane_flags(self, trace_file, tmp_path):
        with pytest.raises(SystemExit):
            main_sim(
                [str(trace_file), "--disk-chunks", "64", "--fleet-edges", "2",
                 "--telemetry", str(tmp_path / "t.jsonl")]
            )
        with pytest.raises(SystemExit):
            main_sim(
                [str(trace_file), "--disk-chunks", "64", "--fleet-edges", "0"]
            )


class TestExperiment:
    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main_experiment(["fig99"])

    def test_runs_fig4_quick(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        code = main_experiment(["fig4"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Figure 4" in captured
        assert "scale: quick" in captured

    def test_scale_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        code = main_experiment(["fig5", "--scale", "quick"])
        assert code == 0
        assert "scale: quick" in capsys.readouterr().out

    def test_checkpoint_flag_sets_env(self, tmp_path, capsys, monkeypatch):
        import os

        # register the var with monkeypatch so the CLI's mutation is
        # rolled back after the test
        monkeypatch.setenv("REPRO_CHECKPOINT", "sentinel")
        monkeypatch.setenv("REPRO_SCALE", "quick")
        path = tmp_path / "sweep.ckpt"
        code = main_experiment(["fig4", "--checkpoint", str(path)])
        assert code == 0
        assert os.environ["REPRO_CHECKPOINT"] == str(path)

    def test_runs_availability_quick(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        code = main_experiment(["availability"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Availability" in captured
        assert "eff_faulted" in captured


class TestValidate:
    @pytest.fixture
    def trace_file(self, tmp_path):
        from repro.cli import main_gen

        out = tmp_path / "trace.csv"
        main_gen(["--server", "asia", "--days", "1", "--scale", "0.02", str(out)])
        return out

    def test_clean_trace_exits_zero(self, trace_file, capsys):
        from repro.cli import main_validate

        assert main_validate([str(trace_file)]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_dirty_trace_exits_one(self, tmp_path, capsys):
        from repro.cli import main_validate
        from repro.trace.io import write_trace_csv
        from repro.trace.requests import Request

        path = tmp_path / "dirty.csv"
        write_trace_csv(path, [Request(10.0, 1, 0, 9), Request(5.0, 2, 0, 9)])
        assert main_validate([str(path)]) == 1
        assert "time-order" in capsys.readouterr().out

    def test_repair_writes_clean_copy(self, tmp_path, capsys):
        from repro.cli import main_validate
        from repro.trace.io import write_trace_csv
        from repro.trace.requests import Request

        dirty = tmp_path / "dirty.csv"
        fixed = tmp_path / "fixed.csv"
        write_trace_csv(dirty, [Request(10.0, 1, 0, 9), Request(5.0, 2, 0, 9)])
        assert main_validate([str(dirty), "--repair", str(fixed)]) == 0
        assert main_validate([str(fixed)]) == 0


class TestSimAudit:
    @pytest.fixture
    def trace_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        main_gen(["--server", "asia", "--days", "2", "--scale", "0.02", str(out)])
        return out

    def test_clean_audit_exits_zero(self, trace_file, capsys):
        code = main_sim(
            [str(trace_file), "--algorithm", "xLRU", "--disk-chunks", "64",
             "--audit"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "audit[xLRU]" in captured
        assert "OK" in captured


class TestVerify:
    def test_all_algorithms_match_oracles(self, capsys):
        code = main_verify(["--seeds", "2", "--requests", "120"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "all algorithms match their oracles" in captured
        assert "Cafe" in captured and "xLRU" in captured

    def test_algorithm_subset(self, capsys):
        code = main_verify(
            ["--seeds", "1", "--requests", "80", "--algorithms", "PullLRU"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PullLRU" in out
        assert "Cafe" not in out.split("differential verification")[-1]

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main_verify(["--algorithms", "NotReal"])

    def test_replay_missing_artifact_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main_verify(["--replay", str(tmp_path / "nope")])

    def test_fault_fuzz_table_prints(self, capsys):
        code = main_verify(
            ["--seeds", "1", "--requests", "100", "--fault-seeds", "2",
             "--algorithms", "PullLRU"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault fuzzing" in out
        assert "restarts" in out

    def test_fault_seeds_zero_disables(self, capsys):
        code = main_verify(
            ["--seeds", "1", "--requests", "80", "--fault-seeds", "0",
             "--algorithms", "PullLRU"]
        )
        assert code == 0
        assert "fault fuzzing" not in capsys.readouterr().out

    def test_replay_roundtrip(self, tmp_path, capsys):
        from repro.verify.differential import dump_counterexample
        from repro.verify.fuzz import FuzzScenario
        from repro.verify.differential import DifferentialResult

        scenario = FuzzScenario(
            seed=5, num_requests=40, disk_chunks=4, chunk_bytes=1024,
            alpha_f2r=1.0,
        )
        result = DifferentialResult(algorithm="PullLRU", num_requests=40)
        path = dump_counterexample(
            str(tmp_path), "PullLRU", scenario, result, scenario.trace()
        )
        # artifact replays clean against the (correct) current sources
        code = main_verify(["--replay", path])
        assert code == 0
        assert "no longer reproduces" in capsys.readouterr().out
