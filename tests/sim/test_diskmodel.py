"""Tests for the disk read/write interference model (Section 2)."""

import math

import pytest

from repro.core.cafe import CafeCache
from repro.core.costs import CostModel
from repro.sim.diskmodel import DiskModel, analyze_disk_load
from repro.sim.engine import replay
from repro.sim.runner import build_cache


class TestDiskModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel(read_blocks_per_second=0.0)
        with pytest.raises(ValueError):
            DiskModel(read_blocks_per_second=100.0, write_read_penalty=-1.0)
        with pytest.raises(ValueError):
            DiskModel(read_blocks_per_second=100.0, block_bytes=0)

    def test_paper_penalty_default(self):
        """'for every extra write-block operation we lose 1.2-1.3 reads'."""
        model = DiskModel(read_blocks_per_second=1000.0)
        assert 1.2 <= model.write_read_penalty <= 1.3

    def test_effective_capacity(self):
        model = DiskModel(read_blocks_per_second=1000.0, write_read_penalty=1.25)
        assert model.effective_read_capacity(0.0) == 1000.0
        assert model.effective_read_capacity(100.0) == 875.0

    def test_capacity_floor_zero(self):
        model = DiskModel(read_blocks_per_second=100.0, write_read_penalty=1.25)
        assert model.effective_read_capacity(1e6) == 0.0


class TestAnalyzeLoad:
    @pytest.fixture(scope="class")
    def cafe_result(self, medium_trace):
        return replay(CafeCache(256, cost_model=CostModel(2.0)), medium_trace)

    def test_sample_per_bucket(self, cafe_result):
        model = DiskModel(read_blocks_per_second=1e6)
        report = analyze_disk_load(cafe_result, model)
        assert len(report.samples) == len(cafe_result.metrics.series())

    def test_roomy_disk_never_overloads(self, cafe_result):
        model = DiskModel(read_blocks_per_second=1e9)
        report = analyze_disk_load(cafe_result, model)
        assert report.overloaded_buckets == 0
        assert report.peak_utilization < 1.0

    def test_tiny_disk_overloads_every_serving_bucket(self, cafe_result):
        model = DiskModel(read_blocks_per_second=1e-6)
        report = analyze_disk_load(cafe_result, model)
        serving = [s for s in report.samples if s.read_blocks_per_second > 0]
        assert serving
        assert all(s.utilization > 1.0 for s in serving)
        assert math.isinf(report.peak_utilization) or report.peak_utilization > 1.0

    def test_summary_keys(self, cafe_result):
        report = analyze_disk_load(cafe_result, DiskModel(read_blocks_per_second=1e5))
        summary = report.summary()
        assert {"buckets", "overload_fraction", "reads_lost_to_writes"} <= set(summary)

    def test_reads_and_writes_track_traffic(self, cafe_result):
        model = DiskModel(read_blocks_per_second=1e6, block_bytes=1 << 18)
        report = analyze_disk_load(cafe_result, model)
        interval = cafe_result.metrics.interval
        total_reads = sum(
            s.read_blocks_per_second * interval for s in report.samples
        )
        expected = cafe_result.totals.egress_bytes / model.block_bytes
        assert total_reads == pytest.approx(expected, rel=1e-6)


class TestSection2Argument:
    def test_cafe_destroys_less_read_capacity_than_pull_lru(self, medium_trace):
        """The disk-constrained case for alpha > 1, quantified: the
        cache-all policy's writes destroy far more read capacity."""
        model = DiskModel(read_blocks_per_second=1e5)
        cafe = analyze_disk_load(
            replay(CafeCache(256, cost_model=CostModel(2.0)), medium_trace), model
        )
        pull = analyze_disk_load(
            replay(build_cache("PullLRU", 256, alpha_f2r=2.0), medium_trace),
            model,
        )
        assert cafe.reads_lost_to_writes < 0.5 * pull.reads_lost_to_writes

    def test_sized_disk_overloads_under_pull_lru_only(self, medium_trace):
        """A disk provisioned for Cafe's load melts under cache-all."""
        cafe_result = replay(
            CafeCache(256, cost_model=CostModel(2.0)), medium_trace
        )
        pull_result = replay(
            build_cache("PullLRU", 256, alpha_f2r=2.0), medium_trace
        )
        # provision to Cafe's peak with 10% headroom
        probe = DiskModel(read_blocks_per_second=1.0)
        peak = max(
            s.read_blocks_per_second + 1.25 * s.write_blocks_per_second
            for s in analyze_disk_load(cafe_result, probe).samples
        )
        model = DiskModel(read_blocks_per_second=1.1 * peak)
        assert analyze_disk_load(cafe_result, model).overloaded_buckets == 0
        assert analyze_disk_load(pull_result, model).overloaded_buckets > 0
