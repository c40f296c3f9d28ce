"""Telemetry through the engine and scheduler: snapshots, parity, merging.

The load-bearing guarantee is **probe parity**: replaying with
telemetry attached must produce byte-identical traffic accounting to a
probe-free replay, for every algorithm, on both the object and the
packed engine lanes — probes are observers, never participants.
"""

from __future__ import annotations

import json

import pytest

import repro.sim.engine as engine_module
from repro.obs import Telemetry, TelemetryOptions
from repro.obs.probes import CacheProbe, CafeProbe, PolicyProbe, XlruProbe, probe_for
from repro.sim.engine import MultiReplay, replay
from repro.sim.runner import CACHE_FACTORIES, RunConfig
from repro.sim.schedule import SweepScheduler
from repro.trace.columnar import pack_trace

DISK = 512


def _caches():
    return {name: factory(DISK) for name, factory in CACHE_FACTORIES.items()}


def _probed_registries(trace) -> dict:
    """Each online lane's probed registry as JSON bytes, timers dropped
    (wall-clock).  Bytes, not dicts: key order and every sketch's
    float sum follow the hook order."""
    caches = {
        name: factory(64)
        for name, factory in CACHE_FACTORIES.items()
        if not factory.offline
    }
    telemetry = Telemetry(TelemetryOptions(snapshot_every=0))
    MultiReplay(caches, telemetry=telemetry).run(trace)
    out = {}
    for key, lane in telemetry.lanes.items():
        registry = lane.registry.to_dict()
        del registry["timers"]
        out[key] = json.dumps(registry)
    return out


def _summaries(results):
    return {
        key: (result.totals.to_dict(), result.steady.to_dict())
        for key, result in results.items()
    }


class TestProbeParity:
    def test_object_lane_all_algorithms(self, small_trace, monkeypatch):
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 10**9)
        baseline = MultiReplay(_caches()).run(small_trace)
        telemetry = Telemetry(TelemetryOptions(snapshot_every=256))
        probed = MultiReplay(_caches(), telemetry=telemetry).run(small_trace)
        assert baseline.keys() == probed.keys()
        assert _summaries(baseline) == _summaries(probed)
        assert all(r.report.extra["trace_format"] == "objects" for r in probed.values())

    def test_packed_lane_all_algorithms(self, small_trace):
        packed = pack_trace(small_trace)
        baseline = MultiReplay(_caches()).run(packed)
        telemetry = Telemetry(TelemetryOptions(snapshot_every=256))
        probed = MultiReplay(_caches(), telemetry=telemetry).run(packed)
        assert _summaries(baseline) == _summaries(probed)
        assert all(r.report.extra["trace_format"] == "packed" for r in probed.values())

    def test_probed_registries_match_across_lanes(self, small_trace, monkeypatch):
        """Probes observe the same decisions in the same order on every
        lane: the object lane, the packed lane's hoisted walks over
        64-request blocks, and the same blocks through the per-request
        reference (kernels off)."""
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 10**9)
        objects = _probed_registries(small_trace)
        monkeypatch.setattr(engine_module, "PACKED_BLOCK", 64)
        packed = pack_trace(small_trace)
        walked = _probed_registries(packed)
        monkeypatch.setenv(engine_module.NO_KERNELS_ENV, "1")
        reference = _probed_registries(packed)
        assert walked == objects
        assert reference == objects
        assert '"evict_age"' in objects["xLRU"]  # the 64-chunk disk churns


class TestEngineTelemetry:
    def test_disabled_costs_nothing(self, small_trace):
        results = MultiReplay({"x": CACHE_FACTORIES["xLRU"](DISK)}).run(small_trace)
        result = results["x"]
        assert result.telemetry is None
        assert result.cache.probe is None

    def test_lane_snapshots_and_finish(self, small_trace, monkeypatch):
        monkeypatch.setattr(engine_module, "AUTO_PACK_MIN_REQUESTS", 10**9)
        telemetry = Telemetry(TelemetryOptions(snapshot_every=200))
        results = MultiReplay(
            {"x": CACHE_FACTORIES["xLRU"](DISK)}, telemetry=telemetry
        ).run(small_trace)
        lane = results["x"].telemetry
        assert lane is telemetry.lanes["x"]
        assert lane.algorithm == "xLRU"
        assert len(lane.snapshots) == len(small_trace) // 200
        first = lane.snapshots[0]
        assert set(first) >= {"t", "done", "occupancy", "disk_used"}
        assert first["done"] == 200
        # finish() sealed the lane with summaries and final gauges
        assert lane.num_requests == len(small_trace)
        assert lane.totals["num_requests"] == len(small_trace)
        assert "occupancy" in lane.registry.gauges

    def test_packed_lane_snapshots_json_safe(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=500))
        results = MultiReplay(
            {"x": CACHE_FACTORIES["xLRU"](DISK)}, telemetry=telemetry
        ).run(pack_trace(small_trace))
        lane = results["x"].telemetry
        assert lane.snapshots, "packed lane must sample at block boundaries"
        for snapshot in lane.snapshots:
            assert type(snapshot["t"]) is float  # numpy scalars are not JSON-safe

    def test_probes_can_be_disabled(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(probes=False, snapshot_every=500))
        results = MultiReplay(
            {"x": CACHE_FACTORIES["xLRU"](DISK)}, telemetry=telemetry
        ).run(small_trace)
        lane = results["x"].telemetry
        assert lane.probe is None
        assert results["x"].cache.probe is None
        assert lane.snapshots  # sampling still on

    def test_replay_labels_lane(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=500))
        replay(CACHE_FACTORIES["Cafe"](DISK), small_trace, telemetry=telemetry)
        assert list(telemetry.lanes) == ["Cafe"]
        replay(
            CACHE_FACTORIES["Cafe"](DISK),
            small_trace,
            telemetry=telemetry,
            label="cell-7",
        )
        assert "cell-7" in telemetry.lanes


class TestProbeCapture:
    def test_xlru_probe_contents(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=0))
        replay(CACHE_FACTORIES["xLRU"](64), small_trace, telemetry=telemetry)
        registry = telemetry.lanes["xLRU"].registry
        counters = registry.counters
        assert counters["redirect.never-seen"] >= 1
        assert counters["serve"] + counters["redirect"] == len(small_trace)
        # a 64-chunk disk churns: eviction ages must have been observed
        assert registry.histogram("evict_age").count > 0
        assert registry.histogram("residence").count > 0

    def test_cafe_probe_iat_sources(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=0))
        replay(CACHE_FACTORIES["Cafe"](64), small_trace, telemetry=telemetry)
        lane = telemetry.lanes["Cafe"]
        counters = lane.registry.counters
        sources = [counters.get(k, 0) for k in ("iat.own", "iat.video", "iat.cold")]
        assert sum(sources) > 0
        rate = lane.probe.iat_fallback_rate()
        assert rate is not None and 0.0 <= rate <= 1.0

    def test_probe_dispatch(self):
        assert isinstance(probe_for(CACHE_FACTORIES["xLRU"](8)), XlruProbe)
        assert isinstance(probe_for(CACHE_FACTORIES["Cafe"](8)), CafeProbe)
        # PullLRU runs on the policy-kernel engine, so its lanes count
        # serves, redirects, fills and evictions like every policy's
        assert type(probe_for(CACHE_FACTORIES["PullLRU"](8))) is PolicyProbe
        assert type(probe_for(CACHE_FACTORIES["Belady"](8))) is CacheProbe

    def test_pull_lru_probe_counts_outcomes(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=0))
        replay(CACHE_FACTORIES["PullLRU"](64), small_trace, telemetry=telemetry)
        counters = telemetry.lanes["PullLRU"].registry.counters
        assert counters["serve"] + counters.get("redirect", 0) == len(small_trace)
        assert counters["fill_chunks"] > 0
        assert counters["evict_chunks"] > 0


class TestSchedulerTelemetry:
    def _configs(self):
        return [
            RunConfig("xLRU", 256, 1.0, label="x1"),
            RunConfig("Cafe", 256, 1.0, label="c1"),
            RunConfig("PullLRU", 256, 1.0, label="p1"),
            RunConfig("PullLRU", 256, 2.0, label="p2"),  # collapsed clone
            RunConfig("Belady", 256, 1.0, label="b1"),  # offline single
        ]

    def test_serial_lanes_adopted(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=256))
        scheduler = SweepScheduler(mode="serial", telemetry=telemetry)
        results = scheduler.run(self._configs(), small_trace)
        assert set(results) == {"x1", "c1", "p1", "p2", "b1"}
        assert set(telemetry.lanes) == {"x1", "c1", "p1", "b1"}  # no clone lane
        assert telemetry.lanes["x1"].registry.counters["serve"] > 0
        assert scheduler.events is telemetry.events

    def test_parallel_lanes_cross_process(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=256))
        scheduler = SweepScheduler(workers=2, mode="parallel", telemetry=telemetry)
        results = scheduler.run(self._configs(), small_trace)
        serial = SweepScheduler(mode="serial").run(self._configs(), small_trace)
        for key in serial:
            assert serial[key].totals == results[key].totals
        assert set(telemetry.lanes) == {"x1", "c1", "p1", "b1"}
        # worker-built lanes carried real probe data across the pickle
        assert telemetry.lanes["c1"].registry.counters["serve"] > 0
        assert telemetry.lanes["x1"].totals is not None

    def test_parity_with_and_without_telemetry(self, small_trace):
        bare = SweepScheduler(mode="serial").run(self._configs(), small_trace)
        telemetry = Telemetry(TelemetryOptions(snapshot_every=128))
        probed = SweepScheduler(mode="serial", telemetry=telemetry).run(
            self._configs(), small_trace
        )
        assert _summaries(bare) == _summaries(probed)

    def test_event_log_default_is_private(self):
        scheduler = SweepScheduler(mode="serial")
        assert len(scheduler.events) == 0

    def test_checkpoint_activity_logged(self, small_trace, tmp_path):
        path = tmp_path / "sweep.ckpt"
        configs = self._configs()[:2]
        SweepScheduler(mode="serial", checkpoint=path).run(configs, small_trace)
        # corrupt the tail: the resume must tolerate it and log it
        with open(path, "ab") as fh:
            fh.write(b"\x80garbage")
        telemetry = Telemetry()
        scheduler = SweepScheduler(mode="serial", checkpoint=path, telemetry=telemetry)
        scheduler.run(configs, small_trace)
        tags = {event.tag for event in telemetry.events}
        assert "checkpoint-corrupt-tail" in tags
        assert "checkpoint-resume" in tags


class TestOptionsValidation:
    def test_bad_options(self):
        with pytest.raises(ValueError):
            TelemetryOptions(snapshot_every=-1)
        with pytest.raises(ValueError):
            TelemetryOptions(max_snapshots=1)

    def test_snapshot_thinning(self, small_trace):
        telemetry = Telemetry(TelemetryOptions(snapshot_every=50, max_snapshots=8))
        results = MultiReplay(
            {"x": CACHE_FACTORIES["xLRU"](DISK)}, telemetry=telemetry
        ).run(iter(small_trace))  # generator: object lane
        lane = results["x"].telemetry
        assert len(lane.snapshots) <= 9
        dones = [snapshot["done"] for snapshot in lane.snapshots]
        assert dones == sorted(dones)
        assert dones[-1] >= len(small_trace) - 50
