"""Packed fleet replay equivalence: packed vs object lane, faults on/off.

The acceptance bar for the packed CDN lane is *byte identity*: replaying
the same per-edge traces through ``CdnSimulator`` as materialized
``Request`` lists, as a mapping of packed shards, or as a
:class:`~repro.trace.fleet.FleetTrace` must produce indistinguishable
``CdnSimulationResult``s — per-server metrics, origin counters, redirect
hop histograms, loss accounting — with and without a fault schedule.

The matrix here covers all six paper regions as edges of one hierarchy,
every edge algorithm, and faults on/off.  The third axis of the ISSUE's
matrix, ``REPRO_NO_NUMPY``, comes from CI's numpy on/off job matrix:
this whole file runs in both modes.
"""

from __future__ import annotations

import pytest

from repro.cdn.faults import FaultEvent, FaultSchedule
from repro.cdn.multiserver import CdnSimulator
from repro.cdn.topology import ORIGIN, CdnServer, CdnTopology, hierarchy, peered_edges
from repro.sim.engine import NO_KERNELS_ENV
from repro.sim.runner import build_cache
from repro.trace.fleet import FleetTrace
from repro.verify.faultcheck import _fingerprint, _replay_differences
from repro.workload.generator import TraceGenerator
from repro.workload.servers import paper_server_profiles

PROFILES = paper_server_profiles()
REGIONS = sorted(PROFILES)
DAYS = 1.5
SPAN = DAYS * 86400.0


@pytest.fixture(scope="module")
def region_traces():
    """Object and packed traces for all six paper regions (tiny scale)."""
    traces, shards = {}, {}
    for name in REGIONS:
        gen = TraceGenerator(PROFILES[name].scaled(0.01))
        traces[name] = gen.generate(days=DAYS)
        shards[name] = gen.generate_packed(days=DAYS)
    return traces, shards


def make_sim(algo: str, peered: bool = False, faults=None) -> CdnSimulator:
    edges = {name: build_cache(algo, 128) for name in REGIONS}
    if peered:
        return CdnSimulator(peered_edges(edges), faults=faults)
    return CdnSimulator(
        hierarchy(edges, build_cache(algo, 1024)), faults=faults
    )


def fault_schedule() -> FaultSchedule:
    return FaultSchedule(
        [
            FaultEvent("outage", "africa", SPAN * 0.15, SPAN * 0.1),
            FaultEvent("restart", "europe", SPAN * 0.4, SPAN * 0.05),
            FaultEvent("degrade", "parent", SPAN * 0.55, SPAN * 0.1, factor=2.5),
            FaultEvent("outage", "parent", SPAN * 0.62, SPAN * 0.05),
            FaultEvent(
                "brownout", "origin", SPAN * 0.7, SPAN * 0.1, drop_fraction=0.3
            ),
        ],
        seed=9,
    )


def fault_schedule_mid() -> FaultSchedule:
    """Faults for the mid-tier ring: one mid server restarts cold."""
    return FaultSchedule(
        [
            FaultEvent("restart", "mid0", SPAN * 0.3, SPAN * 0.1),
            FaultEvent("outage", "europe", SPAN * 0.5, SPAN * 0.1),
        ],
        seed=3,
    )


class TestFleetEquivalenceMatrix:
    @pytest.mark.parametrize("algo", ["Cafe", "PullLRU", "xLRU", "LFU"])
    def test_fault_free_all_regions(self, region_traces, algo):
        traces, shards = region_traces
        obj = make_sim(algo).run(traces)
        packed = make_sim(algo).run(FleetTrace(shards))
        assert _fingerprint(obj) == _fingerprint(packed)
        # The fault-free hierarchy qualifies for the shard-batched lane.
        assert packed.report.extra["trace_format"] == "packed-batched"

    @pytest.mark.parametrize("algo", ["Cafe", "PullLRU", "xLRU", "LFU"])
    def test_faulted_all_regions(self, region_traces, algo):
        traces, shards = region_traces
        obj = make_sim(algo, faults=fault_schedule()).run(traces)
        packed = make_sim(algo, faults=fault_schedule()).run(
            FleetTrace(shards)
        )
        # Fingerprint, every bucket of every server, the availability
        # accounting and the cache-wipe events all match.
        assert _replay_differences(obj, packed) == []
        # Faults cut the batched lane into epochs instead of leaving it.
        assert packed.report.extra["trace_format"] == "packed-batched"
        assert packed.report.extra["epochs"] > len(fault_schedule())
        assert obj.report.extra["trace_format"] == "object"
        assert "epochs" not in obj.report.extra

    @pytest.mark.parametrize("edge_algo,parent_algo", [("xLRU", "Cafe"), ("Cafe", "xLRU")])
    def test_batched_lane_same_with_kernels_off(
        self, region_traces, monkeypatch, edge_algo, parent_algo
    ):
        """The whole-shard edge batches and the leveled upstream buffers
        give the same bytes through each cache's own block walk and
        through the per-request reference (``REPRO_NO_KERNELS=1``)."""
        _traces, shards = region_traces

        def run():
            edges = {name: build_cache(edge_algo, 128) for name in REGIONS}
            sim = CdnSimulator(hierarchy(edges, build_cache(parent_algo, 1024)))
            return sim.run(FleetTrace(shards))

        walked = run()
        monkeypatch.setenv(NO_KERNELS_ENV, "1")
        reference = run()
        assert walked.report.extra["trace_format"] == "packed-batched"
        assert reference.report.extra["trace_format"] == "packed-batched"
        assert _fingerprint(walked) == _fingerprint(reference)

    def test_shard_mapping_equals_fleet(self, region_traces):
        """A plain mapping of shards replays like an explicit FleetTrace."""
        _traces, shards = region_traces
        from_mapping = make_sim("Cafe").run(shards)
        from_fleet = make_sim("Cafe").run(FleetTrace(shards))
        assert _fingerprint(from_mapping) == _fingerprint(from_fleet)

    def test_peered_ring_falls_back_to_object_lane(self, region_traces):
        """Redirect rings among traced edges can deliver one edge's
        traffic to another, so the shard-batched lane must refuse them
        — replay on the object lane, and say why."""
        traces, shards = region_traces
        obj = make_sim("xLRU", peered=True).run(traces)
        packed = make_sim("xLRU", peered=True).run(FleetTrace(shards))
        assert _fingerprint(obj) == _fingerprint(packed)
        assert packed.report.extra["trace_format"] == "object"
        (event,) = packed.report.events
        assert event.kind == "lane-fallback"
        assert "traced edge" in event.detail

    @pytest.mark.parametrize(
        "faulted", [False, True], ids=["fault-free", "faulted"]
    )
    def test_mid_tier_redirect_cycle_falls_back_to_object_lane(
        self, region_traces, faulted
    ):
        """Two mid-tier servers that redirect to each other form a hop
        cycle that no traced edge re-enters; level batching cannot order
        it, so the packed fleet replays on the object lane."""
        traces, shards = region_traces

        def sim():
            servers = [CdnServer(name=ORIGIN, cache=None)]
            for mid, peer in (("mid0", "mid1"), ("mid1", "mid0")):
                servers.append(
                    CdnServer(
                        name=mid, cache=build_cache("xLRU", 512),
                        fill_from=ORIGIN, redirect_to=peer,
                    )
                )
            for i, name in enumerate(REGIONS):
                mid = f"mid{i % 2}"
                servers.append(
                    CdnServer(
                        name=name, cache=build_cache("xLRU", 128),
                        fill_from=mid, redirect_to=mid,
                    )
                )
            faults = fault_schedule_mid() if faulted else None
            return CdnSimulator(CdnTopology(servers), faults=faults)

        obj = sim().run(traces)
        packed = sim().run(FleetTrace(shards))
        assert _replay_differences(obj, packed) == []
        assert packed.report.extra["trace_format"] == "object"
        fallbacks = [
            e for e in packed.report.events if e.kind == "lane-fallback"
        ]
        assert len(fallbacks) == 1
        assert "cycle" in fallbacks[0].detail
        # The ring is really walked: both mid-tier servers see traffic.
        assert obj.summary("mid0").num_requests
        assert obj.summary("mid1").num_requests


class TestFaultSemanticsPreserved:
    def test_faulted_run_loses_requests(self, region_traces):
        """The fault schedule actually bites at this scale (guards the
        matrix against vacuous equality)."""
        _traces, shards = region_traces
        faulted = make_sim("Cafe", faults=fault_schedule()).run(
            FleetTrace(shards)
        )
        clean = make_sim("Cafe").run(FleetTrace(shards))
        availability = faulted.availability
        assert availability["africa"].failover_hops > 0
        assert availability["europe"].restarts == 1
        assert _fingerprint(faulted) != _fingerprint(clean)
