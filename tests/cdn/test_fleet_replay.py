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
from repro.cdn.topology import hierarchy, peered_edges
from repro.sim.engine import NO_KERNELS_ENV
from repro.sim.runner import build_cache
from repro.trace.fleet import FleetTrace
from repro.verify.faultcheck import _fingerprint
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
            FaultEvent(
                "brownout", "origin", SPAN * 0.7, SPAN * 0.1, drop_fraction=0.3
            ),
        ],
        seed=9,
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

    @pytest.mark.parametrize("algo", ["Cafe", "xLRU"])
    def test_faulted_all_regions(self, region_traces, algo):
        traces, shards = region_traces
        obj = make_sim(algo, faults=fault_schedule()).run(traces)
        packed = make_sim(algo, faults=fault_schedule()).run(
            FleetTrace(shards)
        )
        assert _fingerprint(obj) == _fingerprint(packed)
        # Faults require the stepwise merged walk, not the batched lane.
        assert packed.report.extra["trace_format"] == "packed"

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

    def test_peered_ring_falls_back_to_stepwise(self, region_traces):
        """Redirect rings among traced edges can deliver one edge's
        traffic to another, so the shard-batched lane must refuse them
        — and still match the object lane byte for byte."""
        traces, shards = region_traces
        obj = make_sim("xLRU", peered=True).run(traces)
        packed = make_sim("xLRU", peered=True).run(FleetTrace(shards))
        assert _fingerprint(obj) == _fingerprint(packed)
        assert packed.report.extra["trace_format"] == "packed"


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
