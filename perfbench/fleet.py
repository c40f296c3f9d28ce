"""The ``fleet`` workload: the availability hierarchy at FULL scale.

``repro-experiment availability``'s topology (``experiments/cdnwide.py``):
europe, africa and asia edges drawn from one ``GlobalCatalog``, xLRU
edges at alpha 2 under a Cafe parent at alpha 0.75.  Each edge disk is
``DISK_SCALED_1TB`` of that edge's footprint; the parent's is 4x the
largest edge disk.

Two arms replay the same ``FleetTrace``:

* fault-free, on the packed-batched lane: each edge's whole shard goes
  through one block walk, then the hops that leave the edges are walked
  level by level;
* faulted, under ``availability.fault_schedule``: the stepwise lane, one
  scalar ``_handle_span`` walk per request in merge-plan order.

``cdn`` and ``trace.fleet`` work only here, and ``core`` is entered per
block and per request rather than per kernel.  The two arms use ``cdn``
in two different ways, so a hop-walk change that helps one and costs
the other shows.
"""

from __future__ import annotations

from typing import Dict

from repro.cdn.faults import FaultRuntime
from repro.cdn.multiserver import CdnSimulator
from repro.cdn.topology import hierarchy
from repro.experiments.availability import fault_schedule
from repro.experiments.cdnwide import (
    CORPUS_FACTOR,
    EDGE_ALPHA,
    EDGE_SERVERS,
    PARENT_ALPHA,
    PARENT_DISK_FACTOR,
)
from repro.experiments.common import DISK_SCALED_1TB
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import build_cache
from repro.structures.scoreheap import ScoreHeap
from repro.trace.fleet import FleetTrace
from repro.workload.generator import TraceGenerator
from repro.workload.global_catalog import GlobalCatalog
from repro.workload.servers import SERVER_PROFILES

from perfbench import layers
from perfbench.common import Budget, Stopwatch, digest, generate_requests, peak_rss_mb, sub_seed, totals_row
from perfbench.tracing import DispatchCounter, label_of

EDGE_ALGORITHM = "xLRU"
PARENT_ALGORITHM = "Cafe"
#: requests per edge.  Each seed's 30-day FULL-scale shard is cut to
#: this length, a little under the shortest shard of seeds 1-30
#: (europe 37.6k, africa 30.2k, asia 23.7k), so every seed does the
#: same work.
EDGE_REQUESTS = {"europe": 36_000, "africa": 29_000, "asia": 23_000}
#: the tests' QUICK scale replays a tenth of that
QUICK_FRACTION = 0.1


def fingerprint(result) -> str:
    """Digest of every exact counter a fleet replay reports."""
    return digest(
        {
            "servers": {name: totals_row(result.summary(name)) for name in sorted(result.per_server)},
            "origin": [
                result.origin_bytes, result.origin_requests,
                result.origin_fill_requests, result.origin_fill_bytes,
                result.origin_redirect_bytes,
            ],
            "hops": sorted(result.redirect_hops.items()),
            "users": [result.num_user_requests, result.user_requested_bytes],
            "lost": [
                result.requests_lost, result.lost_bytes,
                result.fill_requests_lost, result.fill_bytes_lost,
            ],
        }
    )


class Fleet:
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.topology = None
        self.servers: Dict[int, str] = {}
        self.counter = DispatchCounter(self.server_of)
        self.counter.install(type(build_cache(a, 64)) for a in (EDGE_ALGORITHM, PARENT_ALGORITHM))

    def setup(self) -> None:
        scale = self.ctx.scale
        profiles = {name: SERVER_PROFILES[name].scaled(scale.profile_scale) for name in EDGE_SERVERS}
        corpus = GlobalCatalog.generate(
            int(CORPUS_FACTOR * max(p.num_videos for p in profiles.values())),
            seed=sub_seed(self.ctx.seed, "fleet", "corpus"),
        )
        duration = scale.days * 86400.0
        shards = {}
        for name, profile in profiles.items():
            view = corpus.server_view(profile, duration, seed=sub_seed(self.ctx.seed, "fleet", "view", name))
            generator = TraceGenerator(profile, catalog=view, seed=sub_seed(self.ctx.seed, "fleet", name))
            count = EDGE_REQUESTS[name]
            if self.ctx.scale_name == "quick":
                count = int(count * QUICK_FRACTION)
            with self.ctx.span("workload.generate"):
                shards[name] = generate_requests(generator.generate_packed, scale.days, count)
        self.fleet = FleetTrace(shards)
        self.edge_disks = {
            name: max(16, int(shard.unique_chunk_count() * DISK_SCALED_1TB)) for name, shard in shards.items()
        }
        self.parent_disk = PARENT_DISK_FACTOR * max(self.edge_disks.values())
        span = max(float(shard.column("t")[-1]) for shard in shards.values() if len(shard))
        self.schedule = fault_schedule(span)
        with self.ctx.span("trace.merge_plan"):
            self.merge_runs = len(self.fleet.merge_runs()[0])

    def _topology(self):
        edges = {name: build_cache(EDGE_ALGORITHM, self.edge_disks[name], alpha_f2r=EDGE_ALPHA) for name in EDGE_SERVERS}
        parent = build_cache(PARENT_ALGORITHM, self.parent_disk, alpha_f2r=PARENT_ALPHA)
        self.topology = hierarchy(edges, parent)
        self.servers = {}
        return self.topology

    def _arm(self, faults, span: str) -> dict:
        simulator = CdnSimulator(self._topology(), faults=faults)
        with Stopwatch() as watch, self.ctx.span(span):
            result = simulator.run(self.fleet)
        users = result.num_user_requests
        return {
            "seconds": watch.seconds,
            "slowness": watch.slowness,
            "decisions": users,
            "fingerprint": fingerprint(result),
            "requests_lost": result.requests_lost,
            "hop_frac": 1.0 - result.redirect_hops.get(0, 0) / users,
            "lane": {"trace_format": result.report.extra.get("trace_format"), "dispatch": self.counter.take()},
        }

    def clean(self) -> dict:
        return self._arm(None, "cdn.run.clean")

    def faulted(self) -> dict:
        return self._arm(self.schedule, "cdn.run.faulted")

    def server_of(self, cache) -> str:
        """The fleet server holding ``cache``.

        A cold restart swaps an unpickled copy into the topology, so the
        map is rebuilt whenever a cache is not in it.
        """
        name = self.servers.get(id(cache))
        if name is None and self.topology is not None:
            self.servers = {
                id(server.cache): server_name
                for server_name, server in self.topology.servers.items()
                if server.cache is not None
            }
            name = self.servers.get(id(cache))
        return name if name is not None else label_of(cache)

    def close(self) -> None:
        self.counter.uninstall()


def install_layer_spans(tracer, fleet: Fleet) -> None:
    for algo in (EDGE_ALGORITHM, PARENT_ALGORITHM):
        cls = type(build_cache(algo, 64))
        tracer.wrap(cls, "handle_span_block_kernel", lambda c: "core.kernel." + c.name)
        tracer.wrap(cls, "handle_span_block", lambda c: "core.block." + c.name)
        tracer.wrap(cls, "handle_span", lambda c: "core.span." + fleet.server_of(c))
    layers.wrap_public(tracer, ScoreHeap, "structures.heap")
    for attr in layers.RECORD_METHODS:
        tracer.wrap(MetricsCollector, attr, "sim.record")
    tracer.wrap(FaultRuntime, "advance_to", "cdn.fault_advance")


def run(ctx) -> dict:
    """Drive the workload in the role ``ctx.role``; returns the worker result."""
    fleet = Fleet(ctx)
    try:
        fleet.setup()
        out = {"setup_samples": [ctx.setup_done()]}
        if ctx.role == "setup":
            return out
        if ctx.tracer is not None:
            install_layer_spans(ctx.tracer, fleet)
        budget = Budget(ctx.seconds, min_rounds=ctx.min_rounds)
        reps = budget.run({"clean": ctx.rep(fleet.clean, "clean"), "faulted": ctx.rep(fleet.faulted, "faulted")})
        out.update(ctx.arm_summary(reps, budget))
        arms = out["arms"]
        out["e2e"] = {
            "replay_rps": arms["clean"]["rps"],
            "faulted_rps": arms["faulted"]["rps"],
            "latency_p50_ms": [s * 1e3 for s in arms["clean"]["seconds"]],
            "peak_rss_mb": [peak_rss_mb()],
        }
        # no telemetry probe attaches to the fleet lanes
        out["aliases"] = {"probed_rps": "replay_rps"}
        out["fingerprints"] = {arm: [r["fingerprint"] for r in rows] for arm, rows in reps.items()}
        out["requests_lost"] = [r["requests_lost"] for r in reps["faulted"]]
        out["facts"] = {
            "workload.requests": len(fleet.fleet),
            "trace.merge_runs": fleet.merge_runs,
            "cdn.hop_frac": reps["clean"][0]["hop_frac"],
        }
        return out
    finally:
        if ctx.tracer is not None:
            ctx.tracer.uninstall()
        fleet.close()
