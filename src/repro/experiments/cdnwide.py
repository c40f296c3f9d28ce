"""CDN-wide experiment: Cafe as the building block of a hierarchy (§10).

"Cafe Cache with defined behavior through alpha_F2R can as well be used
as the underlying building block to adjust traffic between any group of
constrained/non-constrained servers."  This experiment runs the
two-level topology of Section 2 — three regional edge servers
(ingress-constrained, alpha = 2, fills crossing the backbone), one
larger parent cache (cheap ingress, alpha = 0.75), an origin — and
swaps the *edge* algorithm while holding everything else fixed.

Reported per edge algorithm:

* origin egress (traffic the CDN's "lines of defense" failed to
  absorb — fills that walked through every tier plus redirected-to-
  origin requests);
* total edge ingress (the backbone traffic the constrained tier pulls);
* mean edge efficiency and the parent's load.

Expectation from the paper's single-server results: Cafe edges pull far
less backbone traffic than xLRU edges at equal-or-better efficiency,
and pull-through LRU edges are the worst of all worlds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional, Sequence, Tuple

from repro.cdn.multiserver import CdnSimulator
from repro.cdn.topology import hierarchy
from repro.experiments.common import (
    DISK_SCALED_1TB,
    ExperimentResult,
    ExperimentScale,
)
from repro.sim.runner import build_cache
from repro.sim.schedule import resolve_workers
from repro.trace.columnar import PackedTrace
from repro.trace.fleet import FleetTrace
from repro.workload.generator import TraceGenerator
from repro.workload.global_catalog import GlobalCatalog
from repro.workload.servers import SERVER_PROFILES

__all__ = ["run", "EDGE_SERVERS", "EDGE_ALPHA", "PARENT_ALPHA"]

EDGE_SERVERS = ("europe", "africa", "asia")
EDGE_ALPHA = 2.0
PARENT_ALPHA = 0.75
PARENT_DISK_FACTOR = 4
#: corpus size relative to the largest edge view — controls how much
#: content the regional views share (the parent's opportunity)
CORPUS_FACTOR = 1.5

_TRACES: Dict[str, Dict[str, PackedTrace]] = {}
_FLEETS: Dict[str, FleetTrace] = {}


def _edge_traces(scale: ExperimentScale) -> Dict[str, PackedTrace]:
    """Per-edge packed shards drawn from one shared global corpus (memoized).

    Unlike the single-server figures, the hierarchy needs content
    identity to be globally consistent: video 5 must be the same video
    (same size) at every edge, so the parent's cache sees true overlap.
    Shards are generated straight into columns (no ``Request`` lists),
    which is what lets the large scales fit in memory.
    """
    if scale.name not in _TRACES:
        profiles = {
            name: SERVER_PROFILES[name].scaled(scale.profile_scale)
            for name in EDGE_SERVERS
        }
        corpus = GlobalCatalog.generate(
            int(CORPUS_FACTOR * max(p.num_videos for p in profiles.values())),
            seed=77,
        )
        duration = scale.days * 86400.0
        shards = {}
        for name, profile in profiles.items():
            view = corpus.server_view(profile, duration)
            shards[name] = TraceGenerator(profile, catalog=view).generate_packed(
                days=scale.days
            )
        _TRACES[scale.name] = shards
    return _TRACES[scale.name]


def _fleet(scale: ExperimentScale) -> FleetTrace:
    """Memoized :class:`FleetTrace` over the packed shards.

    Validated once per scale and shared by every algorithm arm (and by
    :mod:`repro.experiments.availability`), faulted arms included.
    """
    if scale.name not in _FLEETS:
        _FLEETS[scale.name] = FleetTrace(_edge_traces(scale))
    return _FLEETS[scale.name]


def _disks(traces: Dict[str, PackedTrace]) -> Tuple[Dict[str, int], int]:
    """Edge disks (``DISK_SCALED_1TB`` of each footprint) and the parent's."""
    edge_disks = {
        name: max(16, int(shard.unique_chunk_count() * DISK_SCALED_1TB))
        for name, shard in traces.items()
    }
    return edge_disks, PARENT_DISK_FACTOR * max(edge_disks.values())


def _hierarchy_topology(
    algo: str,
    edge_disks: Dict[str, int],
    parent_disk: int,
    parent_algorithm: str,
):
    edges = {
        name: build_cache(algo, edge_disks[name], alpha_f2r=EDGE_ALPHA)
        for name in EDGE_SERVERS
    }
    parent = build_cache(parent_algorithm, parent_disk, alpha_f2r=PARENT_ALPHA)
    return hierarchy(edges, parent)


def _arm_row(algo: str, result, user_bytes: int) -> dict:
    edge_summaries = [result.summary(name) for name in EDGE_SERVERS]
    parent_summary = result.summary("parent")
    return {
        "edge_algo": algo,
        "origin_gb": result.origin_bytes / 1e9,
        "edge_ingress_gb": sum(s.ingress_bytes for s in edge_summaries) / 1e9,
        "edge_eff_mean": sum(s.efficiency for s in edge_summaries)
        / len(edge_summaries),
        "parent_requests": parent_summary.num_requests,
        "origin_share_of_user_bytes": result.origin_bytes / user_bytes,
    }


def _cdn_arm(
    algo, fleet, edge_disks, parent_disk, parent_algorithm, user_bytes
) -> dict:
    """Replay the hierarchy with one edge algorithm."""
    topology = _hierarchy_topology(
        algo, edge_disks, parent_disk, parent_algorithm
    )
    return _arm_row(algo, CdnSimulator(topology).run(fleet), user_bytes)


def _run_arm(payload) -> dict:
    """Worker entry: attach the shared fleet, replay one edge algorithm."""
    algo, handle, *arm = payload
    fleet = handle.attach()
    try:
        return _cdn_arm(algo, fleet, *arm)
    finally:
        fleet.close()


def run(
    scale: ExperimentScale,
    edge_algorithms: Sequence[str] = ("PullLRU", "xLRU", "Cafe"),
    parent_algorithm: str = "Cafe",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the hierarchy with each edge algorithm; report CDN-wide traffic.

    ``workers`` (or ``REPRO_WORKERS``) > 1 fans the algorithm arms out
    over a process pool; the packed fleet is exported to shared memory
    once and every worker attaches zero-copy.  Rows are identical to
    the serial path — arms are independent replays.
    """
    traces = _edge_traces(scale)
    edge_disks, parent_disk = _disks(traces)
    user_bytes = sum(
        shard.total_requested_bytes() for shard in traces.values()
    )
    fleet = _fleet(scale)
    arm = (edge_disks, parent_disk, parent_algorithm, user_bytes)

    n_workers = min(resolve_workers(workers), len(edge_algorithms))
    if n_workers > 1:
        handle = fleet.to_shared()
        payloads = [(algo, handle, *arm) for algo in edge_algorithms]
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                rows = list(pool.map(_run_arm, payloads))
        finally:
            handle.unlink()
    else:
        rows = [_cdn_arm(algo, fleet, *arm) for algo in edge_algorithms]
    return ExperimentResult(
        name="CDN-wide",
        description=(
            f"two-level hierarchy ({'+'.join(EDGE_SERVERS)} -> {parent_algorithm} "
            f"parent -> origin), edge alpha={EDGE_ALPHA}, parent alpha={PARENT_ALPHA}"
        ),
        rows=rows,
        extras={
            "edge_disks": edge_disks,
            "parent_disk": parent_disk,
            "user_gb": user_bytes / 1e9,
        },
    )
