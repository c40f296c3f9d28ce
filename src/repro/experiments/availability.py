"""Availability experiment: the CDN hierarchy under injected faults.

The paper argues cache servers are "strong lines of defense" against
origin and backbone traffic; this extension measures how gracefully
those lines degrade when servers actually fail.  The CDN-wide workload
of :mod:`repro.experiments.cdnwide` (three regional edges, one parent,
an origin) is replayed twice per edge algorithm — once fault-free, once
under a fixed, seeded fault schedule:

* an **outage** takes the busiest edge (europe) down mid-trace — its
  users fail over to the parent;
* a **cold restart** wipes the africa edge — measuring the re-fill
  bytes and the time it takes the cache to re-warm to its pre-wipe
  occupancy;
* a **degraded link** triples the parent's fill cost for a window;
* an **origin brownout** sheds half the requests that reach the origin
  during a window — the end-to-end failures the defense lines exist to
  prevent.

Reported per edge algorithm: whole-trace efficiency with and without
faults, the efficiency of the failover target *inside* the outage
window, requests lost, re-warm time and re-fill volume.  The schedule
is deterministic (fixed event times as fractions of the trace span,
fixed drop seed), so the experiment is exactly reproducible — and the
no-fault arm is byte-identical to :mod:`repro.experiments.cdnwide`'s
replay of the same topology.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro.cdn.faults import FaultEvent, FaultSchedule
from repro.cdn.multiserver import CdnSimulator
from repro.cdn.topology import ORIGIN
from repro.experiments.cdnwide import (
    EDGE_SERVERS,
    _disks,
    _edge_traces,
    _fleet,
    _hierarchy_topology,
)
from repro.experiments.common import ExperimentResult, ExperimentScale
from repro.sim.schedule import resolve_workers

__all__ = ["run", "fault_schedule", "OUTAGE_SERVER", "RESTART_SERVER"]

#: the edge the outage takes down (its users fail over to the parent)
OUTAGE_SERVER = "europe"
#: the edge the cold restart wipes
RESTART_SERVER = "africa"
#: drop seed of the origin brownout (fixed: the experiment is a benchmark)
FAULT_SEED = 2014

#: event windows as fractions of the trace span ``[start, end)``
OUTAGE_WINDOW = (0.45, 0.50)
RESTART_WINDOW = (0.55, 0.57)
DEGRADE_WINDOW = (0.65, 0.70)
BROWNOUT_WINDOW = (0.75, 0.78)
DEGRADE_FACTOR = 3.0
BROWNOUT_DROP = 0.5


def fault_schedule(span: float) -> FaultSchedule:
    """The experiment's fixed schedule, scaled to a trace span."""

    def window(bounds) -> Dict[str, float]:
        start, end = bounds
        return {"t": start * span, "duration": (end - start) * span}

    return FaultSchedule(
        [
            FaultEvent("outage", OUTAGE_SERVER, **window(OUTAGE_WINDOW)),
            FaultEvent("restart", RESTART_SERVER, **window(RESTART_WINDOW)),
            FaultEvent(
                "degrade", "parent", factor=DEGRADE_FACTOR,
                **window(DEGRADE_WINDOW),
            ),
            FaultEvent(
                "brownout", ORIGIN, drop_fraction=BROWNOUT_DROP,
                **window(BROWNOUT_WINDOW),
            ),
        ],
        seed=FAULT_SEED,
    )


def _fault_row(algo, clean, faulted, outage_t0, outage_t1) -> dict:
    def edge_eff(result) -> float:
        summaries = [result.summary(name) for name in EDGE_SERVERS]
        return sum(s.efficiency for s in summaries) / len(summaries)

    # The failover target's efficiency inside the outage window: how
    # well the backup line of defense holds while europe is dark.
    parent_outage = faulted.per_server["parent"].window(outage_t0, outage_t1)
    parent_clean_outage = clean.per_server["parent"].window(
        outage_t0, outage_t1
    )
    restart_stats = faulted.availability[RESTART_SERVER]
    rewarm = restart_stats.rewarm_seconds
    return {
        "edge_algo": algo,
        "eff_clean": edge_eff(clean),
        "eff_faulted": edge_eff(faulted),
        "eff_drop": edge_eff(clean) - edge_eff(faulted),
        "parent_eff_in_outage": parent_outage.efficiency,
        "parent_eff_in_outage_clean": parent_clean_outage.efficiency,
        "requests_lost": faulted.requests_lost,
        "availability": faulted.availability_ratio,
        "failover_hops": sum(
            s.failover_hops for s in faulted.availability.values()
        ),
        "rewarm_seconds": rewarm[0] if rewarm else float("nan"),
        "refill_gb": restart_stats.refill_bytes / 1e9,
        "origin_gb_clean": clean.origin_bytes / 1e9,
        "origin_gb_faulted": faulted.origin_bytes / 1e9,
    }


def _fault_arm(
    algo, fleet, edge_disks, parent_disk, parent_algorithm, schedule,
    outage_t0, outage_t1,
) -> dict:
    """Replay one edge algorithm fault-free and under ``schedule``."""

    def replay(faults):
        topology = _hierarchy_topology(
            algo, edge_disks, parent_disk, parent_algorithm
        )
        return CdnSimulator(topology, faults=faults).run(fleet)

    return _fault_row(algo, replay(None), replay(schedule), outage_t0, outage_t1)


def _run_fault_arm(payload) -> dict:
    """Worker entry: attach the shared fleet, replay both arms of one algo."""
    algo, handle, *arm = payload
    fleet = handle.attach()
    try:
        return _fault_arm(algo, fleet, *arm)
    finally:
        fleet.close()


def run(
    scale: ExperimentScale,
    edge_algorithms: Sequence[str] = ("PullLRU", "xLRU", "Cafe"),
    parent_algorithm: str = "Cafe",
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Replay the hierarchy with and without faults per edge algorithm.

    ``workers`` (or ``REPRO_WORKERS``) > 1 fans the algorithm arms out
    over a process pool against one shared-memory fleet export.
    """
    traces = _edge_traces(scale)
    edge_disks, parent_disk = _disks(traces)
    span = max(
        float(shard.column("t")[-1]) for shard in traces.values() if len(shard)
    )
    schedule = fault_schedule(span)
    outage_t0, outage_t1 = (f * span for f in OUTAGE_WINDOW)
    fleet = _fleet(scale)
    arm = (
        edge_disks, parent_disk, parent_algorithm, schedule,
        outage_t0, outage_t1,
    )

    rows: List[dict]
    n_workers = min(resolve_workers(workers), len(edge_algorithms))
    if n_workers > 1:
        handle = fleet.to_shared()
        payloads = [(algo, handle, *arm) for algo in edge_algorithms]
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                rows = list(pool.map(_run_fault_arm, payloads))
        finally:
            handle.unlink()
    else:
        rows = [_fault_arm(algo, fleet, *arm) for algo in edge_algorithms]
    return ExperimentResult(
        name="Availability",
        description=(
            f"hierarchy under faults: outage[{OUTAGE_SERVER}] "
            f"{OUTAGE_WINDOW[0]:.0%}-{OUTAGE_WINDOW[1]:.0%}, "
            f"cold restart[{RESTART_SERVER}], degraded parent link "
            f"x{DEGRADE_FACTOR:g}, origin brownout drop="
            f"{BROWNOUT_DROP:g}; parent={parent_algorithm}"
        ),
        rows=rows,
        extras={
            "schedule": schedule.describe(),
            "trace_span_seconds": span,
            "edge_disks": edge_disks,
            "parent_disk": parent_disk,
        },
    )
