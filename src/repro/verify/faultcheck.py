"""Fault-schedule fuzzing over small CDN topologies.

The fault layer (:mod:`repro.cdn.faults`) threads failover routing,
cache wipes and brownout drops through the multi-server replay — each
a fresh way to corrupt cache state or double-count traffic.  This
module drives seeded random fault schedules through 1–3 server
topologies with every cache wrapped in an
:class:`~repro.verify.audit.AuditedCache` and checks, per scenario:

* **invariants under faults** — capacity, fill/eviction accounting,
  redirect purity and wipe-emptiness all hold while servers go down,
  restart cold and fail over onto each other;
* **zero-cost disablement** — a replay with ``faults=None`` and one
  with an *empty* :class:`~repro.cdn.faults.FaultSchedule` are
  byte-identical (the "exactly free" contract of the fault layer);
* **determinism** — replaying the same schedule twice on fresh
  topologies produces byte-identical results;
* **loss conservation** — CDN-wide lost counters equal the sum of the
  per-edge attributions, and availability stays in ``[0, 1]``.

``repro-verify --fault-seeds N`` is the CLI surface.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.cdn.faults import FaultSchedule
from repro.cdn.multiserver import CdnSimulationResult, CdnSimulator
from repro.cdn.topology import ORIGIN, CdnServer, CdnTopology, hierarchy
from repro.sim.runner import build_cache
from repro.trace.requests import Request
from repro.verify.audit import AuditedCache, Violation
from repro.verify.fuzz import adversarial_trace

__all__ = [
    "FaultScenario",
    "FaultCheckResult",
    "fault_scenarios",
    "run_fault_scenario",
    "run_fault_fuzz",
]

#: Algorithms exercised by default: the paper's online pair plus the
#: pull-through baseline (cheap, and its heap-free state pickles fast).
DEFAULT_ALGORITHMS = ("PullLRU", "xLRU", "Cafe")


@dataclass(frozen=True)
class FaultScenario:
    """One fault-fuzz case: a topology shape, an algorithm, a schedule seed."""

    seed: int
    num_servers: int  # 1, 2 or 3 cache servers
    algorithm: str
    num_requests: int = 400
    disk_chunks: int = 16
    chunk_bytes: int = 1024
    num_fault_events: int = 4

    def __post_init__(self) -> None:
        if self.num_servers not in (1, 2, 3):
            raise ValueError(
                f"num_servers must be 1, 2 or 3, got {self.num_servers}"
            )

    @property
    def label(self) -> str:
        return (
            f"{self.algorithm}/servers={self.num_servers}/seed={self.seed}"
        )


@dataclass
class FaultCheckResult:
    """Outcome of one fault-fuzz scenario."""

    scenario: FaultScenario
    #: invariant violations collected by the audited caches
    violations: List[Violation] = field(default_factory=list)
    #: accounting/equivalence problems found by the harness itself
    issues: List[str] = field(default_factory=list)
    #: how many requests the faulted replay lost (for reporting)
    requests_lost: int = 0
    restarts: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.issues


def _build_topology(
    scenario: FaultScenario, audit: bool
) -> Tuple[CdnTopology, Dict[str, AuditedCache]]:
    """A 1/2/3-cache-server topology with optionally audited caches.

    * 1 server — a lone edge filling from the origin (no failover
      target: down means straight to origin);
    * 2 servers — a hierarchy with one edge and a parent;
    * 3 servers — a hierarchy with two edges sharing a parent.
    """

    def cache(scale: int = 1):
        inner = build_cache(
            scenario.algorithm,
            scenario.disk_chunks * scale,
            chunk_bytes=scenario.chunk_bytes,
        )
        return AuditedCache(inner, strict=False) if audit else inner

    audits: Dict[str, AuditedCache] = {}

    def note(name: str, c):
        if audit:
            audits[name] = c
        return c

    if scenario.num_servers == 1:
        topology = CdnTopology(
            [
                CdnServer(name=ORIGIN, cache=None),
                CdnServer(name="edge0", cache=note("edge0", cache())),
            ]
        )
        return topology, audits
    num_edges = scenario.num_servers - 1
    edges = {
        f"edge{i}": note(f"edge{i}", cache()) for i in range(num_edges)
    }
    parent = note("parent", cache(scale=2))
    return hierarchy(edges, parent), audits


def _edge_traces(scenario: FaultScenario) -> Dict[str, List[Request]]:
    num_edges = max(1, scenario.num_servers - 1)
    per_edge = max(1, scenario.num_requests // num_edges)
    return {
        f"edge{i}": adversarial_trace(
            seed=scenario.seed * 31 + i,
            num_requests=per_edge,
            disk_chunks=scenario.disk_chunks,
            chunk_bytes=scenario.chunk_bytes,
            p_oversize=0.0,  # oversized requests never fill; keep traffic real
        )
        for i in range(num_edges)
    }


def _schedule(
    scenario: FaultScenario, traces: Dict[str, List[Request]]
) -> FaultSchedule:
    span = max(
        (trace[-1].t for trace in traces.values() if trace), default=1.0
    )
    cache_servers = [f"edge{i}" for i in range(len(traces))]
    if scenario.num_servers > 1:
        cache_servers.append("parent")
    return FaultSchedule.random(
        cache_servers,
        ORIGIN,
        duration=max(span, 1.0),
        seed=scenario.seed,
        num_events=scenario.num_fault_events,
    )


def _fingerprint(result: CdnSimulationResult) -> tuple:
    """Comparable byte-level summary of one CDN replay."""
    per_server = tuple(
        (name, dataclasses.astuple(result.summary(name)))
        for name in sorted(result.per_server)
    )
    return (
        per_server,
        result.origin_bytes,
        result.origin_requests,
        result.origin_fill_requests,
        result.origin_fill_bytes,
        tuple(sorted(result.redirect_hops.items())),
        result.num_user_requests,
        result.user_requested_bytes,
        result.origin_redirect_bytes,
        result.requests_lost,
        result.lost_bytes,
        result.fill_requests_lost,
        result.fill_bytes_lost,
    )


def run_fault_scenario(scenario: FaultScenario) -> FaultCheckResult:
    """Run one scenario through every check; see the module docstring."""
    outcome = FaultCheckResult(scenario)
    traces = _edge_traces(scenario)
    schedule = _schedule(scenario, traces)

    # 1. Zero-cost disablement: faults=None vs empty schedule.
    topo_none, _ = _build_topology(scenario, audit=False)
    baseline = CdnSimulator(topo_none).run(traces)
    topo_empty, _ = _build_topology(scenario, audit=False)
    empty = CdnSimulator(topo_empty, faults=FaultSchedule([])).run(traces)
    if _fingerprint(baseline) != _fingerprint(empty):
        outcome.issues.append(
            "empty FaultSchedule changed the replay (zero-cost contract broken)"
        )

    # 2. Faulted replay with audited caches: invariants must hold.
    topo_fault, audits = _build_topology(scenario, audit=True)
    faulted = CdnSimulator(topo_fault, faults=schedule).run(traces)
    for name, audited in sorted(audits.items()):
        outcome.violations.extend(audited.violations)
    outcome.requests_lost = faulted.requests_lost
    outcome.restarts = sum(
        stats.restarts for stats in faulted.availability.values()
    )

    # 3. Determinism: same schedule on a fresh topology, same bytes.
    topo_again, _ = _build_topology(scenario, audit=True)
    again = CdnSimulator(topo_again, faults=schedule).run(traces)
    if _fingerprint(faulted) != _fingerprint(again):
        outcome.issues.append(
            "faulted replay is not deterministic across identical runs"
        )

    # 4. Loss conservation and availability bounds.
    edge_lost = sum(
        stats.lost_requests for stats in faulted.availability.values()
    )
    if edge_lost != faulted.requests_lost:
        outcome.issues.append(
            f"lost-request attribution mismatch: CDN-wide "
            f"{faulted.requests_lost} != per-edge sum {edge_lost}"
        )
    ratio = faulted.availability_ratio
    if faulted.num_user_requests and not 0.0 <= ratio <= 1.0:
        outcome.issues.append(f"availability_ratio {ratio} out of [0, 1]")
    served_plus_lost = faulted.num_user_requests
    expected = sum(len(trace) for trace in traces.values())
    if served_plus_lost != expected:
        outcome.issues.append(
            f"user-request conservation broken: replayed {served_plus_lost} "
            f"of {expected} trace requests"
        )
    return outcome


def fault_scenarios(
    seeds: int = 10,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_requests: int = 400,
) -> Iterator[FaultScenario]:
    """The default fault-fuzz matrix: ``seeds`` scenarios per algorithm,
    cycling topology sizes 1 -> 2 -> 3."""
    for algorithm in algorithms:
        for i in range(seeds):
            yield FaultScenario(
                seed=4000 + i,
                num_servers=(i % 3) + 1,
                algorithm=algorithm,
                num_requests=num_requests,
            )


def run_fault_fuzz(
    seeds: int = 10,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    num_requests: int = 400,
) -> List[FaultCheckResult]:
    """Run the whole matrix; returns every scenario outcome."""
    return [
        run_fault_scenario(scenario)
        for scenario in fault_scenarios(seeds, algorithms, num_requests)
    ]
