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
  per-edge attributions, and availability stays in ``[0, 1]``;
* **lane identity** — the same traces replayed as a packed
  :class:`~repro.trace.fleet.FleetTrace` (the epoch-cut shard-batched
  lane) match the object lane, faulted and fault-free, in fingerprint,
  every server's bucket series, the availability accounting and the
  cache-wipe events.

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
from repro.trace.columnar import pack_trace
from repro.trace.fleet import FleetTrace
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
#: pull-through baseline (cheap: no admission state to replay).
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


def _replay_differences(
    a: CdnSimulationResult, b: CdnSimulationResult
) -> List[str]:
    """The aspects in which two replays of one workload differ."""

    def aspects(result: CdnSimulationResult) -> dict:
        events = result.report.events if result.report is not None else []
        return {
            "fingerprint": _fingerprint(result),
            "bucket series": {
                name: c.series() for name, c in result.per_server.items()
            },
            "availability": {
                name: s.to_dict() for name, s in result.availability.items()
            },
            "cache-wipe events": [
                (e.t, e.detail) for e in events if e.kind == "cache-wipe"
            ],
        }

    left, right = aspects(a), aspects(b)
    return [name for name in left if left[name] != right[name]]


def run_fault_scenario(scenario: FaultScenario) -> FaultCheckResult:
    """Run one scenario through every check; see the module docstring."""
    outcome = FaultCheckResult(scenario)
    traces = _edge_traces(scenario)
    schedule = _schedule(scenario, traces)
    fleet = FleetTrace(
        {
            name: pack_trace(trace, chunk_bytes=scenario.chunk_bytes)
            for name, trace in traces.items()
        }
    )

    def replay(faults, audit=True, packed=False):
        """One replay on a fresh topology, keeping audit violations."""
        topology, audits = _build_topology(scenario, audit=audit)
        result = CdnSimulator(topology, faults=faults).run(
            fleet if packed else traces
        )
        for _name, audited in sorted(audits.items()):
            outcome.violations.extend(audited.violations)
        return result

    # 1. Zero-cost disablement: faults=None vs empty schedule.
    baseline = replay(None, audit=False)
    empty = replay(FaultSchedule([]), audit=False)
    if _fingerprint(baseline) != _fingerprint(empty):
        outcome.issues.append(
            "empty FaultSchedule changed the replay (zero-cost contract broken)"
        )

    # 2. Faulted replay with audited caches: invariants must hold.
    faulted = replay(schedule)
    outcome.requests_lost = faulted.requests_lost
    outcome.restarts = sum(
        stats.restarts for stats in faulted.availability.values()
    )

    # 3. Determinism: same schedule on a fresh topology, same bytes.
    if _fingerprint(faulted) != _fingerprint(replay(schedule, audit=False)):
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

    # 5. Lane identity: the packed fleet lane, with and without faults.
    for label, faults, reference in (
        ("faulted", schedule, faulted),
        ("fault-free", None, baseline),
    ):
        packed = replay(faults, packed=True)
        differences = _replay_differences(reference, packed)
        if differences:
            outcome.issues.append(
                f"{label} packed lane differs from the object lane in: "
                + ", ".join(differences)
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
