"""Hierarchical multi-server replay (the Section 10 CDN-wide setting).

Each edge server receives its own user trace.  Per request:

* the edge's cache decides serve-or-redirect exactly as in the
  single-server model;
* a **redirect** forwards the original request along ``redirect_to``
  (the secondary map); after ``max_redirects`` hops, or when no target
  remains, the origin serves it;
* a **serve with cache-fill** generates *fill requests* to the server's
  ``fill_from`` target — one per contiguous chunk run, chunk-aligned —
  which that server handles like any other request ("a request ... may
  be received from a user or from another (downstream) server for a
  cache fill").  Fills recurse up to the origin.

Traces from multiple edges are merged in timestamp order so every cache
sees non-decreasing time.  The result carries per-server metrics plus
CDN-wide aggregates: origin egress (the traffic the CDN failed to
absorb at its "lines of defense") and redirect-hop counts.

Two replay lanes produce byte-identical results:

* the **object lane** walks ``heapq``-merged ``Request`` streams one
  request at a time through :meth:`CdnSimulator._handle_span` (any
  mapping of request iterables, validated on the fly during the merge
  walk).  It is the reference the packed lane is checked against;
* the **packed lane** (a :class:`~repro.trace.fleet.FleetTrace`, or a
  mapping of :class:`~repro.trace.columnar.PackedTrace` shards) runs
  shard-batched: each edge's shard goes through one call of the
  cache's block entry (``handle_span_block_kernel``), and the hops its
  miss list names are walked level by level, one block-entry call per
  upstream buffer.  A fault schedule cuts the replay into *epochs* at
  every event's ``t`` and ``t_end``; fault state is constant within
  one, so each epoch runs the same batched lane with the fault
  semantics applied once per epoch.  A packed fleet whose hop graph
  has a cycle, or whose hop chains can reach a traced edge (peered
  rings), replays on the object lane instead, and the run report's
  events say why.

A :class:`~repro.cdn.faults.FaultSchedule` can be injected to model
server outages, cold restarts (cache wipes), degraded ingress links
and origin brownouts; see :mod:`repro.cdn.faults` for the routing and
accounting semantics.  Without a schedule the object lane pays one
``is None`` check per hop and the packed lane runs as a single epoch,
byte-identical to a fault-unaware replay.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.base import SERVE_HIT, Decision
from repro.sim.instrumentation import (
    EngineEvent,
    ProgressCallback,
    ProgressTicker,
    RunReport,
    StageTimer,
)
from repro.sim.metrics import MetricsCollector, TrafficSummary
from repro.sim.engine import _block_entry, _kernels_enabled
from repro.trace.columnar import PackedTrace, pack_trace, request_block
from repro.trace.fleet import FleetTrace
from repro.trace.requests import Request
from repro.cdn.faults import FaultRuntime, FaultSchedule, ServerAvailability
from repro.cdn.topology import CdnTopology

__all__ = ["CdnSimulator", "CdnSimulationResult"]


@dataclass
class CdnSimulationResult:
    """Per-server and CDN-wide outcomes of one multi-server replay."""

    topology: CdnTopology
    per_server: Dict[str, MetricsCollector]
    #: bytes served by the origin (requests the CDN could not absorb)
    origin_bytes: int = 0
    #: user requests that ended at the origin via redirects
    origin_requests: int = 0
    #: cache-fill requests that reached the origin (directly or after
    #: redirects at intermediate servers)
    origin_fill_requests: int = 0
    #: bytes of ``origin_bytes`` attributable to cache fills
    origin_fill_bytes: int = 0
    #: distribution of redirect chain lengths: hops -> request count
    redirect_hops: Dict[int, int] = field(default_factory=dict)
    num_user_requests: int = 0
    user_requested_bytes: int = 0
    #: user-requested bytes that ended up served by the origin
    origin_redirect_bytes: int = 0
    #: user requests dropped by an origin brownout (served by no one)
    requests_lost: int = 0
    lost_bytes: int = 0
    #: cache-fill requests dropped by an origin brownout (the transfer
    #: is assumed to succeed on transport-level retry, so cache state
    #: stays consistent; the degraded service is what is counted)
    fill_requests_lost: int = 0
    fill_bytes_lost: int = 0
    #: per-server availability accounting; empty when no faults ran
    availability: Dict[str, ServerAvailability] = field(default_factory=dict)
    #: the fault schedule this replay ran under (None = fault-free)
    faults: Optional[FaultSchedule] = None
    #: engine observability: wall time, request rate, stage breakdown
    report: Optional[RunReport] = None

    def summary(self, server: str) -> TrafficSummary:
        """Whole-run traffic totals of one named server."""
        return self.per_server[server].totals()

    @property
    def origin_offload(self) -> float:
        """Fraction of user-requested bytes the cache tier absorbed.

        This counts only redirected-to-origin traffic against the CDN;
        fills that transited the origin are visible in ``origin_bytes``.
        """
        if self.user_requested_bytes == 0:
            return float("nan")
        return 1.0 - self.origin_redirect_bytes / self.user_requested_bytes

    @property
    def availability_ratio(self) -> float:
        """Fraction of user requests that were served by *someone*.

        1.0 in a fault-free replay; below 1.0 only when origin
        brownouts dropped requests end to end.
        """
        if self.num_user_requests == 0:
            return float("nan")
        return 1.0 - self.requests_lost / self.num_user_requests

    def describe(self) -> str:
        """Multi-line human-readable report of the replay."""
        lines = [
            f"CDN replay: {self.num_user_requests} user requests, "
            f"origin served {self.origin_bytes / 1e9:.2f} GB "
            f"({self.origin_requests} redirected-to-origin requests)"
        ]
        if self.faults is not None:
            lines.append(
                f"  faults: {self.faults.describe()} -> "
                f"{self.requests_lost} lost requests "
                f"(availability {self.availability_ratio:.4f})"
            )
        for name, collector in sorted(self.per_server.items()):
            s = collector.totals()
            if s.num_requests == 0:
                continue
            lines.append(
                f"  {name}: eff={s.efficiency:.3f} "
                f"redirect={s.redirect_ratio:.3f} ingress={s.ingress_fraction:.3f} "
                f"({s.num_requests} requests)"
            )
        return "\n".join(lines)


class CdnSimulator:
    """Replays per-edge user traces through a :class:`CdnTopology`.

    ``faults`` (optional) injects the :mod:`repro.cdn.faults` event
    schedule: down servers are skipped via failover routing, cold
    restarts wipe cache state at recovery, degraded links and origin
    brownouts are accounted.  ``faults=None`` and an empty schedule are
    equivalent — and exactly free.  Faulted packed replays stay on the
    shard-batched lane, one epoch per stretch of constant fault state
    (``report.extra["epochs"]``).
    """

    def __init__(
        self,
        topology: CdnTopology,
        max_redirects: int = 4,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if max_redirects < 1:
            raise ValueError("max_redirects must be >= 1")
        self.topology = topology
        self.max_redirects = max_redirects
        self.faults = faults
        #: the live FaultRuntime while :meth:`run` executes (None
        #: otherwise, and None throughout for empty/absent schedules)
        self._rt: Optional[FaultRuntime] = None

    def run(
        self,
        edge_traces: "Mapping[str, Iterable[Request]] | FleetTrace",
        interval: float = 3600.0,
        progress: Optional[ProgressCallback] = None,
        progress_every: int = 8192,
    ) -> CdnSimulationResult:
        """Replay ``edge_traces`` (server name -> its user trace).

        Accepts a :class:`~repro.trace.fleet.FleetTrace`, a mapping of
        :class:`~repro.trace.columnar.PackedTrace` shards (wrapped into
        a fleet automatically), or a mapping of plain request iterables
        — including one-shot generators, whose lengths are unknown
        (progress callbacks then receive ``total=None``).  All forms
        produce byte-identical results; the packed forms replay through
        the caches' block entries unless the hop graph forbids it.
        Unsorted traces fail fast during the merge walk with the
        offending edge and index.
        """
        fleet: Optional[FleetTrace] = None
        if isinstance(edge_traces, FleetTrace):
            fleet = edge_traces
        elif edge_traces and all(
            isinstance(trace, PackedTrace) for trace in edge_traces.values()
        ):
            fleet = FleetTrace(edge_traces)
        names = fleet.names if fleet is not None else edge_traces.keys()
        for name in names:
            if name not in self.topology:
                raise KeyError(f"trace for unknown server {name!r}")
            if self.topology[name].is_origin:
                raise ValueError("user traces cannot target the origin directly")

        collectors: Dict[str, MetricsCollector] = {}
        for name, server in self.topology.servers.items():
            if server.cache is not None:
                collectors[name] = MetricsCollector(
                    server.cache.cost_model,
                    chunk_bytes=server.cache.chunk_bytes,
                    interval=interval,
                )

        result = CdnSimulationResult(
            topology=self.topology, per_server=collectors
        )

        rt = self.faults.runtime(self.topology) if self.faults is not None else None
        self._rt = rt
        events: List[EngineEvent] = []

        timer = StageTimer()
        traces = fleet.shards if fleet is not None else edge_traces
        try:
            total: Optional[int] = sum(len(trace) for trace in traces.values())
        except TypeError:  # generator/streaming traces have no len()
            total = None
        ticker = ProgressTicker(progress, every=progress_every, total=total)
        extra: Dict[str, object] = {
            "edges": len(names),
            "servers": len(self.topology.servers),
            "trace_format": "object",
        }
        t0 = time.perf_counter()
        try:
            if fleet is not None:
                self._replay_fleet(fleet, result, rt, events, ticker, extra)
            else:
                self._replay_objects(edge_traces, result, rt, events, ticker)
        finally:
            self._rt = None
        wall = time.perf_counter() - t0
        timer.add("replay", wall, result.num_user_requests)
        ticker.finish(result.num_user_requests)

        if rt is not None:
            result.availability = rt.availability
            result.faults = self.faults
            extra["fault_events"] = len(self.faults)
            extra["requests_lost"] = result.requests_lost
        result.report = RunReport(
            engine="cdn",
            mode="serial",
            wall_seconds=wall,
            num_requests=result.num_user_requests,
            num_caches=len(collectors),
            stages=timer.timings(),
            extra=extra,
            events=events,
        )
        return result

    # -- internals -----------------------------------------------------------

    def _replay_objects(self, edge_traces, result, rt, events, ticker) -> None:
        """The object lane: one :meth:`_handle_span` walk per request.

        Requests are ``heapq``-merged across edges (validated on the
        fly).  Before each one, ``rt`` applies every cache wipe whose
        recovery time has passed.
        """
        handle = self._handle_span
        hops_map = result.redirect_hops
        for name, request in _merge_by_time(edge_traces):
            t = request.t
            if rt is not None:
                for wiped in rt.advance_to(t):
                    events.append(EngineEvent(t, "cache-wipe", wiped))
            result.num_user_requests += 1
            nbytes = request.b1 - request.b0 + 1
            result.user_requested_bytes += nbytes
            hops = handle(
                name, t, request.video, request.b0, request.b1, nbytes,
                result, 0, edge=name,
            )
            hops_map[hops] = hops_map.get(hops, 0) + 1
            ticker.tick(result.num_user_requests)

    def _replay_fleet(
        self,
        fleet: FleetTrace,
        result: CdnSimulationResult,
        rt: Optional[FaultRuntime],
        events: List[EngineEvent],
        ticker: ProgressTicker,
        extra: Dict[str, object],
    ) -> None:
        """Replay a packed fleet, noting its lane (and epochs) in ``extra``.

        A fleet whose hop chains can reach a traced edge, or whose hop
        graph has a cycle, replays on the object lane, and a
        ``lane-fallback`` event names the reason.  Every other fleet
        runs on the shard-batched lane.  Per edge, the shard is
        rechunked once to the edge cache's chunk size, then cut at
        every fault event's ``t`` and ``t_end`` into *epochs* of
        constant fault state, each replayed by :meth:`_replay_epoch`.
        A request exactly on a boundary falls into the later epoch, as
        the ``[t, t_end)`` windows say.  A fault-free replay is a
        single epoch.
        """
        order, reason = self._hop_order(fleet.names)
        if order is None:
            events.append(
                EngineEvent(
                    0.0, "lane-fallback",
                    f"packed fleet replayed on the object lane: {reason}",
                )
            )
            self._replay_objects(fleet.shards, result, rt, events, ticker)
            return
        # Lanes in name order: a lane's index is the edge-name rank that
        # breaks heapq.merge's (t, position) ties.
        lanes = []
        for name in sorted(fleet.names):
            server = self.topology[name]
            shard = pack_trace(
                fleet.shards[name], chunk_bytes=server.cache.chunk_bytes
            )
            lanes.append(
                (name, server, result.per_server[name], shard)
                + shard.hot_columns()[:7]
            )
            result.user_requested_bytes += shard.total_requested_bytes()
        bounds = rt.boundaries() if rt is not None else []
        cuts = [
            [0] + [bisect_left(lane[4], b) for b in bounds] + [len(lane[4])]
            for lane in lanes
        ]
        kernels_on = _kernels_enabled()
        epochs = 0
        for i in range(len(bounds) + 1):
            spans = [(cut[i], cut[i + 1]) for cut in cuts]
            firsts = [
                lane[4][lo] for lane, (lo, hi) in zip(lanes, spans) if hi > lo
            ]
            if not firsts:
                continue
            epochs += 1
            t_first = min(firsts)
            if rt is not None:
                # A cold restart's wipe lands on its first request at or
                # after recovery, which opens an epoch, as in the object
                # lane.
                for wiped in rt.advance_to(t_first):
                    events.append(EngineEvent(t_first, "cache-wipe", wiped))
            self._replay_epoch(
                lanes, spans, order, result, rt, t_first, kernels_on, ticker
            )
        extra["trace_format"] = "packed-batched"
        if rt is not None:
            extra["epochs"] = epochs

    def _replay_epoch(
        self, lanes, spans, order, result, rt, t_epoch, kernels_on, ticker
    ) -> None:
        """One epoch on the shard-batched lane: edge blocks, then hops.

        Each edge cache sees exactly its own shard (the hop graph check
        proved no hop chain can deliver extra traffic to a traced edge),
        so each edge's slice goes through one call of the cache's block
        entry, whose miss list names the hop-generating responses —
        fills and redirects, typically a small minority.  Each becomes a
        chain for :meth:`_walk_hops`.

        Fault state is constant within the epoch, so ``rt`` is asked
        once per server at ``t_epoch`` (the epoch's first request).  A
        down edge makes no cache call: its whole slice fails over.
        Fills fold into ``rt`` per fill, in order.  In an epoch where
        the origin may drop requests, edge blocks are recorded after
        the walk, with each loss recorded between them in time order.
        """
        hops_map = result.redirect_hops
        origin_name = self.topology.origin_name
        serve = Decision.SERVE
        drops = rt is not None and rt.browned_out(t_epoch)
        buffers: Dict[str, list] = {}
        pend_to = buffers.setdefault
        blocks = {}  # brownout epochs: edge -> its unrecorded block
        for e, (lane, (lo, hi)) in enumerate(zip(lanes, spans)):
            (
                name, server, collector, shard,
                ts, videos, b0s, b1s, c0s, c1s, num_bytes,
            ) = lane
            if hi == lo:
                continue
            n = hi - lo
            result.num_user_requests += n
            target = server.redirect_to
            if target is None or 1 >= self.max_redirects:
                target = origin_name
            # Chains start (t, position, edge rank): heapq.merge's order.
            redirects = pend_to(target, [])
            if rt is not None and rt.is_down(name, t_epoch):
                # Every request fails over along the secondary map,
                # exactly as a redirect would travel.
                stats = rt.availability[name]
                stats.down_requests += n
                stats.failover_hops += n
                redirects.extend(
                    [
                        (ts[j], j, e, videos[j], b0s[j], b1s[j],
                         num_bytes[j], 1, True, True)
                        for j in range(lo, hi)
                    ]
                )
                ticker.tick_batch(result.num_user_requests)
                continue
            view = shard.block_view(lo, hi)
            cache = server.cache
            k = cache.chunk_bytes
            occupancy = len(cache)
            responses, misses = _block_entry(cache, kernels_on)(view)
            if rt is not None:
                _note_fills(
                    rt, name, k, occupancy, view.ts_l, responses, misses
                )
            if drops:
                blocks[e] = (view, responses, misses)
            else:
                _record_block(collector, view, responses, misses)
            fill_from = server.fill_from
            fills = pend_to(fill_from, []) if fill_from is not None else None
            served = n
            for i in misses:
                response = responses[i]
                j = lo + i
                if response.decision is serve:
                    filled = response.filled_chunks
                    if filled and fills is not None:
                        # Chunk-aligned upstream fill, clamped to the
                        # request's own chunk range.
                        c0 = c0s[j]
                        last = min(c0 + filled, c1s[j] + 1)
                        fb1 = last * k - 1
                        fb0 = c0 * k
                        fills.append(
                            (ts[j], j, e, videos[j], fb0, fb1,
                             fb1 - fb0 + 1, 0, False, False)
                        )
                else:
                    served -= 1
                    redirects.append(
                        (ts[j], j, e, videos[j], b0s[j], b1s[j],
                         num_bytes[j], 1, True, False)
                    )
            if served:
                hops_map[0] = hops_map.get(0, 0) + served
            ticker.tick_batch(result.num_user_requests)
        lost = [(lane[0], []) for lane in lanes] if drops else None
        self._walk_hops(buffers, order, result, rt, t_epoch, kernels_on, lost)
        if drops:
            for e, (lane, (lo, _hi), (_name, losses)) in enumerate(
                zip(lanes, spans, lost)
            ):
                block = blocks.get(e)
                if block is not None:
                    losses = [(j - lo, t, nbytes) for j, t, nbytes in losses]
                    _record_block(lane[2], *block, losses)
                else:
                    for _j, t, nbytes in losses:
                        lane[2].record_lost(t, nbytes)

    def _walk_hops(
        self, buffers, order, result, rt, t_epoch, kernels_on, lost
    ) -> None:
        """Level-batched hop walk over the acyclic hop subgraph.

        ``buffers`` maps each server to the chains bound for it:
        ``(t, position, edge, video, b0, b1, nbytes, hop, user,
        failover)``, where ``(t, position, edge)`` identifies the
        originating user request and sorts as the global merged order,
        and ``failover`` marks a chain that skipped a down server.
        Processing servers in topological order guarantees every chain
        reaching a server is buffered before that server runs, and
        replaying each buffer in merged order reproduces the object
        lane's depth-first arrival order exactly (chains are
        independent, each visits a server at most once).  Each whole
        buffer then goes through one call of the server's block entry
        and one record call, instead of one recursive
        :meth:`_handle_span` per hop.  ``lost`` (brownout epochs only)
        holds ``(edge name, losses)`` per edge; a dropped user chain
        still ends with its hop count, and ``(position, t, nbytes)``
        joins its edge's losses.
        """
        topology = self.topology
        hops_map = result.redirect_hops
        origin_name = topology.origin_name
        max_redirects = self.max_redirects
        serve = Decision.SERVE
        pend_to = buffers.setdefault
        for name in order:
            entries = buffers.pop(name, None)
            if not entries:
                continue
            entries.sort()
            server = topology[name]
            if server.is_origin:
                user_count = user_bytes = fill_count = fill_bytes = 0
                for t, j, e, _v, _b0, _b1, nbytes, hop, user, _f in entries:
                    if lost is not None and rt.origin_drops(t):
                        # Brownout shed, in the object lane's arrival
                        # order (each chain reaches the origin once), so
                        # the drop stream is consumed exactly as there.
                        if user:
                            result.requests_lost += 1
                            result.lost_bytes += nbytes
                            hops_map[hop] = hops_map.get(hop, 0) + 1
                            edge, losses = lost[e]
                            stats = rt.availability[edge]
                            stats.lost_requests += 1
                            stats.lost_bytes += nbytes
                            losses.append((j, t, nbytes))
                        else:
                            result.fill_requests_lost += 1
                            result.fill_bytes_lost += nbytes
                    elif user:
                        user_count += 1
                        user_bytes += nbytes
                        hops_map[hop] = hops_map.get(hop, 0) + 1
                    else:
                        fill_count += 1
                        fill_bytes += nbytes
                result.origin_bytes += user_bytes + fill_bytes
                result.origin_requests += user_count
                result.origin_redirect_bytes += user_bytes
                result.origin_fill_requests += fill_count
                result.origin_fill_bytes += fill_bytes
                continue
            if rt is not None and rt.is_down(name, t_epoch):
                # Failover: user chains take the secondary map, fills the
                # next fill hop; the origin backstops both.
                stats = rt.availability[name]
                stats.failover_hops += len(entries)
                fill_target = server.fill_from
                if fill_target is None:
                    fill_target = origin_name
                for t, j, e, video, b0, b1, nbytes, hop, user, _f in entries:
                    if user:
                        stats.down_requests += 1
                        hop += 1
                        target = server.redirect_to
                        if target is None or hop >= max_redirects:
                            target = origin_name
                    else:
                        stats.down_fills += 1
                        target = fill_target
                    pend_to(target, []).append(
                        (t, j, e, video, b0, b1, nbytes, hop, user, True)
                    )
                continue
            cache = server.cache
            k = cache.chunk_bytes
            ts, js, es, videos, b0s, b1s, nbs, hops, users, failovers = (
                list(col) for col in zip(*entries)
            )
            view = request_block(k, ts, videos, b0s, b1s)
            occupancy = len(cache)
            responses, misses = _block_entry(cache, kernels_on)(view)
            _record_block(result.per_server[name], view, responses, misses)
            if rt is not None:
                if any(failovers):
                    # Serving on behalf of a down server, pure hits too.
                    stats = rt.availability[name]
                    for i, failover in enumerate(failovers):
                        if failover and responses[i].decision is serve:
                            stats.backup_requests += 1
                            stats.backup_bytes += nbs[i]
                _note_fills(rt, name, k, occupancy, ts, responses, misses)
            c0s = view.c0s_l
            c1s = view.c1s_l
            if any(users):
                # User chains that pure-hit here end with their current
                # hop count; non-hit serves are accounted below.
                for i, user in enumerate(users):
                    if user and responses[i] is SERVE_HIT:
                        hop = hops[i]
                        hops_map[hop] = hops_map.get(hop, 0) + 1
            fill_from = server.fill_from
            redirect_to = server.redirect_to
            for i in misses:
                response = responses[i]
                if response.decision is serve:
                    if users[i]:
                        hop = hops[i]
                        hops_map[hop] = hops_map.get(hop, 0) + 1
                    filled = response.filled_chunks
                    if filled and fill_from is not None:
                        c0 = c0s[i]
                        last = min(c0 + filled, c1s[i] + 1)
                        fb1 = last * k - 1
                        fb0 = c0 * k
                        pend_to(fill_from, []).append(
                            (ts[i], js[i], es[i], videos[i], fb0, fb1,
                             fb1 - fb0 + 1, 0, False, False)
                        )
                else:
                    hop = hops[i] + 1
                    target = redirect_to
                    if target is None or hop >= max_redirects:
                        target = origin_name
                    pend_to(target, []).append(
                        (ts[i], js[i], es[i], videos[i], b0s[i], b1s[i],
                         nbs[i], hop, users[i], failovers[i])
                    )
        if buffers:
            leftover = sorted(buffers)
            raise RuntimeError(
                f"hop chains reached servers outside the topological "
                f"plan: {leftover}"
            )

    def _hop_order(self, names) -> Tuple[Optional[List[str]], str]:
        """Topological order of the hop subgraph reachable from ``names``.

        Iterative DFS over redirect/fill successors, postorder reversed,
        so every server appears before the targets its responses can
        propagate to — the schedule for the level-batched hop walk.  The
        origin is seeded explicitly because the hop-limit backstop can
        deliver a chain there even when no server links to it.

        Returns ``(order, "")``, or ``(None, reason)`` when the
        shard-batched lane cannot run: a hop chain can reach a traced
        edge, whose cache would then see more than its own shard
        (peered rings), or the reachable subgraph has a cycle.
        """
        topology = self.topology
        traced = set(names)
        roots = {topology.origin_name}
        for name in names:
            roots.update((topology[name].redirect_to, topology[name].fill_from))
        roots.discard(None)
        order: List[str] = []
        done: set = set()
        on_path: set = set()
        for root in sorted(roots):
            # Each stack frame is (node, entered): the first visit marks
            # the node on the current DFS path, the second finalizes it.
            stack = [(root, False)]
            while stack:
                node, entered = stack.pop()
                if entered:
                    on_path.discard(node)
                    done.add(node)
                    order.append(node)
                    continue
                if node in done:
                    continue
                if node in traced:
                    return None, "hop chains can reach a traced edge"
                if node in on_path:
                    return None, "the hop graph has a cycle"
                on_path.add(node)
                stack.append((node, True))
                server = topology[node]
                for succ in (server.redirect_to, server.fill_from):
                    if succ is not None and succ not in done:
                        stack.append((succ, False))
        order.reverse()
        return order, ""

    def _handle_span(
        self,
        server_name: str,
        t: float,
        video: int,
        b0: int,
        b1: int,
        nbytes: int,
        result: CdnSimulationResult,
        hop: int,
        user: bool = True,
        edge: Optional[str] = None,
        failover: bool = False,
    ) -> int:
        """Process one request span at ``server_name``; returns hops.

        The object lane's per-hop recursion — no ``Request`` objects
        anywhere on the serve/redirect/fill path.

        ``user`` distinguishes the user path from the fill path: a
        cache-fill request that climbs to the origin (directly, or after
        being redirected by an intermediate server) is origin *load* but
        not a failure of the redirect tier, so it must not count toward
        ``origin_requests`` / ``origin_redirect_bytes`` — those feed
        ``origin_offload``, which is defined over user traffic only.

        ``edge`` (faulted replays only) is the server the user request
        originally landed on — losses are attributed there.
        ``failover`` marks a request that already skipped a down server;
        whoever serves it counts its bytes as backup traffic.
        """
        rt = self._rt
        server = self.topology[server_name]

        if rt is not None and not server.is_origin and rt.is_down(
            server_name, t
        ):
            # Failover: a down server is skipped along the secondary
            # map (user path) or the next fill hop (fill path), with
            # the origin as the final backstop.
            stats = rt.availability[server_name]
            stats.failover_hops += 1
            if user:
                stats.down_requests += 1
                target = server.redirect_to
                if target is None or hop + 1 >= self.max_redirects:
                    target = self.topology.origin_name
                return self._handle_span(
                    target, t, video, b0, b1, nbytes, result, hop + 1,
                    user=True, edge=edge, failover=True,
                )
            stats.down_fills += 1
            target = server.fill_from
            if target is None:
                target = self.topology.origin_name
            return self._handle_span(
                target, t, video, b0, b1, nbytes, result, hop,
                user=False, edge=edge, failover=True,
            )

        if server.is_origin:
            if rt is not None and rt.origin_drops(t):
                # Brownout shed: the request is served by no one.
                if user:
                    result.requests_lost += 1
                    result.lost_bytes += nbytes
                    if edge is not None:
                        stats = rt.availability[edge]
                        stats.lost_requests += 1
                        stats.lost_bytes += nbytes
                        collector = result.per_server.get(edge)
                        if collector is not None:
                            collector.record_lost(t, nbytes)
                else:
                    result.fill_requests_lost += 1
                    result.fill_bytes_lost += nbytes
                return hop
            result.origin_bytes += nbytes
            if user:
                result.origin_requests += 1
                result.origin_redirect_bytes += nbytes
            else:
                result.origin_fill_requests += 1
                result.origin_fill_bytes += nbytes
            return hop

        cache = server.cache
        k = cache.chunk_bytes
        c0 = b0 // k
        c1 = b1 // k
        response = cache.handle_span(t, video, b0, b1, c0, c1)
        result.per_server[server_name].record_raw(
            t, nbytes, c1 - c0 + 1, response
        )

        if rt is not None:
            if failover and response.decision is Decision.SERVE:
                stats = rt.availability[server_name]
                stats.backup_requests += 1
                stats.backup_bytes += nbytes
            if response.filled_chunks:
                rt.note_fill(
                    server_name, t, response.filled_chunks * k, len(cache)
                )

        if response.decision is Decision.SERVE:
            filled = response.filled_chunks
            if filled:
                target = server.fill_from
                if target is not None:
                    # Chunk-aligned upstream fill, clamped to the
                    # request's own chunk range: a cache can only fill
                    # chunks the request touched.
                    last = min(c0 + filled, c1 + 1)
                    fb1 = last * k - 1
                    fb0 = c0 * k
                    self._handle_span(
                        target, t, video, fb0, fb1, fb1 - fb0 + 1,
                        result, 0, user=False, edge=edge,
                    )
            return hop

        # Redirect: follow the secondary map; origin backstops.
        target = server.redirect_to
        if target is None or hop + 1 >= self.max_redirects:
            target = self.topology.origin_name
        return self._handle_span(
            target, t, video, b0, b1, nbytes, result, hop + 1,
            user=user, edge=edge, failover=failover,
        )


def _note_fills(rt, name, chunk_bytes, occupancy, ts, responses, misses):
    """Fold one block's fills into ``rt``'s degrade and re-warm accounting.

    Fills are noted in block order, as the object lane notes them per
    request.  ``occupancy`` is the cache's size before the block; its
    size after each request is that plus the running sum of ``filled -
    evicted``, which the eviction-accounting invariant
    (:class:`~repro.verify.audit.AuditedCache`) makes exact.
    """
    for i in misses:
        response = responses[i]
        filled = response.filled_chunks
        occupancy += filled - response.evicted_chunks
        if filled:
            rt.note_fill(name, ts[i], filled * chunk_bytes, occupancy)


def _record_block(collector, view, responses, misses, lost=()) -> None:
    """Fold one block's responses into ``collector``.

    ``lost`` lists ``(index, t, nbytes)`` of the block's requests that
    the origin dropped, ascending.  ``record_lost`` refuses a timestamp
    before the live bucket, so such a block is recorded in pieces, each
    ending at a lost request and followed by its loss: the object
    lane's order.
    """
    if view.vectorized:
        cols = (view.ts, view.num_bytes, view.num_chunks)
    else:
        cols = (view.ts_l, view.num_bytes_l, view.num_chunks_l)
    if not lost:
        collector.record_packed_block(*cols, responses, misses)
        return
    lo = first = 0
    for i, t, nbytes in [*lost, (view.n - 1, None, 0)]:
        stop = bisect_left(misses, i + 1, first)
        collector.record_packed_block(
            *(col[lo : i + 1] for col in cols),
            responses[lo : i + 1],
            [m - lo for m in misses[first:stop]],
        )
        if t is not None:
            collector.record_lost(t, nbytes)
        lo, first = i + 1, stop


def _merge_by_time(
    edge_traces: Mapping[str, Iterable[Request]],
) -> Iterable[Tuple[str, Request]]:
    """Merge per-edge traces into one time-ordered stream.

    Time-order validation is folded into the merge walk (one pass, so
    one-shot generator traces work): a disordered trace raises with its
    edge and index the moment the offending request is pulled.  Requests
    merged before that point have already been replayed — the failure is
    fast but not transactional.
    """

    def stream(name: str, trace: Iterable[Request]):
        last_t = float("-inf")
        for i, r in enumerate(trace):
            if r.t < last_t:
                # heapq.merge would silently interleave an unsorted
                # stream and feed caches time-travelling requests.
                raise ValueError(
                    f"trace for edge {name!r} not time-ordered at "
                    f"index {i}: t={r.t} after t={last_t}"
                )
            last_t = r.t
            yield r.t, i, name, r

    streams = [stream(name, trace) for name, trace in edge_traces.items()]
    for _t, _i, name, request in heapq.merge(*streams):
        yield name, request


