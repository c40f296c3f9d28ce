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
  step at a time (any mapping of request iterables, validated on the
  fly during the merge walk);
* the **packed lane** (a :class:`~repro.trace.fleet.FleetTrace`, or a
  mapping of :class:`~repro.trace.columnar.PackedTrace` shards).  When
  no faults are scheduled and no redirect/fill chain can revisit a
  server (any hierarchy qualifies; peered rings do not), each edge's
  whole shard goes through one call of the cache's block entry
  (``handle_span_block_kernel``), and the hops its miss list names are
  walked level by level, one block-entry call per upstream buffer;
  otherwise the precomputed merge plan is walked per request through
  ``handle_span``, preserving fault semantics exactly.

A :class:`~repro.cdn.faults.FaultSchedule` can be injected to model
server outages, cold restarts (cache wipes), degraded ingress links
and origin brownouts; see :mod:`repro.cdn.faults` for the routing and
accounting semantics.  Without a schedule the fault machinery costs a
single ``is None`` check per hop and the replay is byte-identical to a
fault-unaware one.
"""

from __future__ import annotations

import heapq
import time
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
    equivalent — and exactly free.
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
        the caches' block entries unless faults or a hop cycle forbid
        it.  Unsorted traces fail fast during the merge walk with the
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
        if fleet is not None:
            total: Optional[int] = len(fleet)
        else:
            try:
                total = sum(len(trace) for trace in edge_traces.values())
            except TypeError:  # generator/streaming traces have no len()
                total = None
        ticker = ProgressTicker(progress, every=progress_every, total=total)
        mode = "object"
        t0 = time.perf_counter()
        try:
            if fleet is not None:
                mode = self._replay_fleet(fleet, result, rt, events, ticker)
            elif rt is None:
                handle = self._handle_span
                hops_map = result.redirect_hops
                for name, request in _merge_by_time(edge_traces):
                    result.num_user_requests += 1
                    nbytes = request.b1 - request.b0 + 1
                    result.user_requested_bytes += nbytes
                    hops = handle(
                        name, request.t, request.video,
                        request.b0, request.b1, nbytes, result, 0,
                    )
                    hops_map[hops] = hops_map.get(hops, 0) + 1
                    ticker.tick(result.num_user_requests)
            else:
                handle = self._handle_span
                hops_map = result.redirect_hops
                for name, request in _merge_by_time(edge_traces):
                    t = request.t
                    for wiped in rt.advance_to(t):
                        events.append(EngineEvent(t, "cache-wipe", wiped))
                    result.num_user_requests += 1
                    nbytes = request.b1 - request.b0 + 1
                    result.user_requested_bytes += nbytes
                    hops = handle(
                        name, t, request.video,
                        request.b0, request.b1, nbytes, result, 0, edge=name,
                    )
                    hops_map[hops] = hops_map.get(hops, 0) + 1
                    ticker.tick(result.num_user_requests)
        finally:
            self._rt = None
        wall = time.perf_counter() - t0
        timer.add("replay", wall, result.num_user_requests)
        ticker.finish(result.num_user_requests)

        extra: Dict[str, object] = {
            "edges": len(names),
            "servers": len(self.topology.servers),
            "trace_format": mode,
        }
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

    def _replay_fleet(
        self,
        fleet: FleetTrace,
        result: CdnSimulationResult,
        rt: Optional[FaultRuntime],
        events: List[EngineEvent],
        ticker: ProgressTicker,
    ) -> str:
        """Replay a packed fleet; returns the lane name for the report.

        Per edge, the shard is rechunked once to the edge cache's chunk
        size; the precomputed merge plan then drives either the
        shard-batched lane (fault-free and no redirect/fill cycle —
        each whole shard through the cache's block entry) or the
        per-request lane (faults or cyclic wiring — scalar
        ``_handle_span`` walk in exact merged order).
        """
        kernels_on = _kernels_enabled()
        lanes = []
        for name in fleet.names:
            server = self.topology[name]
            cache = server.cache
            shard = pack_trace(fleet.shards[name], chunk_bytes=cache.chunk_bytes)
            ts, videos, b0s, b1s, c0s, c1s, num_bytes, _nc = shard.hot_columns()
            lanes.append(
                (
                    name,
                    server,
                    _block_entry(cache, kernels_on),
                    result.per_server[name],
                    shard,
                    ts, videos, b0s, b1s, c0s, c1s, num_bytes,
                )
            )
        if rt is None and self._hops_avoid_traced_edges(fleet.names):
            self._replay_fleet_batched(
                lanes, fleet.names, result, ticker, kernels_on
            )
            return "packed-batched"
        self._replay_fleet_stepwise(
            lanes, fleet.merge_runs(), result, rt, events, ticker
        )
        return "packed"

    def _replay_fleet_batched(
        self, lanes, names, result, ticker, kernels_on
    ) -> None:
        """Shard-batched packed replay (fault-free; hops avoid edges).

        Each edge cache sees exactly its own shard (the guard proved no
        hop chain can deliver extra traffic to a traced edge), so each
        whole shard goes through one call of the cache's block entry,
        whose miss list names the hop-generating responses — fills and
        redirects, typically a small minority.  Only those are then
        walked in global merged time order, which is what the shared
        upstream caches observe; restricting the merged order to
        hop-generating requests preserves their relative order, so
        results are byte-identical to the object walk.
        """
        hops_map = result.redirect_hops
        name_rank = {name: r for r, name in enumerate(sorted(names))}
        count = 0
        pending = []
        edge_responses = []
        for e, lane in enumerate(lanes):
            name, _server, entry, collector, shard, ts = lane[:6]
            view = shard.block_view(0, len(shard))
            responses, misses = entry(view)
            n_edge = view.n
            count += n_edge
            result.num_user_requests += n_edge
            rank = name_rank[name]
            # (t, position, name-rank) replicates heapq.merge's tie order
            pending.extend([(ts[j], j, rank, e) for j in misses])
            if view.vectorized:
                collector.record_packed_block(
                    view.ts, view.num_bytes, view.num_chunks, responses, misses
                )
                result.user_requested_bytes += int(view.num_bytes.sum())
            else:
                collector.record_packed(
                    view.ts_l, view.num_bytes_l, view.num_chunks_l, responses
                )
                result.user_requested_bytes += sum(view.num_bytes_l)
            hits = n_edge - len(misses)
            if hits:
                hops_map[0] = hops_map.get(0, 0) + hits
            edge_responses.append(responses)
            ticker.tick_batch(count)
        pending.sort()
        order = self._hop_topo_order(names)
        if order is not None:
            self._walk_hops_leveled(
                lanes, pending, edge_responses, order, result, kernels_on
            )
        else:
            self._walk_hops_scalar(lanes, pending, edge_responses, result)

    def _walk_hops_scalar(
        self, lanes, pending, edge_responses, result
    ) -> None:
        """Depth-first hop walk: each chain runs to completion in turn.

        The fully general fallback (redirect rings among untraced
        servers make level batching impossible): every hop-generating
        edge response recurses through :meth:`_handle_span` exactly as
        the object lane would, in global merged order.
        """
        hops_map = result.redirect_hops
        origin_name = self.topology.origin_name
        max_redirects = self.max_redirects
        handle = self._handle_span
        serve = Decision.SERVE
        for t, j, _rank, e in pending:
            (
                _name, server, _entry, _collector, _shard,
                _ts, videos, b0s, b1s, c0s, c1s, num_bytes,
            ) = lanes[e]
            response = edge_responses[e][j]
            if response.decision is serve:
                filled = response.filled_chunks
                fill_from = server.fill_from
                if filled and fill_from is not None:
                    # Chunk-aligned upstream fill, clamped to the
                    # request's own chunk range (see _fill_requests).
                    k = server.cache.chunk_bytes
                    c0 = c0s[j]
                    last = min(c0 + filled, c1s[j] + 1)
                    fb1 = last * k - 1
                    fb0 = c0 * k
                    handle(
                        fill_from, t, videos[j], fb0, fb1,
                        fb1 - fb0 + 1, result, 0, user=False,
                    )
                hops_map[0] = hops_map.get(0, 0) + 1
            else:
                target = server.redirect_to
                if target is None or 1 >= max_redirects:
                    target = origin_name
                hops = handle(
                    target, t, videos[j], b0s[j], b1s[j],
                    num_bytes[j], result, 1,
                )
                hops_map[hops] = hops_map.get(hops, 0) + 1

    def _walk_hops_leveled(
        self, lanes, pending, edge_responses, order, result, kernels_on
    ) -> None:
        """Level-batched hop walk over an acyclic hop subgraph.

        Chains carry the global merged position (``seq``) of their
        originating request.  Processing servers in topological order
        guarantees every chain reaching a server is buffered before
        that server runs, and replaying each buffer in ``seq`` order
        reproduces the object lane's depth-first arrival order exactly
        (chains are independent, each visits a server at most once).
        Each whole buffer then goes through one call of the server's
        block entry and one record call, instead of one recursive
        ``_handle_span`` per hop.
        """
        topology = self.topology
        hops_map = result.redirect_hops
        origin_name = topology.origin_name
        max_redirects = self.max_redirects
        serve = Decision.SERVE
        buffers: Dict[str, list] = {}
        pend_to = buffers.setdefault
        # Seed per edge (lane fields hoisted out of the per-entry path);
        # append order within a buffer is irrelevant because each buffer
        # is sorted by seq before its server runs.
        by_edge: List[list] = [[] for _ in lanes]
        for seq, item in enumerate(pending):
            by_edge[item[3]].append((seq, item[1]))
        for e, picks in enumerate(by_edge):
            if not picks:
                continue
            (
                _name, server, _entry, _collector, _shard,
                ts_col, videos, b0s, b1s, c0s, c1s, num_bytes,
            ) = lanes[e]
            responses = edge_responses[e]
            fill_from = server.fill_from
            k = server.cache.chunk_bytes
            target = server.redirect_to
            if target is None or 1 >= max_redirects:
                target = origin_name
            serve_count = 0
            for seq, j in picks:
                response = responses[j]
                if response.decision is serve:
                    serve_count += 1
                    filled = response.filled_chunks
                    if filled and fill_from is not None:
                        c0 = c0s[j]
                        last = min(c0 + filled, c1s[j] + 1)
                        fb1 = last * k - 1
                        fb0 = c0 * k
                        pend_to(fill_from, []).append(
                            (seq, ts_col[j], videos[j], fb0, fb1,
                             fb1 - fb0 + 1, 0, False)
                        )
                else:
                    pend_to(target, []).append(
                        (seq, ts_col[j], videos[j], b0s[j], b1s[j],
                         num_bytes[j], 1, True)
                    )
            if serve_count:
                hops_map[0] = hops_map.get(0, 0) + serve_count
        for name in order:
            entries = buffers.pop(name, None)
            if not entries:
                continue
            entries.sort()
            server = topology[name]
            if server.is_origin:
                user_count = user_bytes = fill_count = fill_bytes = 0
                for _seq, _t, _video, _b0, _b1, nbytes, hop, user in entries:
                    if user:
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
            cache = server.cache
            k = cache.chunk_bytes
            seqs, ts, videos, b0s, b1s, nbs, hops, users = (
                list(col) for col in zip(*entries)
            )
            view = request_block(k, ts, videos, b0s, b1s)
            responses, misses = _block_entry(cache, kernels_on)(view)
            collector = result.per_server[name]
            if view.vectorized:
                collector.record_packed_block(
                    view.ts, view.num_bytes, view.num_chunks, responses, misses
                )
            else:
                collector.record_packed(ts, nbs, view.num_chunks_l, responses)
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
                            (seqs[i], ts[i], videos[i], fb0, fb1,
                             fb1 - fb0 + 1, 0, False)
                        )
                else:
                    hop = hops[i] + 1
                    target = redirect_to
                    if target is None or hop >= max_redirects:
                        target = origin_name
                    pend_to(target, []).append(
                        (seqs[i], ts[i], videos[i], b0s[i], b1s[i],
                         nbs[i], hop, users[i])
                    )
        if buffers:
            leftover = sorted(buffers)
            raise RuntimeError(
                f"hop chains reached servers outside the topological "
                f"plan: {leftover}"
            )

    def _replay_fleet_stepwise(
        self, lanes, runs, result, rt, events, ticker
    ) -> None:
        """Per-request packed replay: exact merged order, full fault path."""
        handle = self._handle_span
        hops_map = result.redirect_hops
        faulted = rt is not None
        count = 0
        for e, start, stop in zip(*runs):
            (
                name, _server, _entry, _collector, _shard,
                ts, videos, b0s, b1s, _c0s, _c1s, num_bytes,
            ) = lanes[e]
            edge = name if faulted else None
            for i in range(start, stop):
                t = ts[i]
                if faulted:
                    for wiped in rt.advance_to(t):
                        events.append(EngineEvent(t, "cache-wipe", wiped))
                count += 1
                result.num_user_requests += 1
                nbytes = num_bytes[i]
                result.user_requested_bytes += nbytes
                hops = handle(
                    name, t, videos[i], b0s[i], b1s[i], nbytes,
                    result, 0, edge=edge,
                )
                hops_map[hops] = hops_map.get(hops, 0) + 1
                ticker.tick(count)

    def _hops_avoid_traced_edges(self, names) -> bool:
        """True when no hop chain from a traced edge reaches a traced edge.

        The shard-batched packed lane replays each traced edge's shard as
        one block, which is only byte-identical if those caches never see
        traffic beyond their own shard — i.e. no redirect/fill chain
        (including the origin hop-limit backstop) can deliver a request
        to a traced edge.  Hierarchies qualify (hops only climb toward
        the origin); peered redirect rings do not and take the stepwise
        lane.  O(servers): each node has at most two outgoing hops.
        """
        topology = self.topology
        traced = set(names)
        stack: List[str] = []
        for name in traced:
            server = topology[name]
            if server.redirect_to is not None:
                stack.append(server.redirect_to)
            if server.fill_from is not None:
                stack.append(server.fill_from)
        seen: set = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in traced:
                return False
            server = topology[node]
            if server.redirect_to is not None and server.redirect_to not in seen:
                stack.append(server.redirect_to)
            if server.fill_from is not None and server.fill_from not in seen:
                stack.append(server.fill_from)
        return True

    def _hop_topo_order(self, names) -> Optional[List[str]]:
        """Topological order of the hop subgraph reachable from ``names``.

        Iterative DFS over redirect/fill successors, postorder reversed,
        so every server appears before the targets its responses can
        propagate to — the schedule for the level-batched hop walk.  The
        origin is seeded explicitly because the hop-limit backstop can
        deliver a chain there even when no server links to it.  Returns
        None when the reachable subgraph has a cycle (untraced redirect
        rings), in which case chains must run depth-first instead.
        """
        topology = self.topology
        roots = {topology.origin_name}
        for name in names:
            server = topology[name]
            if server.redirect_to is not None:
                roots.add(server.redirect_to)
            if server.fill_from is not None:
                roots.add(server.fill_from)
        order: List[str] = []
        done: set = set()
        on_path: set = set()
        for root in sorted(roots):
            if root in done:
                continue
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
                if node in on_path:
                    return None
                on_path.add(node)
                stack.append((node, True))
                server = topology[node]
                for succ in (server.redirect_to, server.fill_from):
                    if succ is None or succ in done:
                        continue
                    if succ in on_path:
                        return None
                    stack.append((succ, False))
        order.reverse()
        return order

    def _handle(
        self,
        server_name: str,
        request: Request,
        result: CdnSimulationResult,
        hop: int,
        user: bool = True,
        edge: Optional[str] = None,
        failover: bool = False,
    ) -> int:
        """Object-lane compatibility wrapper over :meth:`_handle_span`."""
        return self._handle_span(
            server_name,
            request.t,
            request.video,
            request.b0,
            request.b1,
            request.b1 - request.b0 + 1,
            result,
            hop,
            user=user,
            edge=edge,
            failover=failover,
        )

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

        The scalar hot path shared by every lane — no ``Request``
        objects anywhere on the serve/redirect/fill recursion.

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
                    # request's own chunk range (see _fill_requests).
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


def _fill_requests(request: Request, cache, filled_chunks: int) -> List[Request]:
    """Chunk-aligned upstream requests approximating this fill.

    The cache does not report *which* chunks it filled, only how many;
    the missing ones were, by construction, within the request's chunk
    range.  One aligned request covering ``filled_chunks`` chunks from
    the range start is the right volume and locality for upstream
    accounting (upstream caches operate at chunk granularity anyway).
    """
    if filled_chunks <= 0:
        return []
    k = cache.chunk_bytes
    c0, c1 = request.chunks(k)
    # Clamp to the request's own chunk range: a cache can only have
    # filled chunks the request touched, so a larger report (e.g. from a
    # buggy or wrapped implementation) must not make the upstream fill
    # wider than the request itself.
    last = min(c0 + filled_chunks, c1 + 1)
    b0 = c0 * k
    b1 = last * k - 1
    return [Request(t=request.t, video=request.video, b0=b0, b1=b1)]


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


