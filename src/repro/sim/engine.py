"""The replay engine: drive caches with a trace, collect metrics.

This is the experimental loop of Section 9: "We replay the logs of each
server to the different algorithms and measure the resultant ingress
traffic, redirection ratio and the overall cache efficiency."

Two entry points share one streaming core:

* :func:`replay` — one cache, one pass (the original API);
* :class:`MultiReplay` — N caches, **one** pass: every request is
  handled by every cache, each with its own
  :class:`~repro.sim.metrics.MetricsCollector`.  A sweep of online
  configurations costs O(trace) iteration instead of
  O(configs x trace), and request-derived values (bytes, chunk count,
  time-order checks) are computed once and shared across the lanes.

Offline caches need the materialized sequence for ``prepare``; a
generator trace is spilled to a list once (and only then).  Online-only
broadcasts stream straight through.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from types import MethodType
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional, Sequence

from repro.core.base import VideoCache
from repro.sim.instrumentation import ProgressCallback, RunReport, StageTiming
from repro.sim.metrics import MetricsCollector, TrafficSummary
from repro.trace.columnar import PackedTrace, pack_trace
from repro.trace.requests import Request

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime dep
    from repro.obs.telemetry import LaneTelemetry, Telemetry

__all__ = ["SimulationResult", "replay", "MultiReplay", "AUTO_PACK_MIN_REQUESTS"]

#: Materialized traces at least this long are packed automatically when
#: every lane supports the packed path; shorter traces are not worth the
#: packing pass.  Module-level (read at call time) so tests and callers
#: can tune it.
AUTO_PACK_MIN_REQUESTS = 2048

#: Requests per packed block: small enough to keep the column slices in
#: cache and progress callbacks frequent, large enough to amortize the
#: per-block dispatch.
PACKED_BLOCK = 16384


def _span_native(cache: VideoCache) -> bool:
    """Whether ``cache`` implements its own batched ``handle_span``.

    Caches on the default (Request-materializing) ``handle_span`` gain
    nothing from auto-packing — and wrappers/offline caches that only
    override ``handle`` must keep receiving Request objects there.
    Duck-typed caches outside the VideoCache hierarchy (e.g. the CDN
    layer's sharded server) count as non-native and use the object path.
    """
    return (
        getattr(type(cache), "handle_span", None) is not VideoCache.handle_span
        and getattr(cache, "handle_span", None) is not None
    )


#: Environment knob sending every block lane through the per-request
#: reference (:meth:`VideoCache.handle_span_block_kernel` on the base
#: class: ``handle_span`` per request plus the miss list) instead of
#: each cache's hoisted, screened walk.  CI's kernels-off axis and the
#: benchmark's reference gate use it to check the walks against
#: independent code; the knob is read per run so tests can flip it.
NO_KERNELS_ENV = "REPRO_NO_KERNELS"


def _kernels_enabled() -> bool:
    return os.environ.get(NO_KERNELS_ENV, "").strip() in ("", "0")


def _kernel_native(cache: VideoCache) -> bool:
    """Whether ``cache`` overrides the block entry with its own walk.

    The lanes do not consult this: they call every cache's block entry,
    overridden or not.  It stays for code that tells a cache's own
    walk from the per-request reference — the benchmark harness under
    ``perfbench/`` and the policy tests import it.
    """
    return (
        getattr(type(cache), "handle_span_block_kernel", None)
        is not VideoCache.handle_span_block_kernel
    )


def _block_entry(cache: VideoCache, kernels_on: bool) -> Callable:
    """The block entry a lane calls once per block for ``cache``.

    The cache's own ``handle_span_block_kernel``, or with kernels off
    the base-class per-request reference, bound to ``cache``.
    """
    if kernels_on:
        return cache.handle_span_block_kernel
    return MethodType(VideoCache.handle_span_block_kernel, cache)


def _block_collector_ok(collector: MetricsCollector) -> bool:
    """Whether whole-block accounting preserves ``collector`` semantics.

    ``record_packed_block``'s vectorized path bypasses ``record_packed``
    /``record_raw``; a subclass overriding any record entry point
    without also owning ``record_packed_block`` must keep the
    per-request path.
    """
    cls = type(collector)
    if cls.record_packed_block is not MetricsCollector.record_packed_block:
        return True
    return (
        cls.record_packed is MetricsCollector.record_packed
        and cls.record_raw is MetricsCollector.record_raw
        and cls.record is MetricsCollector.record
    )


def _packed_collector_ok(collector: MetricsCollector) -> bool:
    """Whether the packed lane preserves ``collector``'s semantics.

    A subclass that overrides ``record``/``record_raw`` without
    overriding ``record_packed`` would be silently bypassed by the
    batched entry point; fall back to the object path for those.
    """
    cls = type(collector)
    if cls.record_packed is not MetricsCollector.record_packed:
        return True
    return (
        cls.record_raw is MetricsCollector.record_raw
        and cls.record is MetricsCollector.record
    )


@dataclass
class SimulationResult:
    """Outcome of replaying one trace against one cache."""

    cache: VideoCache
    metrics: MetricsCollector
    num_requests: int
    #: Observability record of the pass that produced this result.  In a
    #: broadcast run the report (and its wall time) is shared by every
    #: cache of the pass — ``report.num_caches`` says how many.
    report: Optional[RunReport] = None
    #: Per-lane telemetry (snapshots, probe counters/histograms) when
    #: the replay ran with a :class:`~repro.obs.telemetry.Telemetry`
    #: attached; None otherwise.  Riding on the result is what lets
    #: sweep workers ship lane telemetry back to the parent.
    telemetry: "Optional[LaneTelemetry]" = None

    @property
    def totals(self) -> TrafficSummary:
        """Whole-trace traffic summary."""
        return self.metrics.totals()

    @property
    def steady(self) -> TrafficSummary:
        """Second-half-of-trace summary, the paper's headline number."""
        return self.metrics.steady_state()

    def describe(self) -> str:
        """One-line summary of the steady-state metrics."""
        s = self.steady
        return (
            f"{self.cache.describe()}: eff={s.efficiency:.3f} "
            f"redirect={s.redirect_ratio:.3f} ingress={s.ingress_fraction:.3f} "
            f"({self.num_requests} requests)"
        )


class MultiReplay:
    """Drive N caches through a single pass of a request stream.

    ``caches`` maps result keys to caches; the keys are preserved in the
    returned mapping, in insertion order.  Broadcast replay is exactly
    equivalent to replaying each cache separately — caches never
    interact — but the trace is iterated (and validated, and reduced to
    per-request byte/chunk counts) once instead of N times.
    """

    def __init__(
        self,
        caches: Mapping[str, VideoCache],
        interval: float = 3600.0,
        collectors: Optional[Mapping[str, MetricsCollector]] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        if not caches:
            raise ValueError("MultiReplay needs at least one cache")
        self.caches: Dict[str, VideoCache] = dict(caches)
        self.interval = interval
        self.collectors: Dict[str, MetricsCollector] = {}
        for key, cache in self.caches.items():
            if collectors is not None and key in collectors:
                self.collectors[key] = collectors[key]
            else:
                self.collectors[key] = MetricsCollector(
                    cache.cost_model, chunk_bytes=cache.chunk_bytes, interval=interval
                )
        #: Run-level telemetry; when set, each cache gets a lane (with
        #: a probe attached, if enabled) and the replay samples periodic
        #: snapshots.  When None — the default — the hot paths are the
        #: exact pre-telemetry code: no lanes, no sampling, no probes.
        self.telemetry = telemetry
        self._tel_lanes: "Optional[Dict[str, LaneTelemetry]]" = None
        if telemetry is not None:
            self._tel_lanes = {
                key: telemetry.lane(key, cache)
                for key, cache in self.caches.items()
            }

    def run(
        self,
        requests: Iterable[Request],
        on_request: Optional[Callable[[int, Request], None]] = None,
        progress: Optional[ProgressCallback] = None,
        progress_every: int = 8192,
    ) -> Dict[str, SimulationResult]:
        """Replay ``requests`` (time-ordered) through every cache.

        ``on_request(i, request)`` is called once per request (not per
        cache), before the lanes handle it.  ``progress(done, total,
        elapsed)`` fires every ``progress_every`` requests.

        A :class:`~repro.trace.columnar.PackedTrace` input always takes
        the packed fast lane; a plain materialized trace of at least
        ``AUTO_PACK_MIN_REQUESTS`` requests is packed automatically when
        every cache is span-native and no ``on_request`` hook or
        record-overriding collector needs per-request objects.
        Generator traces (and everything else) stream through the
        object path unchanged.
        """
        t_start = time.perf_counter()
        keys = list(self.caches)
        sequence: Sequence[Request] | Iterable[Request] = requests

        prepare_seconds = 0.0
        offline = [c for c in self.caches.values() if c.offline]
        if offline:
            # Spill-to-list tee: offline caches need the whole future.
            if not isinstance(sequence, Sequence):
                sequence = list(sequence)
            t0 = time.perf_counter()
            for cache in offline:
                cache.prepare(sequence)
            prepare_seconds = time.perf_counter() - t0

        packed_ok = (
            on_request is None
            and all(_packed_collector_ok(self.collectors[key]) for key in keys)
            and all(
                hasattr(cache, "handle_span") for cache in self.caches.values()
            )
        )
        packed: Optional[PackedTrace] = (
            sequence if isinstance(sequence, PackedTrace) and packed_ok else None
        )
        pack_seconds = 0.0
        if (
            packed is None
            and packed_ok
            and isinstance(sequence, Sequence)
            and len(sequence) >= AUTO_PACK_MIN_REQUESTS
            and all(_span_native(cache) for cache in self.caches.values())
        ):
            t0 = time.perf_counter()
            packed = pack_trace(
                sequence, chunk_bytes=self.caches[keys[0]].chunk_bytes
            )
            pack_seconds = time.perf_counter() - t0

        total = len(sequence) if isinstance(sequence, Sequence) else None

        if packed is not None:
            count, replay_seconds = self._run_packed(packed, keys, progress)
            self._finish_lanes(count)
            report = RunReport(
                engine="multireplay",
                mode="broadcast",
                wall_seconds=time.perf_counter() - t_start,
                num_requests=count,
                num_caches=len(keys),
            )
            report.extra["trace_format"] = "packed"
            if prepare_seconds:
                report.stages.append(
                    StageTiming("prepare", prepare_seconds, len(offline))
                )
            if pack_seconds:
                report.stages.append(StageTiming("pack", pack_seconds, count))
            report.stages.append(StageTiming("replay", replay_seconds, count))
            tel = self._tel_lanes
            return {
                key: SimulationResult(
                    cache=self.caches[key],
                    metrics=self.collectors[key],
                    num_requests=count,
                    report=report,
                    telemetry=tel[key] if tel is not None else None,
                )
                for key in keys
            }

        # Hot loop: prebound (handle, record) lanes, request-derived
        # values computed once per request.  Lanes are grouped by chunk
        # size so the chunk count is shared whenever possible.
        lanes = [
            (self.caches[key].handle, self.collectors[key].record_raw)
            for key in keys
        ]
        # The collector's chunk size governs the byte accounting (it may
        # legitimately differ from the cache's — e.g. external metrics).
        chunk_sizes = [self.collectors[key].chunk_bytes for key in keys]
        uniform_k = chunk_sizes[0] if len(set(chunk_sizes)) == 1 else None

        # Telemetry sampling cadence: 0 (one falsy check per request)
        # when telemetry is disabled or sampling is turned off.
        snap_every = 0
        if self._tel_lanes is not None and self.telemetry is not None:
            snap_every = self.telemetry.options.snapshot_every

        count = 0
        last_t = float("-inf")
        t_replay0 = time.perf_counter()
        if uniform_k is not None:
            k = uniform_k
            for request in sequence:
                t = request.t
                if t < last_t:
                    raise ValueError(
                        f"trace not time-ordered at index {count}: {t} < {last_t}"
                    )
                last_t = t
                if on_request is not None:
                    on_request(count, request)
                # Inline num_bytes / num_chunks (see Request): this pair
                # of expressions runs once per request for all N lanes.
                nbytes = request.b1 - request.b0 + 1
                nchunks = request.b1 // k - request.b0 // k + 1
                for handle, record in lanes:
                    record(t, nbytes, nchunks, handle(request))
                count += 1
                if snap_every and count % snap_every == 0:
                    self._sample_lanes(t, count)
                if progress is not None and count % progress_every == 0:
                    progress(count, total, time.perf_counter() - t_replay0)
        else:
            per_lane_k = list(zip(lanes, chunk_sizes))
            for request in sequence:
                t = request.t
                if t < last_t:
                    raise ValueError(
                        f"trace not time-ordered at index {count}: {t} < {last_t}"
                    )
                last_t = t
                if on_request is not None:
                    on_request(count, request)
                nbytes = request.b1 - request.b0 + 1
                for (handle, record), k in per_lane_k:
                    nchunks = request.b1 // k - request.b0 // k + 1
                    record(t, nbytes, nchunks, handle(request))
                count += 1
                if snap_every and count % snap_every == 0:
                    self._sample_lanes(t, count)
                if progress is not None and count % progress_every == 0:
                    progress(count, total, time.perf_counter() - t_replay0)
        replay_seconds = time.perf_counter() - t_replay0
        if progress is not None:
            progress(count, total, replay_seconds)
        self._finish_lanes(count)

        report = RunReport(
            engine="multireplay",
            mode="broadcast",
            wall_seconds=time.perf_counter() - t_start,
            num_requests=count,
            num_caches=len(keys),
        )
        report.extra["trace_format"] = "objects"
        if prepare_seconds:
            report.stages.append(
                StageTiming("prepare", prepare_seconds, len(offline))
            )
        report.stages.append(StageTiming("replay", replay_seconds, count))

        tel = self._tel_lanes
        return {
            key: SimulationResult(
                cache=self.caches[key],
                metrics=self.collectors[key],
                num_requests=count,
                report=report,
                telemetry=tel[key] if tel is not None else None,
            )
            for key in keys
        }

    # -- telemetry hooks ----------------------------------------------------

    def _sample_lanes(self, t: float, done: int) -> None:
        """Record one occupancy/gauge snapshot per telemetry lane."""
        lanes = self._tel_lanes
        if lanes is None:
            return
        for key, lane in lanes.items():
            lane.sample(t, self.caches[key], done)

    def _finish_lanes(self, count: int) -> None:
        """Seal every telemetry lane with final gauges and summaries."""
        lanes = self._tel_lanes
        if lanes is None:
            return
        for key, lane in lanes.items():
            collector = self.collectors[key]
            lane.finish(
                self.caches[key],
                collector.totals().to_dict(),
                collector.steady_state().to_dict(),
                count,
            )

    def _run_packed(
        self,
        packed: PackedTrace,
        keys: list,
        progress: Optional[ProgressCallback],
    ) -> "tuple[int, float]":
        """The packed fast lane: block-at-a-time, cache-major dispatch.

        Caches are independent, so handling a whole block through one
        cache before the next is exactly equivalent to the per-request
        interleaving of the object path.  Each lane makes one call per
        block into its cache's block entry
        (:meth:`~repro.core.base.VideoCache.handle_span_block_kernel`)
        and records the responses with the miss list it returns.  Time
        order and byte ranges were validated at pack time, so no
        per-request checks run here.
        """
        n = len(packed)
        pk = packed.chunk_bytes
        kernels_on = _kernels_enabled()

        # A lane's decision view follows its cache's chunk size and its
        # accounting view its collector's (they may legitimately differ
        # from the packed trace's): one rechunked trace per extra size.
        traces = {pk: packed}
        lanes = []
        for key in keys:
            cache = self.caches[key]
            collector = self.collectors[key]
            ck = cache.chunk_bytes
            mk = collector.chunk_bytes
            for k in (ck, mk):
                if k not in traces:
                    traces[k] = pack_trace(packed, chunk_bytes=k)
            record_block = (
                collector.record_packed_block
                if _block_collector_ok(collector)
                else None
            )
            lanes.append(
                (
                    _block_entry(cache, kernels_on),
                    record_block,
                    collector.record_packed,
                    ck,
                    mk,
                )
            )

        # Telemetry snapshots land on block boundaries: the packed lane
        # never pays a per-request check, and a disabled run (the
        # default) pays one falsy test per 16k-request block.
        snap_every = 0
        if self._tel_lanes is not None and self.telemetry is not None:
            snap_every = self.telemetry.options.snapshot_every
        last_snap = 0

        t0 = time.perf_counter()
        block = PACKED_BLOCK
        for start in range(0, n, block):
            stop = min(start + block, n)
            views = {k: trace.block_view(start, stop) for k, trace in traces.items()}
            for entry, record_block, record_packed, ck, mk in lanes:
                responses, misses = entry(views[ck])
                acct = views[mk]
                if record_block is not None and acct.vectorized:
                    record_block(
                        acct.ts, acct.num_bytes, acct.num_chunks, responses, misses
                    )
                else:
                    record_packed(
                        acct.ts_l, acct.num_bytes_l, acct.num_chunks_l, responses
                    )
            if snap_every and stop - last_snap >= snap_every:
                self._sample_lanes(views[pk].ts_l[-1], stop)
                last_snap = stop
            if progress is not None:
                progress(stop, n, time.perf_counter() - t0)
        replay_seconds = time.perf_counter() - t0
        if n == 0 and progress is not None:
            progress(0, 0, replay_seconds)
        return n, replay_seconds


def replay(
    cache: VideoCache,
    requests: Iterable[Request],
    interval: float = 3600.0,
    metrics: Optional[MetricsCollector] = None,
    on_request: Optional[Callable[[int, Request], None]] = None,
    progress: Optional[ProgressCallback] = None,
    telemetry: "Optional[Telemetry]" = None,
    label: Optional[str] = None,
) -> SimulationResult:
    """Replay ``requests`` (time-ordered) through ``cache``.

    Offline caches (``cache.offline``) receive the materialized sequence
    via ``prepare`` first, so passing a generator is fine — it is
    drained once either way.  ``on_request(i, request)`` is an optional
    progress hook called before each request; ``progress`` receives
    periodic ``(done, total, elapsed)`` callbacks.  The result carries a
    :class:`~repro.sim.instrumentation.RunReport`.

    With ``telemetry`` set, the single lane is registered under
    ``label`` (default: the cache's algorithm name) and the result's
    ``telemetry`` field holds its :class:`~repro.obs.telemetry.LaneTelemetry`.
    """
    key = label if label is not None else cache.name
    engine = MultiReplay(
        {key: cache},
        interval=interval,
        collectors={key: metrics} if metrics is not None else None,
        telemetry=telemetry,
    )
    result = engine.run(requests, on_request=on_request, progress=progress)[key]
    assert result.report is not None
    result.report.engine = "replay"
    result.report.mode = "serial"
    return result
