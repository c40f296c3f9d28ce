"""Differential replay: fast implementation vs oracle, byte for byte.

Both caches are driven through the same time-ordered trace.  After
every request the harness compares the full observable outcome —
decision, ``filled_chunks``, ``evicted_chunks`` and disk occupancy —
and at the end of the trace the
:class:`~repro.sim.metrics.MetricsCollector` totals of the two lanes
must be identical in every integer counter.  The fast lane runs inside
an :class:`~repro.verify.audit.AuditedCache`, so a replay also proves
the per-request invariants held.

On divergence the failing trace is shrunk by greedy delta-debugging
(drop progressively smaller slices while the divergence reproduces on
fresh caches) and dumped as a replayable artifact: the minimal trace
in the standard JSONL format next to a ``meta.json`` describing the
scenario, loadable with :func:`load_counterexample` and re-runnable
with ``repro-verify --replay``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import VideoCache
from repro.core.policy import kernel_algorithm_names as _policy_kernel_names
from repro.sim.metrics import MetricsCollector
from repro.trace.requests import Request
from repro.trace.io import read_trace_jsonl, write_trace_jsonl
from repro.verify.audit import AuditedCache, Violation
from repro.verify.fuzz import FuzzScenario
from repro.verify.oracles import build_oracle

__all__ = [
    "Divergence",
    "DifferentialResult",
    "diff_replay",
    "shrink_trace",
    "verify_algorithm",
    "verify_kernel_lane",
    "KERNEL_ALGORITHMS",
    "dump_counterexample",
    "load_counterexample",
    "replay_counterexample",
]

#: Online algorithms whose block entry
#: (:meth:`~repro.core.base.VideoCache.handle_span_block_kernel`) the
#: fuzzer matrix checks against the per-request reference walk: every
#: hoisted walk — xLRU, Cafe and every registered policy on
#: KernelCache, PullLRU and GDS among them (screen-less walks run with
#: every request undecided, which is still worth pinning).  ``LFU`` is
#: the ``LFU-PK`` walk under another name, so it is checked once, as
#: ``LFU-PK``.
KERNEL_ALGORITHMS = ("xLRU", "Cafe") + _policy_kernel_names()

#: (decision value, filled_chunks, evicted_chunks, occupancy after)
Outcome = Tuple[str, int, int, int]


def _outcome(cache: VideoCache, response) -> Outcome:
    return (
        response.decision.value,
        response.filled_chunks,
        response.evicted_chunks,
        len(cache),
    )


@dataclass(frozen=True, slots=True)
class Divergence:
    """First point where fast implementation and oracle disagree."""

    index: int
    request: Request
    fast: Optional[Outcome]
    oracle: Optional[Outcome]
    #: which comparison failed: "outcome" (per-request) or "totals:<counter>"
    kind: str = "outcome"

    def __str__(self) -> str:
        return (
            f"divergence at request #{self.index} ({self.kind}): "
            f"fast={self.fast} oracle={self.oracle} on {self.request}"
        )


@dataclass
class DifferentialResult:
    """Outcome of one fast-vs-oracle replay."""

    algorithm: str
    num_requests: int
    divergence: Optional[Divergence] = None
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.violations


def diff_replay(
    fast: VideoCache,
    oracle: VideoCache,
    requests: Sequence[Request],
    interval: float = 3600.0,
    audit: bool = True,
) -> DifferentialResult:
    """Drive ``fast`` and ``oracle`` through ``requests`` in lockstep.

    Stops at the first per-request divergence (the caches' states are
    unreliable past that point); otherwise compares the final metric
    totals counter by counter.  With ``audit=True`` the fast lane is
    wrapped in a non-strict :class:`AuditedCache` and any invariant
    violations are returned alongside.
    """
    algorithm = fast.name
    audited: Optional[AuditedCache] = None
    if audit:
        audited = AuditedCache(fast, strict=False)
        fast = audited

    fast_metrics = MetricsCollector(
        fast.cost_model, chunk_bytes=fast.chunk_bytes, interval=interval
    )
    oracle_metrics = MetricsCollector(
        oracle.cost_model, chunk_bytes=oracle.chunk_bytes, interval=interval
    )

    result = DifferentialResult(algorithm=algorithm, num_requests=len(requests))
    last_t = float("-inf")
    for index, request in enumerate(requests):
        if request.t < last_t:
            raise ValueError(
                f"trace not time-ordered at index {index}: {request.t} < {last_t}"
            )
        last_t = request.t
        fast_response = fast.handle(request)
        oracle_response = oracle.handle(request)
        fast_metrics.record(request, fast_response)
        oracle_metrics.record(request, oracle_response)
        fast_out = _outcome(fast, fast_response)
        oracle_out = _outcome(oracle, oracle_response)
        if fast_out != oracle_out:
            result.divergence = Divergence(index, request, fast_out, oracle_out)
            break
    else:
        totals_fast = fast_metrics.totals()
        totals_oracle = oracle_metrics.totals()
        for counter in (
            "num_requests",
            "num_served",
            "requested_bytes",
            "requested_chunks",
            "egress_bytes",
            "ingress_bytes",
            "redirected_bytes",
            "filled_chunks",
            "redirected_chunks",
        ):
            a, b = getattr(totals_fast, counter), getattr(totals_oracle, counter)
            if a != b:
                result.divergence = Divergence(
                    len(requests) - 1,
                    requests[-1],
                    (counter, a, 0, 0),
                    (counter, b, 0, 0),
                    kind=f"totals:{counter}",
                )
                break

    if audited is not None:
        result.violations = list(audited.violations)
    return result


def shrink_trace(
    requests: Sequence[Request],
    still_fails: Callable[[Sequence[Request]], bool],
    max_probes: int = 2000,
) -> List[Request]:
    """Greedy delta-debugging: drop progressively smaller slices.

    ``still_fails`` must rebuild its caches from scratch per call and
    report whether the candidate trace still reproduces the failure.
    Subsequences of a time-ordered trace stay time-ordered, so every
    candidate is a valid replay.  ``max_probes`` bounds the total
    number of replays (each probe is a full differential run).
    """
    trace = list(requests)
    probes = 0
    chunk = max(1, len(trace) // 2)
    while chunk >= 1:
        index = 0
        while index < len(trace) and probes < max_probes:
            candidate = trace[:index] + trace[index + chunk:]
            probes += 1
            if candidate and still_fails(candidate):
                trace = candidate  # keep the cut, retry at same index
            else:
                index += chunk
        if chunk == 1 or probes >= max_probes:
            break
        chunk //= 2
    return trace


def verify_algorithm(
    algorithm: str,
    scenario: FuzzScenario,
    build_fast: Optional[Callable[..., VideoCache]] = None,
    shrink: bool = True,
    interval: float = 3600.0,
) -> Tuple[DifferentialResult, Optional[List[Request]]]:
    """Differentially verify one algorithm on one fuzz scenario.

    Returns the differential result and, when it failed and ``shrink``
    is set, the minimized counterexample trace.  ``build_fast``
    defaults to the production registry
    (:func:`repro.sim.runner.build_cache`); injecting a different
    factory is how the harness's own tests plant deliberate bugs.
    """
    from repro.sim.runner import build_cache

    if build_fast is None:
        build_fast = build_cache
    kwargs = scenario.cache_kwargs.get(algorithm, {})

    def make_pair() -> Tuple[VideoCache, VideoCache]:
        fast = build_fast(
            algorithm,
            scenario.disk_chunks,
            alpha_f2r=scenario.alpha_f2r,
            chunk_bytes=scenario.chunk_bytes,
            **kwargs,
        )
        oracle = build_oracle(
            algorithm,
            scenario.disk_chunks,
            alpha_f2r=scenario.alpha_f2r,
            chunk_bytes=scenario.chunk_bytes,
            **kwargs,
        )
        return fast, oracle

    trace = scenario.trace()
    fast, oracle = make_pair()
    result = diff_replay(fast, oracle, trace, interval=interval)
    if result.ok or not shrink:
        return result, None

    def still_fails(candidate: Sequence[Request]) -> bool:
        f, o = make_pair()
        r = diff_replay(f, o, candidate, interval=interval)
        return not r.ok

    minimal = shrink_trace(trace, still_fails)
    # Re-derive the divergence report on the minimal trace so the
    # artifact describes exactly what it contains.
    f, o = make_pair()
    result = diff_replay(f, o, minimal, interval=interval)
    result.num_requests = len(minimal)
    return result, minimal


#: Metric totals compared counter-by-counter between replay lanes.
_TOTALS_COUNTERS = (
    "num_requests",
    "num_served",
    "requested_bytes",
    "requested_chunks",
    "egress_bytes",
    "ingress_bytes",
    "redirected_bytes",
    "filled_chunks",
    "redirected_chunks",
)


def verify_kernel_lane(
    algorithm: str,
    scenario: FuzzScenario,
    block_size: int = 128,
    interval: float = 3600.0,
    build_fast: Optional[Callable[..., VideoCache]] = None,
) -> DifferentialResult:
    """Verify a cache's block entry against the per-request reference.

    Twin caches replay one fuzz scenario block by block: the reference
    cache through :meth:`~repro.core.base.VideoCache.handle_span_block`
    (``handle_span`` per request) feeding ``record_packed``, the other
    through its
    :meth:`~repro.core.base.VideoCache.handle_span_block_kernel`
    feeding ``record_packed_block`` — what the engine's packed lane
    dispatches.  Compared per block: every response (decision and both
    chunk counts), the entry's miss index list, disk occupancy, and at
    the end the metric totals counter by counter.  On the
    ``REPRO_NO_NUMPY`` lane the hoisted walks run without their
    screens and the check still compares them with the reference.
    """
    from repro.sim.runner import build_cache
    from repro.trace.columnar import pack_trace

    if build_fast is None:
        build_fast = build_cache
    kwargs = scenario.cache_kwargs.get(algorithm, {})

    def make() -> VideoCache:
        return build_fast(
            algorithm,
            scenario.disk_chunks,
            alpha_f2r=scenario.alpha_f2r,
            chunk_bytes=scenario.chunk_bytes,
            **kwargs,
        )

    trace = scenario.trace()
    packed = pack_trace(trace, chunk_bytes=scenario.chunk_bytes)
    scalar = make()
    kernel = make()
    scalar_metrics = MetricsCollector(
        scalar.cost_model, chunk_bytes=scalar.chunk_bytes, interval=interval
    )
    kernel_metrics = MetricsCollector(
        kernel.cost_model, chunk_bytes=kernel.chunk_bytes, interval=interval
    )
    result = DifferentialResult(
        algorithm=f"{algorithm}/kernel", num_requests=len(trace)
    )

    from repro.core.base import SERVE_HIT

    n = len(packed)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        view = packed.block_view(start, stop)
        nbytes = view.num_bytes_l
        nchunks = view.num_chunks_l
        expected = scalar.handle_span_block(
            view.ts_l, view.videos_l, view.b0s_l, view.b1s_l, view.c0s_l, view.c1s_l
        )
        got, misses = kernel.handle_span_block_kernel(view)
        scalar_metrics.record_packed(view.ts_l, nbytes, nchunks, expected)
        if view.vectorized:
            kernel_metrics.record_packed_block(
                view.ts, view.num_bytes, view.num_chunks, got, misses
            )
        else:
            kernel_metrics.record_packed(view.ts_l, nbytes, nchunks, got)
        for offset, (a, b) in enumerate(zip(expected, got)):
            if (
                a.decision is not b.decision
                or a.filled_chunks != b.filled_chunks
                or a.evicted_chunks != b.evicted_chunks
            ):
                index = start + offset
                result.divergence = Divergence(
                    index,
                    trace[index],
                    (b.decision.value, b.filled_chunks, b.evicted_chunks, len(kernel)),
                    (a.decision.value, a.filled_chunks, a.evicted_chunks, len(scalar)),
                    kind="kernel-response",
                )
                return result
        expected_misses = [i for i, r in enumerate(got) if r is not SERVE_HIT]
        if misses != expected_misses:
            result.divergence = Divergence(
                start,
                trace[start],
                ("misses", len(misses), 0, 0),
                ("misses", len(expected_misses), 0, 0),
                kind="kernel-misses",
            )
            return result
        if len(scalar) != len(kernel):
            result.divergence = Divergence(
                stop - 1,
                trace[stop - 1],
                ("occupancy", len(kernel), 0, 0),
                ("occupancy", len(scalar), 0, 0),
                kind="kernel-occupancy",
            )
            return result
    totals_scalar = scalar_metrics.totals()
    totals_kernel = kernel_metrics.totals()
    for counter in _TOTALS_COUNTERS:
        a, b = getattr(totals_scalar, counter), getattr(totals_kernel, counter)
        if a != b:
            result.divergence = Divergence(
                n - 1,
                trace[-1],
                (counter, b, 0, 0),
                (counter, a, 0, 0),
                kind=f"kernel-totals:{counter}",
            )
            break
    return result


def dump_counterexample(
    directory: str,
    algorithm: str,
    scenario: FuzzScenario,
    result: DifferentialResult,
    trace: Sequence[Request],
) -> str:
    """Write a replayable counterexample artifact; returns its path.

    Layout: ``<directory>/<algorithm>_<scenario-label>/trace.jsonl``
    plus ``meta.json`` holding the cache knobs and the divergence.
    """
    label = scenario.label.replace("/", "_").replace("=", "-")
    path = os.path.join(directory, f"{algorithm.replace('/', '_')}_{label}")
    os.makedirs(path, exist_ok=True)
    write_trace_jsonl(os.path.join(path, "trace.jsonl"), trace)
    meta = {
        "algorithm": algorithm,
        "disk_chunks": scenario.disk_chunks,
        "chunk_bytes": scenario.chunk_bytes,
        "alpha_f2r": scenario.alpha_f2r,
        "cache_kwargs": scenario.cache_kwargs.get(algorithm, {}),
        "seed": scenario.seed,
        "num_requests": len(trace),
        "divergence": str(result.divergence) if result.divergence else None,
        "violations": [str(v) for v in result.violations],
    }
    with open(os.path.join(path, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    return path


def load_counterexample(path: str) -> Tuple[Dict, List[Request]]:
    """Load a dumped counterexample: ``(meta, trace)``."""
    with open(os.path.join(path, "meta.json")) as fh:
        meta = json.load(fh)
    trace = list(read_trace_jsonl(os.path.join(path, "trace.jsonl")))
    return meta, trace


def replay_counterexample(path: str, interval: float = 3600.0) -> DifferentialResult:
    """Re-run a dumped counterexample against the current sources."""
    from repro.sim.runner import build_cache

    meta, trace = load_counterexample(path)
    kwargs = meta.get("cache_kwargs", {})
    fast = build_cache(
        meta["algorithm"],
        meta["disk_chunks"],
        alpha_f2r=meta["alpha_f2r"],
        chunk_bytes=meta["chunk_bytes"],
        **kwargs,
    )
    oracle = build_oracle(
        meta["algorithm"],
        meta["disk_chunks"],
        alpha_f2r=meta["alpha_f2r"],
        chunk_bytes=meta["chunk_bytes"],
        **kwargs,
    )
    return diff_replay(fast, oracle, trace, interval=interval)
